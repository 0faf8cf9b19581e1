/**
 * @file
 * Bounding volume hierarchy: the acceleration structure ray-tracing
 * hardware traverses (Section II-A of the paper).
 *
 * Built with a binned surface-area heuristic. The flat node array also
 * defines the simulated memory layout: node i lives at
 * AddressMap::bvhNodeAddress(i), so BVH traversal in the timed simulator
 * issues one memory fetch per visited node exactly like Vulkan-Sim's
 * RT unit.
 */

#ifndef ZATEL_RT_BVH_HH
#define ZATEL_RT_BVH_HH

#include <cstdint>
#include <vector>

#include "rt/aabb.hh"
#include "rt/triangle.hh"

namespace zatel::rt
{

/**
 * One BVH node.
 *
 * The node array is laid out depth-first, so an internal node's left child
 * is always the next node (index + 1) and rightChild stores the index of
 * the right child explicitly.
 * Leaf nodes: primCount > 0 and firstPrim indexes into primIndices().
 * An empty BVH is a single leaf with primCount == 0.
 */
struct BvhNode
{
    Aabb bounds;
    /** Internal: right-child index. Leaf: first reordered primitive slot. */
    uint32_t rightOrFirstPrim = 0;
    uint32_t primCount = 0;

    bool isLeaf() const { return primCount > 0; }
    uint32_t rightChild() const { return rightOrFirstPrim; }
    uint32_t firstPrim() const { return rightOrFirstPrim; }

    static uint32_t leftChildOf(uint32_t node_index) { return node_index + 1; }
};

/** Build-time statistics (exposed for tests and the micro bench). */
struct BvhBuildStats
{
    uint32_t nodeCount = 0;
    uint32_t leafCount = 0;
    uint32_t maxDepth = 0;
    uint32_t maxLeafSize = 0;
};

/**
 * Flat-array BVH over a triangle list.
 *
 * The triangle storage is shared with (not owned by) the Bvh; callers keep
 * the triangle vector alive for the Bvh's lifetime (the Scene does).
 */
/** Builder tuning knobs. */
struct BvhBuildParams
{
    uint32_t maxLeafSize = 4;
    uint32_t sahBins = 12;
    float traversalCost = 1.0f;
    float intersectionCost = 1.5f;
};

class Bvh
{
  public:
    /** Backwards-friendly alias; the params type lives at namespace scope. */
    using BuildParams = BvhBuildParams;

    Bvh() = default;

    /**
     * Build over @p triangles (kept by reference).
     * An empty triangle list produces a single empty leaf.
     */
    void build(const std::vector<Triangle> &triangles,
               const BuildParams &params = BvhBuildParams());

    bool valid() const { return !nodes_.empty(); }
    const std::vector<BvhNode> &nodes() const { return nodes_; }
    const BvhNode &node(uint32_t index) const { return nodes_[index]; }
    uint32_t nodeCount() const { return static_cast<uint32_t>(nodes_.size()); }

    /** Reordered triangle indices referenced by leaf nodes. */
    const std::vector<uint32_t> &primIndices() const { return primIndices_; }

    /** Triangle for reordered slot @p prim_slot of a leaf. */
    const Triangle &
    primitive(uint32_t prim_slot) const
    {
        return (*triangles_)[primIndices_[prim_slot]];
    }

    /** Original triangle index for reordered slot @p prim_slot. */
    uint32_t
    primitiveIndex(uint32_t prim_slot) const
    {
        return primIndices_[prim_slot];
    }

    const BvhBuildStats &buildStats() const { return stats_; }

    /**
     * Node a traversal visits after @p node_index when it does not
     * descend into it (a bounds miss or a leaf): the right sibling of
     * the nearest ancestor-or-self that is a left child, or kNoNode.
     * This is the node TraversalStepper pops next, so a recorded
     * traversal replays from the bounds-hit bits alone (VisitCursor).
     */
    uint32_t escape(uint32_t node_index) const { return escapes_[node_index]; }

    static constexpr uint32_t kRootIndex = 0;
    /** escape() of the nodes whose subtree ends the traversal. */
    static constexpr uint32_t kNoNode = UINT32_MAX;

  private:
    struct BuildEntry;

    uint32_t buildRecursive(std::vector<uint32_t> &prims, uint32_t begin,
                            uint32_t end, uint32_t depth,
                            const std::vector<Aabb> &prim_bounds,
                            const std::vector<Vec3> &centroids,
                            const BuildParams &params);

    const std::vector<Triangle> *triangles_ = nullptr;
    std::vector<BvhNode> nodes_;
    std::vector<uint32_t> escapes_;
    std::vector<uint32_t> primIndices_;
    BvhBuildStats stats_;
};

} // namespace zatel::rt

#endif // ZATEL_RT_BVH_HH
