/**
 * @file
 * Stack-based BVH traversal.
 *
 * TraversalStepper exposes traversal one node-visit at a time so the timed
 * RT unit (src/gpusim/rt_unit.*) can charge a memory fetch per visited node
 * exactly where the functional tracer visits it. The convenience functions
 * closestHit()/anyHit() run the stepper to completion for functional use;
 * because both paths share the stepper, the timed and functional simulators
 * agree on the work per ray by construction.
 */

#ifndef ZATEL_RT_TRAVERSAL_HH
#define ZATEL_RT_TRAVERSAL_HH

#include <cstdint>

#include "rt/bvh.hh"
#include "rt/ray.hh"

namespace zatel::rt
{

/** Closest-hit (radiance) vs any-hit (shadow/occlusion) query. */
enum class TraversalMode : uint8_t
{
    ClosestHit,
    AnyHit,
};

/** What one step() call did; consumed by the timed RT unit. */
struct StepInfo
{
    /** Node index that was just visited (fetched + tested). */
    uint32_t nodeIndex = 0;
    /** True when the node was a leaf. */
    bool wasLeaf = false;
    /** True when the ray hit the node's bounds. */
    bool boundsHit = false;
    /** Triangles tested inside the leaf (0 for internal nodes). */
    uint32_t triangleTests = 0;
    /** First reordered primitive slot of the leaf (for memory modeling). */
    uint32_t firstPrimSlot = 0;
};

/**
 * Incremental BVH traversal for a single ray.
 *
 * Usage: init(), then while (!finished()) { addr = pendingNode();
 * <charge a fetch of addr>; step(); }. hit() is valid once finished().
 */
class TraversalStepper
{
  public:
    TraversalStepper() = default;

    /** Start traversal of @p ray over @p bvh. Resets all counters. */
    void init(const Bvh *bvh, const Ray &ray, TraversalMode mode);

    /** True when no nodes remain to visit (or an any-hit hit was found). */
    bool finished() const { return stackSize_ == 0; }

    /**
     * Node whose data the next step() consumes.
     * @pre !finished()
     */
    uint32_t pendingNode() const { return stack_[stackSize_ - 1]; }

    /**
     * Visit the pending node: test bounds, descend or intersect leaf
     * triangles, and update the stack.
     * @pre !finished()
     */
    StepInfo step();

    /** Best hit so far; final once finished(). */
    const HitRecord &hit() const { return hit_; }

    /** True when an intersection has been recorded. */
    bool hasHit() const { return hit_.valid(); }

    /** Total nodes visited (== memory fetches charged). */
    uint32_t nodesVisited() const { return nodesVisited_; }

    /** Total ray-triangle tests performed. */
    uint32_t triangleTests() const { return triangleTests_; }

    const Ray &ray() const { return ray_; }
    TraversalMode mode() const { return mode_; }

    /** Deep enough for any tree the builder emits (depth cap is 64). */
    static constexpr uint32_t kMaxStackDepth = 96;

  private:
    const Bvh *bvh_ = nullptr;
    Ray ray_;
    Vec3 invDir_;
    TraversalMode mode_ = TraversalMode::ClosestHit;
    HitRecord hit_;
    uint32_t stack_[kMaxStackDepth];
    uint32_t stackSize_ = 0;
    uint32_t nodesVisited_ = 0;
    uint32_t triangleTests_ = 0;
};

/** Aggregate work counters for a completed functional query. */
struct TraversalCounters
{
    uint32_t nodesVisited = 0;
    uint32_t triangleTests = 0;

    TraversalCounters &
    operator+=(const TraversalCounters &o)
    {
        nodesVisited += o.nodesVisited;
        triangleTests += o.triangleTests;
        return *this;
    }
};

/**
 * Run a closest-hit query to completion.
 * @param counters Optional out-param accumulating traversal work.
 */
HitRecord closestHit(const Bvh &bvh, const Ray &ray,
                     TraversalCounters *counters = nullptr);

/**
 * Run an any-hit (occlusion) query to completion.
 * @return true when any intersection exists in [tMin, tMax].
 */
bool anyHit(const Bvh &bvh, const Ray &ray,
            TraversalCounters *counters = nullptr);

} // namespace zatel::rt

#endif // ZATEL_RT_TRAVERSAL_HH
