/**
 * @file
 * Stack-based BVH traversal, and the replay of a recorded one.
 *
 * closestHit()/anyHit() are the functional traversal: one loop over a
 * local node stack that pops a node, tests its bounds, pushes right
 * then left, and clamps tMax to the best hit so far. Given a VisitSink
 * they record the ray's visit stream: one bounds-hit bit per visited
 * node. The visit order is fixed by the BVH, so those bits plus the
 * triangle tests of the last visit, where an any-hit ray may stop
 * mid-leaf, fix every visit. TraversalStepper runs the same traversal
 * one visit at a time; it is the loop's differential reference
 * (tests/test_traversal.cc) and is not on any production path. The
 * timed RT unit (src/gpusim/rt_unit.*) replays the stream with a
 * VisitCursor, which yields the stepper's StepInfo visit for visit
 * without a stack, a ray or a box test, so the unit charges a memory
 * fetch per visited node exactly where the functional tracer visited
 * it.
 */

#ifndef ZATEL_RT_TRAVERSAL_HH
#define ZATEL_RT_TRAVERSAL_HH

#include <cstdint>
#include <vector>

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
 * Incremental BVH traversal for a single ray: the reference that
 * closestHit()/anyHit() and VisitCursor are checked against, visit for
 * visit.
 *
 * Usage: init(), then while (!finished()) step(); hit() is valid once
 * finished().
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

/** Where one ray's recorded traversal lives (RayTask carries it). */
struct VisitStream
{
    /** The ray's first word in its owner's bounds-hit bit buffer; visit
     *  i is bit i % 64 of word firstWord + i / 64. */
    uint32_t firstWord = 0;
    /** Nodes the ray visited. */
    uint32_t visits = 0;
    /** Triangles its last visit tested: the leaf's whole primitive
     *  count, or fewer when an any-hit ray stopped mid-leaf. */
    uint32_t lastVisitTests = 0;

    /** Words the ray's bits occupy, from firstWord on. */
    uint32_t wordCount() const { return (visits + 63) / 64; }
};

/**
 * Recording sink for closestHit()/anyHit(): the ray's bounds-hit bits
 * are appended to @c bits, starting on a fresh word, and @c stream says
 * where they went.
 */
struct VisitSink
{
    std::vector<uint64_t> *bits = nullptr;
    VisitStream stream;
};

/**
 * Run a closest-hit query to completion: the hit, counters and visit
 * stream of a TraversalStepper run to completion, bit for bit.
 * @param counters Optional out-param accumulating traversal work.
 * @param sink When non-null, records the ray's visit stream.
 */
HitRecord closestHit(const Bvh &bvh, const Ray &ray,
                     TraversalCounters *counters = nullptr,
                     VisitSink *sink = nullptr);

/**
 * Run an any-hit (occlusion) query to completion.
 * @return true when any intersection exists in [tMin, tMax].
 */
bool anyHit(const Bvh &bvh, const Ray &ray,
            TraversalCounters *counters = nullptr, VisitSink *sink = nullptr);

/**
 * Replays a recorded visit stream over the BVH it was recorded on: the
 * same nodes, in the same order, with the same StepInfo as the
 * TraversalStepper that recorded it. After a bounds hit on an internal
 * node the next node is its left child; after any other visit it is the
 * node's escape link (Bvh::escape).
 *
 * Usage mirrors the stepper: init(), then while (!finished()) { addr =
 * pendingNode(); <charge a fetch of addr>; step(bvh); }.
 */
class VisitCursor
{
  public:
    /** Start at the root of @p stream, whose bits live in @p bits. */
    void
    init(const VisitStream &stream, const uint64_t *bits)
    {
        bits_ = bits + stream.firstWord;
        node_ = Bvh::kRootIndex;
        bit_ = 0;
        visitsLeft_ = stream.visits;
        lastVisitTests_ = stream.lastVisitTests;
    }

    /** True when every recorded visit has been replayed. */
    bool finished() const { return visitsLeft_ == 0; }

    /**
     * Node the next step() visits.
     * @pre !finished()
     */
    uint32_t pendingNode() const { return node_; }

    /**
     * Replay the pending visit and move to the next node.
     * @pre !finished()
     */
    StepInfo step(const Bvh &bvh);

  private:
    const uint64_t *bits_ = nullptr;
    uint32_t node_ = 0;
    uint32_t bit_ = 0;
    uint32_t visitsLeft_ = 0;
    uint32_t lastVisitTests_ = 0;
};

} // namespace zatel::rt

#endif // ZATEL_RT_TRAVERSAL_HH
