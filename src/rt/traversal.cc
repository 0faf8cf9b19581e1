#include "rt/traversal.hh"

#include <stdexcept>

#include "util/logging.hh"

namespace zatel::rt
{

namespace
{

/** Component-wise reciprocal of @p d; a large-but-finite value stands
 *  in for 1/0 so the slab test stays well defined for axis-parallel
 *  rays. */
Vec3
reciprocal(const Vec3 &d)
{
    auto safe_inv = [](float c) {
        constexpr float kHuge = 1e30f;
        if (c > 1e-30f || c < -1e-30f)
            return 1.0f / c;
        return c >= 0.0f ? kHuge : -kHuge;
    };
    return {safe_inv(d.x), safe_inv(d.y), safe_inv(d.z)};
}

/** An empty BVH (single empty leaf) ends a traversal before its first
 *  visit; its default-constructed bounds would confuse the slab test. */
bool
emptyBvh(const Bvh &bvh)
{
    const BvhNode &root = bvh.node(Bvh::kRootIndex);
    return bvh.nodeCount() == 1 && root.primCount == 0 && root.bounds.empty();
}

/**
 * The functional traversal: TraversalStepper's visits, pops, pushes and
 * tMax clamps in one loop over a local stack, with no StepInfo or Ray
 * copy per visit. Each visit's bounds-hit bit is shifted into a word
 * that is appended to the sink's buffer every 64 visits.
 */
template <TraversalMode Mode>
HitRecord
traverse(const Bvh &bvh, const Ray &ray, TraversalCounters *counters,
         VisitSink *sink)
{
    ZATEL_ASSERT(bvh.valid(), "traversal requires a built BVH");
    std::vector<uint64_t> *bits = sink != nullptr ? sink->bits : nullptr;
    if (bits != nullptr && bits->size() > UINT32_MAX)
        throw std::length_error("visit bit buffer exceeds 2^32 words");

    const Vec3 inv_dir = reciprocal(ray.direction);
    // The query's tMax is the best hit's t once there is one.
    Ray query = ray;
    HitRecord hit;
    uint32_t stack[TraversalStepper::kMaxStackDepth];
    uint32_t stack_size = 0;
    if (!emptyBvh(bvh))
        stack[stack_size++] = Bvh::kRootIndex;

    VisitStream stream;
    stream.firstWord = bits != nullptr ? static_cast<uint32_t>(bits->size())
                                       : 0;
    uint64_t word = 0;
    uint32_t triangle_tests = 0;
    while (stack_size > 0) {
        const uint32_t node_index = stack[--stack_size];
        const BvhNode &node = bvh.node(node_index);
        uint32_t tests = 0;
        float t_box = 0.0f;
        const bool bounds_hit = node.bounds.intersect(query, inv_dir, t_box);
        if (bounds_hit && !node.isLeaf()) {
            ZATEL_ASSERT(stack_size + 2 <= TraversalStepper::kMaxStackDepth,
                         "traversal stack overflow");
            stack[stack_size++] = node.rightChild();
            stack[stack_size++] = BvhNode::leftChildOf(node_index);
        } else if (bounds_hit) {
            const uint32_t end = node.firstPrim() + node.primCount;
            for (uint32_t slot = node.firstPrim(); slot < end; ++slot) {
                const Triangle &tri = bvh.primitive(slot);
                float t = 0.0f;
                ++tests;
                if (!tri.intersect(query, t))
                    continue;
                if (t < hit.t) {
                    hit.t = t;
                    hit.primIndex = bvh.primitiveIndex(slot);
                    hit.materialId = tri.materialId;
                    hit.position = ray.at(t);
                    Vec3 n = normalize(tri.rawNormal());
                    // Face the normal toward the ray origin.
                    if (dot(n, ray.direction) > 0.0f)
                        n = -n;
                    hit.normal = n;
                    query.tMax = t;
                }
                if constexpr (Mode == TraversalMode::AnyHit) {
                    // Occlusion found: terminate the whole traversal.
                    stack_size = 0;
                    break;
                }
            }
        }
        word |= uint64_t{bounds_hit} << (stream.visits % 64);
        if (++stream.visits % 64 == 0 && bits != nullptr) {
            bits->push_back(word);
            word = 0;
        }
        triangle_tests += tests;
        stream.lastVisitTests = tests;
    }
    if (bits != nullptr) {
        if (stream.visits % 64 != 0)
            bits->push_back(word);
        sink->stream = stream;
    }
    if (counters) {
        counters->nodesVisited += stream.visits;
        counters->triangleTests += triangle_tests;
    }
    return hit;
}

} // namespace

void
TraversalStepper::init(const Bvh *bvh, const Ray &ray, TraversalMode mode)
{
    ZATEL_ASSERT(bvh != nullptr && bvh->valid(),
                 "traversal requires a built BVH");
    bvh_ = bvh;
    ray_ = ray;
    mode_ = mode;
    hit_ = HitRecord{};
    nodesVisited_ = 0;
    triangleTests_ = 0;
    invDir_ = reciprocal(ray.direction);
    stackSize_ = 0;
    if (!emptyBvh(*bvh))
        stack_[stackSize_++] = Bvh::kRootIndex;
}

StepInfo
TraversalStepper::step()
{
    ZATEL_ASSERT(stackSize_ > 0, "step() after traversal finished");

    StepInfo info;
    uint32_t node_index = stack_[--stackSize_];
    const BvhNode &node = bvh_->node(node_index);
    info.nodeIndex = node_index;
    ++nodesVisited_;

    // Clamp the query interval to the best hit found so far.
    Ray query = ray_;
    if (hit_.valid())
        query.tMax = hit_.t;

    float t_box = 0.0f;
    info.boundsHit = node.bounds.intersect(query, invDir_, t_box);
    if (!info.boundsHit)
        return info;

    if (!node.isLeaf()) {
        ZATEL_ASSERT(stackSize_ + 2 <= kMaxStackDepth,
                     "traversal stack overflow");
        // Push right first so the (spatially constructed) left child is
        // visited next; with self-contained node bounds both children are
        // fetched and tested regardless, matching the memory model.
        stack_[stackSize_++] = node.rightChild();
        stack_[stackSize_++] = BvhNode::leftChildOf(node_index);
        return info;
    }

    info.wasLeaf = true;
    info.firstPrimSlot = node.firstPrim();
    for (uint32_t i = 0; i < node.primCount; ++i) {
        uint32_t slot = node.firstPrim() + i;
        const Triangle &tri = bvh_->primitive(slot);
        float t = 0.0f;
        ++info.triangleTests;
        ++triangleTests_;
        if (!tri.intersect(query, t))
            continue;

        if (t < hit_.t) {
            hit_.t = t;
            hit_.primIndex = bvh_->primitiveIndex(slot);
            hit_.materialId = tri.materialId;
            hit_.position = ray_.at(t);
            Vec3 n = normalize(tri.rawNormal());
            // Face the normal toward the ray origin.
            if (dot(n, ray_.direction) > 0.0f)
                n = -n;
            hit_.normal = n;
            query.tMax = t;
        }
        if (mode_ == TraversalMode::AnyHit) {
            // Occlusion found: terminate the whole traversal.
            stackSize_ = 0;
            return info;
        }
    }
    return info;
}

HitRecord
closestHit(const Bvh &bvh, const Ray &ray, TraversalCounters *counters,
           VisitSink *sink)
{
    return traverse<TraversalMode::ClosestHit>(bvh, ray, counters, sink);
}

bool
anyHit(const Bvh &bvh, const Ray &ray, TraversalCounters *counters,
       VisitSink *sink)
{
    return traverse<TraversalMode::AnyHit>(bvh, ray, counters, sink).valid();
}

StepInfo
VisitCursor::step(const Bvh &bvh)
{
    ZATEL_ASSERT(visitsLeft_ > 0, "step() after the replay finished");

    StepInfo info;
    info.nodeIndex = node_;
    info.boundsHit = (bits_[bit_ / 64] >> (bit_ % 64)) & 1u;
    ++bit_;
    --visitsLeft_;

    const BvhNode &node = bvh.node(node_);
    if (info.boundsHit && !node.isLeaf()) {
        node_ = BvhNode::leftChildOf(node_);
        return info;
    }
    if (info.boundsHit) {
        info.wasLeaf = true;
        info.firstPrimSlot = node.firstPrim();
        info.triangleTests = finished() ? lastVisitTests_ : node.primCount;
    }
    node_ = bvh.escape(node_);
    return info;
}

} // namespace zatel::rt
