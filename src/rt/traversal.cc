#include "rt/traversal.hh"

#include <stdexcept>

#include "util/logging.hh"

namespace zatel::rt
{

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

    auto safe_inv = [](float d) {
        // Large-but-finite reciprocal keeps the slab test well defined
        // for axis-parallel rays.
        constexpr float kHuge = 1e30f;
        if (d > 1e-30f || d < -1e-30f)
            return 1.0f / d;
        return d >= 0.0f ? kHuge : -kHuge;
    };
    invDir_ = {safe_inv(ray.direction.x), safe_inv(ray.direction.y),
               safe_inv(ray.direction.z)};

    stackSize_ = 0;
    // An empty BVH (single empty leaf) terminates immediately; its
    // default-constructed bounds would otherwise confuse the slab test.
    if (bvh->nodeCount() == 1 && bvh->node(Bvh::kRootIndex).primCount == 0 &&
        bvh->node(Bvh::kRootIndex).bounds.empty()) {
        return;
    }
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

namespace
{

/** Run @p stepper to completion, adding its work to @p counters and,
 *  with @p sink, recording its visit stream. */
void
runToCompletion(TraversalStepper &stepper, TraversalCounters *counters,
                VisitSink *sink)
{
    if (sink == nullptr) {
        while (!stepper.finished())
            stepper.step();
    } else {
        std::vector<uint64_t> &bits = *sink->bits;
        if (bits.size() > UINT32_MAX)
            throw std::length_error("visit bit buffer exceeds 2^32 words");
        VisitStream stream;
        stream.firstWord = static_cast<uint32_t>(bits.size());
        while (!stepper.finished()) {
            const StepInfo info = stepper.step();
            const uint32_t bit = stream.visits % 64;
            if (bit == 0)
                bits.push_back(0);
            bits.back() |= uint64_t{info.boundsHit} << bit;
            ++stream.visits;
            stream.lastVisitTests = info.triangleTests;
        }
        sink->stream = stream;
    }
    if (counters) {
        counters->nodesVisited += stepper.nodesVisited();
        counters->triangleTests += stepper.triangleTests();
    }
}

} // namespace

HitRecord
closestHit(const Bvh &bvh, const Ray &ray, TraversalCounters *counters,
           VisitSink *sink)
{
    TraversalStepper stepper;
    stepper.init(&bvh, ray, TraversalMode::ClosestHit);
    runToCompletion(stepper, counters, sink);
    return stepper.hit();
}

bool
anyHit(const Bvh &bvh, const Ray &ray, TraversalCounters *counters,
       VisitSink *sink)
{
    TraversalStepper stepper;
    stepper.init(&bvh, ray, TraversalMode::AnyHit);
    runToCompletion(stepper, counters, sink);
    return stepper.hasHit();
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
