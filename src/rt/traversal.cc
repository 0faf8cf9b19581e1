#include "rt/traversal.hh"

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

HitRecord
closestHit(const Bvh &bvh, const Ray &ray, TraversalCounters *counters)
{
    TraversalStepper stepper;
    stepper.init(&bvh, ray, TraversalMode::ClosestHit);
    while (!stepper.finished())
        stepper.step();
    if (counters) {
        counters->nodesVisited += stepper.nodesVisited();
        counters->triangleTests += stepper.triangleTests();
    }
    return stepper.hit();
}

bool
anyHit(const Bvh &bvh, const Ray &ray, TraversalCounters *counters)
{
    TraversalStepper stepper;
    stepper.init(&bvh, ray, TraversalMode::AnyHit);
    while (!stepper.finished())
        stepper.step();
    if (counters) {
        counters->nodesVisited += stepper.nodesVisited();
        counters->triangleTests += stepper.triangleTests();
    }
    return stepper.hasHit();
}

} // namespace zatel::rt
