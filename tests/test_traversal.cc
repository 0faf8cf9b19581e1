/**
 * @file
 * Focused tests for the incremental TraversalStepper (the functional
 * traversal, whose recorded visit stream the RT unit replays).
 */

#include <gtest/gtest.h>

#include "rt/bvh.hh"
#include "rt/mesh.hh"
#include "rt/traversal.hh"
#include "util/rng.hh"

namespace zatel::rt
{
namespace
{

struct SoupFixture : public testing::Test
{
    void
    SetUp() override
    {
        zatel::Rng rng(42);
        MeshBuilder mesh;
        mesh.addTriangleSoup(rng, {0.0f, 0.0f, 0.0f}, 8.0f, 400, 0.8f, 0);
        triangles = mesh.takeTriangles();
        bvh.build(triangles);
    }

    std::vector<Triangle> triangles;
    Bvh bvh;
};

TEST_F(SoupFixture, StartsAtRoot)
{
    Ray ray;
    ray.origin = {0.0f, 0.0f, 20.0f};
    ray.direction = {0.0f, 0.0f, -1.0f};
    TraversalStepper stepper;
    stepper.init(&bvh, ray, TraversalMode::ClosestHit);
    ASSERT_FALSE(stepper.finished());
    EXPECT_EQ(stepper.pendingNode(), Bvh::kRootIndex);
}

TEST_F(SoupFixture, MissRayVisitsOnlyRoot)
{
    Ray ray;
    ray.origin = {100.0f, 100.0f, 100.0f};
    ray.direction = {1.0f, 0.0f, 0.0f};
    TraversalStepper stepper;
    stepper.init(&bvh, ray, TraversalMode::ClosestHit);
    StepInfo info = stepper.step();
    EXPECT_FALSE(info.boundsHit);
    EXPECT_TRUE(stepper.finished());
    EXPECT_EQ(stepper.nodesVisited(), 1u);
    EXPECT_FALSE(stepper.hasHit());
}

TEST_F(SoupFixture, InternalNodePushesTwoChildren)
{
    Ray ray;
    ray.origin = {0.0f, 0.0f, 20.0f};
    ray.direction = {0.0f, 0.0f, -1.0f};
    TraversalStepper stepper;
    stepper.init(&bvh, ray, TraversalMode::ClosestHit);
    ASSERT_FALSE(bvh.node(0).isLeaf());
    StepInfo info = stepper.step();
    EXPECT_TRUE(info.boundsHit);
    EXPECT_FALSE(info.wasLeaf);
    // Left child is visited next (pushed last).
    EXPECT_EQ(stepper.pendingNode(), BvhNode::leftChildOf(0));
}

TEST_F(SoupFixture, AnyHitStopsEarly)
{
    // Aim at the thick of the soup so many triangles are hit.
    Ray ray;
    ray.origin = {0.0f, 0.0f, 20.0f};
    ray.direction = {0.0f, 0.0f, -1.0f};

    TraversalStepper closest, any;
    closest.init(&bvh, ray, TraversalMode::ClosestHit);
    any.init(&bvh, ray, TraversalMode::AnyHit);
    while (!closest.finished())
        closest.step();
    while (!any.finished())
        any.step();

    ASSERT_TRUE(closest.hasHit());
    ASSERT_TRUE(any.hasHit());
    EXPECT_LE(any.nodesVisited(), closest.nodesVisited());
}

TEST_F(SoupFixture, VisitCountsMatchBetweenRuns)
{
    Ray ray;
    ray.origin = {2.0f, -1.0f, 20.0f};
    ray.direction = normalize(Vec3{-0.1f, 0.05f, -1.0f});
    TraversalStepper a, b;
    a.init(&bvh, ray, TraversalMode::ClosestHit);
    b.init(&bvh, ray, TraversalMode::ClosestHit);
    while (!a.finished())
        a.step();
    while (!b.finished())
        b.step();
    EXPECT_EQ(a.nodesVisited(), b.nodesVisited());
    EXPECT_EQ(a.triangleTests(), b.triangleTests());
    EXPECT_EQ(a.hit().primIndex, b.hit().primIndex);
}

TEST_F(SoupFixture, ReinitResetsState)
{
    Ray ray;
    ray.origin = {0.0f, 0.0f, 20.0f};
    ray.direction = {0.0f, 0.0f, -1.0f};
    TraversalStepper stepper;
    stepper.init(&bvh, ray, TraversalMode::ClosestHit);
    while (!stepper.finished())
        stepper.step();
    uint32_t first_visits = stepper.nodesVisited();
    EXPECT_GT(first_visits, 0u);

    stepper.init(&bvh, ray, TraversalMode::ClosestHit);
    EXPECT_EQ(stepper.nodesVisited(), 0u);
    EXPECT_FALSE(stepper.hasHit());
    while (!stepper.finished())
        stepper.step();
    EXPECT_EQ(stepper.nodesVisited(), first_visits);
}

TEST_F(SoupFixture, LeafStepReportsTriangleTests)
{
    Ray ray;
    ray.origin = {0.0f, 0.0f, 20.0f};
    ray.direction = {0.0f, 0.0f, -1.0f};
    TraversalStepper stepper;
    stepper.init(&bvh, ray, TraversalMode::ClosestHit);
    uint32_t leaf_tests = 0;
    while (!stepper.finished()) {
        StepInfo info = stepper.step();
        if (info.wasLeaf)
            leaf_tests += info.triangleTests;
        else
            EXPECT_EQ(info.triangleTests, 0u);
    }
    EXPECT_EQ(leaf_tests, stepper.triangleTests());
}

TEST(TraversalCounters, PlusEquals)
{
    TraversalCounters a{10, 5}, b{3, 2};
    a += b;
    EXPECT_EQ(a.nodesVisited, 13u);
    EXPECT_EQ(a.triangleTests, 7u);
}

} // namespace
} // namespace zatel::rt
