/**
 * @file
 * Focused tests for the incremental TraversalStepper, and the
 * TraversalLoop differential: closestHit()/anyHit() run the functional
 * traversal (whose recorded visit stream the RT unit replays) in one
 * loop, and must yield the stepper's hit, counters, visit stream and
 * bit words, by bits, for every ray.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "rt/bvh.hh"
#include "rt/mesh.hh"
#include "rt/scene_library.hh"
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

// ---------------------------------------------------------------------
// TraversalLoop: closestHit()/anyHit() against a TraversalStepper run to
// completion on the same ray.
// ---------------------------------------------------------------------

uint32_t
floatBits(float value)
{
    uint32_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

/** A TraversalStepper run to completion: what the loop must yield. */
struct SteppedRay
{
    HitRecord hit;
    bool hasHit = false;
    TraversalCounters counters;
    /** firstWord 0: the words below are the whole stream. */
    VisitStream stream;
    std::vector<uint64_t> words;
    /** The last visit tested fewer triangles than its leaf holds. */
    bool stoppedMidLeaf = false;
};

SteppedRay
stepToCompletion(const Bvh &bvh, const Ray &ray, TraversalMode mode)
{
    SteppedRay out;
    TraversalStepper stepper;
    stepper.init(&bvh, ray, mode);
    StepInfo last;
    while (!stepper.finished()) {
        last = stepper.step();
        const uint32_t bit = out.stream.visits % 64;
        if (bit == 0)
            out.words.push_back(0);
        out.words.back() |= uint64_t{last.boundsHit} << bit;
        ++out.stream.visits;
        out.stream.lastVisitTests = last.triangleTests;
    }
    out.hit = stepper.hit();
    out.hasHit = stepper.hasHit();
    out.counters = {stepper.nodesVisited(), stepper.triangleTests()};
    out.stoppedMidLeaf =
        last.wasLeaf &&
        last.triangleTests < bvh.node(last.nodeIndex).primCount;
    return out;
}

void
expectSameHit(const HitRecord &got, const HitRecord &want)
{
    EXPECT_EQ(floatBits(got.t), floatBits(want.t));
    EXPECT_EQ(got.primIndex, want.primIndex);
    EXPECT_EQ(got.materialId, want.materialId);
    for (int axis = 0; axis < 3; ++axis) {
        EXPECT_EQ(floatBits(got.normal[axis]), floatBits(want.normal[axis]))
            << "normal axis " << axis;
        EXPECT_EQ(floatBits(got.position[axis]),
                  floatBits(want.position[axis]))
            << "position axis " << axis;
    }
}

/** What the rays checked so far covered. */
struct LoopTally
{
    uint64_t rays = 0;
    uint64_t hits = 0;
    uint64_t midLeafStops = 0;
    /** Streams longer than one bit word. */
    uint64_t multiWordStreams = 0;
};

/** Run @p ray through the loop three ways (recording into a buffer
 *  that already holds other rays' words, with counters only, bare) and
 *  expect the stepper's bits from each. */
void
expectLoopMatchesStepper(const Bvh &bvh, const Ray &ray, TraversalMode mode,
                         LoopTally &tally)
{
    const SteppedRay want = stepToCompletion(bvh, ray, mode);
    const auto query = [&](TraversalCounters *counters, VisitSink *sink) {
        if (mode == TraversalMode::ClosestHit)
            expectSameHit(closestHit(bvh, ray, counters, sink), want.hit);
        else
            EXPECT_EQ(anyHit(bvh, ray, counters, sink), want.hasHit);
    };

    const std::vector<uint64_t> earlier = {0x0123456789ABCDEFull, ~0ull};
    std::vector<uint64_t> bits = earlier;
    VisitSink sink;
    sink.bits = &bits;
    TraversalCounters counters{7, 11};
    query(&counters, &sink);
    EXPECT_EQ(counters.nodesVisited, 7 + want.counters.nodesVisited);
    EXPECT_EQ(counters.triangleTests, 11 + want.counters.triangleTests);
    EXPECT_EQ(sink.stream.firstWord, earlier.size());
    EXPECT_EQ(sink.stream.visits, want.stream.visits);
    EXPECT_EQ(sink.stream.lastVisitTests, want.stream.lastVisitTests);
    EXPECT_EQ(sink.stream.wordCount(), want.words.size());
    EXPECT_EQ(std::vector<uint64_t>(bits.begin(),
                                    bits.begin() + earlier.size()),
              earlier);
    EXPECT_EQ(std::vector<uint64_t>(bits.begin() + earlier.size(),
                                    bits.end()),
              want.words);

    TraversalCounters alone;
    query(&alone, nullptr);
    EXPECT_EQ(alone.nodesVisited, want.counters.nodesVisited);
    EXPECT_EQ(alone.triangleTests, want.counters.triangleTests);
    query(nullptr, nullptr);

    ++tally.rays;
    tally.hits += want.hasHit;
    tally.midLeafStops += want.stoppedMidLeaf;
    tally.multiWordStreams += want.words.size() > 1;
}

Vec3
randomDirection(Rng &rng)
{
    while (true) {
        const Vec3 d{static_cast<float>(rng.nextDouble(-1.0, 1.0)),
                     static_cast<float>(rng.nextDouble(-1.0, 1.0)),
                     static_cast<float>(rng.nextDouble(-1.0, 1.0))};
        if (lengthSquared(d) > 1e-4f && lengthSquared(d) <= 1.0f)
            return normalize(d);
    }
}

/** A unit axis direction, a signed zero in some components: their
 *  reciprocals are +-1e30. */
Vec3
axisDirection(Rng &rng)
{
    Vec3 d{0.0f, -0.0f, 0.0f};
    const float sign = rng.nextBounded(2) == 0 ? 1.0f : -1.0f;
    switch (rng.nextBounded(3)) {
    case 0:
        d.x = sign;
        break;
    case 1:
        d.y = sign;
        break;
    default:
        d.z = sign;
        break;
    }
    return d;
}

Vec3
pointIn(Rng &rng, const Aabb &box)
{
    return {static_cast<float>(rng.nextDouble(box.lo.x, box.hi.x)),
            static_cast<float>(rng.nextDouble(box.lo.y, box.hi.y)),
            static_cast<float>(rng.nextDouble(box.lo.z, box.hi.z))};
}

using ModedRay = std::pair<Ray, TraversalMode>;

/**
 * A few thousand seeded rays over @p scene: camera rays and, from their
 * hits, the tracer's shadow and mirror rays; then rays from inside and
 * on the root box, one in four axis-parallel and one in three with a
 * [tMin, tMax] that ends inside the scene, in both modes.
 */
std::vector<ModedRay>
seededRays(const Scene &scene, const Bvh &bvh, uint64_t seed)
{
    Rng rng(seed);
    std::vector<ModedRay> rays;
    constexpr uint32_t kRes = 64;
    for (int i = 0; i < 1000; ++i) {
        const Ray primary = scene.camera().generateRay(
            static_cast<uint32_t>(rng.nextBounded(kRes)),
            static_cast<uint32_t>(rng.nextBounded(kRes)), kRes, kRes,
            static_cast<float>(rng.nextDouble()),
            static_cast<float>(rng.nextDouble()));
        rays.emplace_back(primary, TraversalMode::ClosestHit);
        const HitRecord hit = closestHit(bvh, primary);
        if (!hit.valid())
            continue;
        const Vec3 to_light = scene.light().position - hit.position;
        const float dist = length(to_light);
        if (dist > 0.0f) {
            Ray shadow;
            shadow.origin = hit.position + hit.normal * 1e-3f;
            shadow.direction = to_light / dist;
            shadow.tMax = dist - 1e-3f;
            rays.emplace_back(shadow, TraversalMode::AnyHit);
        }
        Ray mirror;
        mirror.origin = hit.position + hit.normal * 1e-3f;
        mirror.direction = normalize(reflect(primary.direction, hit.normal));
        rays.emplace_back(mirror, TraversalMode::ClosestHit);
    }

    const Aabb &root = bvh.node(Bvh::kRootIndex).bounds;
    const float extent = length(root.extent());
    for (int i = 0; i < 1000; ++i) {
        Ray ray;
        ray.origin = pointIn(rng, root);
        if (i % 8 == 1) {
            // On the root box: one coordinate on a face.
            switch (rng.nextBounded(3)) {
            case 0:
                ray.origin.x = rng.nextBounded(2) ? root.hi.x : root.lo.x;
                break;
            case 1:
                ray.origin.y = rng.nextBounded(2) ? root.hi.y : root.lo.y;
                break;
            default:
                ray.origin.z = rng.nextBounded(2) ? root.hi.z : root.lo.z;
                break;
            }
        }
        ray.direction = i % 4 == 0 ? axisDirection(rng) : randomDirection(rng);
        if (i % 3 == 0) {
            ray.tMin = static_cast<float>(rng.nextDouble(0.0, 0.5 * extent));
            ray.tMax = ray.tMin +
                       static_cast<float>(rng.nextDouble(0.0, 0.5 * extent));
        }
        rays.emplace_back(ray, TraversalMode::ClosestHit);
        rays.emplace_back(ray, TraversalMode::AnyHit);
    }
    return rays;
}

/** Check every ray of @p rays, stopping at the first one that differs. */
void
expectLoopMatchesStepperOnAll(const Bvh &bvh,
                              const std::vector<ModedRay> &rays,
                              LoopTally &tally)
{
    for (size_t r = 0; r < rays.size(); ++r) {
        SCOPED_TRACE(testing::Message()
                     << "ray " << r << (rays[r].second ==
                                                TraversalMode::AnyHit
                                            ? " (any-hit)"
                                            : " (closest-hit)"));
        expectLoopMatchesStepper(bvh, rays[r].first, rays[r].second, tally);
        if (testing::Test::HasFailure())
            return;
    }
}

class TraversalLoop : public testing::TestWithParam<SceneId>
{
};

TEST_P(TraversalLoop, MatchesTheStepperOnSeededRays)
{
    const Scene scene = buildScene(GetParam());
    Bvh bvh;
    bvh.build(scene.triangles());
    const std::vector<ModedRay> rays =
        seededRays(scene, bvh, 0x7A7E1 + static_cast<uint64_t>(GetParam()));
    LoopTally tally;
    expectLoopMatchesStepperOnAll(bvh, rays, tally);
    EXPECT_GE(tally.rays, 3000u);
    EXPECT_GT(tally.hits, 0u);
    EXPECT_GT(tally.multiWordStreams, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllScenes, TraversalLoop,
                         testing::ValuesIn(allScenes()),
                         [](const auto &info) {
                             return std::string(sceneName(info.param));
                         });

/**
 * Unit boxes at even integer coordinates plus flat unit squares: every
 * node box has integer bounds, and the squares' boxes have zero
 * thickness, so rays from integer points along axes and diagonals
 * enter and leave boxes at the same t (through an edge, a corner or a
 * face) in exact arithmetic.
 */
struct TraversalLoopLattice : public testing::Test
{
    void
    SetUp() override
    {
        MeshBuilder mesh;
        for (int x = 0; x < 4; ++x) {
            for (int y = 0; y < 4; ++y) {
                for (int z = 0; z < 4; ++z) {
                    const Vec3 lo{2.0f * x, 2.0f * y, 2.0f * z};
                    if ((x + y + z) % 3 == 0) {
                        mesh.addQuad(lo, lo + Vec3{1.0f, 0.0f, 0.0f},
                                     lo + Vec3{1.0f, 0.0f, 1.0f},
                                     lo + Vec3{0.0f, 0.0f, 1.0f}, 1);
                    } else {
                        mesh.addBox(lo, lo + Vec3{1.0f}, 0);
                    }
                }
            }
        }
        triangles = mesh.takeTriangles();
        bvh.build(triangles);
    }

    std::vector<Triangle> triangles;
    Bvh bvh;
};

TEST_F(TraversalLoopLattice, AxisParallelAndEdgeRays)
{
    // Origins on a half-integer grid around and inside the lattice
    // (on its root box faces too), directions along the axes and the
    // face and space diagonals, with tMin 0 (so a ray starting on a
    // face touches it at t = 0) and the default.
    std::vector<ModedRay> rays;
    const std::vector<Vec3> directions = {
        {1.0f, 0.0f, 0.0f},  {-1.0f, 0.0f, 0.0f}, {0.0f, 1.0f, 0.0f},
        {0.0f, -1.0f, 0.0f}, {0.0f, 0.0f, 1.0f},  {0.0f, 0.0f, -1.0f},
        {1.0f, 1.0f, 0.0f},  {1.0f, -1.0f, 0.0f}, {0.0f, 1.0f, 1.0f},
        {1.0f, 0.0f, -1.0f}, {1.0f, 1.0f, 1.0f},  {-1.0f, 1.0f, -1.0f},
    };
    for (float x = -1.0f; x <= 8.0f; x += 1.5f) {
        for (float y = -1.0f; y <= 8.0f; y += 1.0f) {
            for (float z = -0.5f; z <= 7.5f; z += 2.0f) {
                for (const Vec3 &d : directions) {
                    Ray ray;
                    ray.origin = {x, y, z};
                    ray.direction = d;
                    ray.tMin = (static_cast<int>(x + y) % 2) ? 0.0f : 1e-4f;
                    rays.emplace_back(ray, TraversalMode::ClosestHit);
                    rays.emplace_back(ray, TraversalMode::AnyHit);
                }
            }
        }
    }
    LoopTally tally;
    expectLoopMatchesStepperOnAll(bvh, rays, tally);
    EXPECT_GT(tally.hits, 0u);
    EXPECT_LT(tally.hits, tally.rays);
}

TEST_F(TraversalLoopLattice, IntervalsThatClipBoxes)
{
    // [tMin, tMax] windows that start or end inside boxes, on their
    // faces, or hold no box at all.
    Rng rng(99);
    std::vector<ModedRay> rays;
    for (int i = 0; i < 600; ++i) {
        Ray ray;
        ray.origin = {-2.0f, static_cast<float>(rng.nextRange(0, 14)) * 0.5f,
                      static_cast<float>(rng.nextRange(0, 14)) * 0.5f};
        ray.direction = i % 2 ? Vec3{1.0f, 0.0f, 0.0f}
                              : normalize(Vec3{1.0f, 0.1f, -0.05f});
        ray.tMin = static_cast<float>(rng.nextRange(0, 20)) * 0.5f;
        ray.tMax = ray.tMin + static_cast<float>(rng.nextRange(0, 6)) * 0.5f;
        rays.emplace_back(ray, i % 3 ? TraversalMode::ClosestHit
                                     : TraversalMode::AnyHit);
    }
    LoopTally tally;
    expectLoopMatchesStepperOnAll(bvh, rays, tally);
    EXPECT_GT(tally.hits, 0u);
}

TEST(TraversalLoopEdges, ShadowRaysStoppingMidLeaf)
{
    // Large leaves of overlapping triangles: an occluder found before a
    // leaf's last triangle ends the any-hit traversal there.
    Rng rng(7);
    MeshBuilder mesh;
    mesh.addTriangleSoup(rng, {0.0f, 0.0f, 0.0f}, 4.0f, 600, 1.5f, 0);
    const std::vector<Triangle> triangles = mesh.takeTriangles();
    Bvh bvh;
    BvhBuildParams build;
    build.maxLeafSize = 16;
    bvh.build(triangles, build);

    std::vector<ModedRay> rays;
    for (int i = 0; i < 400; ++i) {
        Ray ray;
        ray.origin = {-10.0f, -3.0f + 0.015f * i, 0.3f * (i % 7) - 1.0f};
        ray.direction = normalize(Vec3{1.0f, 0.01f * (i % 5), 0.0f});
        ray.tMax = 6.0f + 0.02f * (i % 200);
        rays.emplace_back(ray, TraversalMode::AnyHit);
        rays.emplace_back(ray, TraversalMode::ClosestHit);
    }
    LoopTally tally;
    expectLoopMatchesStepperOnAll(bvh, rays, tally);
    EXPECT_GT(tally.midLeafStops, 0u);
}

TEST(TraversalLoopEdges, EmptyBvhVisitsNothing)
{
    const std::vector<Triangle> none;
    Bvh bvh;
    bvh.build(none);
    Ray ray;
    ray.direction = {0.0f, 0.0f, 1.0f};
    LoopTally tally;
    expectLoopMatchesStepper(bvh, ray, TraversalMode::ClosestHit, tally);
    expectLoopMatchesStepper(bvh, ray, TraversalMode::AnyHit, tally);

    std::vector<uint64_t> bits(3, 1);
    VisitSink sink;
    sink.bits = &bits;
    EXPECT_FALSE(closestHit(bvh, ray, nullptr, &sink).valid());
    EXPECT_EQ(bits.size(), 3u);
    EXPECT_EQ(sink.stream.firstWord, 3u);
    EXPECT_EQ(sink.stream.visits, 0u);
    EXPECT_EQ(sink.stream.lastVisitTests, 0u);
}

/** The slab test as it was before it went branch-free: per axis, swap
 *  the slab's distances into order, clamp, and exit on a miss. */
bool
perAxisSlab(const Aabb &box, const Ray &ray, const Vec3 &inv_dir,
            float &t_hit)
{
    float t0 = ray.tMin;
    float t1 = ray.tMax;
    for (int axis = 0; axis < 3; ++axis) {
        float near = (box.lo[axis] - ray.origin[axis]) * inv_dir[axis];
        float far = (box.hi[axis] - ray.origin[axis]) * inv_dir[axis];
        if (near > far)
            std::swap(near, far);
        t0 = std::max(t0, near);
        t1 = std::min(t1, far);
        if (t0 > t1)
            return false;
    }
    t_hit = t0;
    return true;
}

TEST(TraversalLoopEdges, SlabTestDecidesAsThePerAxisLoop)
{
    // Random boxes, empty boxes and boxes of zero thickness on one to
    // three axes, against rays aimed at them, past them and along
    // axes (reciprocal +-1e30, as the traversal computes it).
    Rng rng(2024);
    const auto reciprocal = [](const Vec3 &d) {
        const auto inv = [](float c) {
            if (c > 1e-30f || c < -1e-30f)
                return 1.0f / c;
            return c >= 0.0f ? 1e30f : -1e30f;
        };
        return Vec3{inv(d.x), inv(d.y), inv(d.z)};
    };
    uint64_t hits = 0;
    uint64_t touches = 0;
    for (int i = 0; i < 200000; ++i) {
        Aabb box;
        if (i % 16 != 0) {
            box.expand(pointIn(rng, {{-4.0f, -4.0f, -4.0f},
                                     {4.0f, 4.0f, 4.0f}}));
            box.expand(pointIn(rng, {{-4.0f, -4.0f, -4.0f},
                                     {4.0f, 4.0f, 4.0f}}));
            const uint64_t flat = rng.nextBounded(8);
            if (flat & 1)
                box.hi.x = box.lo.x;
            if (flat & 2)
                box.hi.y = box.lo.y;
            if (flat & 4)
                box.hi.z = box.lo.z;
        }
        Ray ray;
        ray.origin = pointIn(rng, {{-8.0f, -8.0f, -8.0f}, {8.0f, 8.0f, 8.0f}});
        if (i % 5 == 0) {
            ray.direction = axisDirection(rng);
            // Slide onto the box's face planes so the ray runs along one.
            if (!box.empty() && rng.nextBounded(2) == 0)
                ray.origin.y = box.lo.y;
        } else if (!box.empty() && i % 5 != 1) {
            ray.direction = box.center() - ray.origin;
        } else {
            ray.direction = randomDirection(rng);
        }
        if (i % 3 == 0) {
            ray.tMin = static_cast<float>(rng.nextDouble(0.0, 1.0));
            ray.tMax = static_cast<float>(rng.nextDouble(0.0, 2.0));
        } else if (i % 3 == 1) {
            ray.tMin = 0.0f;
        }
        const Vec3 inv_dir = reciprocal(ray.direction);
        float want_t = -1.0f;
        float got_t = -1.0f;
        const bool want = perAxisSlab(box, ray, inv_dir, want_t);
        const bool got = box.intersect(ray, inv_dir, got_t);
        ASSERT_EQ(got, want) << "case " << i;
        ASSERT_EQ(floatBits(got_t), floatBits(want_t)) << "case " << i;
        hits += want;
        touches += want && box.lo.x == box.hi.x && ray.direction.x != 0.0f;
    }
    EXPECT_GT(hits, 10000u);
    EXPECT_GT(touches, 100u);
}

} // namespace
} // namespace zatel::rt
