/**
 * @file
 * Cross-module property tests: parameterized sweeps asserting invariant
 * bundles over scenes, configurations and pipeline settings.
 */

#include <gtest/gtest.h>

#include "gpusim/gpu.hh"
#include "gpusim/warp.hh"
#include "heatmap/heatmap.hh"
#include "rt/bvh.hh"
#include "rt/mesh.hh"
#include "rt/ray_record.hh"
#include "rt/scene_library.hh"
#include "rt/tracer.hh"
#include "rt/traversal.hh"
#include "util/rng.hh"
#include "zatel/pixel_selector.hh"
#include "zatel/predictor.hh"

namespace zatel
{
namespace
{

// ---------------------------------------------------------------------
// Simulator invariants over every scene.
// ---------------------------------------------------------------------

class SimInvariants : public testing::TestWithParam<rt::SceneId>
{
};

TEST_P(SimInvariants, StatsBundleHolds)
{
    rt::Scene scene = rt::buildScene(GetParam(), rt::SceneDetail{0.4f});
    rt::Bvh bvh;
    bvh.build(scene.triangles());
    rt::Tracer tracer(scene, bvh);

    gpusim::GpuConfig config = gpusim::GpuConfig::mobileSoc();
    config.numSms = 2;
    config.numMemPartitions = 2;
    gpusim::GpuStats stats =
        gpusim::simulateFullFrame(config, tracer, 24, 24);

    EXPECT_GT(stats.cycles, 0u);
    EXPECT_LE(stats.l1dMisses, stats.l1dAccesses);
    EXPECT_LE(stats.l2Misses, stats.l2Accesses);
    // L2 only sees L1 misses plus write-throughs.
    EXPECT_LE(stats.l2Accesses, stats.l1dAccesses);
    EXPECT_LE(stats.dramBusyCycles, stats.dramActiveCycles);
    EXPECT_LE(stats.dramActiveCycles, stats.dramChannelCycles);
    EXPECT_GE(stats.rtEfficiency(), 0.0);
    EXPECT_LE(stats.rtEfficiency(), config.warpSize);
    EXPECT_EQ(stats.pixelsTraced, 24u * 24u);
    // Every selected pixel casts at least one ray.
    EXPECT_GE(stats.raysTraced, stats.pixelsTraced);
    // DRAM reads can't exceed L2 misses (one line fill per miss).
    EXPECT_GT(stats.threadInstructions, stats.rtNodeVisits);
}

INSTANTIATE_TEST_SUITE_P(AllScenes, SimInvariants,
                         testing::ValuesIn(rt::allScenes()),
                         [](const auto &info) {
                             return std::string(rt::sceneName(info.param));
                         });

// ---------------------------------------------------------------------
// Functional/timed agreement across scenes (the replay property).
// ---------------------------------------------------------------------

class ReplayAgreement : public testing::TestWithParam<rt::SceneId>
{
};

TEST_P(ReplayAgreement, TimedVisitsEqualFunctionalVisits)
{
    rt::Scene scene = rt::buildScene(GetParam(), rt::SceneDetail{0.4f});
    rt::Bvh bvh;
    bvh.build(scene.triangles());
    rt::Tracer tracer(scene, bvh);

    rt::RenderResult render = tracer.render(16, 16);
    uint64_t functional = 0;
    for (const rt::PixelProfile &profile : render.profiles)
        functional += profile.nodesVisited;

    gpusim::GpuStats stats = gpusim::simulateFullFrame(
        gpusim::GpuConfig::mobileSoc(), tracer, 16, 16);
    EXPECT_EQ(stats.rtNodeVisits, functional);
}

INSTANTIATE_TEST_SUITE_P(AllScenes, ReplayAgreement,
                         testing::ValuesIn(rt::allScenes()),
                         [](const auto &info) {
                             return std::string(rt::sceneName(info.param));
                         });

// ---------------------------------------------------------------------
// Per-visit replay: the RT unit's cursor over a recorded visit stream
// yields exactly the visits of a TraversalStepper running the same ray.
// ---------------------------------------------------------------------

/** How a replayed ray ended, for the coverage checks below. */
struct ReplayTally
{
    uint64_t closestRays = 0;
    uint64_t anyHitRays = 0;
    /** Any-hit rays whose last visit tested fewer triangles than the
     *  leaf holds: they stopped mid-leaf. */
    uint64_t anyHitMidLeafStops = 0;
};

/** Step @p task's recorded stream (bits in @p bits) with a VisitCursor
 *  next to a TraversalStepper on the same ray, comparing every visit. */
void
expectReplayMatchesStepper(const rt::Bvh &bvh, const rt::RayTask &task,
                           const uint64_t *bits, ReplayTally &tally)
{
    rt::TraversalStepper stepper;
    stepper.init(&bvh, task.ray, task.mode);
    rt::VisitCursor cursor;
    cursor.init(task.visits, bits);
    rt::StepInfo last;
    uint32_t visit = 0;
    while (!stepper.finished()) {
        ASSERT_FALSE(cursor.finished()) << "replay ended at visit " << visit;
        ASSERT_EQ(cursor.pendingNode(), stepper.pendingNode())
            << "visit " << visit;
        const rt::StepInfo want = stepper.step();
        const rt::StepInfo got = cursor.step(bvh);
        ASSERT_EQ(got.nodeIndex, want.nodeIndex) << "visit " << visit;
        ASSERT_EQ(got.boundsHit, want.boundsHit) << "visit " << visit;
        ASSERT_EQ(got.wasLeaf, want.wasLeaf) << "visit " << visit;
        ASSERT_EQ(got.firstPrimSlot, want.firstPrimSlot) << "visit " << visit;
        ASSERT_EQ(got.triangleTests, want.triangleTests) << "visit " << visit;
        last = want;
        ++visit;
    }
    EXPECT_TRUE(cursor.finished()) << "replay outlived the stepper";
    EXPECT_EQ(visit, task.visits.visits);
    if (task.mode == rt::TraversalMode::ClosestHit) {
        ++tally.closestRays;
    } else {
        ++tally.anyHitRays;
        if (last.wasLeaf &&
            last.triangleTests < bvh.node(last.nodeIndex).primCount) {
            ++tally.anyHitMidLeafStops;
        }
    }
}

class VisitReplay : public testing::TestWithParam<rt::SceneId>
{
};

TEST_P(VisitReplay, CursorMatchesStepperAtEveryVisit)
{
    const rt::Scene scene = rt::buildScene(GetParam());
    rt::Bvh bvh;
    bvh.build(scene.triangles());
    rt::TracerParams params;
    params.samplesPerPixel = 2;
    const rt::Tracer tracer(scene, bvh, params);
    rt::FrameRayRecord frame;
    tracer.render(20, 20, nullptr, &frame);

    ReplayTally tally;
    for (size_t r = 0; r < frame.rays.size(); ++r) {
        SCOPED_TRACE(testing::Message() << "ray " << r);
        expectReplayMatchesStepper(bvh, frame.rays[r],
                                   frame.visitBits.data(), tally);
        if (testing::Test::HasFatalFailure())
            return;
    }
    EXPECT_GT(tally.closestRays, 0u);
    EXPECT_GT(tally.anyHitRays, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllScenes, VisitReplay,
                         testing::ValuesIn(rt::allScenes()),
                         [](const auto &info) {
                             return std::string(rt::sceneName(info.param));
                         });

TEST(VisitReplayEdges, AnyHitRayStoppingMidLeaf)
{
    // Large leaves of overlapping triangles, and shadow rays through
    // them: an occluder found before a leaf's last triangle ends the
    // traversal there.
    Rng rng(7);
    rt::MeshBuilder mesh;
    mesh.addTriangleSoup(rng, {0.0f, 0.0f, 0.0f}, 4.0f, 600, 1.5f, 0);
    const std::vector<rt::Triangle> triangles = mesh.takeTriangles();
    rt::Bvh bvh;
    rt::BvhBuildParams build;
    build.maxLeafSize = 16;
    bvh.build(triangles, build);

    ReplayTally tally;
    for (int i = 0; i < 64; ++i) {
        rt::Ray ray;
        ray.origin = {-10.0f, -1.5f + 0.05f * i, 0.3f * (i % 7) - 1.0f};
        ray.direction = rt::normalize(rt::Vec3{1.0f, 0.01f * (i % 5), 0.0f});
        std::vector<uint64_t> bits;
        rt::VisitSink sink;
        sink.bits = &bits;
        const bool occluded = rt::anyHit(bvh, ray, nullptr, &sink);
        const rt::RayTask task{ray, rt::TraversalMode::AnyHit, occluded,
                               uint16_t{0}, uint8_t{0}, sink.stream};
        SCOPED_TRACE(testing::Message() << "ray " << i);
        expectReplayMatchesStepper(bvh, task, bits.data(), tally);
        if (testing::Test::HasFatalFailure())
            return;
    }
    EXPECT_GT(tally.anyHitMidLeafStops, 0u);
}

TEST(VisitReplayEdges, EmptyBvhRaysHaveNoVisitsAndLanesAreDoneOnEntry)
{
    rt::Scene scene("empty");
    rt::Bvh bvh;
    bvh.build(scene.triangles());
    const rt::Tracer tracer(scene, bvh);
    const gpusim::SimWorkload workload =
        gpusim::SimWorkload::buildFullFrame(tracer, 8, 4);
    for (const gpusim::ThreadWork &thread : workload.threads) {
        ASSERT_GT(thread.rayCount, 0u);
        for (uint32_t r = 0; r < thread.rayCount; ++r)
            EXPECT_EQ(thread.rays[r].visits.visits, 0u);
    }

    // Drive the warp to its first trace; every lane it enters is Done.
    const gpusim::GpuConfig config = gpusim::GpuConfig::mobileSoc();
    gpusim::Warp warp(0, &config, &workload, 0, 32);
    uint64_t cycle = 0;
    warp.poll(cycle);
    while (warp.wantsIssue())
        warp.commitAlu(cycle++);
    warp.poll(cycle + config.aluLatency);
    ASSERT_TRUE(warp.wantsRtSlot());
    std::vector<gpusim::WarpLane> lanes(config.warpSize);
    warp.enterRtUnit(lanes.data());
    for (uint32_t lane = 0; lane < warp.laneCount(); ++lane)
        EXPECT_EQ(lanes[lane].state, gpusim::WarpLane::State::Done) << lane;
    EXPECT_EQ(warp.activeLaneCount(), 0u);

    // And the timed run of that workload visits nothing.
    EXPECT_EQ(gpusim::Gpu(config, workload).run().rtNodeVisits, 0u);
}

// ---------------------------------------------------------------------
// Selector properties across distribution x fraction.
// ---------------------------------------------------------------------

struct SelectorCase
{
    SelectorCase(core::DistributionMethod d, double f)
        : distribution(d), fraction(f)
    {
    }

    core::DistributionMethod distribution;
    // gtest names each case after the param's raw bytes; spelling out
    // the gap before the double keeps those names free of stack garbage.
    uint32_t reserved = 0;
    double fraction;
};
static_assert(sizeof(SelectorCase) == sizeof(core::DistributionMethod) +
                                          sizeof(uint32_t) + sizeof(double),
              "SelectorCase must have no implicit padding");

class SelectorSweep : public testing::TestWithParam<SelectorCase>
{
  protected:
    static heatmap::QuantizedHeatmap
    map()
    {
        std::vector<double> costs(64 * 64);
        for (uint32_t y = 0; y < 64; ++y)
            for (uint32_t x = 0; x < 64; ++x)
                costs[y * 64 + x] = x + 0.2 * y;
        heatmap::Heatmap raw = heatmap::Heatmap::fromCosts(64, 64, costs);
        return heatmap::QuantizedHeatmap::quantize(raw, 5);
    }

    static core::PixelGroup
    group()
    {
        core::PixelGroup pixels;
        for (uint32_t y = 0; y < 64; ++y)
            for (uint32_t x = 0; x < 64; ++x)
                pixels.push_back({x, y});
        return pixels;
    }
};

TEST_P(SelectorSweep, BudgetAndMaskConsistent)
{
    const SelectorCase &c = GetParam();
    heatmap::QuantizedHeatmap quantized = map();
    core::PixelGroup pixels = group();

    core::SelectorParams params;
    params.distribution = c.distribution;
    params.fixedFraction = c.fraction;
    Rng rng(1234);
    core::Selection sel = core::selectRepresentativePixels(
        pixels, quantized, params, rng);

    // Mask count matches selectedCount.
    uint64_t bits = 0;
    for (bool b : sel.mask)
        bits += b;
    EXPECT_EQ(bits, sel.selectedCount);
    // Fraction within one section block of the request.
    EXPECT_NEAR(sel.actualFraction, c.fraction,
                64.0 / pixels.size() + 1e-9);
    // Never exceeds the group.
    EXPECT_LE(sel.selectedCount, pixels.size());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SelectorSweep,
    testing::Values(
        SelectorCase{core::DistributionMethod::Uniform, 0.1},
        SelectorCase{core::DistributionMethod::Uniform, 0.5},
        SelectorCase{core::DistributionMethod::Uniform, 0.9},
        SelectorCase{core::DistributionMethod::LinTemp, 0.1},
        SelectorCase{core::DistributionMethod::LinTemp, 0.5},
        SelectorCase{core::DistributionMethod::LinTemp, 0.9},
        SelectorCase{core::DistributionMethod::ExpTemp, 0.1},
        SelectorCase{core::DistributionMethod::ExpTemp, 0.5},
        SelectorCase{core::DistributionMethod::ExpTemp, 0.9}));

// ---------------------------------------------------------------------
// More pixels traced -> more simulated work, monotonically.
// ---------------------------------------------------------------------

TEST(Monotonicity, VisitsGrowWithFraction)
{
    rt::Scene scene = rt::buildScene(rt::SceneId::Bunny,
                                     rt::SceneDetail{0.4f});
    rt::Bvh bvh;
    bvh.build(scene.triangles());

    core::ZatelParams params;
    params.width = params.height = 48;
    params.downscaleGpu = false;

    uint64_t prev_visits = 0;
    for (double fraction : {0.2, 0.5, 0.8}) {
        params.selector.fixedFraction = fraction;
        core::ZatelPredictor predictor(
            scene, bvh, gpusim::GpuConfig::mobileSoc(), params);
        core::ZatelResult result = predictor.predict();
        uint64_t visits = result.groups[0].stats.rtNodeVisits;
        EXPECT_GT(visits, prev_visits) << "fraction " << fraction;
        prev_visits = visits;
    }
}

TEST(Monotonicity, GroupCyclesNeverExceedOracleByMuch)
{
    // A downscaled group tracing everything should take cycles in the
    // same ballpark as the full GPU on the full scene (weak scaling).
    rt::Scene scene = rt::buildScene(rt::SceneId::Spnza,
                                     rt::SceneDetail{0.5f});
    rt::Bvh bvh;
    bvh.build(scene.triangles());

    core::ZatelParams params;
    params.width = params.height = 48;
    params.selector.fixedFraction = 1.0;
    core::ZatelPredictor predictor(scene, bvh,
                                   gpusim::GpuConfig::mobileSoc(), params);
    core::OracleResult oracle = predictor.runOracle();
    core::ZatelResult result = predictor.predict();
    for (const core::GroupResult &group : result.groups) {
        EXPECT_LT(group.stats.cycles, 3 * oracle.stats.cycles);
        EXPECT_GT(group.stats.cycles, oracle.stats.cycles / 3);
    }
}

} // namespace
} // namespace zatel
