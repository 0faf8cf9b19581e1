/**
 * @file
 * Tests for the PKA/PKP-style early-termination baseline.
 */

#include <cstring>
#include <memory>

#include <gtest/gtest.h>

#include "rt/bvh.hh"
#include "rt/ray_record.hh"
#include "rt/scene_library.hh"
#include "rt/tracer.hh"
#include "gpusim/gpu.hh"
#include "zatel/baseline_pkp.hh"

namespace zatel::core
{
namespace
{

struct PkpFixture : public testing::Test
{
    void
    SetUp() override
    {
        scene = rt::buildScene(rt::SceneId::Spnza, rt::SceneDetail{0.5f});
        bvh.build(scene.triangles());
        tracer = std::make_unique<rt::Tracer>(scene, bvh);
        config = gpusim::GpuConfig::mobileSoc();
        params.width = params.height = 48;
    }

    rt::Scene scene;
    rt::Bvh bvh;
    std::unique_ptr<rt::Tracer> tracer;
    gpusim::GpuConfig config;
    PkpParams params;
};

TEST_F(PkpFixture, ProducesAllMetrics)
{
    PkpResult result = runPkpBaseline(config, *tracer, params);
    for (gpusim::Metric metric : gpusim::allMetrics()) {
        ASSERT_TRUE(result.predicted.count(metric))
            << gpusim::metricName(metric);
        EXPECT_GE(result.predicted.at(metric), 0.0);
    }
    EXPECT_GT(result.simulatedCycles, 0u);
    EXPECT_GT(result.workFractionCompleted, 0.0);
    EXPECT_LE(result.workFractionCompleted, 1.0);
    EXPECT_GT(result.cpuSeconds, 0.0);
    EXPECT_LE(result.cpuSeconds, result.wallSeconds + 1e-3);
}

TEST_F(PkpFixture, NeverStoppingMatchesFullRun)
{
    // An impossible stability threshold runs to completion: projection
    // with fraction 1 equals the plain simulation.
    params.epsilon = 0.0;
    PkpResult result = runPkpBaseline(config, *tracer, params);
    EXPECT_FALSE(result.stoppedEarly);
    EXPECT_DOUBLE_EQ(result.workFractionCompleted, 1.0);

    gpusim::GpuStats oracle = gpusim::simulateFullFrame(
        config, *tracer, params.width, params.height);
    EXPECT_DOUBLE_EQ(result.predicted.at(gpusim::Metric::SimCycles),
                     oracle.simCycles());
}

TEST_F(PkpFixture, AggressiveDetectorStopsEarly)
{
    params.epsilon = 0.5; // almost anything counts as stable
    params.window = 2;
    params.checkIntervalCycles = 200;
    params.minProgress = 0.01;
    PkpResult result = runPkpBaseline(config, *tracer, params);
    EXPECT_TRUE(result.stoppedEarly);
    EXPECT_LT(result.workFractionCompleted, 1.0);
    // The cycle projection scales up the truncated run.
    EXPECT_GT(result.predicted.at(gpusim::Metric::SimCycles),
              static_cast<double>(result.simulatedCycles));
}

TEST_F(PkpFixture, MinProgressIsHonoured)
{
    params.epsilon = 10.0; // trivially stable
    params.window = 2;
    params.minProgress = 0.5;
    PkpResult result = runPkpBaseline(config, *tracer, params);
    EXPECT_GE(result.workFractionCompleted, 0.5 - 0.05);
}

TEST_F(PkpFixture, EarlyStopIsFasterThanFullRun)
{
    params.epsilon = 0.0;
    PkpResult full = runPkpBaseline(config, *tracer, params);
    params.epsilon = 0.5;
    params.window = 2;
    params.minProgress = 0.01;
    params.checkIntervalCycles = 200;
    PkpResult early = runPkpBaseline(config, *tracer, params);
    EXPECT_LT(early.simulatedCycles, full.simulatedCycles);
}

TEST_F(PkpFixture, FrameRayRecordChangesNoResult)
{
    // Slicing a render's frame ray record instead of tracing the frame
    // moves only the timed work, whether or not the detector fires.
    auto frame = std::make_shared<rt::FrameRayRecord>();
    tracer->render(params.width, params.height, nullptr, frame.get());
    PkpParams aggressive = params;
    aggressive.epsilon = 0.5;
    aggressive.window = 2;
    aggressive.checkIntervalCycles = 200;
    aggressive.minProgress = 0.01;
    for (const PkpParams &run : {params, aggressive}) {
        PkpResult traced = runPkpBaseline(config, *tracer, run);
        PkpResult sliced = runPkpBaseline(config, *tracer, run, frame);
        ASSERT_EQ(traced.predicted.size(), sliced.predicted.size());
        for (const auto &[metric, value] : traced.predicted) {
            EXPECT_EQ(std::memcmp(&value, &sliced.predicted.at(metric),
                                  sizeof(double)),
                      0)
                << gpusim::metricName(metric);
        }
        EXPECT_EQ(traced.simulatedCycles, sliced.simulatedCycles);
        EXPECT_EQ(traced.stoppedEarly, sliced.stoppedEarly);
        EXPECT_EQ(std::memcmp(&traced.workFractionCompleted,
                              &sliced.workFractionCompleted,
                              sizeof(double)),
                  0);
    }
}

TEST(GpuProgressCallback, SnapshotMatchesFinalWhenNeverStopping)
{
    rt::Scene scene = rt::buildScene(rt::SceneId::Ship,
                                     rt::SceneDetail{0.5f});
    rt::Bvh bvh;
    bvh.build(scene.triangles());
    rt::Tracer tracer(scene, bvh);
    gpusim::SimWorkload workload =
        gpusim::SimWorkload::buildFullFrame(tracer, 16, 16);
    gpusim::Gpu gpu(gpusim::GpuConfig::mobileSoc(), workload);

    uint64_t callbacks = 0;
    uint64_t last_visits = 0;
    gpu.setProgressCallback(1000, [&](uint64_t cycle,
                                      const gpusim::GpuStats &snapshot) {
        ++callbacks;
        EXPECT_EQ(snapshot.cycles, cycle);
        // Monotone progress.
        EXPECT_GE(snapshot.rtNodeVisits, last_visits);
        last_visits = snapshot.rtNodeVisits;
        return false;
    });
    gpusim::GpuStats stats = gpu.run();
    EXPECT_FALSE(gpu.stoppedEarly());
    EXPECT_GT(callbacks, 0u);
    EXPECT_GE(stats.rtNodeVisits, last_visits);
}

} // namespace
} // namespace zatel::core
