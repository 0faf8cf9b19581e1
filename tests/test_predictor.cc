/**
 * @file
 * Integration tests for the end-to-end ZatelPredictor pipeline.
 */

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "rt/scene_library.hh"
#include "zatel/evaluation.hh"
#include "zatel/predictor.hh"

namespace zatel::core
{
namespace
{

using gpusim::GpuConfig;
using gpusim::Metric;

struct PredictorFixture : public testing::Test
{
    void
    SetUp() override
    {
        scene = rt::buildScene(rt::SceneId::Wknd, rt::SceneDetail{0.5f});
        bvh.build(scene.triangles());
    }

    ZatelParams
    smallParams()
    {
        ZatelParams params;
        params.width = 64;
        params.height = 64;
        return params;
    }

    rt::Scene scene;
    rt::Bvh bvh;
};

TEST_F(PredictorFixture, EffectiveKMatchesGcd)
{
    ZatelParams params = smallParams();
    ZatelPredictor soc(scene, bvh, GpuConfig::mobileSoc(), params);
    EXPECT_EQ(soc.effectiveK(), 4u);
    ZatelPredictor rtx(scene, bvh, GpuConfig::rtx2060(), params);
    EXPECT_EQ(rtx.effectiveK(), 6u);

    params.downscaleGpu = false;
    ZatelPredictor flat(scene, bvh, GpuConfig::mobileSoc(), params);
    EXPECT_EQ(flat.effectiveK(), 1u);

    params.forcedK = 2;
    ZatelPredictor forced(scene, bvh, GpuConfig::mobileSoc(), params);
    EXPECT_EQ(forced.effectiveK(), 2u);
}

TEST_F(PredictorFixture, PredictProducesAllMetrics)
{
    ZatelParams params = smallParams();
    ZatelPredictor predictor(scene, bvh, GpuConfig::mobileSoc(), params);
    ZatelResult result = predictor.predict();

    EXPECT_EQ(result.k, 4u);
    EXPECT_EQ(result.groups.size(), 4u);
    for (Metric metric : gpusim::allMetrics()) {
        ASSERT_TRUE(result.predicted.count(metric));
        EXPECT_GE(result.predicted.at(metric), 0.0)
            << gpusim::metricName(metric);
    }
    EXPECT_GT(result.metric(Metric::SimCycles), 0.0);
    EXPECT_GT(result.metric(Metric::Ipc), 0.0);
    EXPECT_GE(result.fractionTraced, 0.25);
    EXPECT_LE(result.fractionTraced, 0.7);
    EXPECT_GT(result.simWallSeconds, 0.0);
}

TEST_F(PredictorFixture, GroupsCoverImagePlane)
{
    ZatelParams params = smallParams();
    ZatelPredictor predictor(scene, bvh, GpuConfig::mobileSoc(), params);
    ZatelResult result = predictor.predict();

    uint64_t total_pixels = 0;
    double max_cpu = 0.0;
    for (const GroupResult &group : result.groups) {
        total_pixels += group.pixels;
        EXPECT_GT(group.selectedPixels, 0u);
        EXPECT_LE(group.selectedPixels, group.pixels);
        EXPECT_EQ(group.extrapolated.size(), gpusim::allMetrics().size());
        // One thread's CPU time fits in its wall time (timers read a
        // few instructions apart).
        EXPECT_GT(group.cpuSeconds, 0.0);
        EXPECT_LE(group.cpuSeconds, group.wallSeconds + 1e-3);
        max_cpu = std::max(max_cpu, group.cpuSeconds);
    }
    EXPECT_EQ(total_pixels, 64ull * 64ull);
    EXPECT_EQ(result.maxGroupCpuSeconds, max_cpu);
}

TEST_F(PredictorFixture, OracleMatchesDirectSimulation)
{
    ZatelParams params = smallParams();
    ZatelPredictor predictor(scene, bvh, GpuConfig::mobileSoc(), params);
    OracleResult oracle = predictor.runOracle();
    EXPECT_GT(oracle.stats.cycles, 0u);
    EXPECT_EQ(oracle.stats.pixelsTraced, 64ull * 64ull);
    EXPECT_GT(oracle.wallSeconds, 0.0);
    EXPECT_GT(oracle.cpuSeconds, 0.0);
    EXPECT_LE(oracle.cpuSeconds, oracle.wallSeconds + 1e-3);

    auto metrics = oracle.metrics();
    EXPECT_EQ(metrics.size(), gpusim::allMetrics().size());
    EXPECT_DOUBLE_EQ(metrics.at(Metric::SimCycles),
                     static_cast<double>(oracle.stats.cycles));
}

TEST_F(PredictorFixture, PredictionInSaneRangeOfOracle)
{
    ZatelParams params = smallParams();
    ZatelPredictor predictor(scene, bvh, GpuConfig::mobileSoc(), params);
    OracleResult oracle = predictor.runOracle();
    ZatelResult result = predictor.predict();

    // Not an accuracy test - a sanity corridor: predictions within 3x.
    double predicted = result.metric(Metric::SimCycles);
    double actual = oracle.stats.simCycles();
    EXPECT_GT(predicted, actual / 3.0);
    EXPECT_LT(predicted, actual * 3.0);
}

// Fig. 13's shape (EXPERIMENTS.md) on the Mobile SoC without GPU
// downscaling: every scene's cycles error falls as the traced fraction
// grows, and SPRNG, whose two objects never saturate the GPU, has the
// largest error at 10%. At 64x64 SHIP leaves the GPU about as idle and
// the two trade that lead from seed to seed; at 128x128 SPRNG leads
// for every seed tried.
TEST(PredictorShape, CyclesErrorFallsWithFractionAndSprngLeadsAtTenPercent)
{
    const std::vector<double> fractions = {0.1, 0.5, 0.9};
    const std::vector<rt::SceneId> scenes = {
        rt::SceneId::Park, rt::SceneId::Sprng, rt::SceneId::Bunny,
        rt::SceneId::Ship};
    std::map<rt::SceneId, std::vector<double>> errors;
    for (rt::SceneId id : scenes) {
        rt::Scene scene = rt::buildScene(id);
        rt::Bvh bvh;
        bvh.build(scene.triangles());
        ZatelParams params;
        params.width = 128;
        params.height = 128;
        params.downscaleGpu = false;
        std::optional<OracleResult> oracle;
        for (double fraction : fractions) {
            params.selector.fixedFraction = fraction;
            ZatelPredictor predictor(scene, bvh, GpuConfig::mobileSoc(),
                                     params);
            ZatelResult result = predictor.predict();
            if (!oracle)
                oracle = predictor.runOracle();
            errors[id].push_back(errorOf(
                compareToOracle(result.predicted, oracle->stats),
                Metric::SimCycles));
        }
        EXPECT_GT(errors[id][0], errors[id][1]) << rt::sceneName(id);
        EXPECT_GT(errors[id][1], errors[id][2]) << rt::sceneName(id);
    }
    for (rt::SceneId id : scenes) {
        if (id == rt::SceneId::Sprng)
            continue;
        EXPECT_GT(errors[rt::SceneId::Sprng][0], errors[id][0])
            << rt::sceneName(id);
    }
}

TEST_F(PredictorFixture, FixedFractionMode)
{
    ZatelParams params = smallParams();
    params.downscaleGpu = false;
    params.selector.fixedFraction = 0.2;
    ZatelPredictor predictor(scene, bvh, GpuConfig::mobileSoc(), params);
    ZatelResult result = predictor.predict();
    EXPECT_EQ(result.k, 1u);
    EXPECT_NEAR(result.fractionTraced, 0.2, 0.05);
}

TEST_F(PredictorFixture, RegressionModeRuns)
{
    ZatelParams params = smallParams();
    params.downscaleGpu = false;
    params.extrapolation = ExtrapolationMethod::ExponentialRegression;
    ZatelPredictor predictor(scene, bvh, GpuConfig::mobileSoc(), params);
    ZatelResult result = predictor.predict();
    for (Metric metric : gpusim::allMetrics())
        ASSERT_TRUE(result.predicted.count(metric));
    // The exposed group run is the 40% one.
    EXPECT_NEAR(result.groups[0].fractionTraced, 0.4, 0.05);
}

TEST_F(PredictorFixture, CoarsePartitioningWorks)
{
    ZatelParams params = smallParams();
    params.partition.method = DivisionMethod::CoarseGrained;
    ZatelPredictor predictor(scene, bvh, GpuConfig::mobileSoc(), params);
    ZatelResult result = predictor.predict();
    EXPECT_EQ(result.groups.size(), 4u);
    EXPECT_GT(result.metric(Metric::SimCycles), 0.0);
}

TEST_F(PredictorFixture, DeterministicForSeed)
{
    ZatelParams params = smallParams();
    params.numThreads = 1; // avoid wall-clock-dependent scheduling
    ZatelPredictor a(scene, bvh, GpuConfig::mobileSoc(), params);
    ZatelPredictor b(scene, bvh, GpuConfig::mobileSoc(), params);
    ZatelResult ra = a.predict();
    ZatelResult rb = b.predict();
    for (Metric metric : gpusim::allMetrics()) {
        EXPECT_DOUBLE_EQ(ra.predicted.at(metric), rb.predicted.at(metric))
            << gpusim::metricName(metric);
    }
}

TEST_F(PredictorFixture, QuantizedHeatmapAvailableAfterPredict)
{
    ZatelParams params = smallParams();
    ZatelPredictor predictor(scene, bvh, GpuConfig::mobileSoc(), params);
    predictor.predict();
    EXPECT_EQ(predictor.quantizedHeatmap().width(), 64u);
    EXPECT_GT(predictor.quantizedHeatmap().paletteSize(), 1u);
}

} // namespace
} // namespace zatel::core
