/**
 * @file
 * Edge cases and error-path tests across modules (fatal/panic paths,
 * boundary inputs).
 */

#include <gtest/gtest.h>

#include "gpusim/gpu.hh"
#include "rt/bvh.hh"
#include "rt/mesh.hh"
#include "rt/tracer.hh"
#include "zatel/downscale.hh"
#include "zatel/predictor.hh"

namespace zatel
{
namespace
{

struct TinyFixture : public testing::Test
{
    void
    SetUp() override
    {
        scene.setCamera(rt::Camera({0.0f, 0.0f, 4.0f}, {0.0f, 0.0f, 0.0f},
                                   {0.0f, 1.0f, 0.0f}, 45.0f));
        scene.setLight({{2.0f, 3.0f, 2.0f}, {1.0f, 1.0f, 1.0f}});
        uint16_t mat =
            scene.addMaterial(rt::Material::diffuse({0.5f, 0.5f, 0.5f}));
        rt::MeshBuilder mesh;
        mesh.addSphere({0.0f, 0.0f, 0.0f}, 1.0f, 8, mat);
        scene.addTriangles(mesh.takeTriangles());
        bvh.build(scene.triangles());
        tracer = std::make_unique<rt::Tracer>(scene, bvh);
    }

    rt::Scene scene{"tiny"};
    rt::Bvh bvh;
    std::unique_ptr<rt::Tracer> tracer;
};

TEST_F(TinyFixture, WorkloadRejectsOutOfBoundsPixel)
{
    std::vector<gpusim::PixelCoord> pixels{{100, 100}};
    EXPECT_DEATH(gpusim::SimWorkload::build(*tracer, 8, 8, pixels),
                 "out of bounds");
}

TEST_F(TinyFixture, WorkloadRejectsMisalignedMask)
{
    std::vector<gpusim::PixelCoord> pixels{{0, 0}, {1, 0}};
    std::vector<bool> mask{true}; // wrong length
    EXPECT_DEATH(gpusim::SimWorkload::build(*tracer, 8, 8, pixels, &mask),
                 "align");
}

TEST_F(TinyFixture, GpuRunIsSingleUse)
{
    gpusim::SimWorkload workload =
        gpusim::SimWorkload::buildFullFrame(*tracer, 4, 4);
    gpusim::Gpu gpu(gpusim::GpuConfig::mobileSoc(), workload);
    gpu.run();
    EXPECT_DEATH(gpu.run(), "single-use");
}

TEST_F(TinyFixture, StatsReportBeforeRunIsFatal)
{
    gpusim::SimWorkload workload =
        gpusim::SimWorkload::buildFullFrame(*tracer, 4, 4);
    gpusim::Gpu gpu(gpusim::GpuConfig::mobileSoc(), workload);
    EXPECT_DEATH(gpu.statsReport(), "completed run");
}

TEST_F(TinyFixture, TotalWarpsCountsCeiling)
{
    // 4x4 = 16 pixels -> one partial warp.
    gpusim::SimWorkload w1 =
        gpusim::SimWorkload::buildFullFrame(*tracer, 4, 4);
    gpusim::Gpu g1(gpusim::GpuConfig::mobileSoc(), w1);
    EXPECT_EQ(g1.totalWarps(), 1u);
    // 8x8 = 64 pixels -> two warps.
    gpusim::SimWorkload w2 =
        gpusim::SimWorkload::buildFullFrame(*tracer, 8, 8);
    gpusim::Gpu g2(gpusim::GpuConfig::mobileSoc(), w2);
    EXPECT_EQ(g2.totalWarps(), 2u);
}

TEST_F(TinyFixture, ForcedKMustDivideWhenDownscaling)
{
    core::ZatelParams params;
    params.width = params.height = 16;
    params.forcedK = 3; // does not divide 8 SMs / 4 partitions
    core::ZatelPredictor predictor(scene, bvh,
                                   gpusim::GpuConfig::mobileSoc(), params);
    EXPECT_EXIT(predictor.predict(), testing::ExitedWithCode(1),
                "does not divide");
}

TEST_F(TinyFixture, OnePixelImagePredicts)
{
    core::ZatelParams params;
    params.width = params.height = 8;
    params.forcedK = 1;
    params.selector.fixedFraction = 1.0;
    core::ZatelPredictor predictor(scene, bvh,
                                   gpusim::GpuConfig::mobileSoc(), params);
    core::ZatelResult result = predictor.predict();
    EXPECT_EQ(result.k, 1u);
    EXPECT_DOUBLE_EQ(result.fractionTraced, 1.0);
    // With K=1 and everything traced, prediction == oracle exactly.
    core::OracleResult oracle = predictor.runOracle();
    EXPECT_DOUBLE_EQ(result.metric(gpusim::Metric::SimCycles),
                     oracle.stats.simCycles());
}

TEST_F(TinyFixture, DownscaleKOneIsExactWhenTracingEverything)
{
    // The strongest consistency property of the whole pipeline: no
    // sampling and no downscaling means the prediction is the oracle.
    core::ZatelParams params;
    params.width = params.height = 16;
    params.downscaleGpu = false;
    params.selector.fixedFraction = 1.0;
    core::ZatelPredictor predictor(scene, bvh,
                                   gpusim::GpuConfig::mobileSoc(), params);
    core::ZatelResult result = predictor.predict();
    core::OracleResult oracle = predictor.runOracle();
    for (gpusim::Metric metric : gpusim::allMetrics()) {
        EXPECT_DOUBLE_EQ(result.metric(metric),
                         oracle.stats.metricValue(metric))
            << gpusim::metricName(metric);
    }
}

TEST(DownscaleEdge, FactorOfPrimeConfigIsOne)
{
    gpusim::GpuConfig config = gpusim::GpuConfig::rtx2060();
    config.numSms = 7;
    config.numMemPartitions = 3;
    EXPECT_EQ(core::downscaleFactor(config), 1u);
}

} // namespace
} // namespace zatel
