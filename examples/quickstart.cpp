/**
 * @file
 * Quickstart: predict a GPU's ray-tracing performance with Zatel.
 *
 * Builds the PARK scene, runs the full Zatel pipeline against the Mobile
 * SoC configuration, runs the oracle (full cycle-level simulation) for
 * reference, and prints the per-metric comparison plus the achieved
 * speedup with one CPU core per group (thread CPU seconds).
 *
 * Usage: quickstart [scene] [resolution]
 *   scene       one of PARK SPRNG BUNNY CHSNT SPNZA BATH SHIP WKND
 *               (default PARK)
 *   resolution  square image size in pixels (default 96)
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "rt/bvh.hh"
#include "rt/scene_library.hh"
#include "service/campaign.hh"
#include "zatel/evaluation.hh"
#include "zatel/predictor.hh"

int
main(int argc, char **argv)
{
    using namespace zatel;

    rt::SceneId scene_id = rt::SceneId::Park;
    try {
        if (argc > 1)
            scene_id = service::resolveSceneName(argv[1]);
    } catch (const service::CampaignError &err) {
        std::fprintf(stderr, "error: %s\n", err.what());
        return 1;
    }
    uint32_t resolution =
        argc > 2 ? static_cast<uint32_t>(std::atoi(argv[2])) : 96;

    // 1. Build the scene and its acceleration structure.
    rt::Scene scene = rt::buildScene(scene_id);
    rt::Bvh bvh;
    bvh.build(scene.triangles());
    std::printf("scene %s: %zu triangles, %u BVH nodes\n",
                scene.name().c_str(), scene.triangleCount(),
                bvh.nodeCount());

    // 2. Configure the pipeline for the Mobile SoC target (Table II).
    gpusim::GpuConfig target = gpusim::GpuConfig::mobileSoc();
    core::ZatelParams params;
    params.width = resolution;
    params.height = resolution;

    core::ZatelPredictor predictor(scene, bvh, target, params);
    std::printf("target %s: downscale factor K = %u\n",
                target.name.c_str(), predictor.effectiveK());

    // 3. The Zatel prediction.
    std::printf("running Zatel...\n");
    core::ZatelResult result = predictor.predict();

    // 4. Reference: the full cycle-level simulation Zatel replaces. It
    //    replays the rays the prediction's render recorded, so the frame
    //    is traced once.
    std::printf("running oracle (full %ux%u simulation)...\n", resolution,
                resolution);
    core::OracleResult oracle = predictor.runOracle();

    // 5. Report.
    auto rows = core::compareToOracle(result.predicted, oracle.stats);
    std::printf("\n%s", core::comparisonTable(
                            rows, "Zatel prediction vs full simulation")
                            .c_str());
    std::printf("\npixels traced: %.1f%% of the image plane\n",
                result.fractionTraced * 100.0);
    std::printf("oracle wall time: %.2fs, Zatel wall time: %.2fs "
                "(measured), slowest instance: %.2fs\n",
                oracle.wallSeconds, result.simWallSeconds,
                result.maxGroupWallSeconds);
    std::printf("speedup with one CPU core per group (the paper's "
                "deployment): %.1fx\n",
                core::oneCorePerGroupSpeedup(oracle, result));
    return 0;
}
