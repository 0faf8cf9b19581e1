/**
 * @file
 * Sampling study: how the traced-pixel percentage trades accuracy for
 * speed on one scene (a self-serve miniature of paper Figs. 13-15).
 *
 * Sweeps the fixed trace fraction from 10% to 90% without GPU
 * downscaling, reporting the simulation-cycles error and the speedup
 * with one CPU core per group at each point, plus a fitted power-law
 * speedup model like the paper's equation (4).
 *
 * Usage: sampling_study [scene] [resolution]
 */

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <vector>

#include "rt/bvh.hh"
#include "rt/scene_library.hh"
#include "service/campaign.hh"
#include "util/regression.hh"
#include "util/table.hh"
#include "zatel/evaluation.hh"
#include "zatel/predictor.hh"

int
main(int argc, char **argv)
{
    using namespace zatel;
    using gpusim::Metric;

    rt::SceneId scene_id = rt::SceneId::Bunny;
    try {
        if (argc > 1)
            scene_id = service::resolveSceneName(argv[1]);
    } catch (const service::CampaignError &err) {
        std::fprintf(stderr, "error: %s\n", err.what());
        return 1;
    }
    uint32_t resolution =
        argc > 2 ? static_cast<uint32_t>(std::atoi(argv[2])) : 96;

    rt::Scene scene = rt::buildScene(scene_id);
    rt::Bvh bvh;
    bvh.build(scene.triangles());

    gpusim::GpuConfig target = gpusim::GpuConfig::rtx2060();
    core::ZatelParams params;
    params.width = resolution;
    params.height = resolution;
    params.downscaleGpu = false; // isolate the pixel-sampling effect

    // The oracle runs after the first prediction, on its predictor, and
    // replays the rays that prediction's render recorded.
    std::optional<core::OracleResult> oracle;

    AsciiTable table({"% pixels", "Cycles error", "MAE (all metrics)",
                      "Zatel wall (s)", "Speedup"});
    std::vector<double> percents, speedups;

    for (int percent = 10; percent <= 90; percent += 20) {
        params.selector.fixedFraction = percent / 100.0;
        core::ZatelPredictor predictor(scene, bvh, target, params);
        core::ZatelResult result = predictor.predict();
        if (!oracle) {
            std::printf("oracle: full %ux%u %s simulation on %s...\n",
                        resolution, resolution, scene.name().c_str(),
                        target.name.c_str());
            oracle = predictor.runOracle();
        }
        auto rows = core::compareToOracle(result.predicted, oracle->stats);
        double speedup = core::oneCorePerGroupSpeedup(*oracle, result);
        table.addRow(
            {std::to_string(percent),
             AsciiTable::pct(core::errorOf(rows, Metric::SimCycles)),
             AsciiTable::pct(core::maeOf(rows)),
             AsciiTable::num(result.simWallSeconds, 2),
             AsciiTable::num(speedup, 1) + "x"});
        percents.push_back(percent);
        speedups.push_back(speedup);
    }

    std::printf("\n%s", table.toString().c_str());

    PowerFit fit = fitPowerLaw(percents, speedups);
    std::printf("\nfitted speedup model: speedup(perc) = %.1f * "
                "perc^%.2f   (paper eq. 4: 181 * perc^-1.15)\n",
                fit.scale, fit.exponent);
    std::printf("Errors shrink and speedups fall as more pixels are "
                "traced - the Figs. 13/15 trade-off.\n");
    return 0;
}
