/**
 * @file
 * Ablation - profiling source (paper Section III-B claim).
 *
 * The paper asserts that generating the heatmap on real GPU hardware
 * (fast, noisy shader timers) and in the simulator's functional mode
 * (slow, exact) "yield comparable results" because color quantization
 * removes the noise. This ablation quantifies the claim: it runs the
 * full Zatel pipeline with exact profiling and with increasingly noisy
 * hardware-timer profiling and compares the resulting prediction MAEs.
 */

#include <cstdio>
#include <optional>

#include "bench_common.hh"
#include "util/table.hh"

int
main()
{
    using namespace zatel;
    using namespace zatel::bench;

    BenchOptions options = benchOptions();
    printHeader("Ablation: functional vs hardware-timer heatmap profiling "
                "(Section III-B)",
                options);

    AsciiTable table({"Scene", "exact MAE", "noise 10% MAE",
                      "noise 25% MAE", "noise 50% MAE"});

    std::vector<rt::SceneId> scenes = {rt::SceneId::Park, rt::SceneId::Wknd,
                                       rt::SceneId::Bunny};
    if (options.quick)
        scenes.resize(2);

    for (rt::SceneId id : scenes) {
        PreparedScene prepared(id);
        core::ZatelParams params = defaultParams(options);
        // Run after the exact prediction, on its predictor: the frame
        // ray record it slices does not depend on the profiling noise.
        std::optional<core::OracleResult> oracle;

        std::vector<std::string> row{prepared.scene.name()};
        for (double noise : {0.0, 0.10, 0.25, 0.50}) {
            core::ZatelParams noisy = params;
            if (noise > 0.0) {
                noisy.profiler.source =
                    heatmap::ProfilingSource::HardwareTimer;
                noisy.profiler.timerNoise = noise;
            }
            core::ZatelPredictor predictor(prepared.scene, prepared.bvh,
                                           gpusim::GpuConfig::mobileSoc(),
                                           noisy);
            core::ZatelResult result = predictor.predict();
            if (!oracle) {
                std::printf("[%s] oracle...\n",
                            prepared.scene.name().c_str());
                oracle = predictor.runOracle();
            }
            auto rows =
                core::compareToOracle(result.predicted, oracle->stats);
            row.push_back(AsciiTable::pct(core::maeOf(rows)));
        }
        table.addRow(row);
        std::printf("[%s] done\n", prepared.scene.name().c_str());
    }

    std::printf("\n%s", table.toString().c_str());
    std::printf("\nShape to check: prediction quality is nearly flat in "
                "the profiling noise - K-Means quantization\nmerges the "
                "jittered colors back into the same few groups, which is "
                "why the paper can profile on\nreal hardware in seconds "
                "instead of running the functional simulator.\n");
    return 0;
}
