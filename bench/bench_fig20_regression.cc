/**
 * @file
 * Fig. 20 - exponential-regression extrapolation vs direct 40% tracing
 * (Section IV-F). Each scene is simulated at 20/30/40% of pixels; a
 * shifted-exponential fit through the three samples predicts the 100%
 * value per metric. The paper finds regression is NOT clearly better:
 * ~62% of metrics get worse than simply tracing 40% once.
 */

#include <cstdio>

#include "bench_common.hh"
#include "util/table.hh"

int
main()
{
    using namespace zatel;
    using namespace zatel::bench;
    using gpusim::Metric;

    BenchOptions options = benchOptions();
    gpusim::GpuConfig sweep_target = sweepConfig(options);
    printHeader("Fig. 20: exponential-regression extrapolation vs direct 40% tracing",
                options);

    gpusim::GpuConfig config = sweep_target;
    std::printf("sweep target: %s (paper plots the RTX 2060; both configs share the trends)\n",
                config.name.c_str());
    AsciiTable table({"Scene", "Metric", "Regression err", "40% err",
                      "Regression wins?"});

    int regression_better = 0;
    int total = 0;

    for (rt::SceneId id : benchScenes(options)) {
        PreparedScene prepared(id);
        core::ZatelParams params = defaultParams(options);
        params.downscaleGpu = false;

        // Baseline: one run at 40%. Its render also serves the oracle.
        params.selector.fixedFraction = 0.4;
        core::ZatelPredictor direct(prepared.scene, prepared.bvh, config,
                                    params);
        core::ZatelResult direct_result = direct.predict();
        std::printf("[%s] oracle...\n", prepared.scene.name().c_str());
        core::OracleResult oracle = direct.runOracle();
        auto direct_rows =
            core::compareToOracle(direct_result.predicted, oracle.stats);

        // Regression: 20/30/40% runs + 3-point exponential fit.
        core::ZatelParams reg_params = defaultParams(options);
        reg_params.downscaleGpu = false;
        reg_params.extrapolation =
            core::ExtrapolationMethod::ExponentialRegression;
        core::ZatelPredictor regression(prepared.scene, prepared.bvh,
                                        config, reg_params);
        auto reg_rows = core::compareToOracle(
            regression.predict().predicted, oracle.stats);

        for (size_t m = 0; m < reg_rows.size(); ++m) {
            bool wins = reg_rows[m].errorPct < direct_rows[m].errorPct;
            regression_better += wins;
            ++total;
            table.addRow({prepared.scene.name(),
                          gpusim::metricName(reg_rows[m].metric),
                          AsciiTable::pct(reg_rows[m].errorPct),
                          AsciiTable::pct(direct_rows[m].errorPct),
                          wins ? "yes" : "no"});
        }
        table.addRule();
        std::printf("[%s] done\n", prepared.scene.name().c_str());
    }

    std::printf("\n%s", table.toString().c_str());
    double worse_pct =
        100.0 * (total - regression_better) / std::max(1, total);
    std::printf("\n%.0f%% of metrics are WORSE with regression than with "
                "direct 40%% tracing\n(paper: 62%% worse on the RTX "
                "2060). Regression also costs three simulator runs "
                "instead of one,\nso it provides no clear advantage - "
                "the paper's Section IV-F conclusion.\n",
                worse_pct);
    return 0;
}
