/**
 * @file
 * Fig. 11 - RTX 2060 metrics normalized to the Mobile SoC baseline:
 * Vulkan-Sim (oracle) vs Zatel. Checks that Zatel preserves relative
 * cross-architecture trends (the paper's max normalized-metric gap is
 * 37.6% on L2 miss rate, min 0.6% on L1D miss rate).
 */

#include <cmath>
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
    printHeader(
        "Fig. 11: RTX 2060 relative to Mobile SoC - oracle vs Zatel",
        options);

    PreparedScene park(rt::SceneId::Park);

    std::map<Metric, double> oracle_values[2];
    std::map<Metric, double> zatel_values[2];
    int column = 0;
    for (const gpusim::GpuConfig &config :
         {gpusim::GpuConfig::mobileSoc(), gpusim::GpuConfig::rtx2060()}) {
        core::ZatelParams params = defaultParams(options);
        core::ZatelPredictor predictor(park.scene, park.bvh, config,
                                       params);
        std::printf("[%s] Zatel + oracle...\n", config.name.c_str());
        zatel_values[column] = predictor.predict().predicted;
        oracle_values[column] = predictor.runOracle().metrics();
        ++column;
    }

    AsciiTable table({"Metric", "Oracle 2060/SoC", "Zatel 2060/SoC",
                      "Normalized diff"});
    double max_diff = 0.0, min_diff = 1e9;
    for (Metric metric : gpusim::allMetrics()) {
        double oracle_ratio =
            oracle_values[1][metric] / (oracle_values[0][metric] + 1e-12);
        double zatel_ratio =
            zatel_values[1][metric] / (zatel_values[0][metric] + 1e-12);
        double diff =
            std::abs(zatel_ratio - oracle_ratio) /
            std::max(1e-12, std::abs(oracle_ratio)) * 100.0;
        max_diff = std::max(max_diff, diff);
        min_diff = std::min(min_diff, diff);
        table.addRow({gpusim::metricName(metric),
                      AsciiTable::num(oracle_ratio, 3),
                      AsciiTable::num(zatel_ratio, 3),
                      AsciiTable::pct(diff)});
    }
    std::printf("\n%s", table.toString().c_str());
    std::printf("\nmax normalized difference %.1f%%, min %.1f%% (paper: "
                "37.6%% max on L2 miss rate, 0.6%% min on L1D).\nShape to "
                "check: Zatel's ratios track the oracle's - the predicted "
                "architecture ordering is preserved.\n",
                max_diff, min_diff);
    return 0;
}
