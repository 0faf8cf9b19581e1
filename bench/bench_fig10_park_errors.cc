/**
 * @file
 * Fig. 10 - absolute error per metric for fully optimized Zatel on the
 * PARK scene, on both Table II configurations. Also reproduces the
 * Section IV-B text experiment: capping the trace budget at 10% of
 * pixels for the large speedup point (paper: 50x at 5.2% MAE on the
 * Mobile SoC).
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
    printHeader("Fig. 10: Zatel error per metric on PARK (fully optimized)",
                options);

    PreparedScene park(rt::SceneId::Park);

    AsciiTable table({"Metric", "MobileSoC err", "RTX2060 err"});
    std::vector<std::vector<std::string>> cells(
        gpusim::allMetrics().size());

    double speedups[2] = {0.0, 0.0};
    double maes[2] = {0.0, 0.0};
    core::OracleResult oracles[2];
    int column = 0;
    for (const gpusim::GpuConfig &config :
         {gpusim::GpuConfig::mobileSoc(), gpusim::GpuConfig::rtx2060()}) {
        core::ZatelParams params = defaultParams(options);
        core::ZatelPredictor predictor(park.scene, park.bvh, config,
                                       params);
        std::printf("[%s] Zatel (K=%u)...\n", config.name.c_str(),
                    predictor.effectiveK());
        core::ZatelResult result = predictor.predict();
        // The oracle slices the frame ray record predict() rendered.
        std::printf("[%s] oracle...\n", config.name.c_str());
        oracles[column] = predictor.runOracle();
        const core::OracleResult &oracle = oracles[column];

        auto rows = core::compareToOracle(result.predicted, oracle.stats);
        for (size_t m = 0; m < rows.size(); ++m)
            cells[m].push_back(AsciiTable::pct(rows[m].errorPct));
        maes[column] = core::maeOf(rows);
        // Paper deployment: one CPU core per group instance, so the
        // concurrent time is the costliest instance's. Thread CPU time
        // leaves out the waits for a core that the K instances and the
        // host cause each other.
        speedups[column] =
            oracle.cpuSeconds / (result.maxGroupCpuSeconds + 1e-9);
        ++column;
    }

    const auto &metrics = gpusim::allMetrics();
    for (size_t m = 0; m < metrics.size(); ++m)
        table.addRow({gpusim::metricName(metrics[m]), cells[m][0],
                      cells[m][1]});
    table.addRule();
    table.addRow({"MAE", AsciiTable::pct(maes[0]),
                  AsciiTable::pct(maes[1])});
    table.addRow({"Speedup (1 core/group)",
                  AsciiTable::num(speedups[0], 1) + "x",
                  AsciiTable::num(speedups[1], 1) + "x"});
    std::printf("\n%s", table.toString().c_str());

    // Section IV-B capped-budget experiment: trace at most 10% of pixels.
    std::printf("\nCapped-budget run (<=10%% of pixels, Mobile SoC; "
                "paper: 50x speedup, 5.2%% MAE):\n");
    core::ZatelParams capped = defaultParams(options);
    capped.selector.fixedFraction = 0.10;
    core::ZatelPredictor capped_predictor(
        park.scene, park.bvh, gpusim::GpuConfig::mobileSoc(), capped);
    core::ZatelResult result = capped_predictor.predict();
    // The SoC column's oracle: the traced fraction does not change it.
    const core::OracleResult &oracle = oracles[0];
    auto rows = core::compareToOracle(result.predicted, oracle.stats);
    std::printf("  traced %.1f%% of pixels, MAE %.1f%%, speedup %.1fx "
                "(1 core per group)\n",
                result.fractionTraced * 100.0, core::maeOf(rows),
                oracle.cpuSeconds / (result.maxGroupCpuSeconds + 1e-9));

    std::printf("\nPaper reference: SoC 9.2x speedup / cycles error 0.7%% "
                "/ MAE 4.5%%; RTX 11.6x / MAE 15.1%%.\nShape to check: "
                "cycles is among the best-predicted metrics; L2 miss rate "
                "is over-predicted;\nthe RTX 2060 (less saturated) shows "
                "larger errors than the Mobile SoC.\n");
    return 0;
}
