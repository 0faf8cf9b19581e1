/**
 * @file
 * Figs. 13-16 - one sweep over the percentage of pixels traced (no GPU
 * downscaling), read four ways:
 *
 *   Fig. 13  simulation-cycles error per scene. The paper's shape:
 *            errors converge roughly exponentially to 0 as the
 *            percentage grows, and SPRNG is a gross outlier at low
 *            percentages because its under-utilized GPU breaks the
 *            linear extrapolation assumption.
 *   Fig. 14  Zatel running time per scene: grows roughly linearly with
 *            the percentage, BATH has the steepest slope (most work per
 *            pixel).
 *   Fig. 15  speedup over the oracle per scene, with one CPU core per
 *            group (core::oneCorePerGroupSpeedup, thread CPU seconds),
 *            plus the fitted power-law model of the paper's equation
 *            (4): speedup(perc) = 181 * perc^-1.15.
 *   Fig. 16  mean absolute error per metric over all scenes, with
 *            min/max error bars: MAE decays with the percentage for
 *            every metric, and the quickly-saturating cache metrics
 *            carry the smallest errors.
 *
 * Each scene is rendered once: every sweep point reuses that render's
 * heatmap and frame ray record, and the scene's one oracle slices it.
 */

#include <cstdio>
#include <map>

#include "bench_common.hh"
#include "util/math_utils.hh"
#include "util/regression.hh"
#include "util/table.hh"

int
main()
{
    using namespace zatel;
    using namespace zatel::bench;
    using gpusim::Metric;

    BenchOptions options = benchOptions();
    gpusim::GpuConfig config = sweepConfig(options);
    printHeader("Figs. 13-16: Zatel vs % pixels traced (no GPU "
                "downscaling)",
                options);
    std::printf("sweep target: %s (paper plots the RTX 2060; both configs share the trends)\n",
                config.name.c_str());

    std::vector<int> percents = sweepPercents(options);
    std::vector<std::string> header{"Scene"};
    for (int p : percents)
        header.push_back(std::to_string(p) + "%");
    std::vector<std::string> runtime_header = header;
    runtime_header.push_back("slope (s/%)");
    AsciiTable cycles_table(header);
    AsciiTable runtime_table(runtime_header);
    AsciiTable speedup_table(header);
    CsvWriter cycles_csv;
    cycles_csv.setHeader({"scene", "percent", "cycles_error_pct"});
    CsvWriter speedup_csv;
    speedup_csv.setHeader({"scene", "percent", "speedup"});

    std::string steepest_scene;
    double steepest_slope = -1.0;
    std::vector<double> all_percents, all_speedups;
    // errors[metric][percent] = per-scene error samples.
    std::map<Metric, std::map<int, std::vector<double>>> errors;

    for (rt::SceneId id : benchScenes(options)) {
        PreparedScene prepared(id);
        const std::string &name = prepared.scene.name();
        core::ZatelParams params = defaultParams(options);
        params.downscaleGpu = false;
        SceneRender render = renderScene(prepared, params);

        core::ZatelPredictor oracle_runner(prepared.scene, prepared.bvh,
                                           config, params);
        oracle_runner.setPrebuiltHeatmap(render.map, render.rays);
        std::printf("[%s] oracle...\n", name.c_str());
        core::OracleResult oracle = oracle_runner.runOracle();

        std::vector<std::string> cycles_row{name};
        std::vector<std::string> runtime_row{name};
        std::vector<std::string> speedup_row{name};
        std::vector<double> xs, ys;
        for (int percent : percents) {
            params.selector.fixedFraction = percent / 100.0;
            core::ZatelPredictor predictor(prepared.scene, prepared.bvh,
                                           config, params);
            predictor.setPrebuiltHeatmap(render.map, render.rays);
            core::ZatelResult result = predictor.predict();
            auto rows = core::compareToOracle(result.predicted,
                                              oracle.stats);

            double err = core::errorOf(rows, Metric::SimCycles);
            cycles_row.push_back(AsciiTable::pct(err));
            cycles_csv.addRow({name, std::to_string(percent),
                               CsvWriter::formatDouble(err)});

            runtime_row.push_back(AsciiTable::num(result.simWallSeconds, 2));
            xs.push_back(percent);
            ys.push_back(result.simWallSeconds);

            double speedup = core::oneCorePerGroupSpeedup(oracle, result);
            speedup_row.push_back(AsciiTable::num(speedup, 1) + "x");
            speedup_csv.addRow({name, std::to_string(percent),
                                CsvWriter::formatDouble(speedup)});
            all_percents.push_back(percent);
            all_speedups.push_back(speedup);

            for (const core::ComparisonRow &row : rows)
                errors[row.metric][percent].push_back(row.errorPct);
        }
        LinearFit fit = fitLinear(xs, ys);
        runtime_row.push_back(AsciiTable::num(fit.slope, 4));
        if (fit.slope > steepest_slope) {
            steepest_slope = fit.slope;
            steepest_scene = name;
        }
        cycles_table.addRow(cycles_row);
        runtime_table.addRow(runtime_row);
        speedup_table.addRow(speedup_row);
        std::printf("[%s] sweep done\n", name.c_str());
    }

    std::printf("\nFig. 13: simulation-cycles error vs %% pixels traced\n%s",
                cycles_table.toString().c_str());
    writeBenchCsv("fig13_cycles_error", cycles_csv);
    std::printf("\nPaper reference at 10%%: >100%% error on SPRNG, 14.7%% "
                "on BUNNY; errors converge toward 0 as the\npercentage "
                "grows; at 50%% most scenes sit within a few percent of "
                "each other.\nShape to check: monotone-ish decay per "
                "scene and the SPRNG outlier at small percentages.\n");

    std::printf("\nFig. 14: Zatel running time (s) vs %% pixels traced\n%s",
                runtime_table.toString().c_str());
    std::printf("\nsteepest slope: %s (%.4f s/%%). Paper reference: BATH "
                "is the longest-running scene by a high\nmargin (0.34 "
                "h/%% on the RTX 2060 at 512x512); running time grows "
                "~linearly with the percentage.\n",
                steepest_scene.c_str(), steepest_slope);

    std::printf("\nFig. 15: running-time speedup vs %% pixels traced\n%s",
                speedup_table.toString().c_str());
    writeBenchCsv("fig15_speedup", speedup_csv);
    PowerFit fit = fitPowerLaw(all_percents, all_speedups);
    std::printf("\nfitted model over all scenes: speedup(perc) = %.1f * "
                "perc^%.2f  (r2 in log space %.3f)\npaper equation (4): "
                "speedup(perc) = 181 * perc^-1.15 for perc >= 10%%.\n"
                "Shape to check: speedups are similar across scenes at "
                "each percentage and converge to ~1x at\nhigh "
                "percentages, following a power law in the traced "
                "percentage.\n",
                fit.scale, fit.exponent, fit.r2);

    std::vector<std::string> metric_header = header;
    metric_header.front() = "Metric";
    AsciiTable mae_table(metric_header);
    AsciiTable ranges(metric_header);
    CsvWriter mae_csv;
    mae_csv.setHeader({"metric", "percent", "mae_pct", "min_pct",
                       "max_pct"});
    for (Metric metric : gpusim::allMetrics()) {
        std::vector<std::string> mae_row{gpusim::metricName(metric)};
        std::vector<std::string> range_row{gpusim::metricName(metric)};
        for (int percent : percents) {
            const std::vector<double> &samples = errors[metric][percent];
            mae_row.push_back(AsciiTable::pct(mean(samples)));
            range_row.push_back(AsciiTable::pct(minOf(samples), 0) + "-" +
                                AsciiTable::pct(maxOf(samples), 0));
            mae_csv.addRow({gpusim::metricName(metric),
                            std::to_string(percent),
                            CsvWriter::formatDouble(mean(samples)),
                            CsvWriter::formatDouble(minOf(samples)),
                            CsvWriter::formatDouble(maxOf(samples))});
        }
        mae_table.addRow(mae_row);
        ranges.addRow(range_row);
    }
    std::printf("\nFig. 16: MAE per metric over all scenes vs %% pixels "
                "traced\n");
    writeBenchCsv("fig16_metric_mae", mae_csv);
    std::printf("\nMAE per metric:\n%s", mae_table.toString().c_str());
    std::printf("\nmin-max error bars per metric:\n%s",
                ranges.toString().c_str());
    std::printf("\nPaper reference: highest error at 10%% is >100%% "
                "(simulation cycles); tracing 20%% more pixels\nmore "
                "than halves the worst error; cache metrics saturate "
                "quickest and carry the smallest errors.\n");
    return 0;
}
