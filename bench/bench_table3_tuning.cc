/**
 * @file
 * Table III - tuning the distribution method and section-block size.
 *
 * Tests every combination of {uniform, lintmp, exptmp} x {32x1, 32x2,
 * 32x16, 32x32} on SHIP / WKND / BUNNY while tracing only 2-4% of the
 * pixels, repeating each combination five times with different seeds
 * (block choice is randomized) and averaging, exactly as Section IV-C
 * describes. For each metric the table reports the best distribution,
 * the best section size, and the error at that best choice; "any" means
 * the options are within a small spread of each other.
 */

#include <cstdio>
#include <limits>
#include <map>
#include <optional>

#include "bench_common.hh"
#include "util/math_utils.hh"
#include "util/table.hh"
#include "zatel/pixel_selector.hh"

namespace
{

using namespace zatel;
using namespace zatel::bench;
using core::DistributionMethod;
using gpusim::Metric;

constexpr int kRepetitions = 5;

struct ComboKey
{
    DistributionMethod distribution;
    uint32_t blockHeight;

    bool
    operator<(const ComboKey &o) const
    {
        if (distribution != o.distribution)
            return distribution < o.distribution;
        return blockHeight < o.blockHeight;
    }
};

std::string
sectionName(uint32_t height)
{
    return "32x" + std::to_string(height);
}

} // namespace

int
main()
{
    BenchOptions options = benchOptions();
    printHeader("Table III: distribution method and section size tuning",
                options);

    const std::vector<DistributionMethod> distributions = {
        DistributionMethod::Uniform, DistributionMethod::LinTemp,
        DistributionMethod::ExpTemp};
    const std::vector<uint32_t> block_heights = {1, 2, 16, 32};
    const int reps = options.quick ? 2 : kRepetitions;

    AsciiTable table({"Metric", "Scene", "Best Dist", "Best Section",
                      "Err at best"});

    for (rt::SceneId id :
         {rt::SceneId::Ship, rt::SceneId::Wknd, rt::SceneId::Bunny}) {
        PreparedScene prepared(id);
        core::ZatelParams base = defaultParams(options);
        base.downscaleGpu = false;
        // "We choose to trace 2-4% of the overall pixels" (Section IV-C).
        base.selector.fixedFraction = 0.03;

        // Run after the scene's first prediction, on its predictor: the
        // frame ray record it slices depends on no selector setting or
        // seed.
        std::optional<core::OracleResult> oracle;

        // error[metric][combo] = mean over repetitions.
        std::map<Metric, std::map<ComboKey, double>> errors;

        for (DistributionMethod dist : distributions) {
            for (uint32_t height : block_heights) {
                double acc[8] = {};
                for (int rep = 0; rep < reps; ++rep) {
                    core::ZatelParams params = base;
                    params.selector.distribution = dist;
                    params.selector.blockHeight = height;
                    params.seed = base.seed + rep * 7919 + height * 131 +
                                  static_cast<int>(dist);
                    core::ZatelPredictor predictor(
                        prepared.scene, prepared.bvh,
                        gpusim::GpuConfig::rtx2060(), params);
                    core::ZatelResult result = predictor.predict();
                    if (!oracle) {
                        std::printf("[%s] oracle...\n",
                                    prepared.scene.name().c_str());
                        oracle = predictor.runOracle();
                    }
                    auto rows = core::compareToOracle(result.predicted,
                                                      oracle->stats);
                    for (size_t m = 0; m < rows.size(); ++m)
                        acc[m] += rows[m].errorPct;
                }
                const auto &metrics = gpusim::allMetrics();
                for (size_t m = 0; m < metrics.size(); ++m) {
                    errors[metrics[m]][{dist, height}] = acc[m] / reps;
                }
                std::printf("[%s] %s %s done\n",
                            prepared.scene.name().c_str(),
                            core::distributionMethodName(dist),
                            sectionName(height).c_str());
            }
        }

        // Pick winners per metric; 'any' when the spread is small.
        for (Metric metric : gpusim::allMetrics()) {
            const auto &combo_errors = errors[metric];
            double best = std::numeric_limits<double>::max();
            ComboKey best_key{distributions[0], block_heights[0]};
            for (const auto &[key, err] : combo_errors) {
                if (err < best) {
                    best = err;
                    best_key = key;
                }
            }

            // Marginals: best error achievable per distribution / section.
            std::map<int, double> dist_best;
            std::map<uint32_t, double> sec_best;
            for (const auto &[key, err] : combo_errors) {
                int d = static_cast<int>(key.distribution);
                dist_best[d] = dist_best.count(d)
                                   ? std::min(dist_best[d], err)
                                   : err;
                sec_best[key.blockHeight] =
                    sec_best.count(key.blockHeight)
                        ? std::min(sec_best[key.blockHeight], err)
                        : err;
            }
            auto spread_small = [best](const auto &marginals) {
                double worst = 0.0;
                for (const auto &[k, v] : marginals)
                    worst = std::max(worst, v);
                return worst - best <= std::max(2.0, 0.25 * best);
            };

            std::string dist_name =
                spread_small(dist_best)
                    ? "any"
                    : core::distributionMethodName(best_key.distribution);
            std::string sec_name = spread_small(sec_best)
                                       ? "any"
                                       : sectionName(best_key.blockHeight);
            table.addRow({gpusim::metricName(metric),
                          prepared.scene.name(), dist_name, sec_name,
                          AsciiTable::pct(best)});
        }
        table.addRule();
    }

    std::printf("\n%s", table.toString().c_str());
    std::printf("\nPaper reference MAEs over the listed metrics: SHIP "
                "21.0%% (coldest), WKND 13.9%%, BUNNY 8.5%% (warmest).\n"
                "Shape to check: the warmer the scene, the lower its "
                "errors; section size rarely matters ('any');\nuniform "
                "wins most metrics, exptmp helps RT-unit metrics.\n");
    return 0;
}
