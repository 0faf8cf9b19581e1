/**
 * @file
 * predict-park: a closed loop with one caller. Each iteration builds a
 * fresh ZatelPredictor with no injected heatmap, so every iteration
 * renders, and runs predict(). A few runOracle() calls give the
 * reference time and the prediction error.
 */

#include <chrono>
#include <cstdio>
#include <cstring>

#include "bench.hh"
#include "service/campaign.hh"
#include "spans.hh"
#include "stats.hh"
#include "zatel/evaluation.hh"

namespace perfbench
{

namespace
{

using zatel::core::ZatelResult;

/** op_tail_ms percentile: the one the tail rule picks for the ~170
 *  predictions of a 40 s run (~17 beyond p90). Pinned, so runs of one
 *  length compare like with like across commits. */
constexpr double kTailPercentile = 90.0;
/** Scene + BVH take ~3 ms: this many up front, then one a second. */
constexpr size_t kSetupRepeats = 5;
/** Oracle runs (~0.55 s each) spread over the run; single runs move by
 *  up to a quarter, so the median needs this many. */
constexpr size_t kOracleRuns = 15;

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

} // namespace

/** True when @p a and @p b are bit-identical predictions. */
bool
samePrediction(const ZatelResult &a, const ZatelResult &b)
{
    if (a.k != b.k || !sameBits(a.fractionTraced, b.fractionTraced) ||
        a.groups.size() != b.groups.size() ||
        a.predicted.size() != b.predicted.size())
        return false;
    for (const auto &[metric, value] : a.predicted) {
        auto it = b.predicted.find(metric);
        if (it == b.predicted.end() || !sameBits(value, it->second))
            return false;
    }
    for (size_t g = 0; g < a.groups.size(); ++g) {
        if (zatel::gpusim::firstCounterDifference(a.groups[g].stats,
                                                  b.groups[g].stats))
            return false;
    }
    return true;
}

RunResult
runPredictPark(const RunOptions &options)
{
    RunResult result;
    const zatel::core::ZatelParams params = predictParkParams(options.seed);
    const zatel::gpusim::GpuConfig config =
        zatel::service::gpuConfigFromName("soc");
    writeTextFile(options.outDir + "/inputs.json",
                  "{\"scene\":\"PARK\",\"gpu\":\"soc\",\"res\":160,"
                  "\"spp\":1,\"seed\":" +
                      std::to_string(params.seed) +
                      ",\"threads\":" + std::to_string(params.numThreads) +
                      "}\n");

    // Set-up: scene + BVH, several times; the last one is used. More
    // set-up samples are taken across the run (see below).
    std::vector<double> setupMs;
    std::unique_ptr<BuiltScene> park;
    for (size_t i = 0; i < kSetupRepeats; ++i) {
        park = buildScene(zatel::rt::SceneId::Park, nullptr);
        setupMs.push_back(park->sceneMs + park->bvhMs);
    }

    // Warm-up prediction: the reference every later one must equal.
    ZatelResult first;
    try {
        zatel::core::ZatelPredictor predictor(park->scene, park->bvh, config,
                                              params);
        first = predictor.predict();
    } catch (const std::exception &e) {
        result.problem(std::string("warm-up predict() threw: ") + e.what());
        return result;
    }

    // A shared host's speed drifts over seconds, so the oracle runs and extra
    // set-up samples are spread evenly over the run instead of taken in
    // one burst: their medians then cover the same time as the
    // predictions'.
    const zatel::core::ZatelPredictor oracleRunner(park->scene, park->bvh,
                                                   config, params);
    std::vector<double> oracleMs;
    zatel::gpusim::GpuStats oracleStats;
    std::vector<double> predictMs;
    size_t mismatches = 0;
    const auto start = std::chrono::steady_clock::now();
    for (;;) {
        const double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        const size_t oracles = oracleMs.size();
        if (elapsed >= options.seconds && oracles == kOracleRuns &&
            result.attempted() > 0)
            break;
        if (oracles < kOracleRuns &&
            elapsed >= (static_cast<double>(oracles) + 0.5) / kOracleRuns *
                           options.seconds) {
            Span span(nullptr, "oracle");
            const zatel::core::OracleResult oracle = oracleRunner.runOracle();
            oracleMs.push_back(span.stopMs());
            if (oracles == 0)
                oracleStats = oracle.stats;
            else if (zatel::gpusim::firstCounterDifference(oracle.stats,
                                                           oracleStats))
                result.problem("runOracle() is not deterministic");
            continue;
        }
        if (elapsed >= static_cast<double>(setupMs.size() - kSetupRepeats)) {
            const auto probe = buildScene(zatel::rt::SceneId::Park, nullptr);
            setupMs.push_back(probe->sceneMs + probe->bvhMs);
        }

        bool ok = false;
        double ms = 0.0;
        try {
            Span span(nullptr, "predict");
            zatel::core::ZatelPredictor predictor(park->scene, park->bvh,
                                                  config, params);
            ZatelResult r = predictor.predict();
            ms = span.stopMs();
            ok = !r.degraded;
            if (!samePrediction(r, first))
                ++mismatches;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: predict() threw: %s\n",
                         e.what());
        }
        result.operation(ok);
        if (ok)
            predictMs.push_back(ms);
    }
    if (mismatches > 0)
        result.problem(std::to_string(mismatches) +
                       " predictions differ from the first");
    if (predictMs.empty()) {
        result.problem("no prediction completed");
        return result;
    }

    const double mae = zatel::core::maeOf(
        zatel::core::compareToOracle(first.predicted, oracleStats));
    const Tail tail = tailAt(predictMs, kTailPercentile);
    const double p50 = median(predictMs);
    // One caller: predictions per second of time spent predicting.
    double predictSeconds = 0.0;
    for (double ms : predictMs)
        predictSeconds += ms / 1000.0;
    const double opsPerSecond =
        static_cast<double>(predictMs.size()) / predictSeconds;

    result.set("op_p50_ms", p50);
    result.set("op_tail_ms", tail.value);
    result.set("ops_per_s", opsPerSecond);
    result.set("ref_p50_ms", median(oracleMs));
    result.set("setup_s", median(setupMs) / 1000.0);

    char note[128];
    std::printf("predict-park: PARK/soc 160x160 1spp, K=%u, %u threads, "
                "%zu predictions, %zu oracle runs\n",
                first.k, params.numThreads, predictMs.size(), kOracleRuns);
    printMetric("predict_p50_ms", p50, "ms");
    std::snprintf(note, sizeof(note),
                  "p%g of %zu, %zu beyond (rule picks p%g)",
                  tail.percentile, tail.samples, tail.beyond,
                  highestTailPercentile(tail.samples));
    printMetric("predict_tail_ms", tail.value, "ms", note);
    printMetric("predict_per_s", opsPerSecond, "1/s");
    std::string samples;
    for (double ms : oracleMs)
        samples += std::to_string(static_cast<int>(ms)) + " ";
    printMetric("oracle_ms", median(oracleMs), "ms", "runs: " + samples);
    printMetric("mae_pct", mae, "%", "deterministic for a seed");
    printMetric("setup_s", median(setupMs) / 1000.0, "s",
                "scene + BVH build");
    std::printf("  digest predict-park %s\n",
                metricDigest(first.predicted).c_str());
    return result;
}

} // namespace perfbench
