/**
 * @file
 * Cycle-loop hot-path benchmark and CI gate (docs/SIMULATOR.md).
 *
 * Times the activity-driven fast loop (TickMode::Fast: idle-unit
 * skipping + quiescence fast-forward) against the tick-everything
 * reference loop (TickMode::Slow, the ZATEL_GPU_SLOW_TICK escape
 * hatch) on two workload shapes:
 *
 *   1. a full predictor run (ZatelPredictor::predict, the pipeline the
 *      speedup budget is written against), and
 *   2. one full-frame simulation of the target GPU (where the
 *      fast-forward engagement counters are directly observable).
 *
 * Before timing anything it proves the two loops are observationally
 * identical: bit-identical predicted metrics, byte-identical per-group
 * and full-frame GpuStats. Timing is best-of-N to shed scheduler
 * noise. Results land in ./BENCH_sim.json; the process exits nonzero
 * when stats diverge or the single-thread predictor-level speedup drops
 * below 1.25x (the CI floor; the differential suite
 * tests/test_gpu_fastpath.cc covers correctness in finer grain).
 *
 * The fast loop is the SoA hot-path layout (docs/SIMULATOR.md, "Data
 * layout of the hot path"), so the predictor ratio is also that
 * layout's gate. soa_workload_build_seconds times the full-frame
 * workload build alone: Tracer::shade() recording every pixel's rays
 * straight into the workload's own ray record, a path no other number
 * covers.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "bench_common.hh"
#include "gpusim/gpu.hh"
#include "gpusim/stats.hh"
#include "gpusim/workload.hh"
#include "rt/tracer.hh"

namespace rt = zatel::rt;

namespace
{

using zatel::bench::BenchOptions;
using zatel::bench::PreparedScene;
using zatel::core::ZatelParams;
using zatel::core::ZatelPredictor;
using zatel::core::ZatelResult;
using zatel::gpusim::GpuConfig;
using zatel::gpusim::GpuStats;
using zatel::gpusim::TickMode;

// The fast loop must hold >= 1.25x on a single-thread predict against
// the slow-tick oracle in the same process (same-process ratios shed
// machine-to-machine noise; the absolute times in BENCH_sim.json track
// regressions across commits).
constexpr double kMinSpeedup = 1.25;
constexpr int kTrials = 5;

double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

uint64_t
bitsOf(double value)
{
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

/**
 * Compare every raw counter of two GpuStats via the shared field table
 * (gpuStatsFields), so a counter added to GpuStats is covered here
 * without touching the bench.
 */
bool
statsIdentical(const GpuStats &a, const GpuStats &b, const char *context)
{
    bool same = true;
    for (const auto &field : zatel::gpusim::gpuStatsFields()) {
        uint64_t lhs = a.*(field.member);
        uint64_t rhs = b.*(field.member);
        if (lhs != rhs) {
            std::fprintf(stderr,
                         "FAIL %s: counter %s diverged (%llu vs %llu)\n",
                         context, field.name,
                         static_cast<unsigned long long>(lhs),
                         static_cast<unsigned long long>(rhs));
            same = false;
        }
    }
    return same;
}

ZatelResult
predictOnce(const PreparedScene &prepared, const GpuConfig &config,
            const ZatelParams &params, TickMode mode)
{
    zatel::gpusim::setGlobalTickMode(mode);
    ZatelResult result =
        ZatelPredictor(prepared.scene, prepared.bvh, config, params)
            .predict();
    zatel::gpusim::setGlobalTickMode(TickMode::Auto);
    return result;
}

/** Bit-exact comparison of two predictor outputs. */
bool
predictionsIdentical(const ZatelResult &slow, const ZatelResult &fast)
{
    bool same = true;
    if (slow.k != fast.k) {
        std::fprintf(stderr, "FAIL predictor: K diverged (%u vs %u)\n",
                     slow.k, fast.k);
        same = false;
    }
    for (const auto &[metric, value] : slow.predicted) {
        auto it = fast.predicted.find(metric);
        if (it == fast.predicted.end() ||
            bitsOf(value) != bitsOf(it->second)) {
            std::fprintf(stderr, "FAIL predictor: metric %s diverged\n",
                         zatel::gpusim::metricName(metric));
            same = false;
        }
    }
    if (slow.groups.size() != fast.groups.size()) {
        std::fprintf(stderr, "FAIL predictor: group count diverged\n");
        return false;
    }
    for (size_t g = 0; g < slow.groups.size(); ++g) {
        std::string context = "group " + std::to_string(g);
        same &= statsIdentical(slow.groups[g].stats, fast.groups[g].stats,
                               context.c_str());
    }
    return same;
}

/**
 * Best-of-kTrials wall time of one predictor run per mode, with the
 * slow and fast runs interleaved trial-by-trial. Interleaving matters
 * on shared machines: background load comes in multi-second bursts, so
 * timing all slow runs then all fast runs lets one burst land entirely
 * on one mode and invert the ratio. Best-of-N then picks each mode's
 * calmest window.
 */
struct PredictTimes
{
    double slowSeconds = 1e300;
    double fastSeconds = 1e300;
};

PredictTimes
timePredict(const PreparedScene &prepared, const GpuConfig &config,
            const ZatelParams &params)
{
    // Warm-up: touch every cache and page both code paths once.
    (void)predictOnce(prepared, config, params, TickMode::Slow);
    (void)predictOnce(prepared, config, params, TickMode::Fast);

    PredictTimes best;
    for (int trial = 0; trial < kTrials; ++trial) {
        double start = nowSeconds();
        (void)predictOnce(prepared, config, params, TickMode::Slow);
        double mid = nowSeconds();
        (void)predictOnce(prepared, config, params, TickMode::Fast);
        double end = nowSeconds();
        best.slowSeconds = std::min(best.slowSeconds, mid - start);
        best.fastSeconds = std::min(best.fastSeconds, end - mid);
    }
    return best;
}

struct FullFrameOutcome
{
    GpuStats stats;
    double seconds = 0.0;
    uint64_t fastForwarded = 0;
    uint64_t skippedSmTicks = 0;
};

/** One timed full-frame simulation in @p mode. */
FullFrameOutcome
runFullFrameOnce(const rt::Tracer &tracer, const GpuConfig &config,
                 uint32_t res, TickMode mode)
{
    zatel::gpusim::SimWorkload workload =
        zatel::gpusim::SimWorkload::buildFullFrame(tracer, res, res);
    zatel::gpusim::Gpu gpu(config, workload);
    gpu.setTickMode(mode);
    FullFrameOutcome outcome;
    double start = nowSeconds();
    outcome.stats = gpu.run();
    outcome.seconds = nowSeconds() - start;
    outcome.fastForwarded = gpu.fastForwardedCycles();
    outcome.skippedSmTicks = gpu.skippedSmTicks();
    return outcome;
}

/**
 * Best-of-kTrials full-frame run per mode, slow and fast interleaved
 * (same bursty-load rationale as timePredict).
 */
void
runFullFrame(const rt::Tracer &tracer, const GpuConfig &config,
             uint32_t res, FullFrameOutcome &slow, FullFrameOutcome &fast)
{
    slow.seconds = 1e300;
    fast.seconds = 1e300;
    for (int trial = 0; trial < kTrials; ++trial) {
        FullFrameOutcome s =
            runFullFrameOnce(tracer, config, res, TickMode::Slow);
        if (s.seconds < slow.seconds)
            slow = s;
        FullFrameOutcome f =
            runFullFrameOnce(tracer, config, res, TickMode::Fast);
        if (f.seconds < fast.seconds)
            fast = f;
    }
}

} // namespace

int
main()
{
    BenchOptions options = zatel::bench::benchOptions();
    zatel::bench::printHeader("sim hotpath: fast vs slow cycle loop",
                              options);

    PreparedScene prepared(rt::SceneId::Wknd);
    rt::Tracer tracer(prepared.scene, prepared.bvh);
    GpuConfig config = GpuConfig::mobileSoc();

    ZatelParams params = zatel::bench::defaultParams(options);
    params.numThreads = 1; // serialize groups: stable timing, pure loop cost

    // ---- Correctness first: both loops must be observationally
    // ---- identical before a speedup means anything.
    ZatelResult slowPrediction =
        predictOnce(prepared, config, params, TickMode::Slow);
    ZatelResult fastPrediction =
        predictOnce(prepared, config, params, TickMode::Fast);
    bool identical = predictionsIdentical(slowPrediction, fastPrediction);

    uint32_t frameRes = std::min<uint32_t>(options.resolution, 96);
    FullFrameOutcome frameSlow;
    FullFrameOutcome frameFast;
    runFullFrame(tracer, config, frameRes, frameSlow, frameFast);
    identical &=
        statsIdentical(frameSlow.stats, frameFast.stats, "full frame");

    // ---- Timing.
    PredictTimes times = timePredict(prepared, config, params);
    double slowSeconds = times.slowSeconds;
    double fastSeconds = times.fastSeconds;
    double speedup = slowSeconds / fastSeconds;

    // ---- Workload build alone: the record-less ray recording path.
    double soaWorkloadBuildSeconds = 1e300;
    for (int trial = 0; trial < kTrials; ++trial) {
        double start = nowSeconds();
        zatel::gpusim::SimWorkload workload =
            zatel::gpusim::SimWorkload::buildFullFrame(tracer, frameRes,
                                                       frameRes);
        soaWorkloadBuildSeconds =
            std::min(soaWorkloadBuildSeconds, nowSeconds() - start);
    }
    double frameSpeedup = frameSlow.seconds / frameFast.seconds;
    unsigned hardwareThreads = std::thread::hardware_concurrency();

    std::printf("predictor  slow %.3fs  fast %.3fs  speedup %.2fx\n",
                slowSeconds, fastSeconds, speedup);
    std::printf("full frame slow %.3fs  fast %.3fs  speedup %.2fx\n",
                frameSlow.seconds, frameFast.seconds, frameSpeedup);
    std::printf("workload build %.3fs  (%u hw threads)\n",
                soaWorkloadBuildSeconds, hardwareThreads);
    std::printf("fast-forwarded cycles %llu  skipped SM ticks %llu  "
                "(of %llu cycles)\n",
                static_cast<unsigned long long>(frameFast.fastForwarded),
                static_cast<unsigned long long>(frameFast.skippedSmTicks),
                static_cast<unsigned long long>(frameFast.stats.cycles));
    std::printf("stats identical: %s\n", identical ? "yes" : "NO");

    FILE *json = std::fopen("BENCH_sim.json", "w");
    if (json != nullptr) {
        std::fprintf(
            json,
            "{\n"
            "  \"bench\": \"sim_hotpath\",\n"
            "  \"resolution\": %u,\n"
            "  \"trials\": %d,\n"
            "  \"predict_slow_seconds\": %.6f,\n"
            "  \"predict_fast_seconds\": %.6f,\n"
            "  \"predict_speedup\": %.4f,\n"
            "  \"fullframe_slow_seconds\": %.6f,\n"
            "  \"fullframe_fast_seconds\": %.6f,\n"
            "  \"fullframe_speedup\": %.4f,\n"
            "  \"fast_forwarded_cycles\": %llu,\n"
            "  \"skipped_sm_ticks\": %llu,\n"
            "  \"stats_identical\": %s,\n"
            "  \"min_speedup_gate\": %.2f,\n"
            "  \"soa_workload_build_seconds\": %.6f,\n"
            "  \"hardware_threads\": %u\n"
            "}\n",
            options.resolution, kTrials, slowSeconds, fastSeconds, speedup,
            frameSlow.seconds, frameFast.seconds, frameSpeedup,
            static_cast<unsigned long long>(frameFast.fastForwarded),
            static_cast<unsigned long long>(frameFast.skippedSmTicks),
            identical ? "true" : "false", kMinSpeedup,
            soaWorkloadBuildSeconds, hardwareThreads);
        std::fclose(json);
        std::printf("wrote BENCH_sim.json\n");
    } else {
        std::fprintf(stderr, "FAIL: could not write BENCH_sim.json\n");
        return 1;
    }

    if (!identical) {
        std::fprintf(stderr,
                     "FAIL: fast loop diverged from the slow reference\n");
        return 1;
    }
    if (speedup < kMinSpeedup) {
        std::fprintf(stderr,
                     "FAIL: predictor speedup %.2fx below the %.2fx gate\n",
                     speedup, kMinSpeedup);
        return 1;
    }
    std::printf("sim hotpath gate passed (>= %.2fx, stats identical)\n",
                kMinSpeedup);
    return 0;
}
