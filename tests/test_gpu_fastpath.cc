/**
 * @file
 * Slow-vs-fast differential suite for the activity-driven cycle loop
 * (docs/SIMULATOR.md, "The activity-driven cycle loop").
 *
 * TickMode::Fast (idle-unit skipping + quiescence fast-forward) must be
 * observationally identical to TickMode::Slow (tick everything, every
 * cycle): byte-identical GpuStats, identical per-component StatsReport,
 * identical progress-probe cycle sequences and snapshots, and identical
 * predictor output. The suite also pins the two latent cycle-loop bugs
 * the fast-path work flushed out: progress probes scheduled by modulo
 * (skippable under fast-forward) and a run that completes exactly at
 * max_cycles being misreported as a deadlock.
 *
 * GpuFastpathFuzz draws 64 deterministic random configurations so edge
 * cases (one SM, one partition, zero-latency NoC, tiny L1s and MSHRs)
 * are covered by construction rather than hand-picked. Every draw also
 * stresses the SoA hot-path layout (docs/SIMULATOR.md, "Data layout of
 * the hot path"): the workload build traces every pixel into the
 * workload's own ray record, and the L1-size / MSHR-size / L1-latency
 * grid keeps the flat tag maps, fill heaps and waiter pools churning
 * under the oracle.
 *
 * Suites are named GpuFastpath* so the tsan-determinism preset's test
 * filter picks them up (CMakePresets.json).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gpusim/gpu.hh"
#include "gpusim/memory_system.hh"
#include "gpusim/sim_clock.hh"
#include "gpusim/sm.hh"
#include "gpusim/stats_report.hh"
#include "gpusim/warp.hh"
#include "rt/bvh.hh"
#include "rt/scene.hh"
#include "rt/scene_library.hh"
#include "rt/tracer.hh"
#include "util/rng.hh"
#include "zatel/predictor.hh"

namespace zatel::gpusim
{
namespace
{

/** Bit pattern of a double; NaN-safe and distinguishes -0.0 from 0.0. */
uint64_t
bitsOf(double value)
{
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

/** Expect every raw counter of two GpuStats to be identical. */
void
expectStatsIdentical(const GpuStats &a, const GpuStats &b,
                     const std::string &context)
{
#define ZATEL_EXPECT_COUNTER(field)                                         \
    EXPECT_EQ(a.field, b.field) << context << ": counter " #field " diverged"
    ZATEL_EXPECT_COUNTER(cycles);
    ZATEL_EXPECT_COUNTER(threadInstructions);
    ZATEL_EXPECT_COUNTER(warpInstructions);
    ZATEL_EXPECT_COUNTER(l1dAccesses);
    ZATEL_EXPECT_COUNTER(l1dMisses);
    ZATEL_EXPECT_COUNTER(l2Accesses);
    ZATEL_EXPECT_COUNTER(l2Misses);
    ZATEL_EXPECT_COUNTER(rtActiveRaySum);
    ZATEL_EXPECT_COUNTER(rtResidentWarpCycles);
    ZATEL_EXPECT_COUNTER(rtNodeVisits);
    ZATEL_EXPECT_COUNTER(rtTriangleTests);
    ZATEL_EXPECT_COUNTER(dramBusyCycles);
    ZATEL_EXPECT_COUNTER(dramActiveCycles);
    ZATEL_EXPECT_COUNTER(dramChannelCycles);
    ZATEL_EXPECT_COUNTER(dramBytesRead);
    ZATEL_EXPECT_COUNTER(dramBytesWritten);
    ZATEL_EXPECT_COUNTER(warpsLaunched);
    ZATEL_EXPECT_COUNTER(raysTraced);
    ZATEL_EXPECT_COUNTER(pixelsTraced);
    ZATEL_EXPECT_COUNTER(pixelsFiltered);
#undef ZATEL_EXPECT_COUNTER
}

struct SceneBundle
{
    rt::Scene scene;
    rt::Bvh bvh;
    std::unique_ptr<rt::Tracer> tracer;
};

/** Heap-allocated so the tracer's scene/BVH references stay stable. */
std::unique_ptr<SceneBundle>
makeScene(rt::SceneId id)
{
    auto bundle = std::make_unique<SceneBundle>();
    bundle->scene = rt::buildScene(id, rt::SceneDetail{0.4f});
    bundle->bvh.build(bundle->scene.triangles());
    bundle->tracer =
        std::make_unique<rt::Tracer>(bundle->scene, bundle->bvh);
    return bundle;
}

/** One run in mode @p mode; returns final stats + the Gpu for probes. */
struct RunOutcome
{
    GpuStats stats;
    StatsReport report;
    uint64_t fastForwarded = 0;
    uint64_t skippedSmTicks = 0;
    bool stoppedEarly = false;
    std::vector<uint64_t> probeCycles;
    std::vector<GpuStats> probeSnapshots;
};

RunOutcome
runMode(const rt::Tracer &tracer, const GpuConfig &config, TickMode mode,
        uint32_t frame, uint64_t probe_interval = 0,
        uint64_t stop_after_probes = 0)
{
    SimWorkload workload = SimWorkload::buildFullFrame(tracer, frame, frame);
    Gpu gpu(config, workload);
    gpu.setTickMode(mode);
    RunOutcome out;
    if (probe_interval > 0) {
        gpu.setProgressCallback(
            probe_interval,
            [&out, stop_after_probes](uint64_t cycle, const GpuStats &snap) {
                out.probeCycles.push_back(cycle);
                out.probeSnapshots.push_back(snap);
                return stop_after_probes != 0 &&
                       out.probeCycles.size() >= stop_after_probes;
            });
    }
    out.stats = gpu.run();
    out.report = gpu.statsReport();
    out.fastForwarded = gpu.fastForwardedCycles();
    out.skippedSmTicks = gpu.skippedSmTicks();
    out.stoppedEarly = gpu.stoppedEarly();
    return out;
}

/** Full differential comparison of one scene x config x probe setup. */
void
expectModesIdentical(const rt::Tracer &tracer, const GpuConfig &config,
                     const std::string &context, uint32_t frame,
                     uint64_t probe_interval = 0,
                     uint64_t stop_after_probes = 0)
{
    RunOutcome slow = runMode(tracer, config, TickMode::Slow, frame,
                              probe_interval, stop_after_probes);
    RunOutcome fast = runMode(tracer, config, TickMode::Fast, frame,
                              probe_interval, stop_after_probes);

    expectStatsIdentical(slow.stats, fast.stats, context);
    EXPECT_EQ(slow.stoppedEarly, fast.stoppedEarly) << context;

    // Per-component counters (gem5-style dump) must match too — a
    // mis-skipped SM would shift work between components even if the
    // totals happened to line up.
    EXPECT_EQ(slow.report.lines().size(), fast.report.lines().size())
        << context;
    for (size_t i = 0;
         i < slow.report.lines().size() && i < fast.report.lines().size();
         ++i) {
        EXPECT_EQ(slow.report.lines()[i].path, fast.report.lines()[i].path)
            << context << ": report row " << i;
        EXPECT_EQ(bitsOf(slow.report.lines()[i].value),
                  bitsOf(fast.report.lines()[i].value))
            << context << ": report counter " << slow.report.lines()[i].path;
    }

    // Identical probe-cycle sequences and byte-identical snapshots.
    EXPECT_EQ(slow.probeCycles, fast.probeCycles) << context;
    ASSERT_EQ(slow.probeSnapshots.size(), fast.probeSnapshots.size())
        << context;
    for (size_t i = 0; i < slow.probeSnapshots.size(); ++i) {
        expectStatsIdentical(slow.probeSnapshots[i], fast.probeSnapshots[i],
                             context + ": probe " + std::to_string(i));
    }

    // The reference loop must never skip; the fast loop must actually
    // engage on these workloads or the differential proves nothing.
    EXPECT_EQ(slow.fastForwarded, 0u) << context;
    EXPECT_EQ(slow.skippedSmTicks, 0u) << context;
    EXPECT_GT(fast.fastForwarded + fast.skippedSmTicks, 0u) << context;
}

TEST(GpuFastpathDifferential, WkndMobileSoc)
{
    auto s = makeScene(rt::SceneId::Wknd);
    expectModesIdentical(*s->tracer, GpuConfig::mobileSoc(), "wknd/mobile",
                         32);
}

TEST(GpuFastpathDifferential, WkndRtx2060)
{
    auto s = makeScene(rt::SceneId::Wknd);
    expectModesIdentical(*s->tracer, GpuConfig::rtx2060(), "wknd/rtx2060",
                         32);
}

TEST(GpuFastpathDifferential, SprngMobileSoc)
{
    auto s = makeScene(rt::SceneId::Sprng);
    expectModesIdentical(*s->tracer, GpuConfig::mobileSoc(), "sprng/mobile",
                         32);
}

TEST(GpuFastpathDifferential, SprngRtx2060)
{
    auto s = makeScene(rt::SceneId::Sprng);
    expectModesIdentical(*s->tracer, GpuConfig::rtx2060(), "sprng/rtx2060",
                         32);
}

TEST(GpuFastpathDifferential, SprngMobileSocLrrScheduler)
{
    auto s = makeScene(rt::SceneId::Sprng);
    GpuConfig config = GpuConfig::mobileSoc();
    config.scheduler = WarpSchedulerPolicy::LooseRoundRobin;
    expectModesIdentical(*s->tracer, config, "sprng/mobile/lrr", 24);
}

TEST(GpuFastpathDifferential, SingleSmSinglePartition)
{
    auto s = makeScene(rt::SceneId::Wknd);
    GpuConfig config = GpuConfig::mobileSoc();
    config.numSms = 1;
    config.numMemPartitions = 1;
    expectModesIdentical(*s->tracer, config, "wknd/1sm", 16);
}

TEST(GpuFastpathDifferential, ProgressProbesObserved)
{
    auto s = makeScene(rt::SceneId::Wknd);
    expectModesIdentical(*s->tracer, GpuConfig::mobileSoc(),
                         "wknd/mobile/probes", 32, /*probe_interval=*/512);
}

TEST(GpuFastpathDifferential, EarlyStopViaProbe)
{
    auto s = makeScene(rt::SceneId::Wknd);
    expectModesIdentical(*s->tracer, GpuConfig::mobileSoc(),
                         "wknd/mobile/early-stop", 32,
                         /*probe_interval=*/256, /*stop_after_probes=*/3);
}

// ---------------------------------------------------------------------
// Seeded randomized config fuzz: 64 deterministic draws of SM count /
// partition count / RT units / scheduler / NoC latency / warp capacity /
// L1 and MSHR sizing / scene, each asserting the full slow-vs-fast
// oracle.
// ---------------------------------------------------------------------

struct FuzzDraw
{
    GpuConfig config;
    uint32_t frame = 0;
    bool sprng = false;
};

FuzzDraw
drawConfig(Rng &rng)
{
    FuzzDraw draw;
    GpuConfig &config = draw.config;
    config = GpuConfig::mobileSoc();
    config.name = "fuzz";
    config.numSms = static_cast<uint32_t>(rng.nextRange(1, 12));
    config.numMemPartitions = static_cast<uint32_t>(rng.nextRange(1, 6));
    config.rtUnitsPerSm = static_cast<uint32_t>(rng.nextRange(1, 2));
    config.scheduler = rng.nextBounded(2) == 0
                           ? WarpSchedulerPolicy::GreedyThenOldest
                           : WarpSchedulerPolicy::LooseRoundRobin;
    // Small warp capacities force multi-round dispatch with a standing
    // pending-warp backlog.
    static constexpr uint32_t kWarpCaps[] = {2, 4, 32};
    config.maxWarpsPerSm = kWarpCaps[rng.nextBounded(3)];
    // NoC latencies from the zero-delay edge case up to the presets'
    // 16 cycles.
    static constexpr uint32_t kNocLatencies[] = {0, 1, 4, 16};
    config.nocLatencyCycles = kNocLatencies[rng.nextBounded(4)];
    // SoA hot-path stress (docs/SIMULATOR.md, "Data layout of the hot
    // path"): a tiny L1 churns the flat tag map's insert/backward-shift
    // delete and keeps the fill heaps and MSHR waiter pools live; a
    // tiny MSHR forces allocate-stall requeues through the lane rings;
    // l1dLatencyCycles=0 drains the L1-hit ring on the issue cycle
    // (front-ready == now). Every draw lands somewhere in this grid, so
    // each one exercises the SoA fill/MSHR layout against the slow-tick
    // oracle, not just the draws that happen to miss in cache.
    static constexpr uint32_t kL1Sizes[] = {1024, 4096, 64 * 1024};
    config.l1dSizeBytes = kL1Sizes[rng.nextBounded(3)];
    static constexpr uint32_t kMshrSizes[] = {2, 8, 64};
    config.rtMshrSize = kMshrSizes[rng.nextBounded(3)];
    config.l2MshrSize = kMshrSizes[rng.nextBounded(3)];
    static constexpr uint32_t kL1Latencies[] = {0, 1, 20};
    config.l1dLatencyCycles = kL1Latencies[rng.nextBounded(3)];
    draw.frame = static_cast<uint32_t>(rng.nextRange(8, 12));
    draw.sprng = rng.nextBounded(4) == 0;
    return draw;
}

TEST(GpuFastpathFuzz, SlowFastAgreementOver64Draws)
{
    auto wknd = makeScene(rt::SceneId::Wknd);
    auto sprng = makeScene(rt::SceneId::Sprng);
    Rng rng(0x5EEDBEEF);
    for (int i = 0; i < 64; ++i) {
        FuzzDraw draw = drawConfig(rng);
        const rt::Tracer &tracer =
            draw.sprng ? *sprng->tracer : *wknd->tracer;
        std::string context =
            "draw" + std::to_string(i) + "/sms" +
            std::to_string(draw.config.numSms) + "/parts" +
            std::to_string(draw.config.numMemPartitions) + "/noc" +
            std::to_string(draw.config.nocLatencyCycles) + "/l1" +
            std::to_string(draw.config.l1dSizeBytes) + "/l1lat" +
            std::to_string(draw.config.l1dLatencyCycles) + "/mshr" +
            std::to_string(draw.config.rtMshrSize);
        expectModesIdentical(tracer, draw.config, context, draw.frame);
    }
}

// ---------------------------------------------------------------------
// Progress-probe scheduling regression (the modulo-probe latent bug):
// probes must fire at exactly interval, 2*interval, ... even when
// fast-forward jumps the clock across multiples of the interval.
// ---------------------------------------------------------------------

TEST(GpuFastpathProbeSchedule, ProbesNeverSkippedUnderFastForward)
{
    auto s = makeScene(rt::SceneId::Wknd);
    const uint64_t interval = 100;
    RunOutcome fast = runMode(*s->tracer, GpuConfig::mobileSoc(),
                              TickMode::Fast, 24, interval);
    ASSERT_FALSE(fast.probeCycles.empty());
    EXPECT_GT(fast.fastForwarded, 0u)
        << "fast-forward never engaged; the regression is not exercised";
    for (size_t i = 0; i < fast.probeCycles.size(); ++i) {
        EXPECT_EQ(fast.probeCycles[i], (i + 1) * interval)
            << "probe " << i << " fired off-schedule";
    }
    // A dense schedule relative to the run length must have visited
    // every multiple of the interval below the final cycle.
    EXPECT_EQ(fast.probeCycles.size(), (fast.stats.cycles - 1) / interval);
}

TEST(GpuFastpathProbeSchedule, SnapshotCyclesMatchProbeCycles)
{
    auto s = makeScene(rt::SceneId::Wknd);
    RunOutcome fast = runMode(*s->tracer, GpuConfig::mobileSoc(),
                              TickMode::Fast, 24, 300);
    ASSERT_EQ(fast.probeCycles.size(), fast.probeSnapshots.size());
    for (size_t i = 0; i < fast.probeCycles.size(); ++i)
        EXPECT_EQ(fast.probeSnapshots[i].cycles, fast.probeCycles[i]);
}

// ---------------------------------------------------------------------
// max_cycles boundary semantics (the exactly-at-the-limit latent bug):
// exhausting the budget without draining panics; completing exactly at
// max_cycles is a normal completion.
// ---------------------------------------------------------------------

struct GpuFastpathMaxCycles : public testing::Test
{
    void
    SetUp() override
    {
        bundle = makeScene(rt::SceneId::Wknd);
    }

    SimWorkload
    freshWorkload() const
    {
        return SimWorkload::buildFullFrame(*bundle->tracer, 16, 16);
    }

    std::unique_ptr<SceneBundle> bundle;
};

TEST_F(GpuFastpathMaxCycles, CompletionExactlyAtLimitIsNotADeadlock)
{
    GpuConfig config = GpuConfig::mobileSoc();
    SimWorkload reference_workload = freshWorkload();
    GpuStats reference = Gpu(config, reference_workload).run();
    ASSERT_GT(reference.cycles, 0u);

    // Re-running with max_cycles == the natural completion cycle must
    // not panic and must produce byte-identical stats (both modes).
    for (TickMode mode : {TickMode::Slow, TickMode::Fast}) {
        SimWorkload fresh = freshWorkload();
        Gpu gpu(config, fresh);
        gpu.setTickMode(mode);
        GpuStats bounded = gpu.run(reference.cycles);
        expectStatsIdentical(reference, bounded,
                             mode == TickMode::Slow ? "boundary/slow"
                                                    : "boundary/fast");
    }
}

TEST_F(GpuFastpathMaxCycles, ExhaustionPanicsInBothModes)
{
    GpuConfig config = GpuConfig::mobileSoc();
    for (TickMode mode : {TickMode::Slow, TickMode::Fast}) {
        SimWorkload fresh = freshWorkload();
        Gpu gpu(config, fresh);
        gpu.setTickMode(mode);
        EXPECT_DEATH(gpu.run(/*max_cycles=*/8), "exceeded");
    }
}

// ---------------------------------------------------------------------
// Mode resolution: instance > global > environment.
// ---------------------------------------------------------------------

TEST(GpuFastpathModeResolution, GlobalSlowDisablesSkipping)
{
    auto s = makeScene(rt::SceneId::Wknd);
    setGlobalTickMode(TickMode::Slow);
    RunOutcome byGlobal = runMode(*s->tracer, GpuConfig::mobileSoc(),
                                  TickMode::Auto, 16);
    EXPECT_EQ(byGlobal.fastForwarded, 0u);
    EXPECT_EQ(byGlobal.skippedSmTicks, 0u);

    // An explicit per-instance mode overrides the global one.
    RunOutcome byInstance = runMode(*s->tracer, GpuConfig::mobileSoc(),
                                    TickMode::Fast, 16);
    EXPECT_GT(byInstance.fastForwarded + byInstance.skippedSmTicks, 0u);

    setGlobalTickMode(TickMode::Auto);
    EXPECT_EQ(globalTickMode(), TickMode::Auto);
}

// ---------------------------------------------------------------------
// Pipeline-level differential: the whole predictor (profiling, K-Means,
// group simulation, extrapolation) must produce bit-identical metric
// values under either loop.
// ---------------------------------------------------------------------

TEST(GpuFastpathPredictor, PredictionBitIdenticalSlowVsFast)
{
    auto s = makeScene(rt::SceneId::Wknd);
    core::ZatelParams params;
    params.width = 48;
    params.height = 48;
    params.numThreads = 1;

    setGlobalTickMode(TickMode::Slow);
    core::ZatelResult slow =
        core::ZatelPredictor(s->scene, s->bvh, GpuConfig::mobileSoc(), params)
            .predict();
    setGlobalTickMode(TickMode::Fast);
    core::ZatelResult fast =
        core::ZatelPredictor(s->scene, s->bvh, GpuConfig::mobileSoc(), params)
            .predict();
    setGlobalTickMode(TickMode::Auto);

    EXPECT_EQ(slow.k, fast.k);
    EXPECT_EQ(bitsOf(slow.fractionTraced), bitsOf(fast.fractionTraced));
    ASSERT_EQ(slow.predicted.size(), fast.predicted.size());
    for (const auto &[metric, value] : slow.predicted) {
        ASSERT_TRUE(fast.predicted.count(metric));
        EXPECT_EQ(bitsOf(value), bitsOf(fast.predicted.at(metric)))
            << "metric " << metricName(metric) << " diverged";
    }
    ASSERT_EQ(slow.groups.size(), fast.groups.size());
    for (size_t g = 0; g < slow.groups.size(); ++g) {
        expectStatsIdentical(slow.groups[g].stats, fast.groups[g].stats,
                             "group " + std::to_string(g));
    }
}

// ---------------------------------------------------------------------
// Property tests for the sim_clock.hh sleep contract the fast loop
// leans on: while an SM sleeps, its local next-event estimate must
// never move earlier — only a newly delivered fill may wake it sooner,
// and the per-cycle fill check catches that.
// ---------------------------------------------------------------------

TEST(GpuFastpathInvariants, SmNextEventNeverMovesBackwardWhileAsleep)
{
    auto s = makeScene(rt::SceneId::Wknd);
    GpuConfig config = GpuConfig::mobileSoc();
    config.numSms = 1;
    config.numMemPartitions = 2;
    SimWorkload workload = SimWorkload::buildFullFrame(*s->tracer, 16, 16);

    MemorySystem memory(config);
    Sm sm(0, &config, &memory);
    std::deque<std::unique_ptr<Warp>> pending;
    uint32_t n = static_cast<uint32_t>(workload.threads.size());
    uint32_t warp_id = 0;
    for (uint32_t begin = 0; begin < n; begin += config.warpSize) {
        pending.push_back(std::make_unique<Warp>(
            warp_id++, &config, &workload,
            begin, std::min(n, begin + config.warpSize)));
    }

    // Hand-rolled copy of the fast loop for one SM, with the contract
    // asserted at every skipped cycle.
    uint64_t wake = 0;
    uint64_t skipped = 0;
    uint64_t sleep_events = 0;
    bool completed = false;
    for (uint64_t cycle = 0; cycle < 2'000'000; ++cycle) {
        while (!pending.empty() && sm.hasFreeSlot()) {
            sm.launchWarp(std::move(pending.front()));
            pending.pop_front();
            wake = 0;
        }
        memory.tick(cycle);
        if (pending.empty() && sm.idle() && memory.idle()) {
            // Checked before the sleep branch: once drained, wake is
            // kNoEventCycle and the tick branch is never taken again.
            if (skipped != 0) {
                sm.fastForward(skipped);
                skipped = 0;
            }
            completed = true;
            break;
        }
        if (cycle < wake && !memory.hasReadyFill(0, cycle)) {
            // A skipped tick is linear accrual only; the SM's own
            // estimate must not have moved earlier than the wake
            // computed at sleep entry (fills are the only earlier wake
            // source, and they are excluded by the guard above).
            uint64_t event = sm.nextEventCycle(cycle);
            ASSERT_GT(event, cycle);
            ASSERT_GE(event, std::min(wake, memory.nextFillCycle(0)))
                << "next-event moved backward at cycle " << cycle
                << " (sleep target " << wake << ")";
            ++skipped;
            ++sleep_events;
            continue;
        }
        if (skipped != 0) {
            sm.fastForward(skipped);
            skipped = 0;
        }
        sm.tickFast(cycle);
        wake = sm.wakeCycleAfterTick(cycle);
        ASSERT_GT(wake, cycle) << "wake must be strictly in the future";
    }
    ASSERT_TRUE(completed) << "single-SM drive never drained";
    EXPECT_GT(sleep_events, 0u) << "workload never exercised the sleep path";
}

} // namespace
} // namespace zatel::gpusim
