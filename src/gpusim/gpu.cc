#include "gpusim/gpu.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "gpusim/sim_clock.hh"
#include "obs/metrics_registry.hh"
#include "obs/trace_recorder.hh"
#include "util/logging.hh"

namespace zatel::gpusim
{

namespace
{

/** Lazily-registered whole-process simulator counters; every inc() is
 *  a no-op while the global MetricsRegistry is disabled. */
struct GpuMetrics
{
    obs::Counter *runs;
    obs::Counter *cycles;
    obs::Counter *warpsLaunched;
    obs::Counter *raysTraced;
    obs::Counter *l2Accesses;
    obs::Counter *l2Misses;
    obs::Counter *dramBytesRead;
    obs::Counter *dramBytesWritten;
    obs::Counter *fastForwardedCycles;
    obs::Counter *smTicks;
    obs::Counter *smTicksSkipped;
    obs::Counter *rtNodeVisits;
};

GpuMetrics &
gpuMetrics()
{
    static GpuMetrics metrics = [] {
        auto &reg = obs::MetricsRegistry::global();
        GpuMetrics m;
        m.runs = reg.counter("zatel_gpu_runs_total",
                             "Completed Gpu::run() invocations");
        m.cycles = reg.counter("zatel_gpu_cycles_total",
                               "Cycles simulated across all runs");
        m.warpsLaunched =
            reg.counter("zatel_gpu_warps_launched_total",
                        "Warps launched (== retired: runs drain)");
        m.raysTraced = reg.counter("zatel_gpu_rays_traced_total",
                                   "Rays traced across all runs");
        m.l2Accesses = reg.counter("zatel_gpu_l2_accesses_total",
                                   "L2 cache accesses");
        m.l2Misses =
            reg.counter("zatel_gpu_l2_misses_total", "L2 cache misses");
        m.dramBytesRead =
            reg.counter("zatel_gpu_dram_bytes_total",
                        "DRAM traffic in bytes by direction",
                        {{"dir", "read"}});
        m.dramBytesWritten =
            reg.counter("zatel_gpu_dram_bytes_total",
                        "DRAM traffic in bytes by direction",
                        {{"dir", "write"}});
        m.fastForwardedCycles =
            reg.counter("zatel_gpu_fast_forwarded_cycles_total",
                        "Cycles skipped by quiescence fast-forward");
        m.smTicks = reg.counter("zatel_gpu_sm_ticks_total",
                                "Per-SM tick() calls executed");
        m.smTicksSkipped =
            reg.counter("zatel_gpu_sm_ticks_skipped_total",
                        "Per-SM tick() calls skipped as provably idle");
        m.rtNodeVisits = reg.counter("zatel_gpu_rt_node_visits_total",
                                     "BVH node visits of the RT units");
        return m;
    }();
    return metrics;
}

/** Process-wide tick mode backing setGlobalTickMode()/globalTickMode(). */
std::atomic<uint8_t> &
globalTickModeSlot()
{
    static std::atomic<uint8_t> slot{
        static_cast<uint8_t>(TickMode::Auto)};
    return slot;
}

/** Env fallback: ZATEL_GPU_SLOW_TICK set to anything but "" / "0"
 *  selects the reference loop; otherwise the fast path. Read once —
 *  tests that need to flip at runtime use setGlobalTickMode(). */
TickMode
envTickMode()
{
    static const TickMode mode = [] {
        const char *value = std::getenv("ZATEL_GPU_SLOW_TICK");
        if (value != nullptr && *value != '\0' &&
            std::strcmp(value, "0") != 0) {
            return TickMode::Slow;
        }
        return TickMode::Fast;
    }();
    return mode;
}

/** Collapse instance > global > environment into Fast or Slow. */
TickMode
resolveTickMode(TickMode instance_mode)
{
    if (instance_mode != TickMode::Auto)
        return instance_mode;
    TickMode global = static_cast<TickMode>(
        globalTickModeSlot().load(std::memory_order_relaxed));
    if (global != TickMode::Auto)
        return global;
    return envTickMode();
}

} // namespace

void
setGlobalTickMode(TickMode mode)
{
    globalTickModeSlot().store(static_cast<uint8_t>(mode),
                               std::memory_order_relaxed);
}

TickMode
globalTickMode()
{
    return static_cast<TickMode>(
        globalTickModeSlot().load(std::memory_order_relaxed));
}

Gpu::Gpu(const GpuConfig &config, const SimWorkload &workload)
    : config_(config), workload_(workload), memory_(config)
{
    config_.validate();
    ZATEL_ASSERT(workload.bvh != nullptr, "workload has no BVH");

    sms_.reserve(config_.numSms);
    for (uint32_t s = 0; s < config_.numSms; ++s)
        sms_.push_back(std::make_unique<Sm>(s, &config_, &memory_));

    buildWarps();
}

void
Gpu::buildWarps()
{
    uint32_t n = static_cast<uint32_t>(workload_.threads.size());
    uint32_t warp_id = 0;
    for (uint32_t begin = 0; begin < n; begin += config_.warpSize) {
        uint32_t end = std::min(n, begin + config_.warpSize);
        pendingWarps_.push_back(std::make_unique<Warp>(
            warp_id++, &config_, &workload_, begin, end));
    }
}

void
Gpu::setProgressCallback(uint64_t interval, ProgressCallback callback)
{
    ZATEL_ASSERT(interval > 0, "progress interval must be positive");
    progressInterval_ = interval;
    progressCallback_ = std::move(callback);
}

GpuStats
Gpu::snapshotStats(uint64_t cycle) const
{
    GpuStats stats;
    stats.cycles = cycle;
    for (const auto &sm : sms_)
        sm->accumulateStats(stats);
    stats.cycles = cycle;
    memory_.accumulateStats(stats);
    return stats;
}

void
Gpu::dispatchPendingWarps(std::vector<uint64_t> &sm_wake_at)
{
    while (!pendingWarps_.empty()) {
        bool placed = false;
        for (uint32_t i = 0; i < config_.numSms && !pendingWarps_.empty();
             ++i) {
            uint32_t s = (nextLaunchSm_ + i) % config_.numSms;
            if (sms_[s]->hasFreeSlot()) {
                sms_[s]->launchWarp(std::move(pendingWarps_.front()));
                pendingWarps_.pop_front();
                ++launchedWarps_;
                nextLaunchSm_ = (s + 1) % config_.numSms;
                sm_wake_at[s] = 0; // wake the SM for its new warp
                placed = true;
            }
        }
        if (!placed)
            break;
    }
}

bool
Gpu::runCycleLoop(uint64_t max_cycles, bool fast, uint64_t &out_cycle)
{
    const size_t num_sms = sms_.size();

    // Per-SM sleep state (fast path only). An SM sleeps until its own
    // next event (smWakeAt), a ready fill, or a warp launch; skipped
    // ticks accrue in smSkipped and are applied in closed form by
    // Sm::fastForward before the SM state is next observed. See
    // sim_clock.hh for the contract that makes this stat-exact.
    std::vector<uint64_t> smWakeAt(num_sms, 0);
    std::vector<uint64_t> smSkipped(num_sms, 0);
    auto flushSkipped = [&] {
        for (size_t i = 0; i < num_sms; ++i) {
            if (smSkipped[i] != 0) {
                sms_[i]->fastForward(smSkipped[i]);
                smSkipped[i] = 0;
            }
        }
    };

    bool completed = false;
    uint64_t cycle = 0;
    while (cycle < max_cycles) {
        // Early-stop probe for sampled-simulation baselines.
        if (progressCallback_ && cycle == nextProbeCycle_) {
            nextProbeCycle_ += progressInterval_;
            flushSkipped(); // snapshots must observe accrued stats
            if (progressCallback_(cycle, snapshotStats(cycle))) {
                stoppedEarly_ = true;
                completed = true;
                break;
            }
        }

        // 1. Dispatch pending warps into free SM slots (round-robin).
        dispatchPendingWarps(smWakeAt);

        // 2. Advance the memory system, then the SMs. The fast path
        // skips components whose tick is provably linear-accrual-only;
        // both paths produce byte-identical GpuStats
        // (tests/test_gpu_fastpath.cc). min_wake tracks the earliest
        // SM wake-up so step 4 can tell "someone is due next cycle"
        // (the overwhelmingly common case) from "a jump is plausible"
        // without re-scanning anything.
        uint64_t min_wake = kNoEventCycle;
        if (fast) {
            memory_.tickActive(cycle);
            for (size_t i = 0; i < num_sms; ++i) {
                if (cycle < smWakeAt[i] &&
                    !memory_.hasReadyFill(static_cast<uint32_t>(i), cycle)) {
                    ++smSkipped[i];
                    ++skippedSmTicks_;
                    min_wake = std::min(min_wake, smWakeAt[i]);
                    continue;
                }
                if (smSkipped[i] != 0) {
                    sms_[i]->fastForward(smSkipped[i]);
                    smSkipped[i] = 0;
                }
                sms_[i]->tickFast(cycle);
                ++smTicks_;
                uint64_t wake = sms_[i]->wakeCycleAfterTick(cycle);
                smWakeAt[i] = wake;
                min_wake = std::min(min_wake, wake);
            }
        } else {
            memory_.tick(cycle);
            for (auto &sm : sms_)
                sm->tick(cycle);
            smTicks_ += num_sms;
        }

        // 3. Termination check (cheap: counters only).
        if (pendingWarps_.empty() && memory_.idle()) {
            bool all_idle = true;
            for (auto &sm : sms_) {
                if (!sm->idle()) {
                    all_idle = false;
                    break;
                }
            }
            if (all_idle) {
                ++cycle; // count this final cycle
                completed = true;
                break;
            }
        }

        // 4. Advance the clock; when every SM sleeps past cycle + 1 and
        // the memory system is event-free, fast-forward straight to the
        // earliest known event (sim_clock.hh contract). Guarded by
        // min_wake so the common busy cycle pays one comparison here,
        // not a component scan.
        uint64_t next = cycle + 1;
        if (fast && min_wake > cycle + 1) {
            uint64_t event = min_wake;
            // A pending warp with somewhere to land dispatches next
            // cycle, so there is nothing to jump over.
            bool launch_due =
                !pendingWarps_.empty() &&
                std::any_of(sms_.begin(), sms_.end(),
                            [](const auto &sm) { return sm->hasFreeSlot(); });
            if (!launch_due) {
                for (size_t i = 0; i < num_sms && event > cycle + 1; ++i) {
                    // smWakeAt covers fills known when it was computed;
                    // nextFillCycle covers fills enqueued since.
                    event = std::min(
                        event,
                        memory_.nextFillCycle(static_cast<uint32_t>(i)));
                }
                if (event > cycle + 1) {
                    event = std::min(event, memory_.nextEventCycle(cycle));
                    if (progressCallback_)
                        event = std::min(event, nextProbeCycle_);
                    event = std::min(event, max_cycles);
                    if (event > next) {
                        uint64_t jump = event - next;
                        memory_.fastForward(jump);
                        for (size_t i = 0; i < num_sms; ++i)
                            smSkipped[i] += jump; // applied lazily on wake
                        fastForwardedCycles_ += jump;
                        next = event;
                    }
                }
            }
        }
        cycle = next;
    }

    flushSkipped(); // final stats must observe accrued RT residency
    out_cycle = cycle;
    return completed;
}

GpuStats
Gpu::run(uint64_t max_cycles)
{
    ZATEL_ASSERT(!ran_, "Gpu::run() is single-use");
    ran_ = true;
    ZATEL_TRACE_SCOPE("gpu.run");

    const bool fast = resolveTickMode(tickMode_) == TickMode::Fast;

    // Explicit probe schedule (never `cycle % interval`: fast-forward
    // clamps to nextProbeCycle_, so a probe can never be jumped over).
    // The first probe fires at cycle == interval, matching the
    // reference loop's `cycle > 0 && cycle % interval == 0`.
    if (progressCallback_)
        nextProbeCycle_ = progressInterval_;

    uint64_t cycle = 0;
    bool completed = runCycleLoop(max_cycles, fast, cycle);

    if (!completed)
        panic("simulation exceeded ", max_cycles,
              " cycles; likely a deadlock");

    GpuStats stats = snapshotStats(cycle);

    for (const ThreadWork &thread : workload_.threads) {
        if (thread.selected)
            ++stats.pixelsTraced;
        else
            ++stats.pixelsFiltered;
        stats.raysTraced += thread.rayCount;
    }

    // Surface the run's headline counters into the metrics registry
    // (docs/OBSERVABILITY.md). Counters self-gate on the registry's
    // enabled flag, so this is a handful of relaxed loads when off;
    // crucially it reads `stats` only, never perturbing the sim.
    if (obs::metricsEnabled()) {
        GpuMetrics &m = gpuMetrics();
        m.runs->inc();
        m.cycles->inc(stats.cycles);
        m.warpsLaunched->inc(stats.warpsLaunched);
        m.raysTraced->inc(stats.raysTraced);
        m.l2Accesses->inc(stats.l2Accesses);
        m.l2Misses->inc(stats.l2Misses);
        m.dramBytesRead->inc(stats.dramBytesRead);
        m.dramBytesWritten->inc(stats.dramBytesWritten);
        m.fastForwardedCycles->inc(fastForwardedCycles_);
        m.smTicks->inc(smTicks_);
        m.smTicksSkipped->inc(skippedSmTicks_);
        m.rtNodeVisits->inc(stats.rtNodeVisits);
    }
    return stats;
}

StatsReport
Gpu::statsReport() const
{
    ZATEL_ASSERT(ran_, "statsReport() requires a completed run()");
    StatsReport report;
    for (size_t s = 0; s < sms_.size(); ++s)
        sms_[s]->reportInto(report, "sm" + std::to_string(s));
    for (uint32_t p = 0; p < memory_.numPartitions(); ++p)
        memory_.partition(p).reportInto(report,
                                        "mem" + std::to_string(p));
    return report;
}

GpuStats
simulateFullFrame(const GpuConfig &config, const rt::Tracer &tracer,
                  uint32_t width, uint32_t height)
{
    SimWorkload workload =
        SimWorkload::buildFullFrame(tracer, width, height);
    Gpu gpu(config, workload);
    return gpu.run();
}

} // namespace zatel::gpusim
