/**
 * @file
 * Top-level cycle-driven GPU simulator (the Vulkan-Sim analogue).
 *
 * Construct with a configuration and a workload, call run(), and read the
 * resulting GpuStats. Warps are formed from consecutive runs of warpSize
 * threads in workload order and dispatched to SMs as slots free up.
 */

#ifndef ZATEL_GPUSIM_GPU_HH
#define ZATEL_GPUSIM_GPU_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <deque>
#include <memory>
#include <vector>

#include "gpusim/config.hh"
#include "gpusim/memory_system.hh"
#include "gpusim/sm.hh"
#include "gpusim/stats.hh"
#include "gpusim/stats_report.hh"
#include "gpusim/workload.hh"

namespace zatel::gpusim
{

/**
 * Cycle-loop strategy (docs/SIMULATOR.md, "The activity-driven cycle
 * loop"). Fast and Slow must produce byte-identical GpuStats — the
 * differential suite (tests/test_gpu_fastpath.cc) and the CI hotpath
 * bench enforce the contract.
 */
enum class TickMode : uint8_t
{
    /** Per-instance default: defer to the process-wide mode. */
    Auto,
    /** Activity-driven loop: idle-unit skipping + quiescence
     *  fast-forward. The production path. */
    Fast,
    /** Reference loop: tick every component every cycle. The escape
     *  hatch (ZATEL_GPU_SLOW_TICK=1) and differential baseline. */
    Slow,
};

/**
 * Process-wide tick mode used by instances left at TickMode::Auto.
 * TickMode::Auto here means "consult the ZATEL_GPU_SLOW_TICK
 * environment variable, default Fast". Thread-safe (relaxed atomic);
 * intended for tests and benches that flip the mode between runs —
 * flip only while no simulation is in flight.
 */
void setGlobalTickMode(TickMode mode);
TickMode globalTickMode();

/** One simulator instance. Single-use: construct, run(), read stats. */
class Gpu
{
  public:
    /**
     * @param config Machine description (validated on construction).
     * @param workload Pixels to trace; must outlive the Gpu.
     */
    Gpu(const GpuConfig &config, const SimWorkload &workload);

    /**
     * Called every progressInterval cycles with a statistics snapshot;
     * returning true stops the simulation early (sampled-simulation
     * baselines like PKA's Principal Kernel Projection use this).
     */
    using ProgressCallback =
        std::function<bool(uint64_t cycle, const GpuStats &snapshot)>;

    /** Install an early-stop probe. @pre interval > 0. */
    void setProgressCallback(uint64_t interval, ProgressCallback callback);

    /**
     * Simulate until every warp retires (or the progress callback asks
     * to stop).
     * @param max_cycles Safety limit; a run that exhausts it without
     *        draining panics (indicates a deadlock bug, not a user
     *        mistake). A run that completes exactly at max_cycles is a
     *        normal completion.
     * @return final statistics including all Table I metrics.
     */
    GpuStats run(uint64_t max_cycles = 4'000'000'000ull);

    /** True when the last run() was cut short by the callback. */
    bool stoppedEarly() const { return stoppedEarly_; }

    /**
     * Select the cycle-loop strategy for this instance. Auto (the
     * default) defers to setGlobalTickMode() / ZATEL_GPU_SLOW_TICK.
     * Must be called before run().
     */
    void setTickMode(TickMode mode) { tickMode_ = mode; }

    // ---- Fast-path introspection (identical-stats contract means the
    // ---- skip counters live outside GpuStats) ----
    /** Cycles the last run() skipped via whole-GPU fast-forward. */
    uint64_t fastForwardedCycles() const { return fastForwardedCycles_; }
    /** Per-SM tick() calls the last run() skipped as provably
     *  event-free (the SM slept past them; accrual-only). */
    uint64_t skippedSmTicks() const { return skippedSmTicks_; }

    const GpuConfig &config() const { return config_; }

    /**
     * Per-component counter breakdown (gem5-style dump).
     * @pre run() has completed.
     */
    StatsReport statsReport() const;

    /** Number of warps the workload forms. */
    uint32_t totalWarps() const
    {
        return static_cast<uint32_t>(pendingWarps_.size()) + launchedWarps_;
    }

  private:
    void buildWarps();

    /** Aggregate current counters into a snapshot at @p cycle. */
    GpuStats snapshotStats(uint64_t cycle) const;

    /**
     * Round-robin dispatch of pending warps into free SM slots (runs
     * every cycle); wakes receiving SMs via @p sm_wake_at.
     */
    void dispatchPendingWarps(std::vector<uint64_t> &sm_wake_at);

    /**
     * The cycle loop (both tick modes). Returns true on completion with
     * the final cycle count in @p out_cycle.
     */
    bool runCycleLoop(uint64_t max_cycles, bool fast, uint64_t &out_cycle);

    GpuConfig config_;
    const SimWorkload &workload_;
    MemorySystem memory_;
    std::vector<std::unique_ptr<Sm>> sms_;
    std::deque<std::unique_ptr<Warp>> pendingWarps_;
    uint32_t launchedWarps_ = 0;
    uint32_t nextLaunchSm_ = 0;
    bool ran_ = false;
    bool stoppedEarly_ = false;
    uint64_t progressInterval_ = 0;
    ProgressCallback progressCallback_;
    TickMode tickMode_ = TickMode::Auto;
    /** Next cycle at which the progress callback fires (explicit
     *  schedule, not `cycle % interval`, so fast-forward can clamp to
     *  it and never skip a probe). */
    uint64_t nextProbeCycle_ = 0;
    uint64_t fastForwardedCycles_ = 0;
    uint64_t smTicks_ = 0;
    uint64_t skippedSmTicks_ = 0;
};

/**
 * Convenience wrapper: build a full-frame workload for @p tracer and
 * simulate it on @p config.
 */
GpuStats simulateFullFrame(const GpuConfig &config, const rt::Tracer &tracer,
                           uint32_t width, uint32_t height);

} // namespace zatel::gpusim

#endif // ZATEL_GPUSIM_GPU_HH
