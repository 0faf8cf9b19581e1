/**
 * @file
 * DRAM channel model: FIFO request queue with a fixed access latency and
 * a burst-bandwidth constraint. Tracks the busy/active cycle counters
 * behind the paper's "DRAM Efficiency" and "Bandwidth Utilization"
 * metrics (Table I): efficiency counts utilization only over cycles with
 * pending work; utilization counts over all cycles.
 */

#ifndef ZATEL_GPUSIM_DRAM_HH
#define ZATEL_GPUSIM_DRAM_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "gpusim/config.hh"
#include "gpusim/mem_types.hh"
#include "gpusim/sim_clock.hh"

namespace zatel::gpusim
{

/** One DRAM channel (one per memory partition). */
class DramChannel
{
  public:
    struct Stats
    {
        uint64_t busyCycles = 0;   ///< cycles spent bursting data
        uint64_t activeCycles = 0; ///< cycles with queued or in-flight work
        uint64_t bytesRead = 0;
        uint64_t bytesWritten = 0;
        uint64_t reads = 0;
        uint64_t writes = 0;
    };

    explicit DramChannel(const GpuConfig &config);

    /**
     * Enqueue a request (arrival time = @p now).
     * @return false when the channel queue is full.
     */
    bool enqueue(const MemRequest &request, uint64_t now);

    /**
     * Advance one cycle; completed reads are appended to @p completed
     * (writes complete silently).
     */
    void tick(uint64_t now, std::vector<MemRequest> &completed);

    bool idle() const { return queue_.empty() && !bursting_; }

    /**
     * Earliest cycle > @p now at which tick() is anything but per-cycle
     * counter accrual: the retiring tick of the in-flight burst, or the
     * cycle the head request's access latency elapses. kNoEventCycle when
     * idle. See sim_clock.hh for the activity-driven loop contract.
     */
    uint64_t nextEventCycle(uint64_t now) const;

    /**
     * Account for @p cycles skipped ticks in closed form: a bursting
     * channel accrues busy+active, a waiting channel accrues active
     * only, an idle channel accrues nothing — exactly what @p cycles
     * consecutive tick() calls short of nextEventCycle() would have
     * counted. @pre cycles > 0 and now + cycles stays short of the next
     * event (the caller, Gpu::run's fast-forward, guarantees both).
     */
    void fastForward(uint64_t cycles);

    bool queueFull() const { return queue_.size() >= queueSize_; }
    const Stats &stats() const { return stats_; }

  private:
    struct Entry
    {
        MemRequest request;
        uint64_t arrival = 0;
    };

    uint32_t queueSize_ = 0;
    uint32_t latencyCycles_ = 0;
    uint32_t burstCycles_ = 0;
    uint32_t lineBytes_ = 0;

    std::deque<Entry> queue_;
    bool bursting_ = false;
    uint64_t burstEnd_ = 0;
    MemRequest inFlight_;
    Stats stats_;
};

} // namespace zatel::gpusim

#endif // ZATEL_GPUSIM_DRAM_HH
