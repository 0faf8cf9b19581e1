/**
 * @file
 * Streaming Multiprocessor model: warp slots, a greedy-then-oldest warp
 * scheduler, an L1D cache with MSHRs, and one RT unit (paper Fig. 2).
 */

#ifndef ZATEL_GPUSIM_SM_HH
#define ZATEL_GPUSIM_SM_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "gpusim/cache.hh"
#include "gpusim/config.hh"
#include "gpusim/memory_system.hh"
#include "gpusim/mshr.hh"
#include "gpusim/rt_unit.hh"
#include "gpusim/stats.hh"
#include "gpusim/stats_report.hh"
#include "gpusim/warp.hh"
#include "util/logging.hh"

namespace zatel::gpusim
{

/**
 * Opaque completion-token codec shared by the SM and its RT units: the
 * kind above bit 32 and a 32-bit payload below it. A WarpLoad payload
 * is the warp slot; an RtRay payload is the RT unit's index in its SM
 * in the top 8 bits and the lane's pool index (LaneRef) in the low 24,
 * so a fill reaches its lane without a lookup.
 */
struct WaiterToken
{
    enum Kind : uint8_t
    {
        RtRay = 0,    ///< wake a traversal lane
        WarpLoad = 1, ///< complete one outstanding warp load
        Prefetch = 2, ///< no waiter (triangle streaming)
    };

    static_assert(uint64_t{GpuConfig::kMaxRtUnitsPerSm} *
                          GpuConfig::kMaxRtLanesPerUnit ==
                      uint64_t{1} << 32,
                  "an RtRay payload is (unit, pool index)");

    static uint64_t
    pack(Kind kind, uint32_t payload)
    {
        return (static_cast<uint64_t>(kind) << 32) | payload;
    }

    /** Wake lane @p ref of RT unit @p unit (GpuConfig::validate()
     *  bounds both). */
    static uint64_t
    rtRay(uint32_t unit, LaneRef ref)
    {
        return pack(RtRay, unit * GpuConfig::kMaxRtLanesPerUnit + ref);
    }

    static Kind kindOf(uint64_t token)
    {
        return static_cast<Kind>(token >> 32);
    }

    static uint32_t payloadOf(uint64_t token)
    {
        return static_cast<uint32_t>(token);
    }

    static uint32_t rtUnitOf(uint64_t token)
    {
        return payloadOf(token) / GpuConfig::kMaxRtLanesPerUnit;
    }

    static LaneRef rtLaneOf(uint64_t token)
    {
        return payloadOf(token) % GpuConfig::kMaxRtLanesPerUnit;
    }
};

/**
 * Fixed-latency L1-hit delay line in SoA form: parallel ready-cycle /
 * token rings with power-of-two wraparound. The single producer
 * (Sm::l1Load) always schedules `now + l1dLatencyCycles` with a
 * constant latency, so ready cycles are monotone in push order and the
 * structure is a FIFO — the earliest pending event is an O(1) peek at
 * the head instead of a lap over time buckets
 * (docs/SIMULATOR.md, "Data layout of the hot path").
 */
class HitFifo
{
  public:
    void
    push(uint64_t ready_cycle, uint64_t token)
    {
        ZATEL_ASSERT(size_ == 0 || ready_cycle >= ready_[(tail_ - 1) & mask_],
                     "hit FIFO requires monotone ready cycles");
        if (size_ == capacity())
            grow();
        ready_[tail_ & mask_] = ready_cycle;
        token_[tail_ & mask_] = token;
        ++tail_;
        ++size_;
    }

    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }

    /** Ready cycle of the oldest pending token. @pre !empty() */
    uint64_t frontReady() const { return ready_[head_ & mask_]; }

    /** Pop the oldest token. @pre !empty() */
    uint64_t
    pop()
    {
        uint64_t token = token_[head_ & mask_];
        ++head_;
        --size_;
        return token;
    }

  private:
    size_t capacity() const { return ready_.size(); }

    void
    grow()
    {
        size_t cap = capacity() == 0 ? 128 : capacity() * 2;
        std::vector<uint64_t> ready(cap), token(cap);
        for (size_t i = 0; i < size_; ++i) {
            ready[i] = ready_[(head_ + i) & mask_];
            token[i] = token_[(head_ + i) & mask_];
        }
        ready_ = std::move(ready);
        token_ = std::move(token);
        head_ = 0;
        tail_ = size_;
        mask_ = cap - 1;
    }

    std::vector<uint64_t> ready_;
    std::vector<uint64_t> token_;
    size_t head_ = 0;
    size_t tail_ = 0;
    size_t mask_ = 0;
    size_t size_ = 0;
};

/** One streaming multiprocessor. */
class Sm
{
  public:
    /** Result of an L1 load attempt. */
    enum class L1Outcome
    {
        HitScheduled, ///< hit; waiter wakes after l1dLatencyCycles
        MissPending,  ///< miss sent to memory; waiter wakes on fill
        Stall,        ///< no port / MSHR full; retry next cycle
    };

    Sm(uint32_t index, const GpuConfig *config, MemorySystem *memory);

    uint32_t index() const { return index_; }

    /** True when another warp can be launched here. Inline: the fast
     *  cycle loop's jump check polls it for every SM. */
    bool hasFreeSlot() const { return residentWarps_ < warpSlots_.size(); }

    /** Install @p warp into a free slot. @pre hasFreeSlot(). */
    void launchWarp(std::unique_ptr<Warp> warp);

    /**
     * Advance one cycle (reference path): the scheduler pass walks every
     * warp slot. Kept deliberately naive — this is the loop the fast
     * path is differentially tested against.
     */
    void tick(uint64_t now) { tickImpl(now, /*lean_scan=*/false); }

    /**
     * Advance one cycle (fast path): identical semantics to tick(), but
     * the scheduler pass only visits slots that can observably act —
     * warps resident in an RT unit are inert to the scheduler (not
     * pollable, nothing to issue, no uncollected instructions), and
     * RT-waiting warps are inert whenever every RT unit is full at scan
     * start (no unit can free mid-scan). Byte-identical GpuStats to
     * tick() (tests/test_gpu_fastpath.cc).
     */
    void tickFast(uint64_t now) { tickImpl(now, /*lean_scan=*/true); }

    /** All warps retired and no local activity pending. */
    bool idle() const;

    /**
     * True when tick(@p now) would provably be a no-op: no resident
     * warps (which implies idle RT units — an RT-resident warp still
     * owns its slot), no delayed L1 hits, and no fill ready to drain.
     * Outstanding prefetch MSHR entries alone don't block skipping;
     * their fills wake the SM through the fill queue. Slow-tick mode
     * (docs/SIMULATOR.md) never skips, keeping this testable.
     */
    bool quiescentAt(uint64_t now) const;

    /**
     * Earliest cycle > @p now at which this SM's tick could do more
     * than linear residency sampling (sim_clock.hh): pending RT
     * visits/fetches and issuable warps say now + 1, delayed L1 hits
     * wake at their ring bucket, draining warps at drainReadyAt_, and
     * memory waits at the fill queue's earliest ready cycle.
     */
    uint64_t nextEventCycle(uint64_t now) const;

    /**
     * Apply @p cycles of skipped-tick accrual: RT residency sampling is
     * the only per-cycle statistic an otherwise event-free tick adds.
     * @pre every local event is at least @p cycles + 1 away (Gpu::run's
     * fast-forward checks via nextEventCycle()).
     */
    void fastForward(uint64_t cycles);

    /**
     * Cheap wake heuristic for the fast cycle loop: true when the SM is
     * visibly busy — the last tick() issued a warp instruction, or an RT
     * unit has a ready visit or pending fetch. A busy SM is due again at
     * now + 1, so Gpu::run skips the full nextEventCycle() scan for it
     * (waking early is always stat-safe; an event-free tick is a no-op
     * plus accrual). Delayed L1 hits are deliberately *not* a busy
     * signal: their tokens sit up to l1dLatencyCycles in the future, and
     * nextEventCycle()'s ring scan finds the exact bucket instead of
     * burning a tick per intervening cycle.
     */
    bool likelyBusy() const
    {
        if (lastTickIssued_)
            return true;
        for (const RtUnit &unit : rtUnits_) {
            if (!unit.quiet())
                return true;
        }
        return false;
    }

    /**
     * Post-tick wake computation for the fast loop: a visibly busy SM
     * is due again at now + 1 (skip the scan — early wake is always
     * stat-safe); the full nextEventCycle() scan runs once per sleep
     * transition.
     */
    uint64_t wakeCycleAfterTick(uint64_t now) const
    {
        return likelyBusy() ? now + 1 : nextEventCycle(now);
    }

    /** Fold local counters (L1, RT, instructions) into @p stats. */
    void accumulateStats(GpuStats &stats) const;

    /** Append this SM's counters to @p report under @p prefix. */
    void reportInto(StatsReport &report, const std::string &prefix) const;

    // ---- Memory interface used by warps and the RT unit ----
    /**
     * Attempt a load of @p line_addr; @p token is woken on completion.
     * Consumes an L1 port on anything but Stall.
     */
    L1Outcome l1Load(uint64_t line_addr, uint64_t token, uint64_t now);

    /** Issue a write-through store. @return false when out of ports. */
    bool l1Store(uint64_t line_addr, uint64_t now);

    /** Ports left this cycle (RT unit checks before issuing fetches). */
    bool portAvailable() const { return portsUsed_ < config_->l1dPortsPerCycle; }

    GpuStats &localStats() { return stats_; }

  private:
    friend class RtUnit;

    /** Shared body of tick()/tickFast(); @p lean_scan selects the
     *  mask-driven scheduler scan. */
    void tickImpl(uint64_t now, bool lean_scan);

    /**
     * One scheduler visit to @p slot: poll, collect instruction counts,
     * retire, admit to an RT unit, or issue. Ends by reclassifying the
     * slot in the lean-scan masks from its actual post-visit phase, so
     * the masks never go stale regardless of which path mutated it.
     */
    void scanWarpSlot(uint32_t slot, uint64_t now, uint32_t &issued,
                      bool &rt_units_full);

    /**
     * RT-unit callback: @p slot 's warp just left InRt (ray batch done),
     * so it is scannable again. Mid-tick exits happen only in the RT
     * unit pass, which runs before the scheduler scan snapshots the
     * masks — the lean scan therefore never misses a freshly-woken warp.
     */
    void onWarpLeftRtUnit(uint32_t slot)
    {
        scannableSlots_ |= uint64_t{1} << slot;
        rtWaitSlots_ &= ~(uint64_t{1} << slot);
    }

    /** Deliver a completion token to its waiter. */
    void deliverToken(uint64_t token, uint64_t now);

    /** Process fills returned by the memory system. */
    void processFills(uint64_t now);

    /** Process L1-hit delay queue. */
    void processHitQueue(uint64_t now);

    uint32_t index_ = 0;
    const GpuConfig *config_ = nullptr;
    MemorySystem *memory_ = nullptr;

    std::vector<std::unique_ptr<Warp>> warpSlots_;
    uint32_t residentWarps_ = 0;
    uint32_t lastIssuedSlot_ = 0;

    TagCache l1_;
    MshrTable mshr_;
    /** rtUnitsPerSm accelerator units; warps are admitted to any unit
     *  with a free slot, and RtRay tokens name the unit. */
    std::vector<RtUnit> rtUnits_;
    /**
     * Fixed-latency delay line for L1 hits. The constant L1 latency
     * makes scheduled ready cycles monotone in push order, so a flat
     * SoA FIFO replaces the old ring of per-cycle token buckets and
     * nextEventCycle() reads the head instead of scanning a lap.
     */
    HitFifo hitFifo_;
    /**
     * Lean-scan masks (tickFast): bit i set in scannableSlots_ when slot
     * i holds a warp whose phase is anything but InRt — InRt warps are
     * provably inert to the scheduler pass (not pollable, nothing to
     * issue, no RT-slot wish, no uncollected instruction counts).
     * rtWaitSlots_ is the subset currently in RtWait; those are also
     * inert whenever every RT unit is full at scan start. Maintained at
     * launch, at every scanWarpSlot() exit, and by onWarpLeftRtUnit().
     */
    uint64_t scannableSlots_ = 0;
    uint64_t rtWaitSlots_ = 0;
    uint32_t portsUsed_ = 0;
    bool lastTickIssued_ = false;

    GpuStats stats_;
};

} // namespace zatel::gpusim

#endif // ZATEL_GPUSIM_SM_HH
