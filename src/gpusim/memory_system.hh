/**
 * @file
 * Device-level memory system: routes line requests from SMs across the
 * interconnect to line-interleaved memory partitions and delivers fills
 * back to the requesting SM.
 */

#ifndef ZATEL_GPUSIM_MEMORY_SYSTEM_HH
#define ZATEL_GPUSIM_MEMORY_SYSTEM_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gpusim/config.hh"
#include "gpusim/fill_heap.hh"
#include "gpusim/mem_partition.hh"
#include "gpusim/mem_types.hh"
#include "gpusim/sim_clock.hh"
#include "gpusim/stats.hh"

namespace zatel::gpusim
{

/** Interconnect + all memory partitions. */
class MemorySystem
{
  public:
    explicit MemorySystem(const GpuConfig &config);

    /** Route a read from SM @p src_sm; always accepted (NoC is elastic). */
    void sendRead(uint32_t src_sm, uint64_t line_addr, uint64_t now);

    /** Route a write (fire-and-forget). */
    void sendWrite(uint32_t src_sm, uint64_t line_addr, uint64_t now);

    /** Advance partitions and response delivery one cycle. */
    void tick(uint64_t now);

    /**
     * Fast-path variant of tick(): partitions whose tick would provably
     * be a no-op (MemPartition::quiescentAt) are skipped. Byte-identical
     * statistics to tick() — the reference slow loop keeps using tick()
     * so the equivalence stays testable (tests/test_gpu_fastpath.cc).
     */
    void tickActive(uint64_t now);

    /**
     * Earliest cycle > @p now at which any partition needs its tick
     * (sim_clock.hh). Pending fills are *not* folded in: they wake the
     * destination SM (nextFillCycle), not the partitions.
     */
    uint64_t nextEventCycle(uint64_t now) const;

    /** Apply @p cycles of skipped-tick accrual to every partition. */
    void fastForward(uint64_t cycles);

    /**
     * Ready cycle of the earliest pending fill for @p sm, kNoEventCycle
     * when none is in flight past its partition. Inline heap peek: the
     * fast cycle loop consults this once per SM per jump attempt.
     */
    uint64_t nextFillCycle(uint32_t sm) const
    {
        const FillHeap &queue = fillQueues_[sm];
        return queue.empty() ? kNoEventCycle : queue.topReady();
    }

    /**
     * True when drainFills(@p sm, @p now) would deliver something.
     * Inline: the fast cycle loop polls this for every sleeping SM every
     * cycle, so it must cost two loads, not a call.
     */
    bool hasReadyFill(uint32_t sm, uint64_t now) const
    {
        const FillHeap &queue = fillQueues_[sm];
        return !queue.empty() && queue.topReady() <= now;
    }

    /**
     * Drain fills that are ready for @p sm at cycle @p now.
     * Returned vector is scratch reused across calls; consume
     * immediately.
     */
    const std::vector<uint64_t> &drainFills(uint32_t sm, uint64_t now);

    /** True when no requests are anywhere in flight. */
    bool idle() const;

    /** Aggregate L2 + DRAM counters into @p stats. */
    void accumulateStats(GpuStats &stats) const;

    uint32_t numPartitions() const
    {
        return static_cast<uint32_t>(partitions_.size());
    }

    const MemPartition &partition(uint32_t index) const
    {
        return partitions_[index];
    }

  private:
    /** Push this tick's partition responses into the per-SM fill queues. */
    void deliverResponses();

    /** Route @p request into its line-interleaved partition. */
    void routeToPartition(const MemRequest &request);

    GpuConfig config_;
    std::vector<MemPartition> partitions_;
    /**
     * SoA min-heap of fills per destination SM, ordered by (readyCycle,
     * seq). The delivery sequence number tie-break makes the heap a
     * total order: fills that share a readyCycle drain in delivery
     * order, whatever push/pop history the heap has had. Drain order is
     * therefore a function of the delivery sequence alone.
     */
    std::vector<FillHeap> fillQueues_;
    std::vector<MemResponse> responseScratch_;
    /** Monotone FillHeap seq source. */
    uint64_t fillSeq_ = 0;
    /** drainFills() result scratch. */
    std::vector<uint64_t> drainScratch_;
};

} // namespace zatel::gpusim

#endif // ZATEL_GPUSIM_MEMORY_SYSTEM_HH
