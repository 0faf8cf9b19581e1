/**
 * @file
 * Ray-tracing accelerator unit (one per SM, paper Fig. 2 / Table II).
 *
 * Up to rtMaxWarps warps are resident at once. Each lane replays its
 * ray's BVH traversal, recorded once by the functional tracer, with an
 * rt::VisitCursor: the unit times the traversal but does not run it
 * again, so it does no box or triangle test. Every node visit requires
 * the node's data: the unit issues a line fetch through the SM's L1D
 * (merging through the MSHR) and performs the visit when the data
 * arrives, consuming one of rtVisitsPerCycle visit slots. Leaf visits
 * additionally stream the leaf's triangle data as prefetch-style fetches
 * that generate cache/DRAM traffic without stalling traversal.
 *
 * Per-cycle state is SoA (docs/SIMULATOR.md, "Data layout of the hot
 * path"): every lane is addressed by its index in the unit's lane pool,
 * the ready/fetch queues are flat rings of those indices, and a warp's
 * residency lives in per-span arrays indexed by the pool span it
 * borrowed, so no fetch, fill or visit searches for its warp.
 */

#ifndef ZATEL_GPUSIM_RT_UNIT_HH
#define ZATEL_GPUSIM_RT_UNIT_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gpusim/config.hh"
#include "gpusim/stats.hh"
#include "gpusim/warp.hh"
#include "util/logging.hh"

namespace zatel::gpusim
{

class Sm;

/**
 * A lane's index in its RT unit's lane pool: span * warpSize + lane,
 * where span is the pool span its warp borrowed on admission.
 */
using LaneRef = uint32_t;

/**
 * Flat ring of lane references with power-of-two wraparound.
 * Supports pushFront for the stall-requeue path (a stalled fetch goes
 * back to the head so issue order matches the reference deque).
 */
class LaneRing
{
  public:
    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }

    LaneRef front() const { return refs_[head_ & mask_]; }

    void
    pushBack(LaneRef ref)
    {
        if (size_ == refs_.size())
            grow();
        refs_[tail_ & mask_] = ref;
        ++tail_;
        ++size_;
    }

    void
    pushFront(LaneRef ref)
    {
        if (size_ == refs_.size())
            grow();
        --head_;
        refs_[head_ & mask_] = ref;
        ++size_;
    }

    LaneRef
    popFront()
    {
        LaneRef ref = refs_[head_ & mask_];
        ++head_;
        --size_;
        return ref;
    }

  private:
    void
    grow()
    {
        size_t cap = refs_.empty() ? 64 : refs_.size() * 2;
        std::vector<LaneRef> next(cap);
        for (size_t i = 0; i < size_; ++i)
            next[i] = refs_[(head_ + i) & mask_];
        refs_ = std::move(next);
        head_ = 0;
        tail_ = size_;
        mask_ = cap - 1;
    }

    std::vector<LaneRef> refs_;
    // head_/tail_ are free-running and masked on access; head_ may wrap
    // below zero via pushFront, which unsigned arithmetic handles.
    size_t head_ = 0;
    size_t tail_ = 0;
    size_t mask_ = 0;
    size_t size_ = 0;
};

/** The per-SM ray-tracing accelerator. */
class RtUnit
{
  public:
    /** @param index This unit's index in @p sm, carried by the RtRay
     *  tokens of its fetches. */
    RtUnit(const GpuConfig *config, Sm *sm, uint32_t index);

    /** Admit @p warp into a free slot. @return false when full. */
    bool tryAdmit(uint32_t warp_slot, Warp *warp);

    /** Node data for the lane at pool index @p ref arrived. */
    void onFill(LaneRef ref);

    /** Advance one cycle: issue fetches, execute visits, retire warps. */
    void tick(uint64_t now, GpuStats &stats);

    bool idle() const { return residentCount_ == 0; }

    /** Another warp can be admitted (used by the SM's event predicate). */
    bool hasFreeSlot() const { return residentCount_ < config_->rtMaxWarps; }

    /**
     * True when the unit has no lane ready to visit and no fetch to
     * (re)issue — every resident lane is waiting on memory, so the next
     * tick that matters is fill-driven (the SM's fill queue schedules
     * it). A quiet tick still samples residency; fastForward() applies
     * that accrual in closed form for skipped cycles (sim_clock.hh).
     */
    bool quiet() const { return readyQueue_.empty() && fetchQueue_.empty(); }

    /**
     * Apply @p cycles of skipped-tick residency sampling: each resident
     * warp contributes one rtResidentWarpCycle and each traversing lane
     * one active ray per skipped cycle, exactly as @p cycles quiet
     * tick()s would.
     * @pre the unit is quiet() and stays untouched across the skip.
     */
    void fastForward(uint64_t cycles, GpuStats &stats) const;

  private:
    /** Issue the pending node fetch of a lane. @return false on stall. */
    bool issueFetch(LaneRef ref, uint64_t now);
    /** Execute one node visit for a ready lane. */
    void executeVisit(LaneRef ref, uint64_t now, GpuStats &stats);

    const GpuConfig *config_ = nullptr;
    Sm *sm_ = nullptr;
    uint32_t index_ = 0;
    /** The BVH every lane's visit stream was recorded on: all warps of
     *  one Gpu replay the same workload. Set on the first admission. */
    const rt::Bvh *bvh_ = nullptr;
    // Lane pool: rtMaxWarps spans of warpSize WarpLanes. A warp borrows
    // a span for the duration of its residency (Warp::enterRtUnit
    // re-initializes everything observable, so reuse is deterministic).
    std::vector<WarpLane> lanePool_;
    std::vector<uint32_t> freeSpans_;
    // Residency, SoA over the span a resident warp borrowed: its SM
    // warp slot, the warp, and its lanes still traversing.
    std::vector<uint32_t> spanSlot_;
    std::vector<Warp *> spanWarp_;
    std::vector<uint32_t> spanLanes_;
    uint32_t residentCount_ = 0;
    /** spanLanes_ summed over resident warps (rtActiveRaySum's rate). */
    uint32_t activeLanes_ = 0;
    /** Lanes whose node data is available. */
    LaneRing readyQueue_;
    /** Lanes that must (re)issue a fetch. */
    LaneRing fetchQueue_;
};

} // namespace zatel::gpusim

#endif // ZATEL_GPUSIM_RT_UNIT_HH
