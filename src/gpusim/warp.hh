/**
 * @file
 * SIMT warp model.
 *
 * A warp executes the ray-tracing pixel shader as a sequence of stages:
 *
 *   RAYGEN (ALU)  ->  [ TRACE ray slot r (RT unit)  ->  POST-RAY (ALU +
 *   coalesced material loads) ] per ray slot  ->  FB WRITE (stores)  ->
 *   DONE
 *
 * Threads whose pixel is filtered out execute only the filter-exit check
 * during RAYGEN and stay inactive afterwards, mirroring the paper's
 * injected filter_shader PTX (Section III-F). Thread divergence shows up
 * as per-stage active masks: the instruction issue cost of a stage is the
 * max over participating threads while the scalar instruction count is
 * the sum.
 */

#ifndef ZATEL_GPUSIM_WARP_HH
#define ZATEL_GPUSIM_WARP_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gpusim/config.hh"
#include "gpusim/sim_clock.hh"
#include "gpusim/workload.hh"
#include "rt/traversal.hh"

namespace zatel::gpusim
{

/**
 * Per-lane state while the warp is inside the RT unit: a cursor over
 * the lane's recorded visit stream (rt::VisitCursor), not a traversal.
 */
struct WarpLane
{
    enum class State : uint8_t
    {
        Inactive,  ///< lane has no ray at the current slot
        NeedFetch, ///< must issue the next node fetch
        WaitMem,   ///< node fetch outstanding
        ReadyStep, ///< node data available; can execute a visit
        Done,      ///< traversal finished for this slot
    };

    rt::VisitCursor cursor;
    State state = State::Inactive;
};

// The RT unit keeps rtMaxWarps x warpSize lanes per unit; keep them
// small.
static_assert(sizeof(WarpLane) <= 32, "WarpLane grew past 32 bytes");

/**
 * One warp. The SM and RT unit drive its state machine; the warp itself
 * owns stage compilation and bookkeeping.
 */
class Warp
{
  public:
    enum class Phase : uint8_t
    {
        NotStarted,
        AluIssue, ///< issuing ALU instructions / loads / stores
        AluDrain, ///< pipeline drain + waiting for outstanding loads
        RtWait,   ///< waiting for an RT unit slot
        InRt,     ///< resident in the RT unit
        Done,
    };

    /**
     * @param id Global warp id (also its age for GTO's "oldest").
     * @param thread_begin/@p thread_end Range into workload.threads.
     */
    Warp(uint32_t id, const GpuConfig *config, const SimWorkload *workload,
         uint32_t thread_begin, uint32_t thread_end);

    uint32_t id() const { return id_; }
    Phase phase() const { return phase_; }
    bool done() const { return phase_ == Phase::Done; }

    /**
     * Advance zero-time transitions (stage completion, next-stage
     * compilation). Called by the SM before interrogating the warp.
     */
    void poll(uint64_t now);

    // ---- AluIssue phase interface ----
    /** True when the warp can consume an issue slot this cycle. */
    bool wantsIssue() const;
    /** True when the next issue is a memory operation (needs an L1 port). */
    bool nextIsLoad() const { return !loadsToIssue_.empty(); }
    bool nextIsStore() const
    {
        return loadsToIssue_.empty() && !storesToIssue_.empty();
    }
    /** Line address of the pending load/store. @pre nextIsLoad/Store(). */
    uint64_t pendingMemLine() const;
    /** Commit one ALU issue slot. */
    void commitAlu(uint64_t now);
    /** Commit the pending load (accepted by L1; completion comes later). */
    void commitLoad();
    /** Commit the pending store (fire and forget). */
    void commitStore();
    /** A previously issued load returned. */
    void onLoadComplete();

    // ---- RT phase interface ----
    /** True when the warp waits for an RT unit slot. */
    bool wantsRtSlot() const { return phase_ == Phase::RtWait; }
    /**
     * Enter the RT unit: borrow @p lanes (warpSize entries, owned by the
     * RT unit's lane pool) and start each live lane's cursor on its ray
     * of the current slot. The span stays borrowed until exitRtUnit;
     * pool reuse is safe because every lane's state (and, for live
     * lanes, its cursor) is re-initialized here before anything reads
     * it. A ray with no recorded visits (empty BVH) is Done on entry.
     */
    void enterRtUnit(WarpLane *lanes);
    /** Called by the RT unit when every lane finished the current slot. */
    void exitRtUnit(uint64_t now);
    /** Borrowed lane span (warpSize entries); null outside InRt. */
    WarpLane *lanes() { return lanes_; }
    uint32_t laneCount() const { return config_->warpSize; }
    /** The BVH the lanes' visit streams were recorded on. */
    const rt::Bvh &bvh() const { return *workload_->bvh; }
    /** Lanes still traversing (for the RT efficiency metric). */
    uint32_t activeLaneCount() const;

    // ---- Stats handoff ----
    /**
     * Scalar instructions accumulated since the last call (stage entry
     * adds the stage's summed thread instructions).
     */
    uint64_t
    takePendingThreadInsts()
    {
        uint64_t insts = pendingThreadInsts_;
        pendingThreadInsts_ = 0;
        return insts;
    }

    /** True when poll() could change state (cheap pre-check). */
    bool
    pollable() const
    {
        return phase_ == Phase::NotStarted || phase_ == Phase::AluIssue ||
               phase_ == Phase::AluDrain;
    }

    /** True when there are uncollected stage instructions. */
    bool hasPendingThreadInsts() const { return pendingThreadInsts_ != 0; }

    /**
     * Earliest cycle > @p now at which the warp could make progress on
     * its own clock (sim_clock.hh): issuing warps advance every cycle, a
     * draining pipeline wakes at drainReadyAt_, and everything waiting
     * on external input — outstanding loads, an RT-unit slot, RT
     * traversal itself — reports kNoEventCycle (the SM folds in the
     * fill-queue and RT-unit events that wake those). Only meaningful
     * between ticks, i.e. after the SM's scheduler pass polled the warp.
     */
    uint64_t nextEventCycle(uint64_t now) const;

    /** Threads covered by this warp. */
    uint32_t threadCount() const { return threadEnd_ - threadBegin_; }

    /** Current ray slot (for the RT unit; -1 before the first trace). */
    int currentRaySlot() const { return currentRaySlot_; }

    /** Thread work for lane @p lane. */
    const ThreadWork &threadWork(uint32_t lane) const;

  private:
    void compileRaygenStage();
    void compilePostRayStage();
    void compileFbWriteStage();
    /** Move to the next stage after an ALU stage fully drained. */
    void advanceAfterAlu();

    uint32_t id_ = 0;
    const GpuConfig *config_ = nullptr;
    const SimWorkload *workload_ = nullptr;
    uint32_t threadBegin_ = 0;
    uint32_t threadEnd_ = 0;

    Phase phase_ = Phase::NotStarted;
    int currentRaySlot_ = -1;
    uint32_t maxRaySlots_ = 0;
    bool fbStageDone_ = false;

    // Current ALU stage.
    uint32_t aluIssueRemaining_ = 0;
    std::vector<uint64_t> loadsToIssue_;
    std::vector<uint64_t> storesToIssue_;
    uint32_t outstandingLoads_ = 0;
    uint64_t drainReadyAt_ = 0;

    uint64_t pendingThreadInsts_ = 0;

    // Borrowed from the RT unit's lane pool while InRt; null otherwise.
    // The pool bounds lane storage to rtMaxWarps spans per unit instead
    // of warpSize lanes per warp.
    WarpLane *lanes_ = nullptr;
};

} // namespace zatel::gpusim

#endif // ZATEL_GPUSIM_WARP_HH
