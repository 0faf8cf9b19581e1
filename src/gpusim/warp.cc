#include "gpusim/warp.hh"

#include <algorithm>

#include "gpusim/address_map.hh"
#include "util/logging.hh"

namespace zatel::gpusim
{

namespace
{

/** Deduplicate a small line-address list in place. */
void
uniqueLines(std::vector<uint64_t> &lines)
{
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
}

} // namespace

Warp::Warp(uint32_t id, const GpuConfig *config, const SimWorkload *workload,
           uint32_t thread_begin, uint32_t thread_end)
    : id_(id), config_(config), workload_(workload),
      threadBegin_(thread_begin), threadEnd_(thread_end)
{
    ZATEL_ASSERT(thread_end > thread_begin, "empty warp");
    ZATEL_ASSERT(thread_end - thread_begin <= config->warpSize,
                 "warp exceeds warpSize threads");
    for (uint32_t t = threadBegin_; t < threadEnd_; ++t)
        maxRaySlots_ = std::max(maxRaySlots_, workload_->threads[t].rayCount);
}

const ThreadWork &
Warp::threadWork(uint32_t lane) const
{
    ZATEL_ASSERT(threadBegin_ + lane < threadEnd_, "lane has no thread");
    return workload_->threads[threadBegin_ + lane];
}

void
Warp::compileRaygenStage()
{
    uint32_t issue = 0;
    for (uint32_t t = threadBegin_; t < threadEnd_; ++t) {
        const ThreadWork &thread = workload_->threads[t];
        uint32_t insts = thread.selected ? config_->raygenInsts
                                         : config_->filterExitInsts;
        pendingThreadInsts_ += insts;
        issue = std::max(issue, insts);
    }
    aluIssueRemaining_ = issue;
    phase_ = Phase::AluIssue;
}

void
Warp::compilePostRayStage()
{
    uint32_t issue = 0;
    loadsToIssue_.clear();
    for (uint32_t t = threadBegin_; t < threadEnd_; ++t) {
        const ThreadWork &thread = workload_->threads[t];
        if (static_cast<uint32_t>(currentRaySlot_) >= thread.rayCount)
            continue;
        const rt::RayTask &task = thread.rays[currentRaySlot_];
        uint32_t insts = 0;
        if (task.mode == rt::TraversalMode::ClosestHit) {
            if (task.hit) {
                insts = config_->shadeInsts;
                loadsToIssue_.push_back(AddressMap::lineOf(
                    AddressMap::materialAddress(task.materialId),
                    config_->l1dLineBytes));
            } else {
                insts = config_->missInsts;
            }
        } else {
            insts = config_->shadowBlendInsts;
        }
        pendingThreadInsts_ += insts;
        issue = std::max(issue, insts);
    }
    uniqueLines(loadsToIssue_);
    aluIssueRemaining_ = issue;
    phase_ = Phase::AluIssue;
}

void
Warp::compileFbWriteStage()
{
    storesToIssue_.clear();
    uint32_t selected = 0;
    for (uint32_t t = threadBegin_; t < threadEnd_; ++t) {
        const ThreadWork &thread = workload_->threads[t];
        if (!thread.selected)
            continue;
        ++selected;
        storesToIssue_.push_back(AddressMap::lineOf(
            AddressMap::framebufferAddress(thread.pixelLinear),
            config_->l1dLineBytes));
    }
    uniqueLines(storesToIssue_);
    pendingThreadInsts_ += selected;
    aluIssueRemaining_ = selected > 0 ? 1 : 0;
    fbStageDone_ = true;
    phase_ = Phase::AluIssue;
}

void
Warp::advanceAfterAlu()
{
    // Find the next ray slot any thread still has to trace.
    int next_slot = currentRaySlot_ + 1;
    if (next_slot < static_cast<int>(maxRaySlots_)) {
        currentRaySlot_ = next_slot;
        phase_ = Phase::RtWait;
        return;
    }
    if (!fbStageDone_) {
        compileFbWriteStage();
        return;
    }
    phase_ = Phase::Done;
}

void
Warp::poll(uint64_t now)
{
    // Cascade through zero-time transitions until the phase is stable
    // (e.g. an empty ALU stage drains straight into the next stage).
    for (;;) {
        Phase before = phase_;
        switch (phase_) {
          case Phase::NotStarted:
            compileRaygenStage();
            break;
          case Phase::AluIssue:
            if (aluIssueRemaining_ == 0 && loadsToIssue_.empty() &&
                storesToIssue_.empty()) {
                phase_ = Phase::AluDrain;
            }
            break;
          case Phase::AluDrain:
            if (now >= drainReadyAt_ && outstandingLoads_ == 0)
                advanceAfterAlu();
            break;
          default:
            break;
        }
        if (phase_ == before)
            return;
    }
}

uint64_t
Warp::nextEventCycle(uint64_t now) const
{
    switch (phase_) {
      case Phase::NotStarted:
      case Phase::AluIssue:
        // Compiling / issuing: the next scheduler pass matters.
        return now + 1;
      case Phase::AluDrain:
        if (outstandingLoads_ > 0)
            return kNoEventCycle; // woken by a fill delivery
        // Post-tick this is > now (poll() would have advanced the stage
        // otherwise); max() keeps the contract under direct unit tests.
        return std::max<uint64_t>(drainReadyAt_, now + 1);
      case Phase::RtWait: // admission chances are the SM's to evaluate
      case Phase::InRt:   // driven by the RT unit / fills
      case Phase::Done:
        return kNoEventCycle;
    }
    return now + 1; // unreachable; keeps -Werror=return-type happy
}

bool
Warp::wantsIssue() const
{
    return phase_ == Phase::AluIssue &&
           (aluIssueRemaining_ > 0 || !loadsToIssue_.empty() ||
            !storesToIssue_.empty());
}

uint64_t
Warp::pendingMemLine() const
{
    if (!loadsToIssue_.empty())
        return loadsToIssue_.back();
    ZATEL_ASSERT(!storesToIssue_.empty(), "no pending memory line");
    return storesToIssue_.back();
}

void
Warp::commitAlu(uint64_t now)
{
    ZATEL_ASSERT(aluIssueRemaining_ > 0, "no ALU work pending");
    --aluIssueRemaining_;
    drainReadyAt_ = now + config_->aluLatency;
}

void
Warp::commitLoad()
{
    ZATEL_ASSERT(!loadsToIssue_.empty(), "no load pending");
    loadsToIssue_.pop_back();
    ++outstandingLoads_;
}

void
Warp::commitStore()
{
    ZATEL_ASSERT(!storesToIssue_.empty(), "no store pending");
    storesToIssue_.pop_back();
}

void
Warp::onLoadComplete()
{
    ZATEL_ASSERT(outstandingLoads_ > 0, "unexpected load completion");
    --outstandingLoads_;
}

void
Warp::enterRtUnit(WarpLane *lanes)
{
    ZATEL_ASSERT(phase_ == Phase::RtWait, "warp not waiting for RT");
    ZATEL_ASSERT(lanes != nullptr, "RT entry needs a lane span");
    phase_ = Phase::InRt;
    lanes_ = lanes;
    for (uint32_t lane = 0; lane < config_->warpSize; ++lane) {
        WarpLane &state = lanes_[lane];
        uint32_t t = threadBegin_ + lane;
        if (t >= threadEnd_) {
            state.state = WarpLane::State::Inactive;
            continue;
        }
        const ThreadWork &thread = workload_->threads[t];
        if (static_cast<uint32_t>(currentRaySlot_) >= thread.rayCount) {
            state.state = WarpLane::State::Inactive;
            continue;
        }
        state.cursor.init(thread.rays[currentRaySlot_].visits,
                          workload_->visitBits);
        state.state = state.cursor.finished() ? WarpLane::State::Done
                                              : WarpLane::State::NeedFetch;
    }
}

void
Warp::exitRtUnit(uint64_t now)
{
    ZATEL_ASSERT(phase_ == Phase::InRt, "warp not in RT unit");
    (void)now;
    lanes_ = nullptr; // span returns to the RT unit's pool
    compilePostRayStage();
}

uint32_t
Warp::activeLaneCount() const
{
    if (lanes_ == nullptr)
        return 0;
    uint32_t active = 0;
    for (uint32_t i = 0; i < config_->warpSize; ++i) {
        const WarpLane &lane = lanes_[i];
        if (lane.state == WarpLane::State::NeedFetch ||
            lane.state == WarpLane::State::WaitMem ||
            lane.state == WarpLane::State::ReadyStep) {
            ++active;
        }
    }
    return active;
}

} // namespace zatel::gpusim
