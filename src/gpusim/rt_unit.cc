#include "gpusim/rt_unit.hh"

#include <algorithm>

#include "gpusim/address_map.hh"
#include "gpusim/sm.hh"
#include "util/logging.hh"

namespace zatel::gpusim
{

RtUnit::RtUnit(const GpuConfig *config, Sm *sm, uint32_t index)
    : config_(config), sm_(sm), index_(index)
{
    uint32_t max_warps = std::max(1u, config->rtMaxWarps);
    lanePool_.resize(static_cast<size_t>(max_warps) * config->warpSize);
    spanSlot_.resize(max_warps);
    spanWarp_.resize(max_warps);
    spanLanes_.resize(max_warps);
    // Highest index on top so admission pops span 0 first (pure
    // cosmetics: any fixed order is deterministic).
    freeSpans_.reserve(max_warps);
    for (uint32_t i = max_warps; i-- > 0;)
        freeSpans_.push_back(i);
}

bool
RtUnit::tryAdmit(uint32_t warp_slot, Warp *warp)
{
    ZATEL_ASSERT(warp != nullptr, "cannot admit a null warp");
    if (residentCount_ >= config_->rtMaxWarps)
        return false;
    ZATEL_ASSERT(!bvh_ || bvh_ == &warp->bvh(),
                 "warps of one RT unit replay one BVH");
    bvh_ = &warp->bvh();

    ZATEL_ASSERT(!freeSpans_.empty(), "lane pool exhausted below capacity");
    uint32_t span = freeSpans_.back();
    freeSpans_.pop_back();
    LaneRef base = span * config_->warpSize;
    warp->enterRtUnit(lanePool_.data() + base);
    uint32_t lanes_remaining = 0;
    for (uint32_t lane = 0; lane < warp->laneCount(); ++lane) {
        if (lanePool_[base + lane].state == WarpLane::State::NeedFetch) {
            ++lanes_remaining;
            fetchQueue_.pushBack(base + lane);
        }
    }

    if (lanes_remaining == 0) {
        // Degenerate: every lane finished instantly (e.g. empty BVH).
        warp->exitRtUnit(0);
        freeSpans_.push_back(span);
        return true;
    }
    spanSlot_[span] = warp_slot;
    spanWarp_[span] = warp;
    spanLanes_[span] = lanes_remaining;
    ++residentCount_;
    activeLanes_ += lanes_remaining;
    return true;
}

void
RtUnit::onFill(LaneRef ref)
{
    WarpLane &state = lanePool_[ref];
    ZATEL_ASSERT(state.state == WarpLane::State::WaitMem,
                 "fill for a lane that is not waiting");
    state.state = WarpLane::State::ReadyStep;
    readyQueue_.pushBack(ref);
}

bool
RtUnit::issueFetch(LaneRef ref, uint64_t now)
{
    WarpLane &lane = lanePool_[ref];
    ZATEL_ASSERT(lane.state == WarpLane::State::NeedFetch,
                 "fetch for a lane not needing one");

    uint64_t node_addr =
        AddressMap::bvhNodeAddress(lane.cursor.pendingNode());
    uint64_t line = AddressMap::lineOf(node_addr, config_->l1dLineBytes);
    Sm::L1Outcome outcome =
        sm_->l1Load(line, WaiterToken::rtRay(index_, ref), now);
    if (outcome == Sm::L1Outcome::Stall)
        return false;
    lane.state = WarpLane::State::WaitMem;
    return true;
}

void
RtUnit::executeVisit(LaneRef ref, uint64_t now, GpuStats &stats)
{
    WarpLane &lane = lanePool_[ref];
    ZATEL_ASSERT(lane.state == WarpLane::State::ReadyStep,
                 "visit for a lane that is not ready");

    rt::StepInfo info = lane.cursor.step(*bvh_);
    ++stats.rtNodeVisits;
    ++stats.threadInstructions; // one traversal op on this lane
    stats.rtTriangleTests += info.triangleTests;

    if (info.wasLeaf && info.triangleTests > 0) {
        // Stream the leaf's triangle data: fetches that occupy bandwidth
        // and cache space but never stall the traversal.
        uint64_t prev_line = ~0ull;
        for (uint32_t i = 0; i < info.triangleTests; ++i) {
            uint64_t addr =
                AddressMap::triangleAddress(info.firstPrimSlot + i);
            uint64_t line =
                AddressMap::lineOf(addr, config_->l1dLineBytes);
            if (line == prev_line)
                continue;
            prev_line = line;
            if (!sm_->portAvailable())
                break;
            sm_->l1Load(line, WaiterToken::pack(WaiterToken::Prefetch, 0),
                        now);
        }
    }

    if (lane.cursor.finished()) {
        lane.state = WarpLane::State::Done;
        // Only a finishing lane needs its warp: the span it borrowed.
        uint32_t span = ref / config_->warpSize;
        ZATEL_ASSERT(spanLanes_[span] > 0, "lane accounting broke");
        --activeLanes_;
        if (--spanLanes_[span] == 0) {
            freeSpans_.push_back(span);
            --residentCount_;
            spanWarp_[span]->exitRtUnit(now);
            // Tell the SM's lean scan the warp is scannable again.
            sm_->onWarpLeftRtUnit(spanSlot_[span]);
        }
        return;
    }

    lane.state = WarpLane::State::NeedFetch;
    fetchQueue_.pushBack(ref);
}

void
RtUnit::fastForward(uint64_t cycles, GpuStats &stats) const
{
    ZATEL_ASSERT(quiet(), "fast-forward across a unit with pending work");
    stats.rtResidentWarpCycles += cycles * residentCount_;
    stats.rtActiveRaySum += cycles * activeLanes_;
}

void
RtUnit::tick(uint64_t now, GpuStats &stats)
{
    ZATEL_ASSERT(residentCount_ <= config_->rtMaxWarps,
                 "more resident warps than the RT unit allows");
    // Residency/efficiency sampling (Table I: RT Unit Avg Efficiency).
    // Lanes still traversing are NeedFetch/WaitMem/ReadyStep ones.
    stats.rtResidentWarpCycles += residentCount_;
    stats.rtActiveRaySum += activeLanes_;

    // 1. Issue node fetches while ports and MSHRs allow.
    size_t fetch_budget = fetchQueue_.size();
    while (fetch_budget-- > 0 && !fetchQueue_.empty()) {
        LaneRef ref = fetchQueue_.popFront();
        if (!issueFetch(ref, now)) {
            fetchQueue_.pushFront(ref);
            break; // stalled: stop issuing this cycle
        }
    }

    // 2. Execute up to rtVisitsPerCycle node visits.
    uint32_t visit_budget = config_->rtVisitsPerCycle;
    while (visit_budget-- > 0 && !readyQueue_.empty())
        executeVisit(readyQueue_.popFront(), now, stats);
}

} // namespace zatel::gpusim
