#include "gpusim/rt_unit.hh"

#include <algorithm>

#include "gpusim/address_map.hh"
#include "gpusim/sm.hh"
#include "util/logging.hh"

namespace zatel::gpusim
{

RtUnit::RtUnit(const GpuConfig *config, Sm *sm) : config_(config), sm_(sm)
{
    uint32_t max_warps = std::max(1u, config->rtMaxWarps);
    residentSlot_.resize(max_warps);
    residentWarp_.resize(max_warps);
    residentLanes_.resize(max_warps);
    residentPoolIdx_.resize(max_warps);
    lanePool_.resize(static_cast<size_t>(max_warps) * config->warpSize);
    // Highest index on top so admission pops span 0 first (pure
    // cosmetics: any fixed order is deterministic).
    freeSpans_.reserve(max_warps);
    for (uint32_t i = max_warps; i-- > 0;)
        freeSpans_.push_back(i);
}

int
RtUnit::findResident(uint32_t warp_slot) const
{
    for (uint32_t i = 0; i < residentCount_; ++i) {
        if (residentSlot_[i] == warp_slot)
            return static_cast<int>(i);
    }
    return -1;
}

Warp *
RtUnit::warpAt(uint32_t warp_slot)
{
    int index = findResident(warp_slot);
    return index >= 0 ? residentWarp_[index] : nullptr;
}

bool
RtUnit::tryAdmit(uint32_t warp_slot, Warp *warp)
{
    ZATEL_ASSERT(warp != nullptr, "cannot admit a null warp");
    if (residentCount_ >= config_->rtMaxWarps)
        return false;

    ZATEL_ASSERT(!freeSpans_.empty(), "lane pool exhausted below capacity");
    uint32_t span = freeSpans_.back();
    freeSpans_.pop_back();
    warp->enterRtUnit(
        lanePool_.data() + static_cast<size_t>(span) * config_->warpSize);
    uint32_t lanes_remaining = 0;
    for (uint32_t lane = 0; lane < warp->laneCount(); ++lane) {
        WarpLane &state = warp->lanes()[lane];
        if (state.state == WarpLane::State::NeedFetch) {
            ++lanes_remaining;
            fetchQueue_.pushBack(packLaneRef(warp_slot, lane));
        }
    }

    if (lanes_remaining == 0) {
        // Degenerate: every lane finished instantly (e.g. empty BVH).
        warp->exitRtUnit(0);
        freeSpans_.push_back(span);
        return true;
    }
    residentSlot_[residentCount_] = warp_slot;
    residentWarp_[residentCount_] = warp;
    residentLanes_[residentCount_] = lanes_remaining;
    residentPoolIdx_[residentCount_] = span;
    ++residentCount_;
    return true;
}

void
RtUnit::onFill(uint32_t warp_slot, uint32_t lane)
{
    Warp *warp = warpAt(warp_slot);
    if (!warp)
        return; // stale token (should not happen; be permissive)
    WarpLane &state = warp->lanes()[lane];
    ZATEL_ASSERT(state.state == WarpLane::State::WaitMem,
                 "fill for a lane that is not waiting");
    state.state = WarpLane::State::ReadyStep;
    readyQueue_.pushBack(packLaneRef(warp_slot, lane));
}

bool
RtUnit::issueFetch(LaneRef ref, uint64_t now, GpuStats &stats)
{
    Warp *warp = warpAt(laneRefSlot(ref));
    ZATEL_ASSERT(warp, "fetch for a non-resident warp");
    WarpLane &lane = warp->lanes()[laneRefLane(ref)];
    ZATEL_ASSERT(lane.state == WarpLane::State::NeedFetch,
                 "fetch for a lane not needing one");

    uint64_t node_addr =
        AddressMap::bvhNodeAddress(lane.cursor.pendingNode());
    uint64_t line = AddressMap::lineOf(node_addr, config_->l1dLineBytes);
    uint64_t token = WaiterToken::pack(WaiterToken::RtRay, laneRefSlot(ref),
                                       laneRefLane(ref));

    Sm::L1Outcome outcome = sm_->l1Load(line, token, now);
    if (outcome == Sm::L1Outcome::Stall)
        return false;
    (void)stats;
    lane.state = WarpLane::State::WaitMem;
    return true;
}

void
RtUnit::executeVisit(LaneRef ref, uint64_t now, GpuStats &stats)
{
    int resident = findResident(laneRefSlot(ref));
    ZATEL_ASSERT(resident >= 0, "visit for a non-resident warp");
    Warp *warp = residentWarp_[resident];
    WarpLane &lane = warp->lanes()[laneRefLane(ref)];
    ZATEL_ASSERT(lane.state == WarpLane::State::ReadyStep,
                 "visit for a lane that is not ready");

    rt::StepInfo info = lane.cursor.step(warp->bvh());
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
            sm_->l1Load(line, WaiterToken::pack(WaiterToken::Prefetch, 0, 0),
                        now);
        }
    }

    if (lane.cursor.finished()) {
        lane.state = WarpLane::State::Done;
        ZATEL_ASSERT(residentLanes_[resident] > 0, "lane accounting broke");
        if (--residentLanes_[resident] == 0) {
            Warp *done_warp = residentWarp_[resident];
            freeSpans_.push_back(residentPoolIdx_[resident]);
            // Remove from residency (preserving admission order), then
            // let the warp continue.
            for (uint32_t i = resident; i + 1u < residentCount_; ++i) {
                residentSlot_[i] = residentSlot_[i + 1];
                residentWarp_[i] = residentWarp_[i + 1];
                residentLanes_[i] = residentLanes_[i + 1];
                residentPoolIdx_[i] = residentPoolIdx_[i + 1];
            }
            --residentCount_;
            done_warp->exitRtUnit(now);
            // Tell the SM's lean scan the warp is scannable again.
            sm_->onWarpLeftRtUnit(laneRefSlot(ref));
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
    for (uint32_t i = 0; i < residentCount_; ++i) {
        stats.rtResidentWarpCycles += cycles;
        stats.rtActiveRaySum += cycles * residentLanes_[i];
    }
}

void
RtUnit::tick(uint64_t now, GpuStats &stats)
{
    ZATEL_ASSERT(residentCount_ <= config_->rtMaxWarps,
                 "more resident warps than the RT unit allows");
    // Residency/efficiency sampling (Table I: RT Unit Avg Efficiency).
    // Lanes still traversing == lanesRemaining (NeedFetch/WaitMem/Ready).
    for (uint32_t i = 0; i < residentCount_; ++i) {
        ++stats.rtResidentWarpCycles;
        stats.rtActiveRaySum += residentLanes_[i];
    }

    // 1. Issue node fetches while ports and MSHRs allow.
    size_t fetch_budget = fetchQueue_.size();
    while (fetch_budget-- > 0 && !fetchQueue_.empty()) {
        LaneRef ref = fetchQueue_.popFront();
        if (!issueFetch(ref, now, stats)) {
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
