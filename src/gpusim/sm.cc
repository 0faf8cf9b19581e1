#include "gpusim/sm.hh"

#include <algorithm>
#include <bit>

#include "gpusim/sim_clock.hh"
#include "util/logging.hh"

namespace zatel::gpusim
{

Sm::Sm(uint32_t index, const GpuConfig *config, MemorySystem *memory)
    : index_(index), config_(config), memory_(memory),
      l1_(config->l1dSizeBytes, config->l1dLineBytes, config->l1dAssoc),
      mshr_(config->rtMshrSize)
{
    warpSlots_.resize(config->maxResidentWarps());
    ZATEL_ASSERT(warpSlots_.size() <= 64,
                 "lean-scan slot masks hold at most 64 warp slots");
    rtUnits_.reserve(std::max(1u, config->rtUnitsPerSm));
    for (uint32_t u = 0; u < std::max(1u, config->rtUnitsPerSm); ++u)
        rtUnits_.emplace_back(config, this, u);
}

void
Sm::launchWarp(std::unique_ptr<Warp> warp)
{
    ZATEL_ASSERT(hasFreeSlot(), "launch into a full SM");
    for (uint32_t slot = 0; slot < warpSlots_.size(); ++slot) {
        if (!warpSlots_[slot]) {
            warpSlots_[slot] = std::move(warp);
            ++residentWarps_;
            ++stats_.warpsLaunched;
            // Fresh warps start outside the RT unit and outside RtWait.
            scannableSlots_ |= uint64_t{1} << slot;
            rtWaitSlots_ &= ~(uint64_t{1} << slot);
            return;
        }
    }
    panic("free slot accounting out of sync");
}

Sm::L1Outcome
Sm::l1Load(uint64_t line_addr, uint64_t token, uint64_t now)
{
    if (!portAvailable())
        return L1Outcome::Stall;

    bool is_prefetch = WaiterToken::kindOf(token) == WaiterToken::Prefetch;

    // A line with a pending MSHR entry is not yet in the L1: merge
    // instead of reporting a (stale) tag hit.
    if (mshr_.pending(line_addr)) {
        // HIT_RESERVED: the line is already on its way; count as a hit
        // for miss-rate purposes (no new memory traffic is generated).
        ++portsUsed_;
        ++stats_.l1dAccesses;
        if (!is_prefetch)
            mshr_.request(line_addr, token);
        return L1Outcome::MissPending;
    }

    if (mshr_.full() && !l1_.contains(line_addr) && !is_prefetch)
        return L1Outcome::Stall;

    ++portsUsed_;
    if (l1_.access(line_addr)) {
        if (!is_prefetch)
            hitFifo_.push(now + config_->l1dLatencyCycles, token);
        return L1Outcome::HitScheduled;
    }

    if (is_prefetch) {
        // Prefetches past a full MSHR are dropped silently.
        if (mshr_.full())
            return L1Outcome::MissPending;
    }
    MshrTable::Outcome outcome = mshr_.request(line_addr, token);
    ZATEL_ASSERT(outcome == MshrTable::Outcome::Allocated,
                 "merge handled above, full handled above");
    memory_->sendRead(index_, line_addr, now);
    return L1Outcome::MissPending;
}

bool
Sm::l1Store(uint64_t line_addr, uint64_t now)
{
    if (!portAvailable())
        return false;
    ++portsUsed_;
    // Write-through, no-allocate L1 (GPU-style).
    ++stats_.l1dAccesses;
    if (!l1_.contains(line_addr))
        ++stats_.l1dMisses;
    memory_->sendWrite(index_, line_addr, now);
    return true;
}

void
Sm::deliverToken(uint64_t token, uint64_t now)
{
    switch (WaiterToken::kindOf(token)) {
      case WaiterToken::RtRay:
        rtUnits_[WaiterToken::rtUnitOf(token)].onFill(
            WaiterToken::rtLaneOf(token));
        break;
      case WaiterToken::WarpLoad: {
        uint32_t slot = WaiterToken::payloadOf(token);
        ZATEL_ASSERT(slot < warpSlots_.size() && warpSlots_[slot],
                     "load completion for a retired warp");
        warpSlots_[slot]->onLoadComplete();
        break;
      }
      case WaiterToken::Prefetch:
        break;
    }
    (void)now;
}

void
Sm::processFills(uint64_t now)
{
    const std::vector<uint64_t> &fills = memory_->drainFills(index_, now);
    for (uint64_t line : fills) {
        bool evicted_dirty = false;
        l1_.fill(line, /*dirty=*/false, evicted_dirty);
        for (uint64_t token : mshr_.fill(line))
            deliverToken(token, now);
    }
}

void
Sm::processHitQueue(uint64_t now)
{
    // Ready cycles are monotone in push order, so this cycle's tokens
    // sit contiguously at the head, in the order they were pushed. A
    // zero-latency hit is scheduled after this pass already ran and so
    // drains on the next tick, exactly like the old one-bucket ring.
    while (!hitFifo_.empty() && hitFifo_.frontReady() <= now)
        deliverToken(hitFifo_.pop(), now);
}

void
Sm::scanWarpSlot(uint32_t slot, uint64_t now, uint32_t &issued,
                 bool &rt_units_full)
{
    Warp *warp = warpSlots_[slot].get();
    uint64_t bit = uint64_t{1} << slot;
    if (!warp) {
        scannableSlots_ &= ~bit;
        rtWaitSlots_ &= ~bit;
        return;
    }

    // Every exit path below falls through to the mask reclassification
    // at the bottom, which re-derives the slot's lean-scan class from
    // its actual post-visit phase.
    do {
        if (warp->pollable())
            warp->poll(now);
        if (warp->hasPendingThreadInsts())
            stats_.threadInstructions += warp->takePendingThreadInsts();
        if (warp->done()) {
            warpSlots_[slot].reset();
            --residentWarps_;
            scannableSlots_ &= ~bit;
            rtWaitSlots_ &= ~bit;
            return;
        }

        if (warp->wantsRtSlot() && !rt_units_full) {
            bool admitted = false;
            for (RtUnit &unit : rtUnits_) {
                if (unit.tryAdmit(slot, warp)) {
                    admitted = true;
                    break;
                }
            }
            if (admitted) {
                // A degenerate admit can complete instantly and leave
                // the warp with a fresh (post-ray) stage.
                if (warp->hasPendingThreadInsts()) {
                    stats_.threadInstructions +=
                        warp->takePendingThreadInsts();
                }
            } else {
                rt_units_full = true;
            }
            break;
        }

        if (issued >= config_->issueWidth || !warp->wantsIssue())
            break;

        if (warp->nextIsLoad()) {
            uint64_t line = warp->pendingMemLine();
            uint64_t token = WaiterToken::pack(WaiterToken::WarpLoad, slot);
            L1Outcome outcome = l1Load(line, token, now);
            if (outcome == L1Outcome::Stall)
                break; // retry next cycle
            warp->commitLoad();
        } else if (warp->nextIsStore()) {
            uint64_t line = warp->pendingMemLine();
            if (!l1Store(line, now))
                break;
            warp->commitStore();
        } else {
            warp->commitAlu(now);
        }
        ++stats_.warpInstructions;
        lastIssuedSlot_ = slot;
        ++issued;
    } while (false);

    // Reclassify for the lean scan from the warp's actual phase.
    if (warp->phase() == Warp::Phase::InRt)
        scannableSlots_ &= ~bit;
    else
        scannableSlots_ |= bit;
    if (warp->phase() == Warp::Phase::RtWait)
        rtWaitSlots_ |= bit;
    else
        rtWaitSlots_ &= ~bit;
}

void
Sm::tickImpl(uint64_t now, bool lean_scan)
{
    ZATEL_ASSERT(residentWarps_ <= warpSlots_.size(),
                 "resident warp count exceeds the slot table");
    portsUsed_ = 0;
    lastTickIssued_ = false;
    // Inline two-load peek before the drain call: most ticks have no
    // ready fill, and drainFills would only clear scratch and return.
    if (memory_->hasReadyFill(index_, now))
        processFills(now);
    processHitQueue(now);
    for (RtUnit &unit : rtUnits_)
        unit.tick(now, stats_);

    if (residentWarps_ == 0)
        return;

    // Single greedy-then-oldest pass over the warp slots starting at the
    // last issued warp: advance stage machines, collect instruction
    // counts, retire finished warps, admit RT-waiting warps, and issue
    // up to issueWidth instructions. Slot index order approximates age
    // because launches fill slots in order.
    uint32_t num_slots = static_cast<uint32_t>(warpSlots_.size());
    uint32_t issued = 0;
    bool rt_units_full = false;
    // GTO starts the scan at the last issued warp; loose round-robin
    // rotates the starting point every cycle.
    uint32_t start =
        config_->scheduler == WarpSchedulerPolicy::GreedyThenOldest
            ? lastIssuedSlot_
            : static_cast<uint32_t>((lastIssuedSlot_ + 1) % num_slots);

    if (!lean_scan) {
        // Reference path: walk every slot (the loop the differential
        // suite pins the lean path against).
        for (uint32_t i = 0; i < num_slots; ++i) {
            scanWarpSlot((start + i) % num_slots, now, issued,
                         rt_units_full);
        }
        lastTickIssued_ = issued > 0;
        return;
    }

    // Lean path: visit only slots that can observably act, in the same
    // circular order the reference path uses. InRt warps are inert
    // (masked out of scannableSlots_); RtWait warps are additionally
    // inert when every RT unit is full at scan start — tryAdmit on a
    // full unit is side-effect-free and no unit can free mid-scan (unit
    // exits happen in the unit-tick pass above). Snapshot the mask:
    // scanWarpSlot keeps the live masks fresh for the *next* tick, while
    // this tick's visit set stays the reference set.
    uint64_t snapshot = scannableSlots_;
    bool all_units_full = true;
    for (const RtUnit &unit : rtUnits_) {
        if (unit.hasFreeSlot()) {
            all_units_full = false;
            break;
        }
    }
    if (all_units_full) {
        rt_units_full = true;
        snapshot &= ~rtWaitSlots_;
    }

    // Circular order from `start`: bits >= start first, then the rest.
    uint64_t start_mask = (uint64_t{1} << start) - 1;
    uint64_t hi = snapshot & ~start_mask;
    uint64_t lo = snapshot & start_mask;
    while (hi != 0) {
        uint32_t slot = static_cast<uint32_t>(std::countr_zero(hi));
        hi &= hi - 1;
        scanWarpSlot(slot, now, issued, rt_units_full);
    }
    while (lo != 0) {
        uint32_t slot = static_cast<uint32_t>(std::countr_zero(lo));
        lo &= lo - 1;
        scanWarpSlot(slot, now, issued, rt_units_full);
    }
    lastTickIssued_ = issued > 0;
}

bool
Sm::quiescentAt(uint64_t now) const
{
    // residentWarps_ == 0 implies the RT units and hit ring are empty
    // (their tokens all reference resident warps) and that the warp
    // scheduler pass has nothing to scan; the checks stay explicit
    // because they are one load each and guard the contract anyway.
    if (residentWarps_ != 0 || !hitFifo_.empty())
        return false;
    return !memory_->hasReadyFill(index_, now);
}

uint64_t
Sm::nextEventCycle(uint64_t now) const
{
    // 1. RT units with a ready visit or a pending (possibly stalled)
    //    fetch act every cycle; also learn whether a waiting warp could
    //    be admitted next cycle.
    bool rt_has_free_slot = false;
    for (const RtUnit &unit : rtUnits_) {
        if (!unit.quiet())
            return now + 1;
        if (unit.hasFreeSlot())
            rt_has_free_slot = true;
    }

    // 2. Warps: any issuable warp (or one that could enter a free RT
    //    unit) acts next cycle; draining warps contribute their wake-up
    //    cycle; memory-blocked warps wake through the fill queue below.
    uint64_t next = memory_->nextFillCycle(index_);
    if (residentWarps_ != 0) {
        for (const auto &slot : warpSlots_) {
            if (!slot)
                continue;
            if (slot->wantsRtSlot()) {
                if (rt_has_free_slot)
                    return now + 1;
                continue; // unit frees via a fill-driven visit
            }
            uint64_t warp_next = slot->nextEventCycle(now);
            if (warp_next <= now + 1)
                return now + 1;
            next = std::min(next, warp_next);
        }
    }

    // 3. Delayed L1 hits: the FIFO head is the earliest scheduled token
    //    (ready cycles are monotone in push order). A head already due
    //    drains on the next tick (zero-latency hits are scheduled after
    //    the drain pass ran).
    if (!hitFifo_.empty())
        next = std::min(next, std::max(hitFifo_.frontReady(), now + 1));
    return next;
}

void
Sm::fastForward(uint64_t cycles)
{
    ZATEL_ASSERT(cycles > 0, "fast-forward must skip at least one cycle");
    for (const RtUnit &unit : rtUnits_)
        unit.fastForward(cycles, stats_);
}

bool
Sm::idle() const
{
    if (residentWarps_ != 0 || !hitFifo_.empty() || mshr_.occupancy() != 0)
        return false;
    for (const RtUnit &unit : rtUnits_) {
        if (!unit.idle())
            return false;
    }
    return true;
}

void
Sm::accumulateStats(GpuStats &stats) const
{
    // stats_ carries the manually counted accesses (MSHR-pending merges
    // and stores); the TagCache carries the tag-array lookups. Both are
    // L1 traffic.
    stats += stats_;
    stats.l1dAccesses += l1_.stats().accesses;
    stats.l1dMisses += l1_.stats().misses;
}

void
Sm::reportInto(StatsReport &report, const std::string &prefix) const
{
    const TagCache::Stats &l1 = l1_.stats();
    report.add(prefix + ".l1d.accesses",
               static_cast<double>(l1.accesses + stats_.l1dAccesses));
    report.add(prefix + ".l1d.hits", static_cast<double>(l1.hits));
    report.add(prefix + ".l1d.misses",
               static_cast<double>(l1.misses + stats_.l1dMisses));
    report.add(prefix + ".l1d.evictions",
               static_cast<double>(l1.evictions));
    report.add(prefix + ".mshr.allocations",
               static_cast<double>(mshr_.stats().allocations));
    report.add(prefix + ".mshr.merges",
               static_cast<double>(mshr_.stats().merges));
    report.add(prefix + ".mshr.full_stalls",
               static_cast<double>(mshr_.stats().fullStalls));
    report.add(prefix + ".warps_launched",
               static_cast<double>(stats_.warpsLaunched));
    report.add(prefix + ".warp_instructions",
               static_cast<double>(stats_.warpInstructions));
    report.add(prefix + ".thread_instructions",
               static_cast<double>(stats_.threadInstructions));
    report.add(prefix + ".rt.node_visits",
               static_cast<double>(stats_.rtNodeVisits));
    report.add(prefix + ".rt.triangle_tests",
               static_cast<double>(stats_.rtTriangleTests));
    report.add(prefix + ".rt.resident_warp_cycles",
               static_cast<double>(stats_.rtResidentWarpCycles));
    report.add(prefix + ".rt.avg_efficiency", stats_.rtEfficiency());
}

} // namespace zatel::gpusim
