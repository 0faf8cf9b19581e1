/**
 * @file
 * GPU configuration (paper Table II) for the cycle-level simulator.
 *
 * The simulator models the architecture of Vulkan-Sim's Fig. 2: SMs with
 * L1D caches and RT units, an interconnect, and memory partitions each
 * holding an L2 slice and a DRAM channel. Downscaling (paper Section
 * III-C) divides numSms and numMemPartitions by K; shared resources
 * (LLC capacity, DRAM bandwidth) shrink automatically because they are
 * expressed per partition.
 */

#ifndef ZATEL_GPUSIM_CONFIG_HH
#define ZATEL_GPUSIM_CONFIG_HH

#include <cstdint>
#include <string>

namespace zatel::gpusim
{

/** Warp scheduling policy (Table II: Greedy-then-Oldest). */
enum class WarpSchedulerPolicy : uint8_t
{
    /** Keep issuing the last warp until it stalls, then the oldest. */
    GreedyThenOldest,
    /** Rotate the starting warp every cycle (loose round-robin). */
    LooseRoundRobin,
};

const char *warpSchedulerPolicyName(WarpSchedulerPolicy policy);

/** Full machine description; defaults match the RTX 2060 column. */
struct GpuConfig
{
    std::string name = "custom";

    // ---- Scalable components (paper Section III-C) ----
    uint32_t numSms = 30;
    uint32_t numMemPartitions = 12;

    // ---- SM core ----
    uint32_t warpSize = 32;
    uint32_t maxWarpsPerSm = 32;
    uint32_t registersPerSm = 65536;
    uint32_t registersPerThread = 32;
    /** Warp instructions issued per SM per cycle. */
    uint32_t issueWidth = 1;
    /** Warp scheduling policy (Table II: Greedy-then-Oldest). */
    WarpSchedulerPolicy scheduler = WarpSchedulerPolicy::GreedyThenOldest;
    /** ALU pipeline depth (cycles from issue to stage completion). */
    uint32_t aluLatency = 4;

    // ---- RT unit (per SM) ----
    /** Most RT units per SM, and lanes (rtMaxWarps x warpSize) per
     *  unit, that an RtRay completion token can address (sm.hh). */
    static constexpr uint32_t kMaxRtUnitsPerSm = 1u << 8;
    static constexpr uint32_t kMaxRtLanesPerUnit = 1u << 24;
    uint32_t rtUnitsPerSm = 1;
    /** Warps resident in an RT unit at once (Table II: 4). */
    uint32_t rtMaxWarps = 4;
    /** RT unit MSHR entries (Table II: 64). */
    uint32_t rtMshrSize = 64;
    /** BVH node visits the unit can process per cycle. */
    uint32_t rtVisitsPerCycle = 4;

    // ---- L1D (per SM; Table II: 64KB fully assoc LRU, 20 cycles) ----
    uint32_t l1dSizeBytes = 64 * 1024;
    uint32_t l1dLineBytes = 128;
    /** 0 selects fully associative. */
    uint32_t l1dAssoc = 0;
    uint32_t l1dLatencyCycles = 20;
    /** L1 accesses servable per cycle (RT unit + LSU share these). */
    uint32_t l1dPortsPerCycle = 4;

    // ---- L2 (total; Table II: 3MB 16-way LRU, 160 cycles) ----
    uint64_t l2TotalBytes = 3ull * 1024 * 1024;
    uint32_t l2LineBytes = 128;
    uint32_t l2Assoc = 16;
    /** Access latency of an L2 slice (excluding interconnect). */
    uint32_t l2LatencyCycles = 128;
    uint32_t l2MshrSize = 64;

    // ---- Interconnect ----
    /** One-way SM <-> partition latency in core cycles. */
    uint32_t nocLatencyCycles = 16;

    // ---- DRAM (per channel == per memory partition) ----
    /** Row access latency before the burst starts. */
    uint32_t dramLatencyCycles = 160;
    /** Request queue depth per channel. */
    uint32_t dramQueueSize = 32;
    /** Bytes transferred per memory clock per channel (bus width x DDR). */
    uint32_t dramBytesPerMemClock = 8;

    // ---- Clocks (MHz; Table II) ----
    double coreClockMhz = 1365.0;
    double memClockMhz = 3500.0;

    // ---- Shader cost model (thread instructions per stage) ----
    /** Ray-generation preamble per thread. */
    uint32_t raygenInsts = 16;
    /** Early-exit cost of a filtered-out pixel (the injected PTX check). */
    uint32_t filterExitInsts = 3;
    /** Shading after a closest-hit ray that hit. */
    uint32_t shadeInsts = 24;
    /** Blend after a shadow (any-hit) ray. */
    uint32_t shadowBlendInsts = 4;
    /** Background shading after a closest-hit miss. */
    uint32_t missInsts = 2;

    /** Peak DRAM bytes per core cycle per channel. */
    double
    dramBytesPerCoreCycle() const
    {
        return dramBytesPerMemClock * (memClockMhz / coreClockMhz);
    }

    /** Core cycles one line burst occupies a channel. */
    uint32_t
    dramBurstCycles() const
    {
        double cycles = l2LineBytes / dramBytesPerCoreCycle();
        return cycles <= 1.0 ? 1u : static_cast<uint32_t>(cycles + 0.9999);
    }

    /** L2 slice capacity per memory partition. */
    uint64_t
    l2SliceBytes() const
    {
        return l2TotalBytes / (numMemPartitions ? numMemPartitions : 1);
    }

    /** Warp slots per SM after the register limit. */
    uint32_t maxResidentWarps() const;

    /** Sanity-check invariants; calls fatal() on bad configurations. */
    void validate() const;

    /** Table II, Mobile SoC column. */
    static GpuConfig mobileSoc();

    /** Table II, NVIDIA Turing RTX 2060 column. */
    static GpuConfig rtx2060();
};

} // namespace zatel::gpusim

#endif // ZATEL_GPUSIM_CONFIG_HH
