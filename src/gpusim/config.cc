#include "gpusim/config.hh"

#include <algorithm>

#include "util/logging.hh"

namespace zatel::gpusim
{

const char *
warpSchedulerPolicyName(WarpSchedulerPolicy policy)
{
    switch (policy) {
      case WarpSchedulerPolicy::GreedyThenOldest: return "gto";
      case WarpSchedulerPolicy::LooseRoundRobin: return "lrr";
    }
    panic("unknown WarpSchedulerPolicy");
}

uint32_t
GpuConfig::maxResidentWarps() const
{
    uint32_t by_registers =
        registersPerSm / std::max(1u, registersPerThread * warpSize);
    return std::max(1u, std::min(maxWarpsPerSm, by_registers));
}

void
GpuConfig::validate() const
{
    if (numSms == 0)
        fatal("config '", name, "': numSms must be > 0");
    if (numMemPartitions == 0)
        fatal("config '", name, "': numMemPartitions must be > 0");
    if (warpSize == 0 || warpSize > 64)
        fatal("config '", name, "': warpSize out of range");
    if (l1dLineBytes == 0 || (l1dLineBytes & (l1dLineBytes - 1)) != 0)
        fatal("config '", name, "': l1dLineBytes must be a power of two");
    if (l2LineBytes != l1dLineBytes)
        fatal("config '", name, "': L1/L2 line sizes must match");
    if (l1dSizeBytes < l1dLineBytes)
        fatal("config '", name, "': L1D smaller than one line");
    if (l2SliceBytes() < l2LineBytes)
        fatal("config '", name, "': L2 slice smaller than one line");
    if (rtMaxWarps == 0 || rtVisitsPerCycle == 0)
        fatal("config '", name, "': RT unit throughput must be > 0");
    if (rtUnitsPerSm == 0)
        fatal("config '", name, "': need at least one RT unit per SM");
    if (rtUnitsPerSm > kMaxRtUnitsPerSm)
        fatal("config '", name, "': rtUnitsPerSm must be <= ",
              kMaxRtUnitsPerSm);
    if (static_cast<uint64_t>(rtMaxWarps) * warpSize > kMaxRtLanesPerUnit)
        fatal("config '", name, "': rtMaxWarps x warpSize must be <= ",
              kMaxRtLanesPerUnit);
    if (maxResidentWarps() > 64)
        fatal("config '", name, "': at most 64 resident warps per SM (",
              maxResidentWarps(), " by maxWarpsPerSm and registers)");
    if (coreClockMhz <= 0.0 || memClockMhz <= 0.0)
        fatal("config '", name, "': clocks must be positive");
}

GpuConfig
GpuConfig::mobileSoc()
{
    GpuConfig config;
    config.name = "MobileSoC";
    config.numSms = 8;
    config.numMemPartitions = 4;
    config.registersPerSm = 32768;
    config.maxWarpsPerSm = 32;
    // Mobile memory system: narrower bus, same clock domains as Table II.
    config.dramBytesPerMemClock = 4;
    config.l2TotalBytes = 1ull * 1024 * 1024;
    return config;
}

GpuConfig
GpuConfig::rtx2060()
{
    GpuConfig config;
    config.name = "RTX2060";
    config.numSms = 30;
    config.numMemPartitions = 12;
    config.registersPerSm = 65536;
    config.maxWarpsPerSm = 32;
    config.dramBytesPerMemClock = 8;
    config.l2TotalBytes = 3ull * 1024 * 1024;
    return config;
}

} // namespace zatel::gpusim
