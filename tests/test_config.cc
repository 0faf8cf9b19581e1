/**
 * @file
 * Tests for the Table II GPU configurations.
 */

#include <gtest/gtest.h>

#include "gpusim/address_map.hh"
#include "gpusim/config.hh"

namespace zatel::gpusim
{
namespace
{

TEST(Config, MobileSocMatchesTableII)
{
    GpuConfig config = GpuConfig::mobileSoc();
    EXPECT_EQ(config.numSms, 8u);
    EXPECT_EQ(config.numMemPartitions, 4u);
    EXPECT_EQ(config.registersPerSm, 32768u);
    EXPECT_EQ(config.warpSize, 32u);
    EXPECT_EQ(config.maxWarpsPerSm, 32u);
    EXPECT_EQ(config.rtUnitsPerSm, 1u);
    EXPECT_EQ(config.rtMaxWarps, 4u);
    EXPECT_EQ(config.rtMshrSize, 64u);
    EXPECT_EQ(config.l1dSizeBytes, 64u * 1024u);
    EXPECT_EQ(config.l1dAssoc, 0u); // fully associative
    EXPECT_EQ(config.l1dLatencyCycles, 20u);
    EXPECT_EQ(config.l2Assoc, 16u);
    EXPECT_DOUBLE_EQ(config.coreClockMhz, 1365.0);
    EXPECT_DOUBLE_EQ(config.memClockMhz, 3500.0);
    config.validate();
}

TEST(Config, Rtx2060MatchesTableII)
{
    GpuConfig config = GpuConfig::rtx2060();
    EXPECT_EQ(config.numSms, 30u);
    EXPECT_EQ(config.numMemPartitions, 12u);
    EXPECT_EQ(config.registersPerSm, 65536u);
    EXPECT_EQ(config.l2TotalBytes, 3ull * 1024 * 1024);
    config.validate();
}

TEST(Config, L2SliceDividesTotal)
{
    GpuConfig config = GpuConfig::rtx2060();
    EXPECT_EQ(config.l2SliceBytes() * config.numMemPartitions,
              config.l2TotalBytes);
}

TEST(Config, MaxResidentWarpsRespectsRegisters)
{
    GpuConfig config = GpuConfig::rtx2060();
    EXPECT_EQ(config.maxResidentWarps(), 32u);

    // Fat threads shrink occupancy below the warp-slot limit.
    config.registersPerThread = 256;
    EXPECT_EQ(config.maxResidentWarps(), 65536u / (256u * 32u));
}

TEST(Config, ValidateRejectsBadConfigs)
{
    GpuConfig config = GpuConfig::mobileSoc();
    config.numSms = 0;
    EXPECT_EXIT(config.validate(), testing::ExitedWithCode(1), "numSms");

    config = GpuConfig::mobileSoc();
    config.l1dLineBytes = 100; // not a power of two
    EXPECT_EXIT(config.validate(), testing::ExitedWithCode(1),
                "power of two");

    config = GpuConfig::mobileSoc();
    config.numMemPartitions = 0;
    EXPECT_EXIT(config.validate(), testing::ExitedWithCode(1),
                "numMemPartitions");
}

TEST(Config, ValidateRejectsWhatTheSimulatorCannotAddress)
{
    // 65 warp slots: the SM's lean-scan slot masks hold 64.
    GpuConfig config = GpuConfig::mobileSoc();
    config.maxWarpsPerSm = 65;
    config.registersPerSm = 1u << 20;
    ASSERT_EQ(config.maxResidentWarps(), 65u);
    EXPECT_EXIT(config.validate(), testing::ExitedWithCode(1),
                "at most 64 resident warps");
    config.maxWarpsPerSm = 64;
    config.validate();

    // An RtRay token holds the unit in 8 bits and the lane's pool index
    // in 24.
    config = GpuConfig::mobileSoc();
    config.rtUnitsPerSm = GpuConfig::kMaxRtUnitsPerSm + 1;
    EXPECT_EXIT(config.validate(), testing::ExitedWithCode(1),
                "rtUnitsPerSm");
    config.rtUnitsPerSm = GpuConfig::kMaxRtUnitsPerSm;
    config.validate();

    config = GpuConfig::mobileSoc();
    config.rtMaxWarps = GpuConfig::kMaxRtLanesPerUnit / config.warpSize + 1;
    EXPECT_EXIT(config.validate(), testing::ExitedWithCode(1),
                "rtMaxWarps x warpSize");
    // A lane count past 32 bits must not wrap back into range.
    config.rtMaxWarps = (1u << 31) / config.warpSize * 2;
    EXPECT_EXIT(config.validate(), testing::ExitedWithCode(1),
                "rtMaxWarps x warpSize");
    config.rtMaxWarps = GpuConfig::kMaxRtLanesPerUnit / config.warpSize;
    config.validate();
}

TEST(Config, DramBandwidthScalesWithClock)
{
    GpuConfig config = GpuConfig::rtx2060();
    double baseline = config.dramBytesPerCoreCycle();
    config.memClockMhz *= 2.0;
    EXPECT_NEAR(config.dramBytesPerCoreCycle(), 2.0 * baseline, 1e-9);
}

TEST(AddressMap, RegionsDisjoint)
{
    // One million entities in each region must not overlap another region.
    EXPECT_LT(AddressMap::bvhNodeAddress(1'000'000),
              AddressMap::kTriangleBase);
    EXPECT_LT(AddressMap::triangleAddress(1'000'000),
              AddressMap::kMaterialBase);
    EXPECT_LT(AddressMap::materialAddress(65535),
              AddressMap::kFramebufferBase);
}

TEST(AddressMap, LineAlignment)
{
    EXPECT_EQ(AddressMap::lineOf(0x1234, 128), 0x1200u);
    EXPECT_EQ(AddressMap::lineOf(0x1200, 128), 0x1200u);
    EXPECT_EQ(AddressMap::lineOf(0x127F, 128), 0x1200u);
}

TEST(AddressMap, PartitionInterleavesLines)
{
    // Consecutive lines rotate across partitions.
    uint32_t parts = 12;
    for (uint64_t line = 0; line < 100; ++line) {
        uint32_t p = AddressMap::partitionOf(line * 128, 128, parts);
        EXPECT_EQ(p, line % parts);
    }
}

TEST(AddressMap, TwoNodesShareOneLine)
{
    // 64B nodes, 128B lines: node pairs coalesce.
    EXPECT_EQ(AddressMap::lineOf(AddressMap::bvhNodeAddress(0), 128),
              AddressMap::lineOf(AddressMap::bvhNodeAddress(1), 128));
    EXPECT_NE(AddressMap::lineOf(AddressMap::bvhNodeAddress(1), 128),
              AddressMap::lineOf(AddressMap::bvhNodeAddress(2), 128));
}

} // namespace
} // namespace zatel::gpusim
