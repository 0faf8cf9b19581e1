/**
 * @file
 * Tests for the DRAM channel model and its efficiency counters.
 */

#include <gtest/gtest.h>

#include <vector>

#include "gpusim/dram.hh"
#include "gpusim/mem_partition.hh"
#include "gpusim/sim_clock.hh"
#include "util/rng.hh"

namespace zatel::gpusim
{
namespace
{

GpuConfig
testConfig()
{
    GpuConfig config = GpuConfig::rtx2060();
    config.dramLatencyCycles = 10;
    config.dramQueueSize = 4;
    return config;
}

MemRequest
readReq(uint64_t line)
{
    MemRequest req;
    req.lineAddr = line;
    req.isWrite = false;
    return req;
}

TEST(Dram, RespectsAccessLatency)
{
    GpuConfig config = testConfig();
    DramChannel dram(config);
    dram.enqueue(readReq(0), 0);

    std::vector<MemRequest> completed;
    uint64_t cycle = 0;
    // Before the latency has elapsed nothing can complete.
    for (; cycle < config.dramLatencyCycles; ++cycle) {
        dram.tick(cycle, completed);
        EXPECT_TRUE(completed.empty()) << "cycle " << cycle;
    }
    // Burst then completes.
    for (; cycle < 1000 && completed.empty(); ++cycle)
        dram.tick(cycle, completed);
    ASSERT_EQ(completed.size(), 1u);
    EXPECT_EQ(completed[0].lineAddr, 0u);
    EXPECT_GE(completed[0].readyCycle,
              config.dramLatencyCycles + config.dramBurstCycles() - 1);
}

TEST(Dram, BurstOccupiesChannel)
{
    GpuConfig config = testConfig();
    DramChannel dram(config);
    dram.enqueue(readReq(0), 0);
    dram.enqueue(readReq(128), 0);

    std::vector<MemRequest> completed;
    for (uint64_t cycle = 0; cycle < 2000 && completed.size() < 2; ++cycle)
        dram.tick(cycle, completed);
    ASSERT_EQ(completed.size(), 2u);
    // Second completion at least one burst after the first.
    EXPECT_GE(completed[1].readyCycle,
              completed[0].readyCycle + config.dramBurstCycles());
    EXPECT_EQ(dram.stats().busyCycles,
              2ull * config.dramBurstCycles());
}

TEST(Dram, QueueFullRejects)
{
    GpuConfig config = testConfig();
    DramChannel dram(config);
    for (uint32_t i = 0; i < config.dramQueueSize; ++i)
        EXPECT_TRUE(dram.enqueue(readReq(i * 128), 0));
    EXPECT_TRUE(dram.queueFull());
    EXPECT_FALSE(dram.enqueue(readReq(9999 * 128), 0));
}

TEST(Dram, WritesCompleteSilently)
{
    GpuConfig config = testConfig();
    DramChannel dram(config);
    MemRequest write = readReq(0);
    write.isWrite = true;
    dram.enqueue(write, 0);

    std::vector<MemRequest> completed;
    for (uint64_t cycle = 0; cycle < 1000 && !dram.idle(); ++cycle)
        dram.tick(cycle, completed);
    EXPECT_TRUE(completed.empty());
    EXPECT_EQ(dram.stats().writes, 1u);
    EXPECT_EQ(dram.stats().bytesWritten, config.l2LineBytes);
}

TEST(Dram, ActiveVsBusyCycles)
{
    GpuConfig config = testConfig();
    DramChannel dram(config);
    dram.enqueue(readReq(0), 0);

    std::vector<MemRequest> completed;
    uint64_t cycle = 0;
    for (; cycle < 1000 && !dram.idle(); ++cycle)
        dram.tick(cycle, completed);

    // Active includes the latency wait; busy is only the burst.
    EXPECT_EQ(dram.stats().busyCycles, config.dramBurstCycles());
    EXPECT_GT(dram.stats().activeCycles, dram.stats().busyCycles);

    // Idle ticks afterwards add nothing.
    uint64_t active_before = dram.stats().activeCycles;
    for (uint64_t i = 0; i < 50; ++i)
        dram.tick(cycle + i, completed);
    EXPECT_EQ(dram.stats().activeCycles, active_before);
}

TEST(Dram, BytesAccounted)
{
    GpuConfig config = testConfig();
    DramChannel dram(config);
    dram.enqueue(readReq(0), 0);
    dram.enqueue(readReq(256), 0);

    std::vector<MemRequest> completed;
    for (uint64_t cycle = 0; cycle < 2000 && !dram.idle(); ++cycle)
        dram.tick(cycle, completed);
    EXPECT_EQ(dram.stats().bytesRead, 2ull * config.l2LineBytes);
    EXPECT_EQ(dram.stats().reads, 2u);
}

// ---------------------------------------------------------------------
// Tick-boundary behaviour the activity-driven loop leans on
// (docs/SIMULATOR.md): single-cycle bursts retiring in the tick that
// starts them, queue-full backpressure, write retirement accounting and
// the exact active/busy split — plus the tick-vs-fastForward stat
// equivalence contract (sim_clock.hh).
// ---------------------------------------------------------------------

/** Bus exactly one line wide per core cycle: dramBurstCycles() == 1. */
GpuConfig
singleCycleBurstConfig()
{
    GpuConfig config = testConfig();
    config.dramBytesPerMemClock = config.l2LineBytes;
    config.memClockMhz = config.coreClockMhz;
    return config;
}

TEST(Dram, SingleCycleBurstRetiresInStartTick)
{
    GpuConfig config = singleCycleBurstConfig();
    ASSERT_EQ(config.dramBurstCycles(), 1u);
    DramChannel dram(config);
    dram.enqueue(readReq(0), 0);

    std::vector<MemRequest> completed;
    for (uint64_t cycle = 0; cycle < config.dramLatencyCycles; ++cycle) {
        dram.tick(cycle, completed);
        EXPECT_TRUE(completed.empty()) << "cycle " << cycle;
    }
    // The tick at arrival + latency both starts and retires the burst.
    dram.tick(config.dramLatencyCycles, completed);
    ASSERT_EQ(completed.size(), 1u);
    EXPECT_EQ(completed[0].readyCycle, config.dramLatencyCycles + 1);
    EXPECT_TRUE(dram.idle());
    EXPECT_EQ(dram.stats().busyCycles, 1u);
    EXPECT_EQ(dram.stats().activeCycles, config.dramLatencyCycles + 1);
}

TEST(Dram, QueueFullBackpressureAcceptsRetryAfterDrain)
{
    GpuConfig config = testConfig();
    DramChannel dram(config);
    for (uint32_t i = 0; i < config.dramQueueSize; ++i)
        ASSERT_TRUE(dram.enqueue(readReq(i * 128ull), 0));
    ASSERT_TRUE(dram.queueFull());

    std::vector<MemRequest> completed;
    uint64_t cycle = 0;
    // Retries during the head's access-latency window keep failing:
    // nothing leaves the queue until a burst starts.
    for (; cycle < config.dramLatencyCycles; ++cycle) {
        EXPECT_FALSE(dram.enqueue(readReq(9999 * 128ull), cycle))
            << "cycle " << cycle;
        dram.tick(cycle, completed);
    }
    // The tick at arrival + latency pops the head into the burst
    // engine; the very next retry must be accepted.
    dram.tick(cycle, completed);
    ++cycle;
    EXPECT_FALSE(dram.queueFull());
    EXPECT_TRUE(dram.enqueue(readReq(9999 * 128ull), cycle));

    for (; cycle < 5000 && !dram.idle(); ++cycle)
        dram.tick(cycle, completed);
    ASSERT_TRUE(dram.idle());
    EXPECT_EQ(dram.stats().reads, config.dramQueueSize + 1u);
    EXPECT_EQ(completed.size(), config.dramQueueSize + 1u);
}

TEST(Dram, WriteRetirementAccountsBytesWithoutCompletion)
{
    GpuConfig config = singleCycleBurstConfig();
    DramChannel dram(config);
    MemRequest write = readReq(128);
    write.isWrite = true;
    dram.enqueue(write, 0);

    std::vector<MemRequest> completed;
    for (uint64_t cycle = 0; cycle <= config.dramLatencyCycles; ++cycle)
        dram.tick(cycle, completed);
    // Writes retire silently in the single-cycle-burst start tick: byte
    // and op counters move, no response is emitted.
    EXPECT_TRUE(dram.idle());
    EXPECT_TRUE(completed.empty());
    EXPECT_EQ(dram.stats().writes, 1u);
    EXPECT_EQ(dram.stats().bytesWritten, config.l2LineBytes);
    EXPECT_EQ(dram.stats().bytesRead, 0u);
    EXPECT_EQ(dram.stats().busyCycles, 1u);
}

TEST(Dram, ActiveBusySplitIsExact)
{
    GpuConfig config = testConfig();
    DramChannel dram(config);
    dram.enqueue(readReq(0), 0);

    std::vector<MemRequest> completed;
    for (uint64_t cycle = 0; cycle < 1000 && !dram.idle(); ++cycle)
        dram.tick(cycle, completed);
    ASSERT_TRUE(dram.idle());
    // Cycles 0 .. latency-1 wait (active only); the burst then holds
    // the channel for exactly dramBurstCycles() (active + busy).
    EXPECT_EQ(dram.stats().busyCycles, config.dramBurstCycles());
    EXPECT_EQ(dram.stats().activeCycles,
              config.dramLatencyCycles + config.dramBurstCycles());
}

TEST(Dram, FastForwardMatchesTickedLatencyWait)
{
    GpuConfig config = testConfig();
    DramChannel ticked(config);
    DramChannel skipped(config);
    ticked.enqueue(readReq(0), 0);
    skipped.enqueue(readReq(0), 0);

    std::vector<MemRequest> a;
    std::vector<MemRequest> b;
    uint64_t cycle = 0;
    for (; cycle < 1000 && !ticked.idle(); ++cycle)
        ticked.tick(cycle, a);

    // Skipper: one real tick, then jump the latency window in closed
    // form exactly as Gpu::run's quiescence fast-forward would.
    skipped.tick(0, b);
    uint64_t resume = skipped.nextEventCycle(0);
    ASSERT_EQ(resume, config.dramLatencyCycles);
    skipped.fastForward(resume - 1); // cycles 1 .. resume-1 skipped
    for (uint64_t now = resume; now < 1000 && !skipped.idle(); ++now)
        skipped.tick(now, b);

    ASSERT_EQ(a.size(), 1u);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(a[0].readyCycle, b[0].readyCycle);
    EXPECT_EQ(ticked.stats().activeCycles, skipped.stats().activeCycles);
    EXPECT_EQ(ticked.stats().busyCycles, skipped.stats().busyCycles);
    EXPECT_EQ(ticked.stats().bytesRead, skipped.stats().bytesRead);
    EXPECT_EQ(ticked.stats().reads, skipped.stats().reads);
}

// ---------------------------------------------------------------------
// Partition-level skip contract (sim_clock.hh): driving a MemPartition
// with quiescentAt()-gated fastForward() windows must produce the exact
// response stream and DRAM counters of ticking every cycle, over
// randomized request schedules. This is the property Gpu::run's
// whole-device jump relies on.
// ---------------------------------------------------------------------

TEST(Dram, PartitionFastForwardMatchesTickedOverRandomWindows)
{
    Rng rng(0xD12A3DB5u);
    for (int trial = 0; trial < 24; ++trial) {
        GpuConfig config = testConfig();
        // Vary the backpressure knobs so some trials hit queue-full
        // retries and writeback stalls, others never do.
        config.dramQueueSize = static_cast<uint32_t>(rng.nextRange(2, 6));
        config.nocLatencyCycles = static_cast<uint32_t>(rng.nextRange(0, 20));

        MemPartition ticked(config, 0);
        MemPartition skipped(config, 0);

        // Random request schedule: bursts of reads/writes with NoC
        // arrival cycles spread over a window, some lines shared so L2
        // MSHR merging and dirty evictions both trigger.
        uint64_t arrival = 0;
        int requests = static_cast<int>(rng.nextRange(4, 24));
        for (int r = 0; r < requests; ++r) {
            arrival += static_cast<uint64_t>(rng.nextRange(0, 60));
            MemRequest req;
            req.lineAddr = 128ull * static_cast<uint64_t>(rng.nextRange(0, 12));
            req.srcSm = static_cast<uint32_t>(rng.nextRange(0, 3));
            req.isWrite = rng.nextBounded(4) == 0;
            req.readyCycle = arrival;
            ticked.enqueue(req);
            skipped.enqueue(req);
        }

        const uint64_t horizon = arrival + 4000;
        std::vector<MemResponse> ticked_responses;
        for (uint64_t cycle = 0; cycle < horizon; ++cycle)
            ticked.tick(cycle, ticked_responses);

        std::vector<MemResponse> skipped_responses;
        uint64_t cycle = 0;
        while (cycle < horizon) {
            if (skipped.quiescentAt(cycle)) {
                uint64_t event = skipped.nextEventCycle(cycle);
                uint64_t target = std::min(event, horizon);
                if (target > cycle + 1) {
                    // Skip (cycle, target): accrual only, by contract.
                    skipped.fastForward(target - cycle - 1);
                    cycle = target;
                    continue;
                }
            }
            skipped.tick(cycle, skipped_responses);
            ++cycle;
        }

        ASSERT_EQ(ticked.idle(), skipped.idle()) << "trial " << trial;
        ASSERT_EQ(ticked_responses.size(), skipped_responses.size())
            << "trial " << trial;
        for (size_t i = 0; i < ticked_responses.size(); ++i) {
            EXPECT_EQ(ticked_responses[i].lineAddr,
                      skipped_responses[i].lineAddr)
                << "trial " << trial << " response " << i;
            EXPECT_EQ(ticked_responses[i].dstSm, skipped_responses[i].dstSm)
                << "trial " << trial << " response " << i;
            EXPECT_EQ(ticked_responses[i].readyCycle,
                      skipped_responses[i].readyCycle)
                << "trial " << trial << " response " << i;
        }
        EXPECT_EQ(ticked.dram().stats().busyCycles,
                  skipped.dram().stats().busyCycles)
            << "trial " << trial;
        EXPECT_EQ(ticked.dram().stats().activeCycles,
                  skipped.dram().stats().activeCycles)
            << "trial " << trial;
        EXPECT_EQ(ticked.dram().stats().bytesRead,
                  skipped.dram().stats().bytesRead)
            << "trial " << trial;
        EXPECT_EQ(ticked.dram().stats().bytesWritten,
                  skipped.dram().stats().bytesWritten)
            << "trial " << trial;
        EXPECT_EQ(ticked.l2().stats().accesses, skipped.l2().stats().accesses)
            << "trial " << trial;
        EXPECT_EQ(ticked.l2().stats().misses, skipped.l2().stats().misses)
            << "trial " << trial;
        EXPECT_EQ(ticked.l2ReservedHits(), skipped.l2ReservedHits())
            << "trial " << trial;
    }
}

TEST(Dram, BurstCyclesDeriveFromClocks)
{
    GpuConfig config = GpuConfig::rtx2060();
    // 8 B/mem-clock * (3500/1365) ~ 20.5 B/core-cycle; 128B -> 7 cycles.
    EXPECT_EQ(config.dramBurstCycles(), 7u);
    GpuConfig mobile = GpuConfig::mobileSoc();
    // Half the bus width -> twice the burst.
    EXPECT_EQ(mobile.dramBurstCycles(), 13u);
}

} // namespace
} // namespace zatel::gpusim
