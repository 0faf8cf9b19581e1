#include "gpusim/memory_system.hh"

#include <algorithm>

#include "gpusim/address_map.hh"
#include "gpusim/sim_clock.hh"
#include "util/logging.hh"

namespace zatel::gpusim
{

MemorySystem::MemorySystem(const GpuConfig &config) : config_(config)
{
    partitions_.reserve(config.numMemPartitions);
    for (uint32_t p = 0; p < config.numMemPartitions; ++p)
        partitions_.emplace_back(config, p);
    fillQueues_.resize(config.numSms);
}

void
MemorySystem::routeToPartition(const MemRequest &request)
{
    uint32_t p = AddressMap::partitionOf(request.lineAddr,
                                         config_.l2LineBytes,
                                         numPartitions());
    partitions_[p].enqueue(request);
}

void
MemorySystem::sendRead(uint32_t src_sm, uint64_t line_addr, uint64_t now)
{
    ZATEL_ASSERT(src_sm < fillQueues_.size(), "bad source SM");
    MemRequest request;
    request.lineAddr = line_addr;
    request.srcSm = src_sm;
    request.isWrite = false;
    request.readyCycle = now + config_.nocLatencyCycles;
    routeToPartition(request);
}

void
MemorySystem::sendWrite(uint32_t src_sm, uint64_t line_addr, uint64_t now)
{
    ZATEL_ASSERT(src_sm < fillQueues_.size(), "bad source SM");
    MemRequest request;
    request.lineAddr = line_addr;
    request.srcSm = src_sm;
    request.isWrite = true;
    request.readyCycle = now + config_.nocLatencyCycles;
    routeToPartition(request);
}

void
MemorySystem::tick(uint64_t now)
{
    ZATEL_ASSERT(!partitions_.empty(), "memory system has no partitions");
    responseScratch_.clear();
    for (MemPartition &partition : partitions_)
        partition.tick(now, responseScratch_);
    deliverResponses();
}

void
MemorySystem::tickActive(uint64_t now)
{
    ZATEL_ASSERT(!partitions_.empty(), "memory system has no partitions");
    responseScratch_.clear();
    for (MemPartition &partition : partitions_) {
        if (!partition.quiescentAt(now))
            partition.tick(now, responseScratch_);
    }
    deliverResponses();
}

void
MemorySystem::deliverResponses()
{
    for (const MemResponse &response : responseScratch_) {
        ZATEL_ASSERT(response.dstSm < fillQueues_.size(),
                     "response to unknown SM");
        fillQueues_[response.dstSm].push(
            response.readyCycle + config_.nocLatencyCycles,
            response.lineAddr, fillSeq_++);
    }
}

uint64_t
MemorySystem::nextEventCycle(uint64_t now) const
{
    uint64_t next = kNoEventCycle;
    for (const MemPartition &partition : partitions_) {
        next = std::min(next, partition.nextEventCycle(now));
        if (next <= now + 1)
            return next;
    }
    return next;
}

void
MemorySystem::fastForward(uint64_t cycles)
{
    for (MemPartition &partition : partitions_)
        partition.fastForward(cycles);
}

const std::vector<uint64_t> &
MemorySystem::drainFills(uint32_t sm, uint64_t now)
{
    drainScratch_.clear();
    FillHeap &queue = fillQueues_[sm];
    while (!queue.empty() && queue.topReady() <= now) {
        drainScratch_.push_back(queue.topAddr());
        queue.pop();
    }
    return drainScratch_;
}

bool
MemorySystem::idle() const
{
    for (const auto &queue : fillQueues_) {
        if (!queue.empty())
            return false;
    }
    for (const MemPartition &partition : partitions_) {
        if (!partition.idle())
            return false;
    }
    return true;
}

void
MemorySystem::accumulateStats(GpuStats &stats) const
{
    for (const MemPartition &partition : partitions_) {
        const TagCache::Stats &l2 = partition.l2().stats();
        stats.l2Accesses += l2.accesses + partition.l2ReservedHits();
        stats.l2Misses += l2.misses;

        const DramChannel::Stats &dram = partition.dram().stats();
        stats.dramBusyCycles += dram.busyCycles;
        stats.dramActiveCycles += dram.activeCycles;
        stats.dramBytesRead += dram.bytesRead;
        stats.dramBytesWritten += dram.bytesWritten;
    }
    stats.dramChannelCycles = stats.cycles * numPartitions();
}

} // namespace zatel::gpusim
