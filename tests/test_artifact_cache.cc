/**
 * @file
 * Tests for the campaign service's content-addressed artifact cache:
 * stable hashing, single-flight builds, parked requests that hold no
 * thread, LRU byte-budget eviction, counters, and on-disk persistence
 * round trips.
 *
 * The ArtifactCache* suites are part of the tsan-determinism CI subset
 * (see CMakePresets.json): the concurrency tests double as the cache's
 * race detector.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gpusim/config.hh"
#include "gpusim/stats.hh"
#include "heatmap/heatmap.hh"
#include "rt/bvh.hh"
#include "rt/ray_record.hh"
#include "rt/scene_library.hh"
#include "service/artifact_cache.hh"
#include "zatel/predictor.hh"

namespace zatel::service
{
namespace
{

/** Fresh scratch directory under the build tree. */
std::string
scratchDir(const std::string &name)
{
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() / ("zatel-test-" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

std::shared_ptr<const int>
boxedInt(int value)
{
    return std::make_shared<const int>(value);
}

// ---------------------------------------------------------------------
// Hashing
// ---------------------------------------------------------------------

TEST(ArtifactCacheHash, FnvKnownAnswer)
{
    // FNV-1a 64-bit of "abc" (published test vector).
    HashStream h;
    h.bytes("abc", 3);
    EXPECT_EQ(h.digest(), 0xe71fa2190541574bull);
}

TEST(ArtifactCacheHash, StreamIsOrderSensitive)
{
    HashStream a;
    a.u32(1).u32(2);
    HashStream b;
    b.u32(2).u32(1);
    EXPECT_NE(a.digest(), b.digest());
}

TEST(ArtifactCacheHash, SceneContentHashIsStableAcrossRebuilds)
{
    rt::Scene first =
        rt::buildScene(rt::SceneId::Bunny, rt::SceneDetail{0.3f}, 7);
    rt::Scene second =
        rt::buildScene(rt::SceneId::Bunny, rt::SceneDetail{0.3f}, 7);
    EXPECT_EQ(hashSceneContent(first), hashSceneContent(second));

    rt::Scene other_seed =
        rt::buildScene(rt::SceneId::Bunny, rt::SceneDetail{0.3f}, 8);
    EXPECT_NE(hashSceneContent(first), hashSceneContent(other_seed));

    rt::Scene other_scene =
        rt::buildScene(rt::SceneId::Ship, rt::SceneDetail{0.3f}, 7);
    EXPECT_NE(hashSceneContent(first), hashSceneContent(other_scene));
}

TEST(ArtifactCacheHash, GpuConfigHashCoversFields)
{
    using gpusim::GpuConfig;
    const GpuConfig base = GpuConfig::mobileSoc();
    EXPECT_EQ(hashGpuConfig(base), hashGpuConfig(GpuConfig::mobileSoc()));

    // One change per GpuConfig field: a field the hash skipped would let
    // two different machines share cached oracle stats.
#define ZATEL_BUMP(field) {#field, [](GpuConfig &c) { c.field += 1; }}
    const std::vector<std::pair<const char *, void (*)(GpuConfig &)>>
        changes = {
            {"name", [](GpuConfig &c) { c.name += "-b"; }},
            ZATEL_BUMP(numSms),
            ZATEL_BUMP(numMemPartitions),
            ZATEL_BUMP(warpSize),
            ZATEL_BUMP(maxWarpsPerSm),
            ZATEL_BUMP(registersPerSm),
            ZATEL_BUMP(registersPerThread),
            ZATEL_BUMP(issueWidth),
            {"scheduler",
             [](GpuConfig &c) {
                 c.scheduler = gpusim::WarpSchedulerPolicy::LooseRoundRobin;
             }},
            ZATEL_BUMP(aluLatency),
            ZATEL_BUMP(rtUnitsPerSm),
            ZATEL_BUMP(rtMaxWarps),
            ZATEL_BUMP(rtMshrSize),
            ZATEL_BUMP(rtVisitsPerCycle),
            ZATEL_BUMP(l1dSizeBytes),
            ZATEL_BUMP(l1dLineBytes),
            ZATEL_BUMP(l1dAssoc),
            ZATEL_BUMP(l1dLatencyCycles),
            ZATEL_BUMP(l1dPortsPerCycle),
            ZATEL_BUMP(l2TotalBytes),
            ZATEL_BUMP(l2LineBytes),
            ZATEL_BUMP(l2Assoc),
            ZATEL_BUMP(l2LatencyCycles),
            ZATEL_BUMP(l2MshrSize),
            ZATEL_BUMP(nocLatencyCycles),
            ZATEL_BUMP(dramLatencyCycles),
            ZATEL_BUMP(dramQueueSize),
            ZATEL_BUMP(dramBytesPerMemClock),
            ZATEL_BUMP(coreClockMhz),
            ZATEL_BUMP(memClockMhz),
            ZATEL_BUMP(raygenInsts),
            ZATEL_BUMP(filterExitInsts),
            ZATEL_BUMP(shadeInsts),
            ZATEL_BUMP(shadowBlendInsts),
            ZATEL_BUMP(missInsts),
        };
#undef ZATEL_BUMP
    ASSERT_NE(base.scheduler, gpusim::WarpSchedulerPolicy::LooseRoundRobin);
    for (const auto &[field, change] : changes) {
        GpuConfig changed = base;
        change(changed);
        EXPECT_NE(hashGpuConfig(base), hashGpuConfig(changed))
            << "GpuConfig::" << field << " is not hashed";
    }
}

TEST(ArtifactCacheHash, HeatmapKeyTracksPreprocessingParams)
{
    core::ZatelParams params;
    const rt::BvhBuildParams bvh;
    const uint64_t scene_hash = 0xABCDEF0123456789ull;
    const uint64_t base = heatmapKey(scene_hash, bvh, params);
    EXPECT_EQ(base, heatmapKey(scene_hash, bvh, params));

    core::ZatelParams resized = params;
    resized.width = 99;
    EXPECT_NE(base, heatmapKey(scene_hash, bvh, resized));

    core::ZatelParams reseeded = params;
    reseeded.seed ^= 1;
    EXPECT_NE(base, heatmapKey(scene_hash, bvh, reseeded));

    core::ZatelParams noisy = params;
    noisy.profiler.source = heatmap::ProfilingSource::HardwareTimer;
    EXPECT_NE(base, heatmapKey(scene_hash, bvh, noisy));

    // Selection parameters do NOT change the heatmap: jobs that differ
    // only in trace fraction share the profiled artifact.
    core::ZatelParams refractioned = params;
    refractioned.selector.fixedFraction = 0.42;
    EXPECT_EQ(base, heatmapKey(scene_hash, bvh, refractioned));
}

TEST(ArtifactCacheHash, HeatmapAndOracleKeysTrackBvhParams)
{
    // The heatmap entry's frame ray record holds the BVH's node indices
    // and the oracle's stats count that BVH's visits: two BVHs over one
    // scene must never share either.
    const core::ZatelParams params;
    const gpusim::GpuConfig config = gpusim::GpuConfig::mobileSoc();
    const rt::BvhBuildParams base;
    const uint64_t scene_hash = 0xABCDEF0123456789ull;
    const uint64_t map_base = heatmapKey(scene_hash, base, params);
    const uint64_t oracle_base = oracleKey(scene_hash, base, config, params);
    EXPECT_EQ(oracle_base, oracleKey(scene_hash, base, config, params));

    const std::vector<std::pair<const char *, void (*)(rt::BvhBuildParams &)>>
        changes = {
            {"maxLeafSize", [](rt::BvhBuildParams &b) { b.maxLeafSize += 1; }},
            {"sahBins", [](rt::BvhBuildParams &b) { b.sahBins += 1; }},
            {"traversalCost",
             [](rt::BvhBuildParams &b) { b.traversalCost += 1.0f; }},
            {"intersectionCost",
             [](rt::BvhBuildParams &b) { b.intersectionCost += 1.0f; }},
        };
    for (const auto &[field, change] : changes) {
        rt::BvhBuildParams changed = base;
        change(changed);
        EXPECT_NE(map_base, heatmapKey(scene_hash, changed, params))
            << "BvhBuildParams::" << field << " is not in the heatmap key";
        EXPECT_NE(oracle_base,
                  oracleKey(scene_hash, changed, config, params))
            << "BvhBuildParams::" << field << " is not in the oracle key";
    }
}

TEST(ArtifactCacheHash, ScenePackKeyTracksRecipe)
{
    rt::BvhBuildParams bvh;
    const uint64_t base = scenePackKey("PARK", 0.5f, 7, bvh);
    EXPECT_EQ(base, scenePackKey("PARK", 0.5f, 7, bvh));
    EXPECT_NE(base, scenePackKey("BUNNY", 0.5f, 7, bvh));
    EXPECT_NE(base, scenePackKey("PARK", 0.6f, 7, bvh));
    EXPECT_NE(base, scenePackKey("PARK", 0.5f, 8, bvh));
    rt::BvhBuildParams fat_leaves = bvh;
    fat_leaves.maxLeafSize = 16;
    EXPECT_NE(base, scenePackKey("PARK", 0.5f, 7, fat_leaves));
}

// ---------------------------------------------------------------------
// getOrBuild / counters / eviction
// ---------------------------------------------------------------------

TEST(ArtifactCache, BuildsOnceThenHits)
{
    ArtifactCache cache(1 << 20);
    int builds = 0;
    auto build = [&]() -> ArtifactCache::BuiltValue {
        ++builds;
        return {boxedInt(42), 8};
    };
    auto first = cache.getOrBuildRaw(ArtifactKind::ScenePack, 1, build);
    auto second = cache.getOrBuildRaw(ArtifactKind::ScenePack, 1, build);
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(first.get(), second.get());
    ArtifactCache::Counters c = cache.counters(ArtifactKind::ScenePack);
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.diskHits, 0u);
}

TEST(ArtifactCache, KindsDoNotCollide)
{
    ArtifactCache cache(1 << 20);
    auto a = cache.getOrBuildRaw(ArtifactKind::ScenePack, 5,
                                 [&]() -> ArtifactCache::BuiltValue {
                                     return {boxedInt(1), 8};
                                 });
    auto b = cache.getOrBuildRaw(ArtifactKind::OracleStats, 5,
                                 [&]() -> ArtifactCache::BuiltValue {
                                     return {boxedInt(2), 8};
                                 });
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(cache.usage().entries, 2u);
}

TEST(ArtifactCache, LruEvictionRespectsByteBudget)
{
    ArtifactCache cache(100);
    auto put = [&](uint64_t key, int value) {
        cache.putRaw(ArtifactKind::ScenePack, key, boxedInt(value), 40);
    };
    put(1, 1);
    put(2, 2);
    EXPECT_EQ(cache.usage().bytesInUse, 80u);

    // Touch key 1 so key 2 becomes the LRU victim.
    EXPECT_NE(cache.peekRaw(ArtifactKind::ScenePack, 1), nullptr);
    put(3, 3);
    EXPECT_EQ(cache.usage().bytesInUse, 80u);
    EXPECT_EQ(cache.counters(ArtifactKind::ScenePack).evictions, 1u);
    EXPECT_NE(cache.peekRaw(ArtifactKind::ScenePack, 1), nullptr);
    EXPECT_EQ(cache.peekRaw(ArtifactKind::ScenePack, 2), nullptr);
    EXPECT_NE(cache.peekRaw(ArtifactKind::ScenePack, 3), nullptr);
}

TEST(ArtifactCache, OversizedNewestEntryIsKept)
{
    ArtifactCache cache(100);
    cache.putRaw(ArtifactKind::ScenePack, 1, boxedInt(1), 40);
    cache.putRaw(ArtifactKind::ScenePack, 2, boxedInt(2), 400);
    // The oversized newcomer evicts everything else but stays resident.
    EXPECT_EQ(cache.usage().entries, 1u);
    EXPECT_NE(cache.peekRaw(ArtifactKind::ScenePack, 2), nullptr);
}

TEST(ArtifactCache, BuilderExceptionLeavesKeyAbsent)
{
    ArtifactCache cache(1 << 20);
    EXPECT_THROW(
        cache.getOrBuildRaw(ArtifactKind::ScenePack, 9,
                            [&]() -> ArtifactCache::BuiltValue {
                                throw std::runtime_error("boom");
                            }),
        std::runtime_error);
    // The failed key is absent, and a later build succeeds.
    int builds = 0;
    auto value = cache.getOrBuildRaw(ArtifactKind::ScenePack, 9,
                                     [&]() -> ArtifactCache::BuiltValue {
                                         ++builds;
                                         return {boxedInt(7), 8};
                                     });
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(*std::static_pointer_cast<const int>(value), 7);
}

// ---------------------------------------------------------------------
// Concurrency (runs under the tsan preset)
// ---------------------------------------------------------------------

TEST(ArtifactCacheConcurrency, SingleFlightBuildsExactlyOnce)
{
    ArtifactCache cache(1 << 20);
    std::atomic<int> builds{0};
    constexpr int kThreads = 8;
    std::vector<std::thread> threads;
    std::vector<std::shared_ptr<const void>> seen(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t]() {
            seen[t] = cache.getOrBuildRaw(
                ArtifactKind::QuantizedHeatmap, 77,
                [&]() -> ArtifactCache::BuiltValue {
                    ++builds;
                    // Let other threads pile onto the in-flight future.
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(20));
                    return {boxedInt(123), 16};
                });
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(builds.load(), 1);
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(seen[t].get(), seen[0].get());
    ArtifactCache::Counters c =
        cache.counters(ArtifactKind::QuantizedHeatmap);
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.hits, static_cast<uint64_t>(kThreads - 1));
}

TEST(ArtifactCacheConcurrency, ConcurrentGetPutMixIsRaceFree)
{
    ArtifactCache cache(4096);
    constexpr int kThreads = 6;
    constexpr int kIters = 200;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t]() {
            for (int i = 0; i < kIters; ++i) {
                const uint64_t key = static_cast<uint64_t>((t + i) % 16);
                if (i % 3 == 0) {
                    cache.putRaw(ArtifactKind::OracleStats, key,
                                 boxedInt(i), 64);
                } else if (i % 3 == 1) {
                    cache.peekRaw(ArtifactKind::OracleStats, key);
                } else {
                    cache.getOrBuildRaw(
                        ArtifactKind::OracleStats, key,
                        [&]() -> ArtifactCache::BuiltValue {
                            return {boxedInt(i), 64};
                        });
                }
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    // Residency invariant: within budget (single entries are small).
    EXPECT_LE(cache.usage().bytesInUse, 4096u);
    ArtifactCache::Counters totals = cache.totals();
    EXPECT_GT(totals.hits + totals.misses, 0u);
}

// ---------------------------------------------------------------------
// Parking: a request for a key another thread is building holds no
// thread (runs under the tsan preset)
// ---------------------------------------------------------------------

/**
 * A build that signals when it has started and then blocks until the
 * test releases it, so requests can be made while it is in flight.
 */
struct HeldBuild
{
    std::promise<void> started;
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();

    ArtifactCache::BuiltValue
    run(ArtifactCache::BuiltValue result)
    {
        started.set_value();
        gate.wait();
        return result;
    }
};

TEST(ArtifactCacheParking, ParkedRequestReturnsAtOnceAndResumesOnce)
{
    ArtifactCache cache(1 << 20);
    HeldBuild held;
    std::future<void> started = held.started.get_future();
    std::shared_ptr<const void> built;
    std::thread builder([&]() {
        built = cache.getOrParkRaw(
            ArtifactKind::OracleStats, 11,
            [&]() { return held.run({boxedInt(5), 8}); },
            [](std::shared_ptr<const void>, std::exception_ptr) {
                ADD_FAILURE() << "the builder must not park";
            });
    });
    started.wait();

    // The second request must come back while the build is still held.
    std::atomic<int> resumed{0};
    std::shared_ptr<const void> delivered;
    std::exception_ptr delivered_error;
    auto parking = std::async(std::launch::async, [&]() {
        return cache.getOrParkRaw(
            ArtifactKind::OracleStats, 11,
            [&]() -> ArtifactCache::BuiltValue {
                ADD_FAILURE() << "a parked request must not build";
                return {boxedInt(-1), 8};
            },
            [&](std::shared_ptr<const void> value,
                std::exception_ptr error) {
                delivered = std::move(value);
                delivered_error = std::move(error);
                resumed.fetch_add(1);
            });
    });
    const bool returned = parking.wait_for(std::chrono::seconds(10)) ==
                          std::future_status::ready;
    EXPECT_TRUE(returned) << "the parking call held its thread";
    EXPECT_EQ(resumed.load(), 0) << "resumed before the build landed";

    held.release.set_value();
    builder.join();
    EXPECT_EQ(parking.get(), nullptr);
    EXPECT_EQ(resumed.load(), 1);
    EXPECT_EQ(delivered.get(), built.get());
    EXPECT_EQ(*std::static_pointer_cast<const int>(delivered), 5);
    EXPECT_FALSE(delivered_error);
    const ArtifactCache::Counters c =
        cache.counters(ArtifactKind::OracleStats);
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.hits, 1u);
}

TEST(ArtifactCacheParking, BuilderExceptionReachesEveryWaiter)
{
    ArtifactCache cache(1 << 20);
    HeldBuild held;
    std::future<void> started = held.started.get_future();
    // Every waiter rethrows the builder's one exception object. The
    // blocking waiter reads it only after the builder's handler is done:
    // libstdc++ counts the object's references with atomics the race
    // detector does not see, so unordered handlers would look racy.
    std::promise<void> builder_done;
    std::shared_future<void> builder_handled =
        builder_done.get_future().share();
    std::string builder_error;
    std::thread builder([&]() {
        try {
            cache.getOrBuildRaw(ArtifactKind::QuantizedHeatmap, 12,
                                [&]() -> ArtifactCache::BuiltValue {
                                    held.run({nullptr, 0});
                                    throw std::runtime_error("boom");
                                });
        } catch (const std::runtime_error &err) {
            builder_error = err.what();
        }
        builder_done.set_value();
    });
    started.wait();

    // A request that arrives after the failure would build again; its
    // build throws a different message, so it cannot pass for a waiter.
    std::atomic<int> late_builds{0};
    auto late_build = [&]() -> ArtifactCache::BuiltValue {
        late_builds.fetch_add(1);
        throw std::runtime_error("late");
    };

    // Parked continuations run on the builder's thread.
    constexpr int kParked = 3;
    std::vector<std::string> parked_errors(kParked);
    int resumed = 0;
    for (int i = 0; i < kParked; ++i) {
        auto value = cache.getOrParkRaw(
            ArtifactKind::QuantizedHeatmap, 12, late_build,
            [&, i](std::shared_ptr<const void> got,
                   std::exception_ptr error) {
                EXPECT_EQ(got, nullptr);
                try {
                    std::rethrow_exception(error);
                } catch (const std::runtime_error &err) {
                    parked_errors[i] = err.what();
                }
                ++resumed;
            });
        EXPECT_EQ(value, nullptr);
    }

    std::string blocked_error;
    std::thread blocked([&]() {
        try {
            cache.getOrBuildRaw(ArtifactKind::QuantizedHeatmap, 12,
                                late_build);
        } catch (const std::runtime_error &err) {
            builder_handled.wait();
            blocked_error = err.what();
        }
    });
    // Give the blocking waiter time to join the flight; one that is late
    // shows up as a late build below, not as a hang.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    held.release.set_value();
    builder.join();
    blocked.join();

    EXPECT_EQ(builder_error, "boom");
    EXPECT_EQ(resumed, kParked);
    for (const std::string &error : parked_errors)
        EXPECT_EQ(error, "boom");
    EXPECT_EQ(blocked_error, "boom");
    EXPECT_EQ(late_builds.load(), 0);
    // One failed build, no hits, and the key is still absent.
    const ArtifactCache::Counters c =
        cache.counters(ArtifactKind::QuantizedHeatmap);
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.hits, 0u);
    EXPECT_EQ(cache.usage().entries, 0u);
}

TEST(ArtifactCacheParking, ManyThreadsParkingLoseNoContinuation)
{
    ArtifactCache cache(1 << 20);
    HeldBuild held;
    std::future<void> started = held.started.get_future();
    std::thread builder([&]() {
        cache.getOrBuildRaw(ArtifactKind::OracleStats, 13, [&]() {
            return held.run({boxedInt(9), 8});
        });
    });
    started.wait();

    constexpr int kThreads = 8;
    constexpr int kPerThread = 16;
    std::vector<std::atomic<int>> resumed(kThreads * kPerThread);
    std::atomic<int> parked{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t]() {
            for (int i = 0; i < kPerThread; ++i) {
                const int slot = t * kPerThread + i;
                auto value = cache.getOrParkRaw(
                    ArtifactKind::OracleStats, 13,
                    [&]() -> ArtifactCache::BuiltValue {
                        ADD_FAILURE() << "a parked request must not build";
                        return {boxedInt(-1), 8};
                    },
                    [&, slot](std::shared_ptr<const void> value,
                              std::exception_ptr) {
                        EXPECT_EQ(*std::static_pointer_cast<const int>(value),
                                  9);
                        resumed[slot].fetch_add(1);
                    });
                if (value == nullptr)
                    parked.fetch_add(1);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(parked.load(), kThreads * kPerThread)
        << "every request made during the build must park";

    held.release.set_value();
    builder.join();
    for (int slot = 0; slot < kThreads * kPerThread; ++slot)
        EXPECT_EQ(resumed[slot].load(), 1) << "continuation " << slot;
    const ArtifactCache::Counters c =
        cache.counters(ArtifactKind::OracleStats);
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.hits, static_cast<uint64_t>(kThreads * kPerThread));
}

// ---------------------------------------------------------------------
// Disk persistence
// ---------------------------------------------------------------------

TEST(ArtifactCacheDisk, HeatmapRoundTripsByteIdentical)
{
    const std::string dir = scratchDir("cache-heatmap");
    const std::vector<double> costs = {0.1, 0.9, 0.4, 0.7,
                                       0.2, 0.3, 1.0, 0.6};
    heatmap::Heatmap map = heatmap::Heatmap::fromCosts(4, 2, costs);
    auto artifact = std::make_shared<HeatmapArtifact>();
    artifact->map = heatmap::QuantizedHeatmap::quantize(map, 3, 0x5EED);
    // A record in memory, which the disk tier must leave out.
    auto rays = std::make_shared<rt::FrameRayRecord>();
    rays->width = 4;
    rays->height = 2;
    rays->offsets.assign(9, 0);
    artifact->rays = rays;
    const heatmap::QuantizedHeatmap *quantized = &artifact->map;

    const uint64_t key = 0x1122334455667788ull;
    {
        ArtifactCache writer(1 << 20, dir);
        auto kept = writer.getOrBuildRaw(
            ArtifactKind::QuantizedHeatmap, key,
            [&]() -> ArtifactCache::BuiltValue {
                return {artifact, artifact->approxBytes()};
            });
        EXPECT_EQ(std::static_pointer_cast<const HeatmapArtifact>(kept)
                      ->rays,
                  rays)
            << "the memory tier keeps the built record";
        EXPECT_EQ(writer.counters(ArtifactKind::QuantizedHeatmap).misses,
                  1u);
    }

    // A second cache (fresh process, conceptually) loads from disk.
    ArtifactCache reader(1 << 20, dir);
    int builds = 0;
    auto loaded_raw = reader.getOrBuildRaw(
        ArtifactKind::QuantizedHeatmap, key,
        [&]() -> ArtifactCache::BuiltValue {
            ++builds;
            return {artifact, artifact->approxBytes()};
        });
    EXPECT_EQ(builds, 0) << "should have come from disk";
    ArtifactCache::Counters c =
        reader.counters(ArtifactKind::QuantizedHeatmap);
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.diskHits, 1u);
    EXPECT_EQ(c.misses, 0u);

    auto loaded_artifact =
        std::static_pointer_cast<const HeatmapArtifact>(loaded_raw);
    EXPECT_EQ(loaded_artifact->rays, nullptr)
        << "a frame ray record never comes from disk";
    const heatmap::QuantizedHeatmap *loaded = &loaded_artifact->map;
    ASSERT_EQ(loaded->width(), quantized->width());
    ASSERT_EQ(loaded->height(), quantized->height());
    EXPECT_EQ(loaded->clusterIds(), quantized->clusterIds());
    EXPECT_EQ(loaded->coolnessValues(), quantized->coolnessValues());
    EXPECT_EQ(loaded->populations(), quantized->populations());
    ASSERT_EQ(loaded->paletteSize(), quantized->paletteSize());
    for (uint32_t i = 0; i < quantized->paletteSize(); ++i) {
        EXPECT_EQ(loaded->paletteColor(i).x, quantized->paletteColor(i).x);
        EXPECT_EQ(loaded->paletteColor(i).y, quantized->paletteColor(i).y);
        EXPECT_EQ(loaded->paletteColor(i).z, quantized->paletteColor(i).z);
    }
    std::filesystem::remove_all(dir);
}

TEST(ArtifactCacheDisk, OracleStatsRoundTrip)
{
    const std::string dir = scratchDir("cache-oracle");
    gpusim::GpuStats stats;
    stats.cycles = 123456;
    stats.threadInstructions = 777;
    stats.l2Misses = 42;
    stats.pixelsFiltered = 9;

    const uint64_t key = 0xFEEDF00Dull;
    {
        ArtifactCache writer(1 << 20, dir);
        writer.getOrBuildRaw(
            ArtifactKind::OracleStats, key,
            [&]() -> ArtifactCache::BuiltValue {
                return {std::make_shared<const gpusim::GpuStats>(stats),
                        sizeof(gpusim::GpuStats)};
            });
    }
    ArtifactCache reader(1 << 20, dir);
    auto loaded = std::static_pointer_cast<const gpusim::GpuStats>(
        reader.getOrBuildRaw(ArtifactKind::OracleStats, key,
                             [&]() -> ArtifactCache::BuiltValue {
                                 ADD_FAILURE() << "should load from disk";
                                 return {nullptr, 0};
                             }));
    EXPECT_EQ(loaded->cycles, stats.cycles);
    EXPECT_EQ(loaded->threadInstructions, stats.threadInstructions);
    EXPECT_EQ(loaded->l2Misses, stats.l2Misses);
    EXPECT_EQ(loaded->pixelsFiltered, stats.pixelsFiltered);
    std::filesystem::remove_all(dir);
}

TEST(ArtifactCacheDisk, CorruptArtifactFallsBackToBuild)
{
    const std::string dir = scratchDir("cache-corrupt");
    const uint64_t key = 0xBADC0DEull;
    {
        // Write garbage where the artifact would live.
        char hex[17];
        std::snprintf(hex, sizeof(hex), "%016llx",
                      static_cast<unsigned long long>(key));
        std::ofstream out(dir + "/oracle-" + std::string(hex) + ".zart",
                          std::ios::binary);
        out << "this is not an artifact";
    }
    ArtifactCache cache(1 << 20, dir);
    int builds = 0;
    cache.getOrBuildRaw(ArtifactKind::OracleStats, key,
                        [&]() -> ArtifactCache::BuiltValue {
                            ++builds;
                            return {std::make_shared<const gpusim::GpuStats>(
                                        gpusim::GpuStats{}),
                                    64};
                        });
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(cache.counters(ArtifactKind::OracleStats).diskHits, 0u);
    std::filesystem::remove_all(dir);
}

TEST(ArtifactCacheDisk, ScenePacksAreNotPersisted)
{
    const std::string dir = scratchDir("cache-nopersist");
    {
        ArtifactCache cache(1 << 20, dir);
        cache.getOrBuildRaw(ArtifactKind::ScenePack, 3,
                            [&]() -> ArtifactCache::BuiltValue {
                                return {boxedInt(3), 8};
                            });
    }
    size_t files = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        (void)entry;
        ++files;
    }
    EXPECT_EQ(files, 0u);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace zatel::service
