/**
 * @file
 * Thread-safe content-addressed artifact cache for the campaign service.
 *
 * A campaign of prediction jobs (see campaign.hh) re-uses three expensive
 * intermediates across jobs instead of rebuilding them per job:
 *
 *   ScenePack        a built scene + BVH (recipe-addressed: scene name,
 *                    detail, seed and BVH build params)
 *   QuantizedHeatmap the profiled + K-Means-quantized execution-time
 *                    heatmap, plus in memory the frame ray record of its
 *                    render (content-addressed: stable hash of the scene
 *                    content, the BVH build params and the preprocessing
 *                    params)
 *   OracleStats      full-simulation reference counters for compare jobs
 *
 * Keys are stable 64-bit FNV-1a hashes computed by the helpers below, so
 * they are identical across processes and runs — which is what makes the
 * optional on-disk persistence (--cache-dir) work: a second campaign run
 * re-loads heatmaps and oracle stats from disk instead of re-profiling.
 *
 * Memory residency is bounded by a byte budget with least-recently-used
 * eviction; get/put/getOrBuild/getOrPark are safe to call from any pool
 * worker and concurrent requests for the same missing key build it
 * exactly once (single-flight), which is what lets an 8-job campaign
 * sharing one scene build one BVH and profile one heatmap total. An
 * in-process request for a key another thread is building holds no
 * thread: it parks a continuation on the build (getOrPark), and the
 * blocking getOrBuild is that same park followed by a wait.
 *
 * Disk-tier resilience (docs/ROBUSTNESS.md): any disk I/O failure — a
 * file that cannot be written, a short write, a failed rename, or an
 * injected cache.disk.read / cache.disk.write fault — permanently
 * degrades the cache to memory-only operation for the rest of the run.
 * The failure is warned about once and counted (Counters::diskErrors),
 * and no disk problem ever surfaces as an exception from getOrBuild:
 * the artifact is simply rebuilt / kept in memory.
 */

#ifndef ZATEL_SERVICE_ARTIFACT_CACHE_HH
#define ZATEL_SERVICE_ARTIFACT_CACHE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "gpusim/config.hh"
#include "gpusim/stats.hh"
#include "heatmap/heatmap.hh"
#include "rt/bvh.hh"
#include "rt/ray_record.hh"
#include "rt/scene.hh"

namespace zatel::core
{
struct ZatelParams;
}

namespace zatel::service
{

/** Incremental stable 64-bit hasher (FNV-1a over bytes). */
class HashStream
{
  public:
    HashStream &bytes(const void *data, size_t size);
    HashStream &u8(uint8_t value);
    HashStream &u32(uint32_t value);
    HashStream &u64(uint64_t value);
    HashStream &f32(float value);
    HashStream &f64(double value);
    HashStream &boolean(bool value);
    HashStream &str(const std::string &text);

    uint64_t digest() const { return hash_; }

  private:
    /** FNV-1a 64-bit offset basis. */
    uint64_t hash_ = 14695981039346656037ull;
};

/**
 * Stable hash of a scene's content: triangle geometry, material bindings,
 * materials, light, background, camera position and path budget. The
 * functional tracer's output also depends on the BVH the scene is built
 * into (its node indices are in every recorded visit stream), so the
 * heatmap and oracle keys hash the BvhBuildParams beside this.
 */
uint64_t hashSceneContent(const rt::Scene &scene);

/** Stable hash of every GpuConfig field. */
uint64_t hashGpuConfig(const gpusim::GpuConfig &config);

/** Recipe key for a built scene + BVH. */
uint64_t scenePackKey(const std::string &scene_name, float detail,
                      uint64_t scene_seed, const rt::BvhBuildParams &bvh);

/**
 * Content key for a profiled + quantized heatmap and its frame ray
 * record: the scene content hash, the BVH build params, and every
 * preprocessing-relevant ZatelParams field (image size, spp, profiler
 * source/noise/seed, palette size, pipeline seed).
 */
uint64_t heatmapKey(uint64_t scene_content_hash,
                    const rt::BvhBuildParams &bvh,
                    const core::ZatelParams &params);

/** Content key for a full-simulation (oracle) run: the scene content
 *  hash, the BVH build params, the GPU, image size and spp. */
uint64_t oracleKey(uint64_t scene_content_hash,
                   const rt::BvhBuildParams &bvh,
                   const gpusim::GpuConfig &config,
                   const core::ZatelParams &params);

/** A scene with its BVH, built once and shared across jobs. */
struct ScenePack
{
    rt::Scene scene;
    rt::Bvh bvh;
    /** hashSceneContent(scene), computed once at build time. */
    uint64_t contentHash = 0;

    /** Approximate resident bytes (for the cache budget). */
    uint64_t approxBytes() const;
};

/**
 * The value of a QuantizedHeatmap entry: the heatmap, and the frame ray
 * record of the render that built it. The record lives in memory only:
 * the disk tier stores the heatmap alone, so an entry loaded from disk
 * has no record and its jobs trace their workloads' pixels.
 */
struct HeatmapArtifact
{
    heatmap::QuantizedHeatmap map;
    /** Null when the heatmap was loaded from disk. */
    std::shared_ptr<const rt::FrameRayRecord> rays;

    /** Approximate resident bytes, the record included (for the cache
     *  budget). */
    uint64_t approxBytes() const;
};

/** What kind of artifact a cache entry holds. */
enum class ArtifactKind : uint8_t
{
    ScenePack = 0,
    QuantizedHeatmap = 1,
    OracleStats = 2,
};

const char *artifactKindName(ArtifactKind kind);

/**
 * The cache. All public methods are thread-safe.
 *
 * Values are held as shared_ptr<const void> keyed by (kind, hash); the
 * kind <-> concrete type mapping is fixed (ScenePack, HeatmapArtifact,
 * GpuStats), so the typed getOrBuild<T> wrapper is safe.
 */
class ArtifactCache
{
  public:
    /** Per-kind counters (aggregate via totals()). */
    struct Counters
    {
        /** Served from memory, from a concurrent in-flight build, or
         *  from disk. */
        uint64_t hits = 0;
        /** Required an actual build. */
        uint64_t misses = 0;
        /** Subset of hits that were deserialized from --cache-dir. */
        uint64_t diskHits = 0;
        /** Entries discarded by the LRU byte budget. */
        uint64_t evictions = 0;
        /** Disk-tier I/O failures (real or injected); nonzero means the
         *  disk tier has degraded to memory-only (docs/ROBUSTNESS.md). */
        uint64_t diskErrors = 0;
        /** .zart files deleted by the disk-tier byte budget. */
        uint64_t diskEvictions = 0;

        Counters &operator+=(const Counters &other);
    };

    /** Current residency. */
    struct Usage
    {
        uint64_t bytesInUse = 0;
        uint64_t entries = 0;
    };

    /**
     * Disk-tier tuning. The disk tier is multi-process-safe
     * (docs/DISTRIBUTED.md): writes publish via tmp+rename, builds
     * take a cross-process single-flight claim, and the eviction scan
     * holds an advisory flock and skips files younger than the grace
     * window so it cannot race another process's in-flight publish.
     */
    struct DiskTierOptions
    {
        /** Disk byte budget; 0 = unlimited (no eviction scan). */
        uint64_t byteBudget = 0;
        /**
         * Eviction never deletes a .zart younger than this, so a file
         * another process renamed into place moments ago (and is about
         * to read back) survives the scan.
         */
        double evictGraceSeconds = 60.0;
        /**
         * How long a builder waits on another process's build claim
         * before giving up and building locally (wasted work, never
         * wrong results).
         */
        double claimWaitSeconds = 120.0;
        /**
         * A claim file older than this is presumed abandoned (its
         * owner died without unlinking) and is broken even when the
         * recorded pid is unverifiable.
         */
        double claimStaleSeconds = 120.0;
    };

    /**
     * @param byte_budget Memory budget; the LRU entry is evicted while
     *        residency exceeds it (the newest entry is always kept, so a
     *        single oversized artifact still works).
     * @param disk_dir Optional persistence directory; "" disables it.
     *        Heatmaps (without their frame ray records) and oracle
     *        stats are persisted (scene packs are cheap to rebuild and
     *        hold scene-relative pointers).
     * @param disk Disk-tier budget/locking tuning (ignored without a
     *        disk_dir).
     */
    explicit ArtifactCache(uint64_t byte_budget, std::string disk_dir = "");
    ArtifactCache(uint64_t byte_budget, std::string disk_dir,
                  DiskTierOptions disk);

    ArtifactCache(const ArtifactCache &) = delete;
    ArtifactCache &operator=(const ArtifactCache &) = delete;

    /** Builder result: the value and its approximate resident bytes. */
    using BuiltValue = std::pair<std::shared_ptr<const void>, uint64_t>;

    /**
     * Continuation of a parked request. It runs exactly once, on the
     * builder's thread once the build lands, with the value and a null
     * error, or with a null value and the builder's exception. It must
     * be short and must not throw.
     */
    using Resume = std::function<void(std::shared_ptr<const void> value,
                                      std::exception_ptr error)>;

    /**
     * Return the cached value for (kind, key), or build it exactly once:
     * concurrent callers for the same missing key wait for the first
     * builder (and count as hits). With a disk_dir, a persistable kind is
     * tried from disk before @p build runs. Exceptions from @p build
     * propagate to every waiting caller and leave the key absent. The
     * wait is getOrParkRaw() plus a block on a local promise.
     */
    std::shared_ptr<const void>
    getOrBuildRaw(ArtifactKind kind, uint64_t key,
                  const std::function<BuiltValue()> &build);

    /**
     * Non-blocking sibling of getOrBuildRaw. A hit returns the value.
     * When no thread of this process is building (kind, key), the
     * caller builds it inline exactly as getOrBuildRaw does and gets the
     * value or the build's exception. When another thread is building
     * it, @p resume is registered on that build and null is returned at
     * once; resume then receives the value (counted as a hit) or the
     * builder's exception. A build is in flight only while its builder
     * runs, so a request never parks behind a build that has not begun.
     */
    std::shared_ptr<const void>
    getOrParkRaw(ArtifactKind kind, uint64_t key,
                 const std::function<BuiltValue()> &build, Resume resume);

    /** Typed convenience wrapper over getOrBuildRaw. */
    template <typename T>
    std::shared_ptr<const T>
    getOrBuild(ArtifactKind kind, uint64_t key,
               const std::function<std::pair<std::shared_ptr<const T>,
                                             uint64_t>()> &build)
    {
        return std::static_pointer_cast<const T>(
            getOrBuildRaw(kind, key, eraseBuild<T>(build)));
    }

    /** Typed convenience wrapper over getOrParkRaw. */
    template <typename T>
    std::shared_ptr<const T>
    getOrPark(ArtifactKind kind, uint64_t key,
              const std::function<std::pair<std::shared_ptr<const T>,
                                            uint64_t>()> &build,
              std::function<void(std::shared_ptr<const T>,
                                 std::exception_ptr)>
                  resume)
    {
        return std::static_pointer_cast<const T>(getOrParkRaw(
            kind, key, eraseBuild<T>(build),
            [resume = std::move(resume)](std::shared_ptr<const void> value,
                                         std::exception_ptr error) {
                resume(std::static_pointer_cast<const T>(std::move(value)),
                       std::move(error));
            }));
    }

    /** Lookup without building; counts a hit or a miss. */
    std::shared_ptr<const void> peekRaw(ArtifactKind kind, uint64_t key);

    /** Insert (or replace) an entry and apply the eviction policy. */
    void putRaw(ArtifactKind kind, uint64_t key,
                std::shared_ptr<const void> value, uint64_t bytes);

    Counters counters(ArtifactKind kind) const;
    Counters totals() const;
    Usage usage() const;
    uint64_t byteBudget() const { return byteBudget_; }
    const std::string &diskDir() const { return diskDir_; }

    /**
     * True once a disk-tier I/O failure (real or injected) has switched
     * the cache to memory-only operation: loads and saves are skipped,
     * builds proceed normally. Never resets for the cache's lifetime —
     * a flaky disk must not flap between tiers mid-campaign.
     */
    bool diskDegraded() const
    {
        return diskDegraded_.load(std::memory_order_relaxed);
    }

    /** One-line "hits/misses/bytes" summary for logs. */
    std::string summary() const;

  private:
    struct Key
    {
        uint8_t kind = 0;
        uint64_t hash = 0;

        bool
        operator<(const Key &other) const
        {
            if (kind != other.kind)
                return kind < other.kind;
            return hash < other.hash;
        }
    };

    struct Entry
    {
        std::shared_ptr<const void> value;
        uint64_t bytes = 0;
        uint64_t lastUse = 0;
    };

    /** Type-erase a typed builder (called only while it is alive). */
    template <typename T>
    static std::function<BuiltValue()>
    eraseBuild(const std::function<std::pair<std::shared_ptr<const T>,
                                             uint64_t>()> &build)
    {
        return [&build]() -> BuiltValue {
            auto [value, bytes] = build();
            return {std::static_pointer_cast<const void>(value), bytes};
        };
    }

    /** Insert + LRU-evict; requires mutex_ held. */
    void insertLocked(const Key &key, std::shared_ptr<const void> value,
                      uint64_t bytes);

    /** True when @p kind is persisted under diskDir_. */
    static bool persistable(ArtifactKind kind);

    /** Disk path of (kind, key); "" when persistence is off. */
    std::string diskPath(ArtifactKind kind, uint64_t key) const;

    /** Best-effort load; null on absence, corruption or degradation. */
    BuiltValue tryLoadFromDisk(ArtifactKind kind, uint64_t key) const;

    /** Best-effort atomic write (tmp + rename); degrades on failure. */
    void trySaveToDisk(ArtifactKind kind, uint64_t key,
                       const std::shared_ptr<const void> &value) const;

    /**
     * Cross-process single-flight (docs/DISTRIBUTED.md): try to become
     * the one process building (kind, key). Returns true when this
     * process owns the claim file (build, publish, then
     * releaseBuildClaim). Returns false when the artifact appeared on
     * disk meanwhile, the claim wait timed out, or claim I/O failed —
     * in every false case the caller re-tries the disk and otherwise
     * builds locally without a claim (correct, possibly duplicated
     * work).
     */
    bool acquireBuildClaim(ArtifactKind kind, uint64_t key,
                           std::string &claim_path) const;

    /** Unlink an owned claim file (best-effort). */
    void releaseBuildClaim(const std::string &claim_path) const;

    /**
     * Disk-tier byte-budget eviction: under an advisory flock, delete
     * oldest-mtime .zart files until the directory fits the budget,
     * never touching files younger than the grace window. Runs after a
     * successful publish; a concurrently scanning process simply skips
     * the scan (LOCK_NB).
     */
    void maybeEvictDisk() const;

    /**
     * Record a disk-tier failure for @p kind and permanently switch to
     * memory-only operation (warns once). Safe from any thread; callers
     * must NOT hold mutex_ (trySaveToDisk runs outside the lock).
     */
    void degradeDiskTier(ArtifactKind kind, const std::string &reason) const;

    const uint64_t byteBudget_;
    const std::string diskDir_;
    const DiskTierOptions disk_;

    /** One-way latch: disk tier has failed, operate memory-only. */
    mutable std::atomic<bool> diskDegraded_{false};

    mutable std::mutex mutex_;
    std::map<Key, Entry> entries_;
    /** Builds in flight in this process, each with the continuations
     *  parked on it; an entry lives exactly while its builder runs. */
    std::map<Key, std::vector<Resume>> inflight_;
    /** mutable: degradeDiskTier() counts failures from const load/save. */
    mutable Counters perKind_[3];
    uint64_t bytesInUse_ = 0;
    uint64_t useTick_ = 0;
};

} // namespace zatel::service

#endif // ZATEL_SERVICE_ARTIFACT_CACHE_HH
