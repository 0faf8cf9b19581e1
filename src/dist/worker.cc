#include "dist/worker.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "dist/job_board.hh"
#include "gpusim/stats.hh"
#include "heatmap/heatmap.hh"
#include "service/artifact_cache.hh"
#include "service/campaign.hh"
#include "service/result_store.hh"
#include "service/scheduler.hh"
#include "util/fault_injection.hh"
#include "util/logging.hh"

namespace zatel::dist
{

namespace
{

/**
 * The chaos harness trigger: counts passes through one named point and
 * raises SIGKILL on the nth — no unwinding, no destructors, exactly
 * the torn state a power cut leaves. passPoint() is called from
 * scheduler pool threads (mid_job), so the counter is atomic.
 */
class ChaosKiller
{
  public:
    ChaosKiller(ChaosKillSpec spec, uint64_t worker_id)
        : spec_(std::move(spec)), workerId_(worker_id)
    {
    }

    void
    passPoint(const char *point)
    {
        if (!spec_.armed || spec_.point != point)
            return;
        if (spec_.workerFilter >= 0 &&
            static_cast<uint64_t>(spec_.workerFilter) != workerId_)
            return;
        if (++count_ != spec_.nth)
            return;
        warn("zatel-worker ", workerId_, ": chaos kill at '", point, "'");
#ifdef __unix__
        std::raise(SIGKILL);
#else
        std::abort();
#endif
    }

  private:
    const ChaosKillSpec spec_;
    const uint64_t workerId_;
    std::atomic<uint64_t> count_{0};
};

/**
 * Keeps one shard's lease fresh while the scheduler runs. Three
 * consecutive refresh failures latch lost(): the worker must assume
 * the coordinator reclaimed the lease (fencing, worker.hh).
 */
class HeartbeatThread
{
  public:
    HeartbeatThread(const BoardPaths &paths, uint32_t shard, double period)
        : paths_(paths), shard_(shard), period_(period),
          thread_([this] { loop(); })
    {
    }

    ~HeartbeatThread() { stop(); }

    void
    stop()
    {
        {
            std::lock_guard<std::mutex> guard(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        if (thread_.joinable())
            thread_.join();
    }

    bool lost() const { return lost_.load(std::memory_order_relaxed); }

  private:
    void
    loop()
    {
        int failures = 0;
        std::unique_lock<std::mutex> lock(mutex_);
        while (!stop_) {
            // Periodic wait, not a poll loop: wakes immediately on
            // stop(), refreshes once per period otherwise.
            if (cv_.wait_for(lock,
                             std::chrono::duration<double>(period_),
                             [this] { return stop_; })) {
                return;
            }
            lock.unlock();
            const bool refreshed = refreshLease(paths_, shard_);
            lock.lock();
            if (refreshed) {
                failures = 0;
            } else if (++failures >= 3) {
                lost_.store(true, std::memory_order_relaxed);
                return;
            }
        }
    }

    const BoardPaths paths_;
    const uint32_t shard_;
    const double period_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false; ///< Guarded by mutex_.
    std::atomic<bool> lost_{false};
    std::thread thread_;
};

enum class ShardOutcome
{
    Published,
    PublishFailed,
    HeartbeatLost,
};

ShardOutcome
runShard(const BoardPaths &paths, uint32_t shard, const WorkerOptions &opt,
         service::ArtifactCache &cache, ChaosKiller &chaos,
         uint64_t &rows_appended)
{
    std::vector<service::CampaignJob> jobs =
        service::loadCampaignFile(paths.shardSpecPath(shard));
    // Shard specs carry campaign fields only; the resilience knobs
    // arrive on our command line (worker.hh) and apply to every job,
    // mirroring zatel-batch.
    for (service::CampaignJob &job : jobs)
        opt.resilience.applyTo(job.params);

    // Resume whatever a previous claimant finished: repair a torn tail
    // first (a dead writer's half-row must not glue onto our appends),
    // then skip rows already recorded as done.
    const std::string partial = paths.partialFragmentPath(shard);
    service::ResultStore::repairTruncatedTail(partial);
    std::set<std::string> completed =
        service::ResultStore::completedJobIds(partial);

    service::ResultStoreOptions store_options;
    store_options.includeTiming = opt.includeTiming;
    store_options.append = true;
    service::ResultStore store(partial, store_options);

    HeartbeatThread heartbeat(paths, shard, opt.heartbeatSeconds);

    std::atomic<uint64_t> shard_rows{0};
    service::SchedulerParams params;
    params.workers = opt.jobs;
    params.jobTimeoutSeconds = opt.jobTimeoutSeconds;
    params.stallTimeoutSeconds = opt.stallTimeoutSeconds;
    params.stageRetries = opt.stageRetries;
    params.alreadyCompleted = std::move(completed);
    params.cancelled = [&heartbeat] { return heartbeat.lost(); };
    params.resultHook = [&shard_rows,
                         &chaos](const service::ResultRow &) {
        ++shard_rows;
        chaos.passPoint("mid_job");
    };

    service::CampaignScheduler scheduler(std::move(jobs), cache, store,
                                         params);
    scheduler.run();
    store.finalize();
    heartbeat.stop();
    rows_appended += shard_rows.load();

    if (heartbeat.lost()) {
        // Fenced: the lease is presumed reclaimed; publishing now could
        // race the replacement's partial. The rows already appended are
        // salvaged by the next claimant's resume.
        return ShardOutcome::HeartbeatLost;
    }

    chaos.passPoint("pre_publish");
    try {
        publishFragment(paths, shard);
    } catch (const std::exception &error) {
        warn("zatel-worker ", opt.workerId, ": publish of shard ", shard,
             " failed: ", error.what());
        return ShardOutcome::PublishFailed;
    }
    return ShardOutcome::Published;
}

void
writeWorkerStats(const BoardPaths &paths, const WorkerOptions &opt,
                 const service::ArtifactCache &cache,
                 uint64_t shards_published, uint64_t rows_appended)
{
    const service::ArtifactCache::Counters totals = cache.totals();
    // Stats are observability, not protocol: a lost file only costs
    // the coordinator's aggregate cache report.
    // zatel-lint: allow(fault-site-coverage): observability only
    std::ofstream out(paths.workerStatsPath(opt.workerId),
                      std::ios::trunc);
    out << "hits=" << totals.hits << "\n"
        << "misses=" << totals.misses << "\n"
        << "disk_hits=" << totals.diskHits << "\n"
        << "evictions=" << totals.evictions << "\n"
        << "disk_errors=" << totals.diskErrors << "\n"
        << "disk_evictions=" << totals.diskEvictions << "\n"
        << "shards_published=" << shards_published << "\n"
        << "rows_appended=" << rows_appended << "\n";
}

} // namespace

int
runWorker(const WorkerOptions &options)
{
    BoardPaths paths;
    paths.root = options.boardDir;
    BoardManifest manifest;
    if (!readManifest(paths, manifest)) {
        warn("zatel-worker ", options.workerId,
             ": no readable MANIFEST under '", options.boardDir, "'");
        return static_cast<int>(WorkerExit::BoardUnreadable);
    }
    paths.csv = manifest.csv;

    ChaosKiller chaos(ChaosKillSpec::parse(std::getenv("ZATEL_WORKER_KILL")),
                      options.workerId);

    service::ArtifactCache::DiskTierOptions disk;
    disk.byteBudget = options.cacheDiskMb << 20;
    service::ArtifactCache cache(options.cacheMb << 20, options.cacheDir,
                                 disk);

    std::map<uint32_t, uint32_t> publish_failures;
    uint64_t shards_published = 0;
    uint64_t rows_appended = 0;
    uint32_t claim_error_rounds = 0;
    uint32_t idle_rounds = 0;

    for (;;) {
        // One board scan, starting at this worker's offset so workers
        // naturally spread over different shards.
        std::vector<uint32_t> claimable;
        bool publish_blocked = false;
        bool all_settled = true;
        for (uint32_t i = 0; i < manifest.shards; ++i) {
            const uint32_t shard =
                (static_cast<uint32_t>(options.workerId) + i) %
                manifest.shards;
            if (shardDone(paths, shard) || shardExhausted(paths, shard))
                continue;
            all_settled = false;
            if (publish_failures[shard] >= 2) {
                publish_blocked = true;
                continue;
            }
            claimable.push_back(shard);
        }
        if (all_settled) {
            writeWorkerStats(paths, options, cache, shards_published,
                             rows_appended);
            if (!options.quiet) {
                inform("zatel-worker ", options.workerId,
                       ": board complete (", shards_published,
                       " shard(s) published, ", rows_appended, " row(s))");
            }
            return static_cast<int>(WorkerExit::Ok);
        }
        if (claimable.empty() && publish_blocked) {
            writeWorkerStats(paths, options, cache, shards_published,
                             rows_appended);
            warn("zatel-worker ", options.workerId,
                 ": every claimable shard failed to publish twice");
            return static_cast<int>(WorkerExit::CannotPublish);
        }

        bool claimed_any = false;
        bool claim_errors = false;
        for (uint32_t shard : claimable) {
            // Re-check: another worker may have settled it since the
            // scan above.
            if (shardDone(paths, shard) || shardExhausted(paths, shard))
                continue;
            chaos.passPoint("pre_lease");
            bool got = false;
            try {
                got = tryClaimShard(paths, shard, options.workerId);
            } catch (const std::exception &error) {
                warn("zatel-worker ", options.workerId,
                     ": claim of shard ", shard, " failed: ",
                     error.what());
                claim_errors = true;
                continue;
            }
            if (!got)
                continue;
            claimed_any = true;
            const ShardOutcome outcome = runShard(
                paths, shard, options, cache, chaos, rows_appended);
            if (outcome == ShardOutcome::HeartbeatLost) {
                writeWorkerStats(paths, options, cache, shards_published,
                                 rows_appended);
                warn("zatel-worker ", options.workerId,
                     ": heartbeat lost on shard ", shard,
                     "; fenced, abandoning unpublished");
                return static_cast<int>(WorkerExit::HeartbeatLost);
            }
            if (outcome == ShardOutcome::PublishFailed)
                ++publish_failures[shard];
            else
                ++shards_published;
            breakLease(paths, shard);
        }

        if (claimed_any) {
            claim_error_rounds = 0;
            idle_rounds = 0;
            continue;
        }
        if (claim_errors) {
            if (++claim_error_rounds >= 3) {
                writeWorkerStats(paths, options, cache, shards_published,
                                 rows_appended);
                warn("zatel-worker ", options.workerId,
                     ": 3 consecutive board scans with only claim "
                     "errors; giving up");
                return static_cast<int>(WorkerExit::CannotClaim);
            }
        } else {
            claim_error_rounds = 0;
        }
        // Everything left is leased by another worker (or errored):
        // back off before rescanning.
        retryBackoffSleep(std::min<uint32_t>(++idle_rounds, 5));
    }
}

// ---------------------------------------------------------------------------
// Multi-process cache stress (tests/test_dist.cc)
// ---------------------------------------------------------------------------

namespace
{

/** Deterministic synthetic heatmap: content is a pure function of the
 *  recipe index, so any process can verify what any process built. It
 *  has no frame ray record, like every heatmap loaded from disk. */
std::shared_ptr<const service::HeatmapArtifact>
buildStressHeatmap(uint32_t recipe)
{
    constexpr uint32_t kWidth = 16;
    constexpr uint32_t kHeight = 16;
    constexpr uint32_t kColors = 4;
    std::vector<uint32_t> cluster(kWidth * kHeight);
    std::vector<size_t> population(kColors, 0);
    for (uint32_t i = 0; i < kWidth * kHeight; ++i) {
        cluster[i] = (i + recipe) % kColors;
        ++population[cluster[i]];
    }
    std::vector<rt::Vec3> palette;
    std::vector<double> coolness;
    for (uint32_t c = 0; c < kColors; ++c) {
        palette.push_back(rt::Vec3{0.1f * static_cast<float>(c + 1),
                                   0.05f * static_cast<float>(recipe + 1),
                                   0.9f});
        coolness.push_back(0.25 * (c + 1) + recipe);
    }
    auto artifact = std::make_shared<service::HeatmapArtifact>();
    artifact->map = heatmap::QuantizedHeatmap::fromParts(
        kWidth, kHeight, std::move(cluster), std::move(palette),
        std::move(coolness), std::move(population));
    return artifact;
}

} // namespace

int
runCacheStress(const std::string &cache_dir, uint32_t iterations,
               uint64_t disk_budget_bytes)
{
    constexpr uint32_t kRecipes = 8;
    for (uint32_t iter = 0; iter < iterations; ++iter) {
        service::ArtifactCache::DiskTierOptions disk;
        disk.byteBudget = disk_budget_bytes;
        // Near-zero grace so the eviction scan actually contends with
        // the other process's publishes (production default is 60 s
        // exactly to make this race unreachable).
        disk.evictGraceSeconds = 0.05;
        disk.claimWaitSeconds = 10.0;
        disk.claimStaleSeconds = 10.0;
        // A fresh cache per batch: every lookup goes through the disk
        // tier (load, or claim+build+publish) — the contended path the
        // stress exists to hammer.
        service::ArtifactCache cache(4ull << 20, cache_dir, disk);
        for (uint32_t recipe = 0; recipe < kRecipes; ++recipe) {
            const uint64_t key = 0xD157BEEFull + 0x9E3779B9ull * recipe;
            const heatmap::QuantizedHeatmap expected =
                buildStressHeatmap(recipe)->map;
            auto artifact = cache.getOrBuild<service::HeatmapArtifact>(
                service::ArtifactKind::QuantizedHeatmap, key,
                [recipe]() {
                    return std::make_pair(buildStressHeatmap(recipe),
                                          static_cast<uint64_t>(4096));
                });
            const heatmap::QuantizedHeatmap *map =
                artifact ? &artifact->map : nullptr;
            if (!map || map->width() != 16 || map->height() != 16 ||
                map->clusterIds() != expected.clusterIds() ||
                map->coolnessValues() != expected.coolnessValues()) {
                warn("cache-stress: heatmap recipe ", recipe,
                     " corrupt in iteration ", iter);
                return 1;
            }
            if (recipe % 3 == 0) {
                gpusim::GpuStats reference;
                reference.cycles = 1000 + recipe;
                reference.raysTraced = 17ull * (recipe + 1);
                auto stats = cache.getOrBuild<gpusim::GpuStats>(
                    service::ArtifactKind::OracleStats, key ^ 0xABCDull,
                    [&reference]() {
                        return std::make_pair(
                            std::make_shared<const gpusim::GpuStats>(
                                reference),
                            static_cast<uint64_t>(
                                sizeof(gpusim::GpuStats)));
                    });
                if (!stats || stats->cycles != reference.cycles ||
                    stats->raysTraced != reference.raysTraced) {
                    warn("cache-stress: oracle recipe ", recipe,
                         " corrupt in iteration ", iter);
                    return 1;
                }
            }
        }
    }
    return 0;
}

} // namespace zatel::dist
