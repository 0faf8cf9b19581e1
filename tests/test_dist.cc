/**
 * @file
 * Crash-recovery matrix for distributed campaigns (docs/DISTRIBUTED.md).
 *
 * The invariant under test everywhere: SIGKILL of any single worker at
 * any seeded point, and a transient fault at any dist.* / worker.*
 * site, still yields a merged ResultStore whose sorted rows are
 * byte-identical to a single-process run of the same campaign (with
 * --no-timing). Persistent faults degrade the documented way — jobs
 * surface as Degraded rows, never as a crashed or hung campaign.
 *
 * The chaos harness kills real zatel-worker processes (ZATEL_WORKER_BIN
 * from CMake) via ZATEL_WORKER_KILL, and arms worker-side fault sites
 * via the inherited ZATEL_FAULTS environment — both routed through
 * DistParams::workerEnv so this test's own process stays clean.
 */

#include <gtest/gtest.h>

#ifdef __unix__
#include <sys/wait.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "dist/coordinator.hh"
#include "dist/job_board.hh"
#include "dist/worker.hh"
#include "service/artifact_cache.hh"
#include "service/campaign.hh"
#include "service/result_store.hh"
#include "service/scheduler.hh"
#include "util/fault_injection.hh"

#ifndef ZATEL_WORKER_BIN
#define ZATEL_WORKER_BIN "zatel-worker"
#endif

namespace zatel::dist
{
namespace
{

std::filesystem::path
scratchDir(const std::string &name)
{
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() / ("zatel-dist-" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** Small fast jobs (PARK 32x32 at reduced density); all four share one
 *  scene pack and one heatmap — only the traced fraction differs. */
std::vector<service::CampaignJob>
makeCampaign(size_t count = 4)
{
    std::vector<service::CampaignJob> jobs;
    for (size_t i = 0; i < count; ++i) {
        service::CampaignJob job;
        job.scene = "PARK";
        job.sceneDetail = 0.3f;
        job.params.width = 32;
        job.params.height = 32;
        job.params.selector.fixedFraction =
            0.15 + 0.05 * static_cast<double>(i);
        jobs.push_back(std::move(job));
    }
    service::finalizeCampaign(jobs);
    return jobs;
}

std::vector<std::string>
sortedLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty())
            lines.push_back(line);
    }
    std::sort(lines.begin(), lines.end());
    return lines;
}

/** Single-process reference run with timing columns off. */
std::vector<std::string>
referenceLines(const std::filesystem::path &dir)
{
    const std::string path = (dir / "reference.jsonl").string();
    service::ArtifactCache cache(256ull << 20);
    service::ResultStoreOptions store_options;
    store_options.includeTiming = false;
    service::ResultStore store(path, store_options);
    service::SchedulerParams params;
    params.workers = 2;
    service::CampaignScheduler scheduler(makeCampaign(), cache, store,
                                         params);
    scheduler.run();
    store.finalize();
    return sortedLines(path);
}

/** Coordinator tuning every test shares: the checked-in zatel-worker
 *  binary, a short lease, quiet workers with timing columns off. */
DistParams
baseParams(const std::filesystem::path &dir)
{
    DistParams params;
    params.workerCmd = ZATEL_WORKER_BIN;
    params.boardDir = (dir / "board").string();
    params.leaseTimeoutSeconds = 2.0;
    params.pollSeconds = 0.01;
    params.quiet = true;
    params.workerExtraArgs = {"--no-timing", "--quiet"};
    return params;
}

/** Run one distributed campaign into @p result_name under @p dir. */
DistSummary
runDist(const std::filesystem::path &dir, const std::string &result_name,
        DistParams params, bool append = false,
        std::set<std::string> already_completed = {})
{
    const std::string path = (dir / result_name).string();
    service::ResultStoreOptions store_options;
    store_options.includeTiming = false;
    store_options.append = append;
    service::ResultStore store(path, store_options);
    params.alreadyCompleted = std::move(already_completed);
    DistCoordinator coordinator(makeCampaign(), store, std::move(params));
    return coordinator.run();
}

/** Process-wide fault registry hygiene (worker.spawn fires in the
 *  coordinator, i.e. in THIS process). */
class Dist : public testing::Test
{
  protected:
    void SetUp() override { FaultRegistry::global().resetForTest(); }
    void TearDown() override { FaultRegistry::global().resetForTest(); }
};

// ---------------------------------------------------------------------
// Board units
// ---------------------------------------------------------------------

TEST_F(Dist, ChaosKillSpecParsesAndRejects)
{
    EXPECT_FALSE(ChaosKillSpec::parse(nullptr).armed);
    EXPECT_FALSE(ChaosKillSpec::parse("").armed);

    const ChaosKillSpec any = ChaosKillSpec::parse("mid_job:3");
    EXPECT_TRUE(any.armed);
    EXPECT_EQ(any.point, "mid_job");
    EXPECT_EQ(any.nth, 3u);
    EXPECT_EQ(any.workerFilter, -1);

    const ChaosKillSpec one = ChaosKillSpec::parse("pre_publish:1@2");
    EXPECT_TRUE(one.armed);
    EXPECT_EQ(one.point, "pre_publish");
    EXPECT_EQ(one.workerFilter, 2);

    // A typo'd chaos plan must fail loudly, never silently disarm.
    EXPECT_THROW(ChaosKillSpec::parse("bogus_point:1"),
                 std::invalid_argument);
    EXPECT_THROW(ChaosKillSpec::parse("mid_job"), std::invalid_argument);
    EXPECT_THROW(ChaosKillSpec::parse("mid_job:0"),
                 std::invalid_argument);
    EXPECT_THROW(ChaosKillSpec::parse("mid_job:x"),
                 std::invalid_argument);
}

TEST_F(Dist, BoardManifestRoundTripsAndLeaseLifecycleHolds)
{
    const auto dir = scratchDir("board-units");
    BoardPaths paths{(dir / "board").string(), /*csv=*/false};

    BoardManifest manifest;
    manifest.shards = 3;
    manifest.csv = false;
    manifest.jobs = 7;
    initBoard(paths, manifest);

    BoardManifest read;
    ASSERT_TRUE(readManifest(paths, read));
    EXPECT_EQ(read.shards, 3u);
    EXPECT_EQ(read.jobs, 7u);
    EXPECT_FALSE(read.csv);

    // O_CREAT|O_EXCL claim: first wins, second loses, and the lease
    // records who holds it.
    ASSERT_TRUE(tryClaimShard(paths, 1, /*worker_id=*/5));
    EXPECT_FALSE(tryClaimShard(paths, 1, /*worker_id=*/6));
    const LeaseInfo lease = readLease(paths, 1);
    ASSERT_TRUE(lease.exists);
    EXPECT_EQ(lease.workerId, 5u);
    EXPECT_EQ(lease.pid, static_cast<long>(::getpid()));

    EXPECT_GE(leaseAgeSeconds(paths, 1), 0.0);
    EXPECT_TRUE(refreshLease(paths, 1));

    breakLease(paths, 1);
    EXPECT_FALSE(readLease(paths, 1).exists);
    EXPECT_LT(leaseAgeSeconds(paths, 1), 0.0);
    EXPECT_TRUE(tryClaimShard(paths, 1, /*worker_id=*/6));
}

TEST_F(Dist, FragmentPublishAndExhaustionMarkersWork)
{
    const auto dir = scratchDir("board-frags");
    BoardPaths paths{(dir / "board").string(), /*csv=*/false};
    initBoard(paths, BoardManifest{1, false, 1});

    {
        std::ofstream partial(paths.partialFragmentPath(0));
        partial << "{\"job\":\"j1\",\"status\":\"ok\"}\n";
    }
    EXPECT_FALSE(shardDone(paths, 0));
    publishFragment(paths, 0);
    EXPECT_TRUE(shardDone(paths, 0));
    EXPECT_FALSE(
        std::filesystem::exists(paths.partialFragmentPath(0)));

    EXPECT_FALSE(shardExhausted(paths, 0));
    markShardExhausted(paths, 0, "test reason");
    EXPECT_TRUE(shardExhausted(paths, 0));
    markShardExhausted(paths, 0, "idempotent");
    EXPECT_TRUE(shardExhausted(paths, 0));
}

// ---------------------------------------------------------------------
// Byte-identity: distributed == single-process
// ---------------------------------------------------------------------

TEST_F(Dist, MergedRowsAreByteIdenticalAtEveryWorkerCount)
{
    const auto dir = scratchDir("identity");
    const std::vector<std::string> reference = referenceLines(dir);
    ASSERT_EQ(reference.size(), 4u);

    for (uint32_t workers : {1u, 2u, 4u}) {
        DistParams params = baseParams(dir);
        params.workers = workers;
        const std::string name =
            "dist-" + std::to_string(workers) + ".jsonl";
        const DistSummary summary = runDist(dir, name, params);
        EXPECT_EQ(summary.ok, 4u) << workers << " workers";
        EXPECT_EQ(summary.failed, 0u);
        EXPECT_EQ(summary.degradedSynthesized, 0u);
        EXPECT_EQ(sortedLines((dir / name).string()), reference)
            << workers << " workers";
    }
}

TEST_F(Dist, JobIdsWithQuotesBackslashesAndCommasMergeOk)
{
    // The merge matches fragment rows to jobs by the id it reads back;
    // an id the row writer escapes must come back as written, or the
    // job looks lost and is synthesized as degraded.
    const auto dir = scratchDir("quoted-ids");
    std::vector<service::CampaignJob> jobs = makeCampaign(2);
    jobs[0].id = "a\"b\\c";
    jobs[1].id = "d,e";
    const std::string path = (dir / "out.jsonl").string();
    service::ResultStoreOptions store_options;
    store_options.includeTiming = false;
    service::ResultStore store(path, store_options);
    DistParams params = baseParams(dir);
    params.workers = 2;
    const DistSummary summary =
        DistCoordinator(jobs, store, std::move(params)).run();
    EXPECT_EQ(summary.ok, 2u);
    EXPECT_EQ(summary.degradedSynthesized, 0u);
    EXPECT_EQ(service::ResultStore::completedJobIds(
                  path, /*degraded_as_done=*/false),
              (std::set<std::string>{"a\"b\\c", "d,e"}));
}

// ---------------------------------------------------------------------
// Chaos matrix: SIGKILL at every seeded point recovers
// ---------------------------------------------------------------------

TEST_F(Dist, SigkillAtEveryChaosPointRecoversByteIdentical)
{
    const auto dir = scratchDir("chaos-kill");
    const std::vector<std::string> reference = referenceLines(dir);

    for (const std::string point :
         {"pre_lease", "mid_job", "pre_publish"}) {
        DistParams params = baseParams(dir);
        // A pre_lease kill leaves worker 0 holding nothing; with a
        // second worker it could settle every shard before the poll
        // that reaps worker 0, and no respawn would follow.
        params.workers = point == "pre_lease" ? 1 : 2;
        params.workerEnv.emplace_back("ZATEL_WORKER_KILL", point + ":1@0");
        const std::string name = "kill-" + point + ".jsonl";
        const DistSummary summary = runDist(dir, name, params);
        EXPECT_EQ(summary.ok, 4u) << point;
        EXPECT_EQ(summary.failed, 0u) << point;
        EXPECT_GE(summary.respawns, 1u) << point;
        EXPECT_EQ(sortedLines((dir / name).string()), reference) << point;
    }
}

TEST_F(Dist, SigkillMidJobCountsAShardReassignment)
{
    // The mid_job kill dies holding a lease, so recovery must go
    // through the reclaim path (the CI smoke greps the matching
    // zatel_dist_shard_reassignments_total metric).
    const auto dir = scratchDir("chaos-reassign");
    DistParams params = baseParams(dir);
    params.workers = 2;
    params.workerEnv.emplace_back("ZATEL_WORKER_KILL", "mid_job:1@0");
    const DistSummary summary = runDist(dir, "kill.jsonl", params);
    EXPECT_EQ(summary.ok, 4u);
    EXPECT_GE(summary.shardReassignments, 1u);
}

// ---------------------------------------------------------------------
// Fault matrix: transient faults at every dist site recover
// ---------------------------------------------------------------------

TEST_F(Dist, TransientFaultAtEveryDistSiteRecoversByteIdentical)
{
    const auto dir = scratchDir("fault-transient");
    const std::vector<std::string> reference = referenceLines(dir);

    // Worker-side sites arrive via the inherited ZATEL_FAULTS
    // environment; nth:1 is per worker process.
    for (const std::string site :
         {"dist.lease.write", "dist.fragment.write", "worker.heartbeat"}) {
        DistParams params = baseParams(dir);
        params.workers = 2;
        params.workerEnv.emplace_back("ZATEL_FAULTS", site + "=nth:1");
        const std::string name = "fault-" + site + ".jsonl";
        const DistSummary summary = runDist(dir, name, params);
        EXPECT_EQ(summary.ok, 4u) << site;
        EXPECT_EQ(summary.failed, 0u) << site;
        EXPECT_EQ(sortedLines((dir / name).string()), reference) << site;
    }

    // worker.spawn fires in the coordinator — this process.
    FaultRegistry::global().setPolicy("worker.spawn",
                                      FaultPolicy::nthHit(1));
    DistParams params = baseParams(dir);
    params.workers = 2;
    const DistSummary summary = runDist(dir, "fault-spawn.jsonl", params);
    EXPECT_EQ(summary.ok, 4u);
    EXPECT_GE(summary.spawnFailures, 1u);
    EXPECT_EQ(sortedLines((dir / "fault-spawn.jsonl").string()),
              reference);
}

// ---------------------------------------------------------------------
// Persistent faults: documented degradation, never a hung campaign
// ---------------------------------------------------------------------

TEST_F(Dist, PersistentSpawnFailureDegradesEveryJob)
{
    FaultRegistry::global().setPolicy("worker.spawn",
                                      FaultPolicy::always());
    const auto dir = scratchDir("spawn-always");
    DistParams params = baseParams(dir);
    params.workers = 2;
    const DistSummary summary = runDist(dir, "out.jsonl", params);
    EXPECT_EQ(summary.ok, 0u);
    EXPECT_EQ(summary.degraded, 4u);
    EXPECT_EQ(summary.degradedSynthesized, 4u);
    EXPECT_EQ(summary.failed, 0u);
    // Every row is present and degraded — a resumed run can still
    // retry them with --retry-degraded.
    EXPECT_EQ(sortedLines((dir / "out.jsonl").string()).size(), 4u);
}

TEST_F(Dist, PersistentLeaseWriteFaultDegradesEveryJob)
{
    const auto dir = scratchDir("lease-always");
    DistParams params = baseParams(dir);
    params.workers = 2;
    params.maxWorkerRespawns = 2; // claim I/O never succeeds; drain fast
    params.workerEnv.emplace_back("ZATEL_FAULTS",
                                  "dist.lease.write=always");
    const DistSummary summary = runDist(dir, "out.jsonl", params);
    EXPECT_EQ(summary.ok, 0u);
    EXPECT_EQ(summary.degraded, 4u);
    EXPECT_EQ(summary.failed, 0u);
}

TEST_F(Dist, PersistentFragmentWriteFaultSalvagesEveryRow)
{
    // Publishing never succeeds, but every row lands in the partial
    // fragments — the merge must salvage ALL of them as ok rows,
    // byte-identical to the reference (the strongest form of the
    // torn-fragment tolerance contract).
    const auto dir = scratchDir("frag-always");
    const std::vector<std::string> reference = referenceLines(dir);
    DistParams params = baseParams(dir);
    params.workers = 2;
    params.maxWorkerRespawns = 2;
    params.workerEnv.emplace_back("ZATEL_FAULTS",
                                  "dist.fragment.write=always");
    const DistSummary summary = runDist(dir, "out.jsonl", params);
    EXPECT_EQ(summary.ok, 4u);
    EXPECT_EQ(summary.failed, 0u);
    EXPECT_EQ(summary.degradedSynthesized, 0u);
    EXPECT_GE(summary.salvagedRows, 4u);
    EXPECT_EQ(sortedLines((dir / "out.jsonl").string()), reference);
}

TEST_F(Dist, PersistentHeartbeatFaultNeverFailsAJob)
{
    // Fenced workers abandon shards without publishing; partial
    // progress accrues across claimants. Whatever the interleaving,
    // no job may fail or vanish.
    const auto dir = scratchDir("heartbeat-always");
    DistParams params = baseParams(dir);
    params.workers = 2;
    params.workerEnv.emplace_back("ZATEL_FAULTS",
                                  "worker.heartbeat=always");
    const DistSummary summary = runDist(dir, "out.jsonl", params);
    EXPECT_EQ(summary.failed, 0u);
    EXPECT_EQ(summary.cancelled, 0u);
    EXPECT_EQ(summary.timedOut, 0u);
    EXPECT_EQ(summary.ok + summary.degraded, 4u);
}

// ---------------------------------------------------------------------
// Resume semantics: degraded rows are done unless retry is requested
// ---------------------------------------------------------------------

TEST_F(Dist, DegradedRowsResumeAsDoneAndRetryDegradedRerunsThem)
{
    // Run 1: no worker ever spawns -> all four rows degraded.
    FaultRegistry::global().setPolicy("worker.spawn",
                                      FaultPolicy::always());
    const auto dir = scratchDir("resume-degraded");
    const std::string path = (dir / "out.jsonl").string();
    runDist(dir, "out.jsonl", baseParams(dir));

    const std::set<std::string> done_default =
        service::ResultStore::completedJobIds(path);
    const std::set<std::string> done_retry =
        service::ResultStore::completedJobIds(
            path, /*degraded_as_done=*/false);
    EXPECT_EQ(done_default.size(), 4u);
    EXPECT_TRUE(done_retry.empty());

    FaultRegistry::global().resetForTest();

    // Resume without --retry-degraded: everything is already done.
    const DistSummary skipped = runDist(dir, "out.jsonl", baseParams(dir),
                                        /*append=*/true, done_default);
    EXPECT_EQ(skipped.skipped, 4u);
    EXPECT_EQ(skipped.mergedRows, 0u);

    // Resume WITH --retry-degraded semantics: all four re-execute ok.
    const DistSummary retried = runDist(dir, "out.jsonl", baseParams(dir),
                                        /*append=*/true, done_retry);
    EXPECT_EQ(retried.ok, 4u);
    EXPECT_EQ(retried.skipped, 0u);
}

// ---------------------------------------------------------------------
// Shared cache directory across workers
// ---------------------------------------------------------------------

TEST_F(Dist, SharedCacheDirBuildsEachPersistableArtifactOnce)
{
    // All four jobs share one heatmap. With the cross-process
    // single-flight claim, the two workers may at most build two scene
    // packs (memory-only, one each) plus ONE heatmap between them:
    // total misses <= 3. Without single-flight both workers would
    // build the heatmap (>= 4 misses).
    const auto dir = scratchDir("shared-cache");
    DistParams params = baseParams(dir);
    params.workers = 2;
    params.workerExtraArgs.push_back("--cache-dir");
    params.workerExtraArgs.push_back((dir / "cache").string());
    const DistSummary summary = runDist(dir, "out.jsonl", params);
    EXPECT_EQ(summary.ok, 4u);
    EXPECT_LE(summary.workerCacheTotals.misses, 3u);
    EXPECT_EQ(summary.workerCacheTotals.diskErrors, 0u);
    // Artifacts read back from the shared cache give the same rows.
    EXPECT_EQ(sortedLines((dir / "out.jsonl").string()),
              referenceLines(dir));
}

#ifdef __unix__
TEST_F(Dist, TwoProcessCacheStressFindsNoCorruption)
{
    // Two zatel-worker --cache-stress processes hammer one cache
    // directory with a tiny disk budget and a near-zero eviction grace
    // window: eviction scans, single-flight claims and tmp+rename
    // publishes race constantly, and every artifact read back must be
    // intact (exit 0 from both).
    const auto dir = scratchDir("cache-stress");
    const std::string cache_dir = (dir / "cache").string();

    auto spawn = [&]() -> pid_t {
        const pid_t pid = ::fork();
        if (pid == 0) {
            ::execl(ZATEL_WORKER_BIN, ZATEL_WORKER_BIN, "--cache-stress",
                    cache_dir.c_str(), "--stress-iterations", "15",
                    "--stress-disk-budget", "16384",
                    static_cast<char *>(nullptr));
            _exit(127);
        }
        return pid;
    };
    const pid_t a = spawn();
    const pid_t b = spawn();
    ASSERT_GT(a, 0);
    ASSERT_GT(b, 0);
    for (const pid_t pid : {a, b}) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 0);
    }
}
#endif

} // namespace
} // namespace zatel::dist
