/**
 * @file
 * Campaign scheduler tests (src/service/scheduler.*).
 *
 * The headline contracts from the batch-service design:
 *  - a one-scene campaign builds the scene/BVH and the quantized heatmap
 *    exactly ONCE no matter how many jobs share them (the cache counters
 *    prove it — 8 jobs must show misses=1, hits=7 per artifact kind);
 *  - --resume skips already-completed job ids and re-runs only the rest;
 *  - per-job wall-clock timeouts and campaign-level cancellation land
 *    jobs in the TimedOut / Cancelled terminal states;
 *  - a scheduled prediction is byte-identical to a direct
 *    ZatelPredictor::predict() on the same inputs, with a cold AND a
 *    warm artifact cache, and jobs that park on a shared heatmap or
 *    oracle build get the same rows at any worker count (the
 *    SchedulerDeterminism suite name keeps these running under the tsan
 *    determinism preset).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gpusim/stats.hh"
#include "obs/metrics_registry.hh"
#include "rt/bvh.hh"
#include "rt/scene_library.hh"
#include "service/artifact_cache.hh"
#include "service/campaign.hh"
#include "service/result_store.hh"
#include "service/scheduler.hh"
#include "zatel/predictor.hh"

namespace zatel::service
{
namespace
{

constexpr uint64_t kCacheBudget = 256ull * 1024 * 1024;

/** Bit pattern of a double; NaN-safe, distinguishes -0.0 from 0.0. */
uint64_t
bitsOf(double value)
{
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

/** A small, fast job: 32x32 PARK at reduced procedural density. */
CampaignJob
makeJob(double fraction)
{
    CampaignJob job;
    job.scene = "PARK";
    job.sceneDetail = 0.3f;
    job.params.width = 32;
    job.params.height = 32;
    job.params.selector.fixedFraction = fraction;
    return job;
}

std::vector<CampaignJob>
makeCampaign(size_t count)
{
    std::vector<CampaignJob> jobs;
    jobs.reserve(count);
    for (size_t i = 0; i < count; ++i)
        jobs.push_back(makeJob(0.15 + 0.05 * static_cast<double>(i)));
    finalizeCampaign(jobs);
    return jobs;
}

void
expectRowMatchesResult(const ResultRow &row,
                       const core::ZatelResult &expected,
                       const std::string &context)
{
    EXPECT_EQ(row.status, JobStatus::Ok) << context << ": " << row.error;
    EXPECT_EQ(row.k, expected.k) << context;
    EXPECT_EQ(bitsOf(row.fractionTraced), bitsOf(expected.fractionTraced))
        << context;
    for (gpusim::Metric metric : gpusim::allMetrics()) {
        const auto it = row.predicted.find(metric);
        ASSERT_NE(it, row.predicted.end())
            << context << ": missing metric " << gpusim::metricName(metric);
        EXPECT_EQ(bitsOf(it->second), bitsOf(expected.metric(metric)))
            << context << ": metric " << gpusim::metricName(metric)
            << " is not byte-identical";
    }
}

/**
 * Exactly what `zatel predict` does: the predictor renders the frame
 * itself and its groups slice the frame ray record. A campaign injects
 * the cached heatmap and, when the entry was built in this process, its
 * record, which the groups slice the same way; a heatmap loaded from
 * disk has none, so those jobs' groups trace their pixels. Equal rows
 * check that a job's workloads do not depend on which path built them.
 */
core::ZatelResult
directPredict(const CampaignJob &job)
{
    rt::SceneDetail detail;
    detail.density = job.sceneDetail;
    rt::Scene scene = rt::buildScene(rt::sceneIdFromName(job.scene),
                                     detail, job.sceneSeed);
    rt::Bvh bvh;
    bvh.build(scene.triangles(), job.bvh);
    core::ZatelPredictor predictor(scene, bvh, gpuConfigFromName(job.gpu),
                                   job.params);
    return predictor.predict();
}

/** Exactly what `zatel oracle` does for the job's scene and GPU. */
gpusim::GpuStats
directOracle(const CampaignJob &job)
{
    rt::SceneDetail detail;
    detail.density = job.sceneDetail;
    rt::Scene scene = rt::buildScene(rt::sceneIdFromName(job.scene),
                                     detail, job.sceneSeed);
    rt::Bvh bvh;
    bvh.build(scene.triangles(), job.bvh);
    core::ZatelPredictor predictor(scene, bvh, gpuConfigFromName(job.gpu),
                                   job.params);
    return predictor.runOracle().stats;
}

TEST(ServiceScheduler, EightJobsOneSceneBuildArtifactsOnce)
{
    ArtifactCache cache(kCacheBudget, "");
    ResultStore store("");
    SchedulerParams params;
    params.workers = 4;

    CampaignScheduler scheduler(makeCampaign(8), cache, store, params);
    EXPECT_EQ(scheduler.workerCount(), 4u);
    CampaignSummary summary = scheduler.run();

    EXPECT_EQ(summary.totalJobs, 8u);
    EXPECT_EQ(summary.ok, 8u);
    EXPECT_EQ(summary.failed, 0u);
    EXPECT_EQ(store.countWithStatus(JobStatus::Ok), 8u);

    // The acceptance contract: one BVH build and one heatmap profile
    // for the whole campaign, everything else served from the cache.
    const ArtifactCache::Counters pack =
        cache.counters(ArtifactKind::ScenePack);
    EXPECT_EQ(pack.misses, 1u) << "scene/BVH was rebuilt";
    EXPECT_EQ(pack.hits, 7u);
    const ArtifactCache::Counters map =
        cache.counters(ArtifactKind::QuantizedHeatmap);
    EXPECT_EQ(map.misses, 1u)
        << "heatmap was re-profiled (fraction must not be in its key)";
    EXPECT_EQ(map.hits, 7u);
    EXPECT_EQ(cache.counters(ArtifactKind::OracleStats).misses, 0u);

    // The summary embeds the same counters (the CLI prints these).
    EXPECT_EQ(summary.cacheTotals.misses, 2u);
    EXPECT_EQ(summary.cacheTotals.hits, 14u);
    const std::string report = summary.toString();
    EXPECT_NE(report.find("cache hits: 14"), std::string::npos) << report;
}

TEST(ServiceScheduler, ResumeSkipsCompletedJobs)
{
    std::vector<CampaignJob> jobs = makeCampaign(3);
    const std::string middle_id = jobs[1].id;

    ArtifactCache cache(kCacheBudget, "");
    ResultStore store("");
    SchedulerParams params;
    params.workers = 2;
    params.alreadyCompleted = {jobs[0].id, jobs[2].id};

    CampaignScheduler scheduler(std::move(jobs), cache, store, params);
    CampaignSummary summary = scheduler.run();

    EXPECT_EQ(summary.totalJobs, 3u);
    EXPECT_EQ(summary.skipped, 2u);
    EXPECT_EQ(summary.ok, 1u);
    ASSERT_EQ(store.rowCount(), 1u)
        << "skipped jobs must not append result rows";
    EXPECT_EQ(store.rows()[0].jobId, middle_id);
}

TEST(ServiceScheduler, JobTimeoutLandsInTimedOut)
{
    ArtifactCache cache(kCacheBudget, "");
    ResultStore store("");
    SchedulerParams params;
    params.workers = 2;
    params.jobTimeoutSeconds = 1e-6; // expires before any stage finishes

    CampaignScheduler scheduler(makeCampaign(1), cache, store, params);
    CampaignSummary summary = scheduler.run();

    EXPECT_EQ(summary.timedOut, 1u);
    EXPECT_EQ(summary.ok, 0u);
    ASSERT_EQ(store.rowCount(), 1u);
    // rows() returns by value; take a copy, not a dangling reference.
    const ResultRow row = store.rows()[0];
    EXPECT_EQ(row.status, JobStatus::TimedOut);
    EXPECT_NE(row.error.find("timeout"), std::string::npos) << row.error;
    EXPECT_TRUE(row.predicted.empty());
}

TEST(ServiceScheduler, CancelHookCancelsEveryJob)
{
    ArtifactCache cache(kCacheBudget, "");
    ResultStore store("");
    SchedulerParams params;
    params.workers = 2;
    params.cancelled = []() { return true; };

    CampaignScheduler scheduler(makeCampaign(2), cache, store, params);
    CampaignSummary summary = scheduler.run();

    EXPECT_EQ(summary.cancelled, 2u);
    EXPECT_EQ(summary.ok, 0u);
    EXPECT_EQ(store.countWithStatus(JobStatus::Cancelled), 2u);
}

TEST(ServiceScheduler, BadJobFailsWithoutAbortingTheCampaign)
{
    std::vector<CampaignJob> jobs = makeCampaign(1);
    CampaignJob bad = makeJob(0.5);
    bad.scene = "NOPE";
    bad.id = "bad-scene";
    jobs.push_back(std::move(bad));

    ArtifactCache cache(kCacheBudget, "");
    ResultStore store("");
    SchedulerParams params;
    params.workers = 2;

    std::mutex hook_mutex;
    std::set<std::string> seen;
    params.resultHook = [&](const ResultRow &row) {
        std::lock_guard<std::mutex> guard(hook_mutex);
        seen.insert(row.jobId);
    };

    CampaignScheduler scheduler(std::move(jobs), cache, store, params);
    CampaignSummary summary = scheduler.run();

    EXPECT_EQ(summary.ok, 1u);
    EXPECT_EQ(summary.failed, 1u);
    EXPECT_EQ(seen.size(), 2u)
        << "the result hook must observe every terminal row";
    ASSERT_EQ(store.countWithStatus(JobStatus::Failed), 1u);
    for (const ResultRow &row : store.rows()) {
        if (row.status == JobStatus::Failed) {
            EXPECT_EQ(row.jobId, "bad-scene");
            EXPECT_NE(row.error.find("unknown scene"), std::string::npos)
                << row.error;
        }
    }
}

TEST(SchedulerDeterminism, MatchesDirectPredictorByteForByte)
{
    const CampaignJob job = makeJob(0.4);
    const core::ZatelResult direct = directPredict(job);

    // Scheduler path: shared pool + artifact cache, cold.
    std::vector<CampaignJob> jobs{job};
    finalizeCampaign(jobs);
    ArtifactCache cache(kCacheBudget, "");
    ResultStore store("");
    SchedulerParams params;
    params.workers = 3;
    CampaignScheduler scheduler(std::move(jobs), cache, store, params);
    CampaignSummary summary = scheduler.run();

    EXPECT_EQ(summary.ok, 1u);
    ASSERT_EQ(store.rowCount(), 1u);
    expectRowMatchesResult(store.rows()[0], direct, "cold cache");
}

TEST(SchedulerDeterminism, WarmCacheRunIsByteIdentical)
{
    ArtifactCache cache(kCacheBudget, "");

    ResultStore first_store("");
    {
        SchedulerParams params;
        params.workers = 2;
        CampaignScheduler scheduler(makeCampaign(2), cache, first_store,
                                    params);
        EXPECT_EQ(scheduler.run().ok, 2u);
    }
    const ArtifactCache::Counters cold =
        cache.counters(ArtifactKind::QuantizedHeatmap);
    EXPECT_EQ(cold.misses, 1u);

    ResultStore second_store("");
    {
        SchedulerParams params;
        params.workers = 2;
        CampaignScheduler scheduler(makeCampaign(2), cache, second_store,
                                    params);
        EXPECT_EQ(scheduler.run().ok, 2u);
    }
    const ArtifactCache::Counters warm =
        cache.counters(ArtifactKind::QuantizedHeatmap);
    EXPECT_EQ(warm.misses, 1u)
        << "the second campaign must be served entirely from the cache";
    EXPECT_EQ(warm.hits, cold.hits + 2);

    // Same job id -> byte-identical prediction, cold or warm.
    std::map<std::string, ResultRow> first_rows;
    for (const ResultRow &row : first_store.rows())
        first_rows[row.jobId] = row;
    for (const ResultRow &row : second_store.rows()) {
        const auto it = first_rows.find(row.jobId);
        ASSERT_NE(it, first_rows.end()) << row.jobId;
        EXPECT_EQ(row.k, it->second.k);
        EXPECT_EQ(bitsOf(row.fractionTraced),
                  bitsOf(it->second.fractionTraced));
        for (gpusim::Metric metric : gpusim::allMetrics()) {
            EXPECT_EQ(bitsOf(row.predicted.at(metric)),
                      bitsOf(it->second.predicted.at(metric)))
                << row.jobId << ": " << gpusim::metricName(metric);
        }
    }

    // And a warm row equals a direct prediction of its job.
    for (const CampaignJob &job : makeCampaign(2)) {
        for (const ResultRow &row : second_store.rows()) {
            if (row.jobId == job.id)
                expectRowMatchesResult(row, directPredict(job),
                                       "warm cache vs direct " + job.id);
        }
    }
}

TEST(SchedulerDeterminism, SharedOracleAndHeatmapRowsMatchAtAnyWorkerCount)
{
    // Six jobs on one scene and GPU share one heatmap and one oracle, so
    // with several workers most of them park on a build another job is
    // running and resume when it lands.
    std::vector<CampaignJob> jobs;
    for (size_t i = 0; i < 6; ++i) {
        jobs.push_back(makeJob(0.15 + 0.05 * static_cast<double>(i)));
        jobs.back().withOracle = true;
    }
    finalizeCampaign(jobs);

    std::map<std::string, core::ZatelResult> direct;
    for (const CampaignJob &job : jobs)
        direct.emplace(job.id, directPredict(job));
    const gpusim::GpuStats oracle = directOracle(jobs[0]);

    std::map<std::string, std::string> first_lines;
    for (size_t workers : {1u, 2u, 4u}) {
        const std::string context =
            "workers=" + std::to_string(workers);
        ArtifactCache cache(kCacheBudget, "");
        ResultStoreOptions options;
        options.includeTiming = false;
        ResultStore store("", options);
        SchedulerParams params;
        params.workers = workers;
        CampaignScheduler scheduler(jobs, cache, store, params);
        EXPECT_EQ(scheduler.run().ok, jobs.size()) << context;
        ASSERT_EQ(store.rowCount(), jobs.size()) << context;

        for (const ResultRow &row : store.rows()) {
            expectRowMatchesResult(row, direct.at(row.jobId),
                                   context + " " + row.jobId);
            for (gpusim::Metric metric : gpusim::allMetrics()) {
                ASSERT_TRUE(row.oracle.count(metric)) << context;
                EXPECT_EQ(bitsOf(row.oracle.at(metric)),
                          bitsOf(oracle.metricValue(metric)))
                    << context << " " << row.jobId << ": oracle "
                    << gpusim::metricName(metric);
            }
            // The same row, byte for byte, at every worker count.
            const std::string line = store.formatRow(row);
            const auto [it, first] = first_lines.emplace(row.jobId, line);
            if (!first) {
                EXPECT_EQ(line, it->second) << context;
            }
        }

        // Parking changes who waits, not what is built or served.
        for (ArtifactKind kind :
             {ArtifactKind::ScenePack, ArtifactKind::QuantizedHeatmap,
              ArtifactKind::OracleStats}) {
            const ArtifactCache::Counters c = cache.counters(kind);
            EXPECT_EQ(c.misses, 1u) << context << " "
                                    << artifactKindName(kind);
            EXPECT_EQ(c.hits, jobs.size() - 1)
                << context << " " << artifactKindName(kind);
        }
    }
}

TEST(SchedulerDeterminism, JobsOnTwoBvhsOfOneSceneShareNoArtifact)
{
    // Two jobs that differ only in the BVH the scene is built into. A
    // heatmap entry's frame ray record holds one BVH's node indices and
    // an oracle's stats count that BVH's visits, so each job must get
    // its own of both.
    std::vector<CampaignJob> jobs;
    for (uint32_t leaf : {4u, 1u}) {
        jobs.push_back(makeJob(0.25));
        jobs.back().bvh.maxLeafSize = leaf;
        jobs.back().withOracle = true;
    }
    finalizeCampaign(jobs);

    ArtifactCache cache(kCacheBudget, "");
    ResultStore store("");
    SchedulerParams params;
    params.workers = 2;
    CampaignScheduler scheduler(jobs, cache, store, params);
    EXPECT_EQ(scheduler.run().ok, jobs.size());
    ASSERT_EQ(store.rowCount(), jobs.size());

    for (const CampaignJob &job : jobs) {
        const std::string context =
            "maxLeafSize=" + std::to_string(job.bvh.maxLeafSize);
        const gpusim::GpuStats oracle = directOracle(job);
        for (const ResultRow &row : store.rows()) {
            if (row.jobId != job.id)
                continue;
            expectRowMatchesResult(row, directPredict(job), context);
            for (gpusim::Metric metric : gpusim::allMetrics()) {
                ASSERT_TRUE(row.oracle.count(metric)) << context;
                EXPECT_EQ(bitsOf(row.oracle.at(metric)),
                          bitsOf(oracle.metricValue(metric)))
                    << context << ": oracle " << gpusim::metricName(metric);
            }
        }
    }
    EXPECT_EQ(cache.counters(ArtifactKind::ScenePack).misses, 2u);
    EXPECT_EQ(cache.counters(ArtifactKind::QuantizedHeatmap).misses, 2u);
    EXPECT_EQ(cache.counters(ArtifactKind::OracleStats).misses, 2u);
}

// Deliberately NOT part of the tsan determinism filter: the test is
// timing-based (it arms a real wall-clock timeout mid-campaign).
TEST(SchedulerTimeout, CancelsPendingStages)
{
    // A job whose group-simulation phase dwarfs its (cache-warm)
    // preprocessing: 160x160, every pixel traced, 4 spp.
    CampaignJob heavy;
    heavy.scene = "PARK";
    heavy.params.width = 160;
    heavy.params.height = 160;
    heavy.params.samplesPerPixel = 4;
    heavy.params.selector.fixedFraction = 1.0;

    ArtifactCache cache(kCacheBudget, "");

    // Calibration pass (no timeout): measures this machine's group
    // phase and leaves the scene pack + heatmap in the cache, so the
    // timed pass spends its whole budget inside group units.
    double sim_seconds = 0.0;
    double max_group_seconds = 0.0;
    size_t group_count = 0;
    {
        std::vector<CampaignJob> jobs{heavy};
        finalizeCampaign(jobs);
        ResultStore store("");
        SchedulerParams params;
        params.workers = 1;
        CampaignScheduler scheduler(std::move(jobs), cache, store,
                                    params);
        ASSERT_EQ(scheduler.run().ok, 1u);
        const ResultRow row = store.rows()[0];
        sim_seconds = row.simSeconds;
        max_group_seconds = row.maxGroupSeconds;
        group_count = row.k;
    }
    ASSERT_GE(group_count, 3u) << "need several group units to skip";
    ASSERT_GT(sim_seconds, 0.0);
    ASSERT_GT(max_group_seconds, 0.0);

    // Timed pass: the budget covers warm preprocessing plus about half
    // the longest group simulation, so the deadline expires inside
    // group 0 and the next unit to start finds it passed, with at least
    // one more still pending. Taken from the group phase instead, the
    // budget spans more than one group, and a timed pass that runs
    // faster than the calibration (a speed phase of the host, a busy
    // neighbour during calibration) finishes groups 0 and 1 inside it,
    // leaving no unit to skip. Pending units must be dropped (not
    // simulated) and the pool must still drain to a terminal row.
    const uint64_t skipped_before =
        obs::MetricsRegistry::global()
            .counter("zatel_campaign_group_units_skipped_total", "probe")
            ->value();
    obs::MetricsRegistry::global().setEnabled(true);

    std::vector<CampaignJob> jobs{heavy};
    finalizeCampaign(jobs);
    ResultStore store("");
    SchedulerParams params;
    params.workers = 1;
    params.jobTimeoutSeconds = std::max(0.05, 0.5 * max_group_seconds);
    CampaignScheduler scheduler(std::move(jobs), cache, store, params);
    CampaignSummary summary = scheduler.run();

    obs::MetricsRegistry::global().setEnabled(false);
    const uint64_t skipped_after =
        obs::MetricsRegistry::global()
            .counter("zatel_campaign_group_units_skipped_total", "probe")
            ->value();

    // The job timed out during group simulation, not preprocessing.
    EXPECT_EQ(summary.timedOut, 1u);
    EXPECT_EQ(summary.ok, 0u);
    ASSERT_EQ(store.rowCount(), 1u) << "scheduler failed to drain";
    const ResultRow row = store.rows()[0];
    EXPECT_EQ(row.status, JobStatus::TimedOut);
    EXPECT_NE(row.error.find("group simulation"), std::string::npos)
        << row.error;
    EXPECT_TRUE(row.predicted.empty());

    // The cancellation witness: at least one already-enqueued group
    // unit executed the skip path instead of simulating.
    EXPECT_GE(skipped_after - skipped_before, 1u)
        << "pending group units were simulated after the timeout";
    // And the timed run must have finished well before a full group
    // phase would have (it skipped most of the work).
    EXPECT_LT(summary.wallSeconds, sim_seconds);
}

} // namespace
} // namespace zatel::service
