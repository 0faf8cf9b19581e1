/**
 * @file
 * Fault-matrix tests for the resilience layer (docs/ROBUSTNESS.md):
 * for every site in the production fault catalog, an injected failure
 * must yield a completed campaign with the documented per-row status —
 * never a crash, a hang, or a silently wrong number.
 *
 *  - A transient fault (nth:1) at ANY site recovers to an all-ok
 *    campaign: retries, the stall watchdog and the cache's disk-tier
 *    degradation each absorb their sites.
 *  - A persistent fault (always) produces the per-site terminal status
 *    the docs promise (ok / degraded / failed) — and disk faults flip
 *    the cache to memory-only with the "disk=degraded" summary token
 *    CI greps for.
 *  - A stalled group whose retries are exhausted becomes a Degraded
 *    row assembled from the survivors, not a wedged campaign.
 *  - Degraded predictions are byte-identical across thread counts:
 *    the keyed probability policy fails the same groups no matter how
 *    probes interleave (tests the contract the paper's error model
 *    needs — a degraded prediction is a *deterministic* function of
 *    its inputs and the fault plan).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "gpusim/config.hh"
#include "gpusim/stats.hh"
#include "obs/metrics_registry.hh"
#include "rt/bvh.hh"
#include "rt/scene_library.hh"
#include "service/artifact_cache.hh"
#include "service/campaign.hh"
#include "service/result_store.hh"
#include "service/scheduler.hh"
#include "util/fault_injection.hh"
#include "zatel/predictor.hh"

namespace zatel::service
{
namespace
{

constexpr uint64_t kCacheBudget = 256ull * 1024 * 1024;

/** Bit pattern of a double; distinguishes what tolerance compares hide. */
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

std::filesystem::path
scratchDir(const std::string &name)
{
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() / ("zatel-resilience-" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** Every test arms the PROCESS-WIDE registry; pristine state is
 *  restored around each so no test inherits a fault plan. */
class Resilience : public testing::Test
{
  protected:
    void SetUp() override { FaultRegistry::global().resetForTest(); }
    void TearDown() override { FaultRegistry::global().resetForTest(); }
};

/** Watchdog tuning used throughout: aggressive enough that a stalled
 *  instance is caught in well under a second of test time. */
void
armWatchdog(SchedulerParams &params)
{
    params.stallTimeoutSeconds = 0.25;
    params.probeIntervalCycles = 2000;
}

// ---------------------------------------------------------------------
// Transient faults: every site recovers to an all-ok campaign
// ---------------------------------------------------------------------

TEST_F(Resilience, TransientFaultAtEverySiteRecovers)
{
    for (const std::string &site : FaultRegistry::knownSiteNames()) {
        // serve.* sites live in the daemon's socket path, which a
        // campaign never reaches; tests/test_serve.cc drives them.
        // dist.* / worker.* sites live in the multi-process job-board
        // path; tests/test_dist.cc drives them.
        if (site.rfind("serve.", 0) == 0 ||
            site.rfind("dist.", 0) == 0 || site.rfind("worker.", 0) == 0)
            continue;
        FaultRegistry::global().resetForTest();
        FaultRegistry::global().setPolicy(site, FaultPolicy::nthHit(1));

        const std::filesystem::path dir = scratchDir("transient");
        ArtifactCache cache(kCacheBudget, dir.string());
        ResultStore store("");

        std::vector<CampaignJob> jobs;
        for (size_t i = 0; i < 3; ++i)
            jobs.push_back(makeJob(0.15 + 0.05 * static_cast<double>(i)));
        jobs[0].withOracle = true; // reaches the oracle.run site
        finalizeCampaign(jobs);

        SchedulerParams params;
        params.workers = 2;
        params.stageRetries = 1;
        armWatchdog(params); // group.sim.stall needs the watchdog
        CampaignScheduler scheduler(std::move(jobs), cache, store, params);
        const CampaignSummary summary = scheduler.run();

        EXPECT_EQ(summary.totalJobs, 3u) << site;
        EXPECT_EQ(summary.ok, 3u)
            << site << ": a single transient fault must be absorbed\n"
            << summary.toString();
        EXPECT_EQ(summary.failed, 0u) << site;
        EXPECT_EQ(summary.cancelled, 0u) << site;
        EXPECT_EQ(summary.timedOut, 0u) << site;

        // Prove the fault plan was not vacuous: the armed site really
        // was reached and really fired.
        EXPECT_EQ(FaultRegistry::global().site(site)->fires(), 1u)
            << site << " never fired; the matrix would be testing nothing";

        std::filesystem::remove_all(dir);
    }
}

// ---------------------------------------------------------------------
// Persistent faults: the documented per-site terminal status
// ---------------------------------------------------------------------

struct AlwaysExpectation
{
    /** ok / degraded / failed counts expected for a one-job campaign. */
    size_t ok = 0;
    size_t degraded = 0;
    size_t failed = 0;
    bool cacheDegraded = false;
    bool writeFailures = false;
};

TEST_F(Resilience, PersistentFaultMatrixYieldsDocumentedStatus)
{
    // Keep in sync with the docs/ROBUSTNESS.md site catalog.
    const std::map<std::string, AlwaysExpectation> expectations = {
        // Disk-tier faults degrade the cache to memory-only; the
        // prediction itself is unaffected.
        {"cache.disk.read", {.ok = 1, .cacheDegraded = true}},
        {"cache.disk.write", {.ok = 1, .cacheDegraded = true}},
        // Start-stage builders have no degraded mode: retries
        // exhausted means the job failed.
        {"scene.pack.build", {.failed = 1}},
        {"heatmap.build", {.failed = 1}},
        // Every group failing leaves nothing to assemble from.
        {"group.sim", {.failed = 1}},
        {"group.sim.midrun", {.failed = 1}},
        // Every attempt at every group stalls; with zero retries each
        // group is recorded failed and the job fails.
        {"group.sim.stall", {.failed = 1}},
        // The submit wrapper retries a bounded number of times and
        // then proceeds anyway: losing a unit would strand the job.
        {"pool.task", {.ok = 1}},
        // Row I/O failures keep the row in memory and are counted.
        {"result.store.append", {.ok = 1, .writeFailures = true}},
        // The prediction succeeded; only the optional oracle is lost.
        {"oracle.run", {.degraded = 1}},
    };
    // The table must cover the catalog exactly (a new site without an
    // expectation is a hole in the resilience story). serve.* sites
    // are the daemon's socket path: a campaign never reaches them, so
    // tests/test_serve.cc carries their always-policy expectations.
    // Likewise dist.* / worker.* sites fire only in the multi-process
    // job-board path; tests/test_dist.cc carries theirs.
    size_t campaignSites = 0;
    for (const std::string &site : FaultRegistry::knownSiteNames()) {
        if (site.rfind("serve.", 0) == 0 ||
            site.rfind("dist.", 0) == 0 || site.rfind("worker.", 0) == 0)
            continue;
        ++campaignSites;
        ASSERT_TRUE(expectations.count(site)) << site;
    }
    ASSERT_EQ(expectations.size(), campaignSites);

    for (const auto &[site, expected] : expectations) {
        FaultRegistry::global().resetForTest();
        FaultRegistry::global().setPolicy(site, FaultPolicy::always());

        const std::filesystem::path dir = scratchDir("persistent");
        ArtifactCache cache(kCacheBudget, dir.string());
        ResultStore store((dir / "results.jsonl").string());

        std::vector<CampaignJob> jobs{makeJob(0.2)};
        jobs[0].withOracle = true;
        jobs[0].params.groupRetries = 0;
        finalizeCampaign(jobs);

        SchedulerParams params;
        params.workers = 2;
        params.stageRetries = 1;
        armWatchdog(params);
        CampaignScheduler scheduler(std::move(jobs), cache, store, params);
        const CampaignSummary summary = scheduler.run();

        EXPECT_EQ(summary.ok, expected.ok) << site << "\n"
                                           << summary.toString();
        EXPECT_EQ(summary.degraded, expected.degraded)
            << site << "\n"
            << summary.toString();
        EXPECT_EQ(summary.failed, expected.failed)
            << site << "\n"
            << summary.toString();
        EXPECT_EQ(summary.cancelled, 0u) << site;
        EXPECT_EQ(summary.timedOut, 0u) << site;
        EXPECT_EQ(summary.cacheDiskDegraded, expected.cacheDegraded)
            << site;
        if (expected.cacheDegraded) {
            // The token both the cache summary and the campaign
            // summary expose, and CI greps for.
            EXPECT_NE(summary.toString().find("disk=degraded"),
                      std::string::npos)
                << summary.toString();
            EXPECT_TRUE(cache.diskDegraded()) << site;
        }
        if (expected.writeFailures) {
            EXPECT_GT(store.writeFailures(), 0u) << site;
        }
        EXPECT_GT(FaultRegistry::global().site(site)->fires(), 0u) << site;

        // Whatever the terminal status, exactly one row was recorded —
        // a faulted job must never vanish from the result set.
        ASSERT_EQ(store.rows().size(), 1u) << site;

        std::filesystem::remove_all(dir);
    }
}

// ---------------------------------------------------------------------
// Stall watchdog: retries exhausted -> degraded, not wedged
// ---------------------------------------------------------------------

TEST_F(Resilience, StalledGroupWithNoRetriesDegradesTheRow)
{
    // Exactly one group stalls once (nth:1); with zero group retries
    // its only attempt is burned, the group is recorded failed and the
    // prediction is assembled from the survivors.
    FaultRegistry::global().setPolicy("group.sim.stall",
                                      FaultPolicy::nthHit(1));

    ArtifactCache cache(kCacheBudget, "");
    ResultStore store("");
    std::vector<CampaignJob> jobs{makeJob(0.25)};
    jobs[0].params.groupRetries = 0;
    finalizeCampaign(jobs);

    SchedulerParams params;
    params.workers = 2;
    armWatchdog(params);
    CampaignScheduler scheduler(std::move(jobs), cache, store, params);
    const CampaignSummary summary = scheduler.run();

    EXPECT_EQ(summary.degraded, 1u) << summary.toString();
    EXPECT_EQ(summary.failed, 0u) << summary.toString();
    ASSERT_EQ(store.rows().size(), 1u);
    const ResultRow row = store.rows()[0];
    EXPECT_EQ(row.status, JobStatus::Degraded) << row.error;
    EXPECT_EQ(row.failedGroups, 1u);
    EXPECT_GT(row.survivorExtrapolation, 1.0)
        << "survivor re-weighting must widen, not shrink";
    EXPECT_NE(row.error.find("assembled from survivors"),
              std::string::npos)
        << row.error;
}

TEST_F(Resilience, StalledGroupWithRetriesRecoversToOk)
{
    FaultRegistry::global().setPolicy("group.sim.stall",
                                      FaultPolicy::nthHit(1));

    ArtifactCache cache(kCacheBudget, "");
    ResultStore store("");
    std::vector<CampaignJob> jobs{makeJob(0.25)};
    jobs[0].params.groupRetries = 1;
    finalizeCampaign(jobs);

    SchedulerParams params;
    params.workers = 2;
    armWatchdog(params);
    CampaignScheduler scheduler(std::move(jobs), cache, store, params);
    const CampaignSummary summary = scheduler.run();

    EXPECT_EQ(summary.ok, 1u) << summary.toString();
    ASSERT_EQ(store.rows().size(), 1u);
    EXPECT_EQ(store.rows()[0].status, JobStatus::Ok)
        << store.rows()[0].error;
}

/** A seed for which prob:@p p fires for group 0 only: not for groups
 *  1..@p groups-1 nor for the oracle's heartbeat key. */
uint64_t
seedStallingOnlyGroupZero(double p, size_t groups)
{
    FaultRegistry scratch;
    for (uint64_t seed = 0;; ++seed) {
        scratch.setPolicy("group.sim.stall",
                          FaultPolicy::withProbability(p, seed));
        FaultSite *site = scratch.site("group.sim.stall");
        bool only_zero = site->shouldFire(0) && !site->shouldFire(SIZE_MAX);
        for (size_t g = 1; only_zero && g < groups; ++g)
            only_zero = !site->shouldFire(g);
        if (only_zero)
            return seed;
    }
}

TEST_F(Resilience, StallStopsOnlyTheStalledSimulation)
{
    // The oracle runs beside the groups. When group 0 stalls, the
    // watchdog stops group 0 alone: the oracle and the other groups run
    // on untouched. With zero oracle retries, an oracle taken down with
    // group 0 would turn the row degraded.
    CampaignJob job = makeJob(0.05);
    job.sceneDetail = 1.0f;
    job.params.width = 128;
    job.params.height = 128;
    job.params.groupRetries = 1;
    job.withOracle = true;

    // Size the stall timeout to this build's oracle, timed here with
    // the trace of its workload: longer than the campaign oracle's
    // workload build, which sends no heartbeat (a slice of the cached
    // heatmap's frame ray record, far shorter than that trace), and
    // short enough that group 0's stall is caught, a watchdog tick
    // later, while the oracle is still simulating.
    double oracle_seconds = 0.0;
    {
        rt::SceneDetail detail;
        detail.density = job.sceneDetail;
        rt::Scene scene = rt::buildScene(rt::SceneId::Park, detail,
                                         job.sceneSeed);
        rt::Bvh bvh;
        bvh.build(scene.triangles(), job.bvh);
        core::ZatelPredictor predictor(scene, bvh,
                                       gpuConfigFromName(job.gpu),
                                       job.params);
        oracle_seconds = predictor.runOracle().wallSeconds;
    }
    SchedulerParams params;
    params.workers = 2; // the oracle on one, group 0 on the other
    params.stageRetries = 0;
    params.stallTimeoutSeconds = std::max(0.1, 0.45 * oracle_seconds);
    params.probeIntervalCycles = 1000;

    constexpr size_t kMaxGroups = 64;
    FaultRegistry::global().setPolicy(
        "group.sim.stall",
        FaultPolicy::withProbability(
            0.02, seedStallingOnlyGroupZero(0.02, kMaxGroups)));
    // Group 0 stalls once: the site is disarmed as soon as it fires,
    // long before the watchdog stops the hang and the group retries.
    std::atomic<bool> stop_watcher{false};
    std::thread watcher([&]() {
        const FaultSite *site =
            FaultRegistry::global().site("group.sim.stall");
        while (!stop_watcher.load() && site->fires() == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        FaultRegistry::global().setPolicy("group.sim.stall",
                                          FaultPolicy::never());
    });

    std::vector<CampaignJob> jobs{job};
    finalizeCampaign(jobs);
    ArtifactCache cache(kCacheBudget, "");
    ResultStore store("");
    auto &registry = obs::MetricsRegistry::global();
    const auto counter = [&](const std::string &name,
                             const obs::Labels &labels) {
        return registry.counter(name, "test probe", labels)->value();
    };
    const obs::Labels oracle_stage = {{"stage", "oracle"}};
    const obs::Labels group_stage = {{"stage", "group"}};
    const uint64_t oracle_units_before =
        counter("zatel_campaign_units_total", oracle_stage);
    const uint64_t group_units_before =
        counter("zatel_campaign_units_total", group_stage);
    const uint64_t stalls_before =
        counter("zatel_campaign_stall_cancellations_total", {});
    registry.setEnabled(true);
    CampaignScheduler scheduler(std::move(jobs), cache, store, params);
    const CampaignSummary summary = scheduler.run();
    registry.setEnabled(false);
    stop_watcher.store(true);
    watcher.join();

    EXPECT_EQ(FaultRegistry::global().site("group.sim.stall")->fires(), 1u);
    EXPECT_EQ(counter("zatel_campaign_stall_cancellations_total", {}) -
                  stalls_before,
              1u);
    EXPECT_EQ(summary.ok, 1u) << summary.toString();
    ASSERT_EQ(store.rows().size(), 1u);
    const ResultRow row = store.rows()[0];
    EXPECT_EQ(row.status, JobStatus::Ok) << row.error;
    EXPECT_LE(row.k, kMaxGroups);
    EXPECT_EQ(row.oracle.size(), gpusim::allMetrics().size());
    // Only group 0 ran twice; the oracle and every sibling ran once.
    EXPECT_EQ(counter("zatel_campaign_units_total", oracle_stage) -
                  oracle_units_before,
              1u);
    EXPECT_EQ(counter("zatel_campaign_units_total", group_stage) -
                  group_units_before,
              row.k + 1u);
}

// ---------------------------------------------------------------------
// Degraded determinism: thread count must not change which groups fail
// ---------------------------------------------------------------------

TEST_F(Resilience, DegradedPredictionByteIdenticalAcrossThreadCounts)
{
    // prob: is a pure function of (seed, site, group index), so the
    // failing subset — and therefore the degraded prediction — is the
    // same whether the groups run serially or race on four threads.
    FaultRegistry::global().setPolicy(
        "group.sim", FaultPolicy::withProbability(0.4, 42));

    rt::Scene scene = rt::buildScene(rt::SceneId::Park, rt::SceneDetail{0.3f});
    rt::Bvh bvh;
    bvh.build(scene.triangles());

    auto run = [&](uint32_t num_threads) {
        core::ZatelParams params;
        params.width = 32;
        params.height = 32;
        params.selector.fixedFraction = 0.25;
        params.groupRetries = 0;    // retrying the same key refires anyway
        params.minGroupsFraction = 0.1;
        params.numThreads = num_threads;
        core::ZatelPredictor predictor(scene, bvh,
                                       gpusim::GpuConfig::mobileSoc(),
                                       params);
        return predictor.predict();
    };

    const core::ZatelResult serial = run(1);
    const core::ZatelResult parallel = run(4);

    ASSERT_TRUE(serial.degraded)
        << "seed 42 at p=0.4 should fail at least one group; if the "
           "keyed hash changed, update this test's seed";
    ASSERT_LT(serial.failedGroups.size(), static_cast<size_t>(serial.k))
        << "at least one group must survive for a degraded assembly";

    EXPECT_EQ(parallel.degraded, serial.degraded);
    EXPECT_EQ(parallel.failedGroups, serial.failedGroups)
        << "thread scheduling changed WHICH groups failed";
    EXPECT_EQ(bitsOf(parallel.survivorExtrapolation),
              bitsOf(serial.survivorExtrapolation));
    ASSERT_EQ(parallel.predicted.size(), serial.predicted.size());
    for (gpusim::Metric metric : gpusim::allMetrics()) {
        EXPECT_EQ(bitsOf(parallel.predicted.at(metric)),
                  bitsOf(serial.predicted.at(metric)))
            << "degraded prediction for " << gpusim::metricName(metric)
            << " diverged between thread counts";
    }

    // And the repeat run is stable too (same fault plan, same result).
    const core::ZatelResult again = run(4);
    EXPECT_EQ(again.failedGroups, serial.failedGroups);
    for (gpusim::Metric metric : gpusim::allMetrics()) {
        EXPECT_EQ(bitsOf(again.predicted.at(metric)),
                  bitsOf(serial.predicted.at(metric)));
    }
}

TEST_F(Resilience, FailFastTurnsAnyGroupFailureIntoAnError)
{
    FaultRegistry::global().setPolicy(
        "group.sim", FaultPolicy::withProbability(0.4, 42));

    rt::Scene scene = rt::buildScene(rt::SceneId::Park, rt::SceneDetail{0.3f});
    rt::Bvh bvh;
    bvh.build(scene.triangles());

    core::ZatelParams params;
    params.width = 32;
    params.height = 32;
    params.selector.fixedFraction = 0.25;
    params.groupRetries = 0;
    params.failFast = true;
    params.numThreads = 2;
    core::ZatelPredictor predictor(scene, bvh,
                                   gpusim::GpuConfig::mobileSoc(), params);
    EXPECT_THROW(predictor.predict(), core::GroupFailureError);
}

// ---------------------------------------------------------------------
// Zero faults armed: the resilience layer is invisible
// ---------------------------------------------------------------------

TEST_F(Resilience, DisarmedRunMatchesDirectPrediction)
{
    // With nothing armed, a campaign run through the full resilience
    // machinery (watchdog on, retries on) must be byte-identical to
    // the plain predictor — the probes and the watchdog may observe,
    // never perturb.
    const CampaignJob job = makeJob(0.3);

    rt::SceneDetail detail;
    detail.density = job.sceneDetail;
    rt::Scene scene = rt::buildScene(resolveSceneName(job.scene), detail,
                                     job.sceneSeed);
    rt::Bvh bvh;
    bvh.build(scene.triangles(), job.bvh);
    core::ZatelPredictor direct(scene, bvh, gpuConfigFromName(job.gpu),
                                job.params);
    const core::ZatelResult expected = direct.predict();

    ArtifactCache cache(kCacheBudget, "");
    ResultStore store("");
    std::vector<CampaignJob> jobs{job};
    finalizeCampaign(jobs);
    SchedulerParams params;
    params.workers = 2;
    armWatchdog(params);
    CampaignScheduler scheduler(std::move(jobs), cache, store, params);
    const CampaignSummary summary = scheduler.run();

    EXPECT_EQ(summary.ok, 1u) << summary.toString();
    ASSERT_EQ(store.rows().size(), 1u);
    const ResultRow row = store.rows()[0];
    EXPECT_EQ(row.status, JobStatus::Ok) << row.error;
    EXPECT_EQ(row.failedGroups, 0u);
    for (gpusim::Metric metric : gpusim::allMetrics()) {
        const auto it = row.predicted.find(metric);
        ASSERT_NE(it, row.predicted.end());
        EXPECT_EQ(bitsOf(it->second), bitsOf(expected.metric(metric)))
            << gpusim::metricName(metric);
    }
}

} // namespace
} // namespace zatel::service
