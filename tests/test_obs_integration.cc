/**
 * @file
 * Observability integration tests: turning the tracing + metrics layer
 * ON must not change a single bit of any pipeline result.
 *
 * This is the "observability must not change results" invariant from
 * docs/CORRECTNESS.md: the recorder reads the wall clock and writes its
 * own buffers, nothing else. The tests here prove it the same way the
 * determinism harness (tests/test_determinism.cc) proves thread-count
 * independence — doubles compared by bit pattern, not tolerance — for
 * both the direct ZatelPredictor path and an 8-job campaign through the
 * scheduler. They also pin down the instrumentation contract: the spans
 * and metric series the docs promise actually appear, and the cache
 * metrics agree exactly with ArtifactCache's own counters.
 *
 * Tests use the GLOBAL recorder/registry (that is what the built-in
 * instrumentation writes to), so every assertion on counters is a
 * before/after delta and the fixture always disables both on teardown.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "gpusim/gpu.hh"
#include "gpusim/stats.hh"
#include "gpusim/workload.hh"
#include "obs/metrics_registry.hh"
#include "obs/trace_recorder.hh"
#include "obs/validate.hh"
#include "rt/bvh.hh"
#include "rt/scene_library.hh"
#include "rt/tracer.hh"
#include "service/artifact_cache.hh"
#include "service/campaign.hh"
#include "service/result_store.hh"
#include "service/scheduler.hh"
#include "zatel/predictor.hh"

namespace zatel
{
namespace
{

/** Bit pattern of a double; NaN-safe, distinguishes -0.0 from 0.0. */
uint64_t
bitsOf(double value)
{
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

/** Expect every raw counter of two GpuStats to be identical. */
void
expectStatsIdentical(const gpusim::GpuStats &a, const gpusim::GpuStats &b,
                     const std::string &context)
{
#define ZATEL_EXPECT_COUNTER(field)                                         \
    EXPECT_EQ(a.field, b.field) << context << ": counter " #field " diverged"
    ZATEL_EXPECT_COUNTER(cycles);
    ZATEL_EXPECT_COUNTER(threadInstructions);
    ZATEL_EXPECT_COUNTER(warpInstructions);
    ZATEL_EXPECT_COUNTER(l1dAccesses);
    ZATEL_EXPECT_COUNTER(l1dMisses);
    ZATEL_EXPECT_COUNTER(l2Accesses);
    ZATEL_EXPECT_COUNTER(l2Misses);
    ZATEL_EXPECT_COUNTER(rtActiveRaySum);
    ZATEL_EXPECT_COUNTER(rtResidentWarpCycles);
    ZATEL_EXPECT_COUNTER(rtNodeVisits);
    ZATEL_EXPECT_COUNTER(rtTriangleTests);
    ZATEL_EXPECT_COUNTER(dramBusyCycles);
    ZATEL_EXPECT_COUNTER(dramActiveCycles);
    ZATEL_EXPECT_COUNTER(dramChannelCycles);
    ZATEL_EXPECT_COUNTER(dramBytesRead);
    ZATEL_EXPECT_COUNTER(dramBytesWritten);
    ZATEL_EXPECT_COUNTER(warpsLaunched);
    ZATEL_EXPECT_COUNTER(raysTraced);
    ZATEL_EXPECT_COUNTER(pixelsTraced);
    ZATEL_EXPECT_COUNTER(pixelsFiltered);
#undef ZATEL_EXPECT_COUNTER
}

/** Byte-identical everywhere except wall-clock fields. */
void
expectResultsIdentical(const core::ZatelResult &a,
                       const core::ZatelResult &b,
                       const std::string &context)
{
    EXPECT_EQ(a.k, b.k) << context;
    EXPECT_EQ(bitsOf(a.fractionTraced), bitsOf(b.fractionTraced))
        << context;
    ASSERT_EQ(a.groups.size(), b.groups.size()) << context;
    for (size_t g = 0; g < a.groups.size(); ++g) {
        const std::string where = context + ", group " + std::to_string(g);
        EXPECT_EQ(a.groups[g].groupIndex, b.groups[g].groupIndex) << where;
        EXPECT_EQ(a.groups[g].selectedPixels, b.groups[g].selectedPixels)
            << where;
        expectStatsIdentical(a.groups[g].stats, b.groups[g].stats, where);
    }
    for (gpusim::Metric metric : gpusim::allMetrics()) {
        ASSERT_TRUE(a.predicted.count(metric)) << context;
        ASSERT_TRUE(b.predicted.count(metric)) << context;
        EXPECT_EQ(bitsOf(a.predicted.at(metric)),
                  bitsOf(b.predicted.at(metric)))
            << context << ": prediction for "
            << gpusim::metricName(metric) << " diverged";
    }
}

/** Current value of a global-registry counter (registers on miss). */
uint64_t
globalCounter(const std::string &name, const obs::Labels &labels = {})
{
    return obs::MetricsRegistry::global()
        .counter(name, "test probe", labels)
        ->value();
}

/** Count spans named @p name in @p events. */
size_t
countSpans(const std::vector<obs::TraceEvent> &events,
           const std::string &name)
{
    size_t count = 0;
    for (const obs::TraceEvent &event : events) {
        if (event.name == name)
            ++count;
    }
    return count;
}

/** Always leave the process-wide observability switched off. */
class ObsIntegrationTest : public testing::Test
{
  protected:
    void
    TearDown() override
    {
        obs::TraceRecorder::global().disable();
        obs::MetricsRegistry::global().setEnabled(false);
    }
};

using ObsIntegration = ObsIntegrationTest;

TEST_F(ObsIntegration, PredictIsByteIdenticalWithObservabilityOn)
{
    rt::Scene scene =
        rt::buildScene(rt::SceneId::Wknd, rt::SceneDetail{0.4f});
    rt::Bvh bvh;
    bvh.build(scene.triangles());

    core::ZatelParams params;
    params.width = 48;
    params.height = 48;
    params.seed = 0x2A7E1;
    params.numThreads = 4;

    // Baseline: observability fully off (the library default).
    core::ZatelResult baseline =
        core::ZatelPredictor(scene, bvh, gpusim::GpuConfig::mobileSoc(),
                             params)
            .predict();

    // Instrumented run: tracing + metrics on.
    const uint64_t predictions_before =
        globalCounter("zatel_predictions_total");
    const uint64_t groups_before =
        globalCounter("zatel_groups_simulated_total");
    const uint64_t gpu_runs_before = globalCounter("zatel_gpu_runs_total");

    obs::TraceRecorder::global().enable();
    obs::MetricsRegistry::global().setEnabled(true);
    core::ZatelResult traced =
        core::ZatelPredictor(scene, bvh, gpusim::GpuConfig::mobileSoc(),
                             params)
            .predict();
    obs::TraceRecorder::global().disable();
    obs::MetricsRegistry::global().setEnabled(false);

    expectResultsIdentical(baseline, traced, "obs on vs off");

    // The promised spans exist: one pipeline, one prepare/simulate/
    // assemble, one sim.group and one sim.workload per image-plane
    // group.
    std::vector<obs::TraceEvent> events =
        obs::TraceRecorder::global().snapshot();
    EXPECT_EQ(countSpans(events, "predict"), 1u);
    EXPECT_EQ(countSpans(events, "predict.prepare"), 1u);
    EXPECT_EQ(countSpans(events, "predict.simulate"), 1u);
    EXPECT_EQ(countSpans(events, "predict.assemble"), 1u);
    EXPECT_EQ(countSpans(events, "sim.group"), traced.groups.size());
    EXPECT_EQ(countSpans(events, "sim.workload"), traced.groups.size());
    EXPECT_GE(countSpans(events, "gpu.run"), traced.groups.size());

    // And the exported trace is schema-valid Chrome JSON.
    EXPECT_TRUE(obs::validateChromeTrace(
                    obs::TraceRecorder::global().exportChromeTrace())
                    .empty());

    // The promised metric series moved by exactly what the run did.
    EXPECT_EQ(globalCounter("zatel_predictions_total"),
              predictions_before + 1);
    EXPECT_EQ(globalCounter("zatel_groups_simulated_total"),
              groups_before + traced.groups.size());
    EXPECT_GE(globalCounter("zatel_gpu_runs_total"),
              gpu_runs_before + traced.groups.size());
    EXPECT_TRUE(obs::validatePrometheusText(
                    obs::MetricsRegistry::global().prometheusText())
                    .empty());
    EXPECT_TRUE(obs::validateMetricsJson(
                    obs::MetricsRegistry::global().jsonText())
                    .empty());
}

/** A small, fast campaign job: 32x32 PARK at reduced density. Every
 *  job also asks for the oracle, which they all share, so with several
 *  workers most of them park on its build. */
service::CampaignJob
makeJob(double fraction)
{
    service::CampaignJob job;
    job.scene = "PARK";
    job.sceneDetail = 0.3f;
    job.params.width = 32;
    job.params.height = 32;
    job.params.selector.fixedFraction = fraction;
    job.withOracle = true;
    return job;
}

std::vector<service::CampaignJob>
makeCampaign(size_t count)
{
    std::vector<service::CampaignJob> jobs;
    jobs.reserve(count);
    for (size_t i = 0; i < count; ++i)
        jobs.push_back(makeJob(0.15 + 0.05 * static_cast<double>(i)));
    service::finalizeCampaign(jobs);
    return jobs;
}

TEST_F(ObsIntegration, CampaignByteIdenticalAndCacheMetricsMatch)
{
    constexpr uint64_t kBudget = 256ull * 1024 * 1024;
    constexpr size_t kJobs = 8;

    // Baseline campaign, observability off.
    service::ArtifactCache baseline_cache(kBudget, "");
    service::ResultStore baseline_store("");
    {
        service::SchedulerParams params;
        params.workers = 4;
        service::CampaignScheduler scheduler(
            makeCampaign(kJobs), baseline_cache, baseline_store, params);
        ASSERT_EQ(scheduler.run().ok, kJobs);
    }

    // Instrumented campaign on a fresh cache.
    const obs::Labels pack_hit = {{"kind", "scenepack"}, {"event", "hit"}};
    const obs::Labels pack_miss = {{"kind", "scenepack"},
                                   {"event", "miss"}};
    const obs::Labels map_hit = {{"kind", "heatmap"}, {"event", "hit"}};
    const obs::Labels map_miss = {{"kind", "heatmap"}, {"event", "miss"}};
    const std::string cache_total = "zatel_cache_events_total";
    const std::string units_total = "zatel_campaign_units_total";
    const uint64_t pack_hit_before = globalCounter(cache_total, pack_hit);
    const uint64_t pack_miss_before =
        globalCounter(cache_total, pack_miss);
    const uint64_t map_hit_before = globalCounter(cache_total, map_hit);
    const uint64_t map_miss_before = globalCounter(cache_total, map_miss);
    const obs::Labels oracle_hit = {{"kind", "oracle"}, {"event", "hit"}};
    const obs::Labels oracle_miss = {{"kind", "oracle"},
                                     {"event", "miss"}};
    const std::string parked_total = "zatel_campaign_parked_total";
    const uint64_t oracle_hit_before = globalCounter(cache_total, oracle_hit);
    const uint64_t oracle_miss_before =
        globalCounter(cache_total, oracle_miss);
    const uint64_t start_units_before =
        globalCounter(units_total, {{"stage", "start"}});
    const uint64_t prepare_units_before =
        globalCounter(units_total, {{"stage", "prepare"}});
    const uint64_t oracle_units_before =
        globalCounter(units_total, {{"stage", "oracle"}});
    const uint64_t finalize_units_before =
        globalCounter(units_total, {{"stage", "finalize"}});
    const uint64_t parked_heatmap_before =
        globalCounter(parked_total, {{"kind", "heatmap"}});
    const uint64_t ok_jobs_before =
        globalCounter("zatel_campaign_jobs_total", {{"status", "ok"}});
    const std::string pixels_total = "zatel_workload_pixels_total";
    const obs::Labels traced_pixels = {{"source", "traced"}};
    const obs::Labels record_pixels = {{"source", "record"}};
    const uint64_t traced_pixels_before =
        globalCounter(pixels_total, traced_pixels);
    const uint64_t record_pixels_before =
        globalCounter(pixels_total, record_pixels);

    obs::TraceRecorder::global().enable();
    obs::MetricsRegistry::global().setEnabled(true);
    service::ArtifactCache traced_cache(kBudget, "");
    service::ResultStore traced_store("");
    {
        service::SchedulerParams params;
        params.workers = 4;
        service::CampaignScheduler scheduler(makeCampaign(kJobs),
                                             traced_cache, traced_store,
                                             params);
        ASSERT_EQ(scheduler.run().ok, kJobs);
    }
    obs::TraceRecorder::global().disable();
    obs::MetricsRegistry::global().setEnabled(false);

    // Byte-identical rows per job id (timing fields excluded by
    // comparing only the determinism-covered columns).
    std::map<std::string, service::ResultRow> baseline_rows;
    for (const service::ResultRow &row : baseline_store.rows())
        baseline_rows[row.jobId] = row;
    ASSERT_EQ(baseline_rows.size(), kJobs);
    for (const service::ResultRow &row : traced_store.rows()) {
        const auto it = baseline_rows.find(row.jobId);
        ASSERT_NE(it, baseline_rows.end()) << row.jobId;
        EXPECT_EQ(row.k, it->second.k) << row.jobId;
        EXPECT_EQ(bitsOf(row.fractionTraced),
                  bitsOf(it->second.fractionTraced))
            << row.jobId;
        for (gpusim::Metric metric : gpusim::allMetrics()) {
            EXPECT_EQ(bitsOf(row.predicted.at(metric)),
                      bitsOf(it->second.predicted.at(metric)))
                << row.jobId << ": " << gpusim::metricName(metric)
                << " changed when observability was enabled";
            EXPECT_EQ(bitsOf(row.oracle.at(metric)),
                      bitsOf(it->second.oracle.at(metric)))
                << row.jobId << ": oracle " << gpusim::metricName(metric)
                << " changed when observability was enabled";
        }
    }

    // zatel_cache_events_total deltas agree EXACTLY with the cache's
    // own counters for the instrumented run.
    const service::ArtifactCache::Counters pack =
        traced_cache.counters(service::ArtifactKind::ScenePack);
    const service::ArtifactCache::Counters map =
        traced_cache.counters(service::ArtifactKind::QuantizedHeatmap);
    EXPECT_EQ(globalCounter(cache_total, pack_hit) - pack_hit_before,
              pack.hits);
    EXPECT_EQ(globalCounter(cache_total, pack_miss) - pack_miss_before,
              pack.misses);
    EXPECT_EQ(globalCounter(cache_total, map_hit) - map_hit_before,
              map.hits);
    EXPECT_EQ(globalCounter(cache_total, map_miss) - map_miss_before,
              map.misses);
    const service::ArtifactCache::Counters oracle =
        traced_cache.counters(service::ArtifactKind::OracleStats);
    EXPECT_EQ(globalCounter(cache_total, oracle_hit) - oracle_hit_before,
              oracle.hits);
    EXPECT_EQ(globalCounter(cache_total, oracle_miss) - oracle_miss_before,
              oracle.misses);
    // And the cache really did its job: one build per artifact kind.
    EXPECT_EQ(pack.misses, 1u);
    EXPECT_EQ(pack.hits, kJobs - 1);
    EXPECT_EQ(map.misses, 1u);
    EXPECT_EQ(map.hits, kJobs - 1);
    EXPECT_EQ(oracle.misses, 1u);
    EXPECT_EQ(oracle.hits, kJobs - 1);

    // Scheduler stage units: one start + one finalize per job.
    EXPECT_EQ(globalCounter(units_total, {{"stage", "start"}}) -
                  start_units_before,
              kJobs);
    EXPECT_EQ(globalCounter(units_total, {{"stage", "finalize"}}) -
                  finalize_units_before,
              kJobs);
    // One oracle unit per job, whether it built, parked or hit.
    EXPECT_EQ(globalCounter(units_total, {{"stage", "oracle"}}) -
                  oracle_units_before,
              kJobs);
    // A prepare unit resumes exactly the start stages that parked.
    const uint64_t prepare_units =
        globalCounter(units_total, {{"stage", "prepare"}}) -
        prepare_units_before;
    EXPECT_EQ(prepare_units,
              globalCounter(parked_total, {{"kind", "heatmap"}}) -
                  parked_heatmap_before);
    EXPECT_EQ(globalCounter("zatel_campaign_jobs_total",
                            {{"status", "ok"}}) -
                  ok_jobs_before,
              kJobs);
    // The one heatmap was built in memory with its frame ray record:
    // every group and the oracle sliced it, and nothing traced again.
    EXPECT_EQ(globalCounter(pixels_total, traced_pixels) -
                  traced_pixels_before,
              0u);
    EXPECT_GT(globalCounter(pixels_total, record_pixels) -
                  record_pixels_before,
              0u);

    // Scheduler spans exist and pool workers got stable trace names.
    std::vector<obs::TraceEvent> events =
        obs::TraceRecorder::global().snapshot();
    EXPECT_EQ(countSpans(events, "job.start"), kJobs);
    EXPECT_EQ(countSpans(events, "job.finalize"), kJobs);
    EXPECT_GE(countSpans(events, "job.group"), kJobs);
    EXPECT_EQ(countSpans(events, "job.oracle"), kJobs);
    EXPECT_EQ(countSpans(events, "job.prepare"), prepare_units);
    // The one oracle build runs inside a job.oracle unit on its thread,
    // never inside job.finalize, and builds its workload in one
    // oracle.workload span inside it.
    ASSERT_EQ(countSpans(events, "oracle.run"), 1u);
    ASSERT_EQ(countSpans(events, "oracle.workload"), 1u);
    const auto encloses = [](const obs::TraceEvent &outer,
                             const obs::TraceEvent &inner) {
        return outer.tid == inner.tid && outer.tsMicros <= inner.tsMicros &&
               inner.tsMicros + inner.durMicros <=
                   outer.tsMicros + outer.durMicros;
    };
    for (const obs::TraceEvent &run : events) {
        if (run.name != "oracle.run")
            continue;
        bool in_oracle_unit = false;
        bool has_workload = false;
        for (const obs::TraceEvent &unit : events) {
            if (encloses(unit, run)) {
                EXPECT_NE(unit.name, "job.finalize");
                in_oracle_unit |= unit.name == "job.oracle";
            }
            has_workload |=
                unit.name == "oracle.workload" && encloses(run, unit);
        }
        EXPECT_TRUE(in_oracle_unit);
        EXPECT_TRUE(has_workload);
    }
    size_t pool_threads = 0;
    for (const auto &entry : obs::TraceRecorder::global().threadNames()) {
        if (entry.second.rfind("pool", 0) == 0)
            ++pool_threads;
    }
    EXPECT_GE(pool_threads, 4u);
}

TEST_F(ObsIntegration, DiskLoadedHeatmapsCarryNoRecordSoJobsTrace)
{
    // The frame ray record is kept in memory only. A campaign against a
    // warm cache dir loads its heatmap from disk without one, so its
    // jobs trace their workloads' pixels; the rows must not change.
    constexpr uint64_t kBudget = 256ull * 1024 * 1024;
    constexpr size_t kJobs = 4;
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "zatel-obs-warm-disk";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    const std::string pixels_total = "zatel_workload_pixels_total";
    const obs::Labels traced_pixels = {{"source", "traced"}};
    const obs::Labels record_pixels = {{"source", "record"}};
    std::vector<std::string> lines[2];
    uint64_t traced[2] = {0, 0};
    uint64_t sliced[2] = {0, 0};
    obs::MetricsRegistry::global().setEnabled(true);
    for (size_t run = 0; run < 2; ++run) {
        const uint64_t traced_before =
            globalCounter(pixels_total, traced_pixels);
        const uint64_t sliced_before =
            globalCounter(pixels_total, record_pixels);
        service::ArtifactCache cache(kBudget, dir.string());
        service::ResultStoreOptions options;
        options.includeTiming = false;
        service::ResultStore store("", options);
        service::SchedulerParams params;
        params.workers = 2;
        service::CampaignScheduler scheduler(makeCampaign(kJobs), cache,
                                             store, params);
        ASSERT_EQ(scheduler.run().ok, kJobs) << "run " << run;
        EXPECT_EQ(cache.counters(service::ArtifactKind::QuantizedHeatmap)
                      .diskHits,
                  run == 0 ? 0u : 1u);
        for (const service::ResultRow &row : store.rows())
            lines[run].push_back(store.formatRow(row));
        std::sort(lines[run].begin(), lines[run].end());
        traced[run] = globalCounter(pixels_total, traced_pixels) -
                      traced_before;
        sliced[run] = globalCounter(pixels_total, record_pixels) -
                      sliced_before;
    }
    obs::MetricsRegistry::global().setEnabled(false);
    std::filesystem::remove_all(dir);

    EXPECT_EQ(lines[0], lines[1]);
    EXPECT_EQ(traced[0], 0u) << "cold run: the record was built in memory";
    EXPECT_GT(sliced[0], 0u);
    EXPECT_GT(traced[1], 0u) << "warm run: the heatmap came from disk";
    EXPECT_EQ(sliced[1], 0u);
}

/** gpu.run's work counters in both cycle loops: every cycle the loop
 *  did not jump over either ticks or skips each SM, and the node-visit
 *  counter mirrors GpuStats. Time per SM tick and per node visit is
 *  read from these and a trace. */
TEST_F(ObsIntegration, GpuWorkCountersAccountForEverySmCycle)
{
    const rt::Scene scene =
        rt::buildScene(rt::SceneId::Park, rt::SceneDetail{0.3f});
    rt::Bvh bvh;
    bvh.build(scene.triangles());
    const rt::Tracer tracer(scene, bvh);
    const gpusim::SimWorkload workload =
        gpusim::SimWorkload::buildFullFrame(tracer, 32, 32);
    const gpusim::GpuConfig config = gpusim::GpuConfig::mobileSoc();

    for (const gpusim::TickMode mode :
         {gpusim::TickMode::Fast, gpusim::TickMode::Slow}) {
        const bool fast = mode == gpusim::TickMode::Fast;
        SCOPED_TRACE(fast ? "fast loop" : "slow loop");
        const auto counters = [] {
            return std::vector<uint64_t>{
                globalCounter("zatel_gpu_sm_ticks_total"),
                globalCounter("zatel_gpu_sm_ticks_skipped_total"),
                globalCounter("zatel_gpu_fast_forwarded_cycles_total"),
                globalCounter("zatel_gpu_rt_node_visits_total")};
        };
        const std::vector<uint64_t> before = counters();
        obs::MetricsRegistry::global().setEnabled(true);
        gpusim::Gpu gpu(config, workload);
        gpu.setTickMode(mode);
        const gpusim::GpuStats stats = gpu.run();
        obs::MetricsRegistry::global().setEnabled(false);
        const std::vector<uint64_t> after = counters();
        const uint64_t ticks = after[0] - before[0];
        const uint64_t skipped = after[1] - before[1];
        const uint64_t forwarded = after[2] - before[2];
        const uint64_t visits = after[3] - before[3];

        EXPECT_GT(stats.rtNodeVisits, 0u);
        EXPECT_EQ(visits, stats.rtNodeVisits);
        EXPECT_GT(ticks, 0u);
        if (fast) {
            EXPECT_GT(skipped, 0u);
            EXPECT_GT(forwarded, 0u);
            EXPECT_EQ(ticks + skipped,
                      (stats.cycles - forwarded) * config.numSms);
        } else {
            EXPECT_EQ(ticks, stats.cycles * config.numSms);
            EXPECT_EQ(skipped, 0u);
            EXPECT_EQ(forwarded, 0u);
        }
    }
}

} // namespace
} // namespace zatel
