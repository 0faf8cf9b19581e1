/**
 * @file
 * The traced run (--trace 1): per-layer attribution. It drives
 * predict-park stage by stage through the public functions predict()
 * is made of, runs one campaign-sweep repetition and a serve-mixed
 * session, and wraps every call into a layer in a bench-side span. The
 * named workload's part repeats until the run length is used; the
 * other two run once. Spans go to trace.json as a Chrome trace, checked
 * with the validator behind zatel-trace-check.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.hh"
#include "gpusim/gpu.hh"
#include "gpusim/workload.hh"
#include "heatmap/profiler.hh"
#include "obs/validate.hh"
#include "serve/predict_service.hh"
#include "service/campaign.hh"
#include "service/job_pipeline.hh"
#include "spans.hh"
#include "stats.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"
#include "zatel/combine.hh"
#include "zatel/downscale.hh"
#include "zatel/evaluation.hh"
#include "zatel/extrapolate.hh"
#include "zatel/partition.hh"
#include "zatel/pixel_selector.hh"

namespace perfbench
{

namespace
{

using zatel::obs::TraceRecorder;
namespace core = zatel::core;
namespace gpusim = zatel::gpusim;

/** One stage-by-stage prediction. */
struct Stagewise
{
    double totalMs = 0.0;
    double renderMs = 0.0;
    double profileMs = 0.0;
    double quantizeMs = 0.0;
    double selectMs = 0.0;
    double simulateMs = 0.0;
    double combineMs = 0.0;
    double buildMsSum = 0.0;
    double runMsSum = 0.0;
    double criticalMs = 0.0;
    size_t threads = 1;
    uint64_t renderRays = 0;
    uint64_t renderNodeVisits = 0;
    uint64_t workloadRays = 0;
    uint64_t fastForwarded = 0;
    uint64_t skippedSmTicks = 0;
    uint32_t k = 1;
    double fractionTraced = 0.0;
    std::vector<gpusim::GpuStats> groupStats;
    std::map<gpusim::Metric, double> predicted;
};

/** Steps (1)-(7) of ZatelPredictor::predict(), one public call at a
 *  time, in the same order and with the same Rng split order. */
Stagewise
predictStagewise(TraceRecorder *rec, const BuiltScene &scene,
                 const gpusim::GpuConfig &config,
                 const core::ZatelParams &params)
{
    Stagewise s;
    Span whole(rec, "predict.stagewise");
    zatel::rt::TracerParams tracerParams;
    tracerParams.samplesPerPixel = params.samplesPerPixel;
    const zatel::rt::Tracer tracer(scene.scene, scene.bvh, tracerParams);
    const uint32_t width = params.width;
    const uint32_t height = params.height;

    zatel::rt::RenderResult render;
    {
        Span span(rec, "rt.render");
        render = tracer.render(width, height);
        s.renderMs = span.stopMs();
    }
    for (const zatel::rt::PixelProfile &profile : render.profiles) {
        s.renderRays += profile.raysCast;
        s.renderNodeVisits += profile.nodesVisited;
    }
    zatel::heatmap::Heatmap map;
    {
        Span span(rec, "heatmap.profile");
        map = zatel::heatmap::profileRender(render, params.profiler);
        s.profileMs = span.stopMs();
    }
    zatel::heatmap::QuantizedHeatmap quantized;
    {
        Span span(rec, "heatmap.quantize");
        quantized = zatel::heatmap::QuantizedHeatmap::quantize(
            map, params.quantizeColors, params.seed);
        s.quantizeMs = span.stopMs();
    }

    gpusim::GpuConfig groupConfig = config;
    std::vector<core::PixelGroup> groups;
    std::vector<core::Selection> selections;
    {
        Span span(rec, "zatel.select");
        if (params.forcedK)
            s.k = std::max(1u, *params.forcedK);
        else
            s.k = params.downscaleGpu ? core::downscaleFactor(config) : 1;
        if (params.downscaleGpu && s.k > 1)
            groupConfig = core::downscaleConfig(config, s.k);
        groups = core::divideImagePlane(width, height, s.k, params.partition);
        zatel::Rng rng(params.seed);
        for (const core::PixelGroup &group : groups) {
            zatel::Rng groupRng = rng.split();
            selections.push_back(core::selectRepresentativePixels(
                group, quantized, params.selector, groupRng));
        }
        s.selectMs = span.stopMs();
    }

    struct GroupRun
    {
        gpusim::GpuStats stats;
        double buildMs = 0.0;
        double runMs = 0.0;
        uint64_t rays = 0;
        uint64_t fastForwarded = 0;
        uint64_t skippedSmTicks = 0;
    };
    std::vector<GroupRun> runs(groups.size());
    const size_t workers =
        params.numThreads != 0 ? params.numThreads : hardwareThreads();
    s.threads = std::min(workers, groups.size());
    {
        Span span(rec, "zatel.simulate", static_cast<int64_t>(groups.size()));
        {
            zatel::ThreadPool pool(s.threads);
            pool.parallelForChunked(groups.size(), 0, [&](size_t g) {
                GroupRun &run = runs[g];
                Span build(rec, "gpusim.workload_build",
                           static_cast<int64_t>(g));
                const gpusim::SimWorkload workload =
                    gpusim::SimWorkload::build(tracer, width, height,
                                               groups[g],
                                               &selections[g].mask);
                run.buildMs = build.stopMs();
                run.rays = workload.totalRays();
                Span sim(rec, "gpusim.run", static_cast<int64_t>(g));
                gpusim::Gpu gpu(groupConfig, workload);
                run.stats = gpu.run();
                run.runMs = sim.stopMs();
                run.fastForwarded = gpu.fastForwardedCycles();
                run.skippedSmTicks = gpu.skippedSmTicks();
            });
        }
        s.simulateMs = span.stopMs();
    }

    {
        Span span(rec, "zatel.combine");
        std::vector<std::vector<double>> extrapolated;
        for (size_t g = 0; g < groups.size(); ++g) {
            extrapolated.push_back(core::extrapolateAllLinear(
                runs[g].stats,
                std::max(selections[g].actualFraction, 1e-9)));
        }
        const std::vector<gpusim::Metric> &metrics = gpusim::allMetrics();
        for (size_t m = 0; m < metrics.size(); ++m) {
            std::vector<double> values;
            for (const std::vector<double> &group : extrapolated)
                values.push_back(group[m]);
            s.predicted[metrics[m]] = core::combineMetric(metrics[m], values);
        }
        s.combineMs = span.stopMs();
    }

    uint64_t selected = 0;
    uint64_t pixels = 0;
    for (size_t g = 0; g < groups.size(); ++g) {
        const GroupRun &run = runs[g];
        s.groupStats.push_back(run.stats);
        s.buildMsSum += run.buildMs;
        s.runMsSum += run.runMs;
        s.criticalMs = std::max(s.criticalMs, run.buildMs + run.runMs);
        s.workloadRays += run.rays;
        s.fastForwarded += run.fastForwarded;
        s.skippedSmTicks += run.skippedSmTicks;
        selected += selections[g].selectedCount;
        pixels += groups[g].size();
    }
    s.fractionTraced = pixels == 0 ? 0.0
                                   : static_cast<double>(selected) /
                                         static_cast<double>(pixels);
    s.totalMs = whole.stopMs();
    return s;
}

/** True when the stage-by-stage drive computed what predict() did. */
bool
sameAsPredict(const Stagewise &s, const core::ZatelResult &r)
{
    if (s.k != r.k || s.groupStats.size() != r.groups.size() ||
        s.fractionTraced != r.fractionTraced || s.predicted != r.predicted)
        return false;
    for (size_t g = 0; g < s.groupStats.size(); ++g) {
        if (gpusim::firstCounterDifference(s.groupStats[g],
                                           r.groups[g].stats))
            return false;
    }
    return true;
}

/** Everything the predict part measured, over its repetitions. */
struct PredictPart
{
    std::unique_ptr<BuiltScene> scene;
    std::vector<double> sceneMs, bvhMs;
    std::vector<double> predictMs;
    std::vector<Stagewise> stagewise;
    double oracleBuildMs = 0.0;
    double oracleRunMs = 0.0;
    gpusim::GpuStats oracleStats;
    core::ZatelResult first;
    bool haveFirst = false;
};

void
runPredictPart(TraceRecorder *rec, PredictPart &part,
               const gpusim::GpuConfig &config,
               const core::ZatelParams &params, RunResult &result)
{
    Span span(rec, "part.predict");
    part.scene = buildScene(zatel::rt::SceneId::Park, rec);
    part.sceneMs.push_back(part.scene->sceneMs);
    part.bvhMs.push_back(part.scene->bvhMs);

    if (!part.haveFirst) {
        zatel::rt::TracerParams tracerParams;
        tracerParams.samplesPerPixel = params.samplesPerPixel;
        const zatel::rt::Tracer tracer(part.scene->scene, part.scene->bvh,
                                       tracerParams);
        Span build(rec, "gpusim.oracle_build");
        const gpusim::SimWorkload workload = gpusim::SimWorkload::buildFullFrame(
            tracer, params.width, params.height);
        part.oracleBuildMs = build.stopMs();
        Span run(rec, "gpusim.oracle_run");
        gpusim::Gpu gpu(config, workload);
        part.oracleStats = gpu.run();
        part.oracleRunMs = run.stopMs();
    }

    // Untraced predict(), then the traced stage-by-stage drive.
    core::ZatelResult r;
    try {
        Span timed(nullptr, "predict");
        core::ZatelPredictor predictor(part.scene->scene, part.scene->bvh,
                                       config, params);
        r = predictor.predict();
        part.predictMs.push_back(timed.stopMs());
        result.operation(!r.degraded);
    } catch (const std::exception &e) {
        result.operation(false);
        result.problem(std::string("predict() threw: ") + e.what());
        return;
    }
    if (!part.haveFirst) {
        part.first = r;
        part.haveFirst = true;
    } else if (!samePrediction(r, part.first)) {
        result.problem("predict() result differs from the first");
    }
    part.stagewise.push_back(
        predictStagewise(rec, *part.scene, config, params));
    if (!sameAsPredict(part.stagewise.back(), r))
        result.problem("stage-by-stage drive differs from predict()");
}

struct CampaignPart
{
    std::vector<CampaignRep> reps;
    std::vector<double> rowWriteUs;
};

void
runCampaignPart(TraceRecorder *rec, CampaignPart &part,
                const std::vector<zatel::service::CampaignJob> &jobs,
                const std::string &out_dir, RunResult &result)
{
    Span span(rec, "part.campaign");
    {
        Span run(rec, "service.campaign");
        part.reps.push_back(runCampaignOnce(jobs));
    }
    const CampaignRep &rep = part.reps.back();
    for (size_t j = 0; j < jobs.size(); ++j)
        result.operation(j < rep.okRows);
    if (rep.canonicalRows != part.reps.front().canonicalRows)
        result.problem("campaign rows differ between repetitions");

    zatel::service::ResultStoreOptions options;
    options.includeTiming = false;
    zatel::service::ResultStore store(out_dir + "/rows_rewrite.jsonl",
                                      options);
    Span write(rec, "service.row_write");
    for (const zatel::service::ResultRow &row : rep.rows)
        store.append(row);
    store.finalize();
    const double ms = write.stopMs();
    if (!rep.rows.empty())
        part.rowWriteUs.push_back(ms * 1000.0 /
                                  static_cast<double>(rep.rows.size()));
}

struct ServePart
{
    std::vector<double> coreUs;
    std::vector<double> roundTripUs;
    ServeCounters counters;
    uint64_t replyBytes = 0;
    uint64_t replies = 0;
};

void
runServePart(TraceRecorder *rec, ServePart &part, uint64_t seed,
             double seconds, RunResult &result)
{
    Span span(rec, "part.serve");
    std::unique_ptr<ServeHarness> harness;
    {
        Span setup(rec, "serve.setup");
        harness = std::make_unique<ServeHarness>(seed);
    }
    if (harness->setupFailures() > 0)
        result.problem("serve warm-up failed");
    ServeLoad load;
    {
        Span run(rec, "serve.load");
        load = harness->drive(seconds);
    }
    for (uint64_t i = 0; i < load.attempted; ++i)
        result.operation(i >= load.failed);
    if (load.mismatched > 0)
        result.problem("serve replies differ for one recipe");
    part.replyBytes += load.replyBytes;
    part.replies += load.attempted - load.failed;
    {
        Span trips(rec, "serve.warm_round_trips");
        const std::vector<double> us = harness->warmRoundTrips(200);
        part.roundTripUs.insert(part.roundTripUs.end(), us.begin(),
                                us.end());
    }
    part.counters = harness->counters();

    // The /predict core without sockets, on its own pipeline and cache.
    const uint32_t id = harness->stream().initialPool().front();
    const std::string body = harness->stream().recipe(id).body();
    zatel::service::ArtifactCache cache(1ull << 28);
    zatel::service::PipelineParams pipelineParams;
    pipelineParams.workers = hardwareThreads();
    zatel::service::JobPipeline pipeline(cache, pipelineParams);
    zatel::serve::PredictService service(pipeline);
    const zatel::serve::PredictService::Reply cold = service.predict(body);
    if (cold.status != 200 || cold.body != harness->answeredBody(id))
        result.problem("PredictService reply differs from the server's");
    for (int i = 0; i < 200; ++i) {
        Span core(rec, "serve.predict_core");
        const zatel::serve::PredictService::Reply warm =
            service.predict(body);
        part.coreUs.push_back(core.stopMs() * 1000.0);
        if (warm.body != cold.body)
            result.problem("PredictService warm reply differs");
    }
    pipeline.drain();
}

template <typename T, typename F>
std::vector<double>
collect(const std::vector<T> &items, F field)
{
    std::vector<double> values;
    for (const T &item : items)
        values.push_back(field(item));
    return values;
}

} // namespace

RunResult
runTraced(const RunOptions &options)
{
    RunResult result;
    TraceRecorder recorder;
    recorder.enable();
    recorder.setThreadName("perfbench");
    TraceRecorder *rec = &recorder;

    const core::ZatelParams params = predictParkParams(options.seed);
    const gpusim::GpuConfig config = zatel::service::gpuConfigFromName("soc");
    const std::vector<zatel::service::CampaignJob> jobs =
        campaignSweepJobs(options.seed);
    const double serveSeconds = 2.0;

    const auto start = std::chrono::steady_clock::now();
    auto elapsed = [&start] {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start)
            .count();
    };
    PredictPart predict;
    CampaignPart campaign;
    ServePart serve;
    // A few predictions even without the emphasis: trace.overhead_pct
    // compares medians of untraced and traced runs.
    for (int i = 0; i < 3; ++i)
        runPredictPart(rec, predict, config, params, result);
    runCampaignPart(rec, campaign, jobs, options.outDir, result);
    if (options.workload == "serve-mixed") {
        runServePart(rec, serve, options.seed,
                     std::max(serveSeconds, options.seconds - elapsed()),
                     result);
    } else {
        runServePart(rec, serve, options.seed, serveSeconds, result);
        while (result.correct() && elapsed() < options.seconds) {
            if (options.workload == "predict-park")
                runPredictPart(rec, predict, config, params, result);
            else
                runCampaignPart(rec, campaign, jobs, options.outDir, result);
        }
    }
    recorder.disable();
    if (!predict.haveFirst || predict.stagewise.empty() ||
        campaign.reps.empty() || serve.coreUs.empty()) {
        result.problem("a traced part did not complete");
        return result;
    }

    // ---- rt, heatmap, zatel, gpusim: the stage-by-stage drive ----
    const std::vector<Stagewise> &sw = predict.stagewise;
    const Stagewise &last = sw.back();
    const double renderMs =
        median(collect(sw, [](const Stagewise &s) { return s.renderMs; }));
    const double runMs =
        median(collect(sw, [](const Stagewise &s) { return s.runMsSum; }));
    uint64_t cycles = 0, warpInst = 0, rtVisits = 0, l2 = 0, dram = 0;
    for (const gpusim::GpuStats &stats : last.groupStats) {
        cycles += stats.cycles;
        warpInst += stats.warpInstructions;
        rtVisits += stats.rtNodeVisits;
        l2 += stats.l2Accesses;
        dram += stats.dramBytesRead + stats.dramBytesWritten;
    }
    const double predictP50 = median(predict.predictMs);
    const double stagewiseP50 =
        median(collect(sw, [](const Stagewise &s) { return s.totalMs; }));
    const double oracleMs = predict.oracleBuildMs + predict.oracleRunMs;

    result.set("rt.scene_build_ms", median(predict.sceneMs));
    result.set("rt.bvh_build_ms", median(predict.bvhMs));
    result.set("rt.render_ms", renderMs);
    result.set("rt.render_rays", static_cast<double>(last.renderRays));
    result.set("rt.render_node_visits",
               static_cast<double>(last.renderNodeVisits));
    result.set("rt.render_ns_per_node_visit",
               renderMs * 1e6 / static_cast<double>(last.renderNodeVisits));
    result.set("heatmap.profile_ms",
               median(collect(sw, [](const Stagewise &s) {
                   return s.profileMs;
               })));
    result.set("heatmap.quantize_ms",
               median(collect(sw, [](const Stagewise &s) {
                   return s.quantizeMs;
               })));
    result.set("zatel.k", last.k);
    result.set("zatel.fraction_traced", last.fractionTraced);
    result.set("zatel.select_ms", median(collect(sw, [](const Stagewise &s) {
                   return s.selectMs;
               })));
    result.set("zatel.combine_ms", median(collect(sw, [](const Stagewise &s) {
                   return s.combineMs;
               })));
    result.set("zatel.group_critical_ms",
               median(collect(sw, [](const Stagewise &s) {
                   return s.criticalMs;
               })));
    result.set("zatel.group_parallel_efficiency",
               median(collect(sw, [](const Stagewise &s) {
                   return (s.buildMsSum + s.runMsSum) /
                          (static_cast<double>(s.threads) * s.simulateMs);
               })));
    result.set("zatel.speedup_vs_oracle", oracleMs / predictP50);
    result.set("zatel.mae_pct",
               core::maeOf(core::compareToOracle(predict.first.predicted,
                                                 predict.oracleStats)));
    result.set("gpusim.workload_build_ms",
               median(collect(sw, [](const Stagewise &s) {
                   return s.buildMsSum;
               })));
    result.set("gpusim.workload_rays", static_cast<double>(last.workloadRays));
    result.set("gpusim.run_ms", runMs);
    result.set("gpusim.oracle_build_ms", predict.oracleBuildMs);
    result.set("gpusim.oracle_run_ms", predict.oracleRunMs);
    result.set("gpusim.run_ns_per_cycle",
               runMs * 1e6 / static_cast<double>(cycles));
    result.set("gpusim.run_ns_per_warp_inst",
               runMs * 1e6 / static_cast<double>(warpInst));
    result.set("gpusim.cycles", static_cast<double>(cycles));
    result.set("gpusim.warp_instructions", static_cast<double>(warpInst));
    result.set("gpusim.rt_node_visits", static_cast<double>(rtVisits));
    result.set("gpusim.l2_accesses", static_cast<double>(l2));
    result.set("gpusim.dram_bytes", static_cast<double>(dram));
    result.set("gpusim.fast_forwarded_cycles",
               static_cast<double>(last.fastForwarded));
    result.set("gpusim.skipped_sm_ticks",
               static_cast<double>(last.skippedSmTicks));
    result.set("trace.overhead_pct",
               (stagewiseP50 - predictP50) / predictP50 * 100.0);

    // ---- service: the campaign repetitions ----
    const CampaignRep &rep = campaign.reps.back();
    const char *kinds[3] = {"scenepack", "heatmap", "oracle"};
    for (int kind = 0; kind < 3; ++kind) {
        result.set(std::string("service.") + kinds[kind] + "_hits",
                   static_cast<double>(rep.perKind[kind].hits));
        result.set(std::string("service.") + kinds[kind] + "_misses",
                   static_cast<double>(rep.perKind[kind].misses));
    }
    std::vector<double> preprocess, sim, oracle, doneMs, doneMax;
    for (const CampaignRep &r : campaign.reps) {
        double p = 0.0, s = 0.0, o = 0.0;
        for (const zatel::service::ResultRow &row : r.rows) {
            p += row.preprocessSeconds;
            s += row.simSeconds;
            o += row.oracleSeconds;
        }
        preprocess.push_back(p);
        sim.push_back(s);
        oracle.push_back(o);
        doneMs.push_back(median(r.doneMs));
        doneMax.push_back(*std::max_element(r.doneMs.begin(), r.doneMs.end()));
    }
    result.set("service.preprocess_s_sum", median(preprocess));
    result.set("service.sim_s_sum", median(sim));
    result.set("service.oracle_s_sum", median(oracle));
    result.set("service.job_done_p50_ms", median(doneMs));
    result.set("service.job_done_max_ms", median(doneMax));
    result.set("service.row_write_us", median(campaign.rowWriteUs));

    // ---- serve ----
    const double coreUs = median(serve.coreUs);
    result.set("serve.predict_core_warm_us", coreUs);
    result.set("serve.http_overhead_us", median(serve.roundTripUs) - coreUs);
    result.set("serve.simulated", static_cast<double>(serve.counters.simulated));
    result.set("serve.coalesced", static_cast<double>(serve.counters.coalesced));
    result.set("serve.cache_hits",
               static_cast<double>(serve.counters.cacheHits));
    result.set("serve.shed", static_cast<double>(serve.counters.shed));
    result.set("serve.reply_bytes",
               serve.replies == 0 ? 0.0
                                  : static_cast<double>(serve.replyBytes) /
                                        static_cast<double>(serve.replies));

    // ---- the trace itself ----
    const std::string tracePath = options.outDir + "/trace.json";
    if (!recorder.writeChromeTrace(tracePath)) {
        result.problem("could not write " + tracePath);
    } else {
        std::ifstream in(tracePath);
        std::stringstream text;
        text << in.rdbuf();
        for (const std::string &issue :
             zatel::obs::validateChromeTrace(text.str()))
            result.problem("trace.json: " + issue);
    }

    std::printf("traced run (%s emphasis): %zu stage-by-stage predictions, "
                "%zu campaign repetitions, %zu spans -> %s\n",
                options.workload.c_str(), sw.size(), campaign.reps.size(),
                recorder.eventCount(), tracePath.c_str());
    std::printf("  %-28s %8s %12s %12s\n", "span", "count", "total_ms",
                "self_ms");
    for (const auto &[name, totals] : spanTotals(recorder.snapshot())) {
        std::printf("  %-28s %8llu %12.3f %12.3f\n", name.c_str(),
                    static_cast<unsigned long long>(totals.count),
                    totals.totalUs / 1000.0, totals.selfUs / 1000.0);
    }
    printMetric("predict_untraced_p50_ms", predictP50, "ms");
    printMetric("predict_stagewise_p50_ms", stagewiseP50, "ms",
                "traced; difference is trace.overhead_pct");
    return result;
}

} // namespace perfbench
