#include "zatel/predictor.hh"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/metrics_registry.hh"
#include "obs/trace_recorder.hh"
#include "util/fault_injection.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "util/timer.hh"
#include "zatel/downscale.hh"

namespace zatel::core
{

namespace
{

/** Lazily-registered pipeline metrics (docs/OBSERVABILITY.md). All
 *  updates are no-ops while the global registry is disabled, and none
 *  of them feeds back into prediction state (the "observability must
 *  not change results" invariant, docs/CORRECTNESS.md). */
struct PredictorMetrics
{
    obs::Counter *predictions;
    obs::Counter *groupsSimulated;
    obs::Histogram *prepareSeconds;
    obs::Histogram *simulateSeconds;
    obs::Histogram *assembleSeconds;
    obs::Histogram *groupSeconds;
    obs::Histogram *groupCycles;
};

PredictorMetrics &
predictorMetrics()
{
    static PredictorMetrics metrics = [] {
        auto &reg = obs::MetricsRegistry::global();
        PredictorMetrics m;
        m.predictions = reg.counter("zatel_predictions_total",
                                    "Completed predict() pipelines");
        m.groupsSimulated =
            reg.counter("zatel_groups_simulated_total",
                        "Scale-model group simulations executed");
        const std::string stageName = "zatel_stage_seconds";
        const std::string stageHelp =
            "Wall-time of one predictor pipeline stage";
        m.prepareSeconds =
            reg.histogram(stageName, stageHelp,
                          obs::Histogram::timeBuckets(),
                          {{"stage", "prepare"}});
        m.simulateSeconds =
            reg.histogram(stageName, stageHelp,
                          obs::Histogram::timeBuckets(),
                          {{"stage", "simulate"}});
        m.assembleSeconds =
            reg.histogram(stageName, stageHelp,
                          obs::Histogram::timeBuckets(),
                          {{"stage", "assemble"}});
        m.groupSeconds = reg.histogram(
            "zatel_group_sim_seconds",
            "Wall-time per scale-model group simulation",
            obs::Histogram::timeBuckets());
        m.groupCycles = reg.histogram(
            "zatel_group_sim_cycles",
            "Simulated cycles per scale-model group run",
            obs::Histogram::cycleBuckets());
        return m;
    }();
    return metrics;
}

} // namespace

heatmap::QuantizedHeatmap
buildQuantizedHeatmap(const rt::Scene &scene, const rt::Bvh &bvh,
                      const ZatelParams &params, ThreadPool *pool,
                      rt::FrameRayRecord *rays)
{
    const rt::Tracer tracer(scene, bvh, {params.samplesPerPixel});
    rt::RenderResult render = [&] {
        ZATEL_TRACE_SCOPE("prepare.render");
        return tracer.render(params.width, params.height, pool, rays);
    }();
    heatmap::Heatmap map = [&] {
        ZATEL_TRACE_SCOPE("prepare.profile");
        return heatmap::profileRender(render, params.profiler);
    }();
    ZATEL_TRACE_SCOPE("prepare.quantize");
    return heatmap::QuantizedHeatmap::quantize(map, params.quantizeColors,
                                               params.seed);
}

std::map<gpusim::Metric, double>
OracleResult::metrics() const
{
    std::map<gpusim::Metric, double> values;
    for (gpusim::Metric metric : gpusim::allMetrics())
        values[metric] = stats.metricValue(metric);
    return values;
}

ZatelPredictor::ZatelPredictor(const rt::Scene &scene, const rt::Bvh &bvh,
                               const gpusim::GpuConfig &target_config,
                               const ZatelParams &params)
    : scene_(scene), bvh_(bvh), targetConfig_(target_config),
      params_(params), tracer_(scene, bvh, {params.samplesPerPixel})
{
    targetConfig_.validate();
    ZATEL_ASSERT(params_.width > 0 && params_.height > 0,
                 "image plane must be non-empty");
}

uint32_t
effectiveK(const ZatelParams &params, const gpusim::GpuConfig &target)
{
    if (params.forcedK)
        return std::max(1u, *params.forcedK);
    if (!params.downscaleGpu)
        return 1;
    return downscaleFactor(target);
}

uint32_t
ZatelPredictor::effectiveK() const
{
    return core::effectiveK(params_, targetConfig_);
}

void
ZatelPredictor::setPrebuiltHeatmap(
    heatmap::QuantizedHeatmap quantized,
    std::shared_ptr<const rt::FrameRayRecord> rays)
{
    ZATEL_ASSERT(!prepared_,
                 "cannot inject a heatmap after prepare() has run");
    ZATEL_ASSERT(quantized.width() == params_.width &&
                     quantized.height() == params_.height,
                 "injected heatmap size does not match the image plane");
    ZATEL_ASSERT(!rays || (rays->width == params_.width &&
                           rays->height == params_.height),
                 "injected frame ray record is for another image plane");
    quantized_ = std::move(quantized);
    frameRays_ = std::move(rays);
    hasPrebuiltHeatmap_ = true;
}

void
ZatelPredictor::throwIfCancelled() const
{
    if (cancelCheck_ && cancelCheck_())
        throw PredictionCancelled();
}

void
ZatelPredictor::prepare(ThreadPool *pool)
{
    if (prepared_)
        return;
    throwIfCancelled();

    ZATEL_TRACE_SCOPE("predict.prepare");
    WallTimer preprocess_timer;

    // Steps (1) + (2): heatmap + color quantization (skipped when a
    // cached artifact was injected). The render also records the frame's
    // rays, which the group and oracle workloads slice.
    if (!hasPrebuiltHeatmap_) {
        auto rays = std::make_shared<rt::FrameRayRecord>();
        quantized_ =
            buildQuantizedHeatmap(scene_, bvh_, params_, pool, rays.get());
        frameRays_ = std::move(rays);
    }
    throwIfCancelled();

    // Step (3): downscaling factor + config.
    k_ = effectiveK();
    groupConfig_ = (params_.downscaleGpu && k_ > 1)
                       ? downscaleConfig(targetConfig_, k_)
                       : targetConfig_;

    // Step (4): image-plane division.
    {
        ZATEL_TRACE_SCOPE("prepare.partition");
        groups_ = divideImagePlane(params_.width, params_.height, k_,
                                   params_.partition);
    }

    // Step (5): representative pixels per group.
    ZATEL_TRACE_SCOPE("prepare.select");
    Rng rng(params_.seed);
    selections_.clear();
    selections_.reserve(groups_.size());
    for (const PixelGroup &group : groups_) {
        Rng group_rng = rng.split();
        selections_.push_back(selectRepresentativePixels(
            group, quantized_, params_.selector, group_rng));
    }

    // With regression extrapolation each group is simulated at each
    // regression fraction.
    fractionsToRun_.clear();
    if (params_.extrapolation == ExtrapolationMethod::ExponentialRegression)
        fractionsToRun_ = params_.regressionFractions;

    preprocessSeconds_ = preprocess_timer.elapsedSeconds();
    predictorMetrics().prepareSeconds->observe(preprocessSeconds_);
    prepared_ = true;
}

size_t
ZatelPredictor::groupCount() const
{
    ZATEL_ASSERT(prepared_, "groupCount() requires prepare()");
    return groups_.size();
}

ZatelPredictor::GroupTask
ZatelPredictor::runGroupTask(size_t group_index) const
{
    ZATEL_ASSERT(prepared_, "runGroupTask() requires prepare()");
    ZATEL_ASSERT(group_index < groups_.size(), "group index out of range");
    throwIfCancelled();

    GroupTask task;
    const size_t g = group_index;
    if (fractionsToRun_.empty()) {
        task.primary = simulateGroup(static_cast<uint32_t>(g), groups_[g],
                                     selections_[g], groupConfig_);
        return task;
    }
    // Regression mode: re-select at each fraction with a fixed budget,
    // simulate, and keep all runs.
    for (double fraction : fractionsToRun_) {
        throwIfCancelled();
        SelectorParams sel = params_.selector;
        sel.fixedFraction = fraction;
        Rng frac_rng(params_.seed ^ (static_cast<uint64_t>(g) << 20) ^
                     static_cast<uint64_t>(fraction * 1e6));
        Selection selection = selectRepresentativePixels(
            groups_[g], quantized_, sel, frac_rng);
        task.regressionRuns.push_back(simulateGroup(
            static_cast<uint32_t>(g), groups_[g], selection, groupConfig_));
    }
    // Expose the largest-fraction run as the group result.
    task.primary = task.regressionRuns.back();
    return task;
}

ZatelPredictor::GroupTask
ZatelPredictor::failedGroupTask(size_t group_index,
                                const std::string &reason) const
{
    ZATEL_ASSERT(prepared_, "failedGroupTask() requires prepare()");
    ZATEL_ASSERT(group_index < groups_.size(), "group index out of range");
    GroupTask task;
    task.primary.groupIndex = static_cast<uint32_t>(group_index);
    task.primary.pixels = groups_[group_index].size();
    task.primary.selectedPixels = 0;
    task.primary.fractionTraced = 0.0;
    task.primary.failed = true;
    task.primary.error = reason;
    return task;
}

ZatelPredictor::GroupTask
ZatelPredictor::runGroupTaskResilient(size_t group_index) const
{
    const uint32_t max_attempts = params_.groupRetries + 1;
    std::string last_error;
    for (uint32_t attempt = 1; attempt <= max_attempts; ++attempt) {
        try {
            // Fault site: group simulation fails on entry (keyed by
            // group so prob: policies fail a deterministic subset).
            ZATEL_INJECT_FAULT_KEYED("group.sim", group_index);
            GroupTask task = runGroupTask(group_index);
            task.primary.attempts = attempt;
            return task;
        } catch (const PredictionCancelled &) {
            // Cancellation (campaign shutdown, timeout, watchdog) is
            // not a fault: propagate so the caller can classify it.
            throw;
        } catch (const std::exception &e) {
            last_error = e.what();
        } catch (...) {
            last_error = "unknown error";
        }
        if (attempt < max_attempts)
            retryBackoffSleep(attempt);
    }
    GroupTask task = failedGroupTask(group_index, last_error);
    task.primary.attempts = max_attempts;
    return task;
}

ZatelResult
ZatelPredictor::assemble(std::vector<GroupTask> tasks,
                         double sim_wall_seconds) const
{
    ZATEL_ASSERT(prepared_, "assemble() requires prepare()");
    ZATEL_ASSERT(tasks.size() == groups_.size(),
                 "assemble() needs one task result per group");
    throwIfCancelled();

    ZATEL_TRACE_SCOPE("predict.assemble");
    WallTimer assemble_timer;
    ZatelResult result;
    result.preprocessWallSeconds = preprocessSeconds_;
    result.simWallSeconds = sim_wall_seconds;
    result.k = k_;

    result.groups.reserve(tasks.size());
    for (GroupTask &task : tasks)
        result.groups.push_back(std::move(task.primary));
    for (const GroupResult &group : result.groups) {
        result.maxGroupWallSeconds =
            std::max(result.maxGroupWallSeconds, group.wallSeconds);
        result.maxGroupCpuSeconds =
            std::max(result.maxGroupCpuSeconds, group.cpuSeconds);
    }

    // Resilience budget (docs/ROBUSTNESS.md): failed groups are
    // excluded from the combine step when enough survive; otherwise
    // the prediction as a whole fails.
    std::string first_error;
    for (const GroupResult &group : result.groups) {
        if (!group.failed)
            continue;
        result.failedGroups.push_back(group.groupIndex);
        if (first_error.empty())
            first_error = group.error;
    }
    if (!result.failedGroups.empty()) {
        const size_t total = result.groups.size();
        const size_t survivors = total - result.failedGroups.size();
        const double survivor_fraction =
            static_cast<double>(survivors) / static_cast<double>(total);
        if (params_.failFast || survivors == 0 ||
            survivor_fraction < params_.minGroupsFraction) {
            throw GroupFailureError(
                "zatel: " + std::to_string(result.failedGroups.size()) +
                    " of " + std::to_string(total) +
                    " groups failed (survivor fraction " +
                    std::to_string(survivor_fraction) + " below " +
                    std::to_string(params_.minGroupsFraction) +
                    (params_.failFast ? ", fail-fast" : "") +
                    "); first error: " + first_error,
                result.failedGroups);
        }
        result.degraded = true;
        warn("zatel: assembling degraded prediction from ", survivors,
             " of ", total, " groups; first error: ", first_error);
    }

    // Step (7): extrapolate per surviving group, then combine across
    // the survivors.
    const std::vector<gpusim::Metric> &metrics = gpusim::allMetrics();
    for (size_t g = 0; g < result.groups.size(); ++g) {
        GroupResult &group = result.groups[g];
        if (group.failed)
            continue;
        if (fractionsToRun_.empty()) {
            double fraction = std::max(group.fractionTraced, 1e-9);
            group.extrapolated =
                extrapolateAllLinear(group.stats, fraction);
        } else {
            group.extrapolated.clear();
            for (gpusim::Metric metric : metrics) {
                std::vector<double> xs, ys;
                for (size_t r = 0; r < fractionsToRun_.size(); ++r) {
                    xs.push_back(fractionsToRun_[r]);
                    ys.push_back(tasks[g].regressionRuns[r].stats.metricValue(
                        metric));
                }
                group.extrapolated.push_back(
                    extrapolateRegression(xs, ys));
            }
        }
    }

    uint64_t selected_total = 0;
    uint64_t pixels_total = 0;
    uint64_t survivor_pixels = 0;
    for (const GroupResult &group : result.groups) {
        selected_total += group.selectedPixels;
        pixels_total += group.pixels;
        if (!group.failed)
            survivor_pixels += group.pixels;
    }
    result.fractionTraced =
        pixels_total == 0 ? 0.0
                          : static_cast<double>(selected_total) /
                                static_cast<double>(pixels_total);
    // Sum-rule metrics (throughput across concurrent slices) lose the
    // failed slices' contribution; scale by the surviving pixel share
    // so a degraded prediction still estimates the whole machine.
    result.survivorExtrapolation =
        (result.degraded && survivor_pixels > 0)
            ? static_cast<double>(pixels_total) /
                  static_cast<double>(survivor_pixels)
            : 1.0;

    for (size_t m = 0; m < metrics.size(); ++m) {
        std::vector<double> group_values;
        group_values.reserve(result.groups.size());
        for (const GroupResult &group : result.groups) {
            if (!group.failed)
                group_values.push_back(group.extrapolated[m]);
        }
        double combined = combineMetric(metrics[m], group_values);
        // Guarded by `degraded` (not just a *1.0) so the zero-fault
        // path's arithmetic is untouched — the byte-identity contract.
        if (result.degraded && combineRuleFor(metrics[m]) == CombineRule::Sum)
            combined *= result.survivorExtrapolation;
        result.predicted[metrics[m]] = combined;
    }
    predictorMetrics().assembleSeconds->observe(
        assemble_timer.elapsedSeconds());
    return result;
}

bool
ZatelPredictor::simulationMustStop(size_t group_index) const
{
    return (cancelCheck_ && cancelCheck_()) ||
           (simStopped_ && simStopped_(group_index));
}

void
ZatelPredictor::installWatchdogProbe(gpusim::Gpu &gpu,
                                     size_t group_index) const
{
    gpu.setProgressCallback(
        simProbeInterval_,
        [this, group_index](uint64_t cycle, const gpusim::GpuStats &) {
            // Fault site: the instance stops making progress. The
            // emulated hang reports no further heartbeats and waits to
            // be stopped — to the watchdog it looks exactly like a
            // real livelock. Without a cancel hook or a stop query
            // there is nobody to break the hang, so it degrades to a
            // thrown fault.
            if (ZATEL_FAULT_SITE("group.sim.stall")
                    ->shouldFire(static_cast<uint64_t>(group_index))) {
                if (!cancelCheck_ && !simStopped_)
                    throw FaultInjectedError("group.sim.stall");
                while (!simulationMustStop(group_index)) {
                    // zatel-lint: allow(blocking-in-task): emulated hang
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
                }
                return true;
            }
            if (simHeartbeat_)
                simHeartbeat_(group_index, cycle);
            return simulationMustStop(group_index);
        });
}

GroupResult
ZatelPredictor::simulateGroup(uint32_t group_index, const PixelGroup &group,
                              const Selection &selection,
                              const gpusim::GpuConfig &config) const
{
    GroupResult result;
    result.groupIndex = group_index;
    result.pixels = group.size();
    result.selectedPixels = selection.selectedCount;
    result.fractionTraced = selection.actualFraction;

    ZATEL_TRACE_SCOPE("sim.group", static_cast<int64_t>(group_index));
    WallTimer timer;
    ThreadCpuTimer cpu_timer;
    // Fault site: the instance dies after workload construction but
    // before (conceptually: during) the simulation itself.
    ZATEL_INJECT_FAULT_KEYED("group.sim.midrun", group_index);
    gpusim::SimWorkload workload = [&] {
        ZATEL_TRACE_SCOPE("sim.workload", static_cast<int64_t>(group_index));
        // Slice the frame ray record when there is one (this predictor
        // rendered the frame, or the record came with the injected
        // heatmap); otherwise the group's selected pixels are traced here.
        return gpusim::SimWorkload::build(tracer_, params_.width,
                                          params_.height, group,
                                          &selection.mask, frameRays_);
    }();
    gpusim::Gpu gpu(config, workload);
    if (simProbeInterval_ > 0) {
        installWatchdogProbe(gpu, group_index);
        result.stats = gpu.run();
        // The probe's cancel poll stops the run early; surface that as
        // a cancellation so the watchdog layer can classify it.
        if (gpu.stoppedEarly())
            throw PredictionCancelled();
    } else {
        result.stats = gpu.run();
    }
    result.wallSeconds = timer.elapsedSeconds();
    result.cpuSeconds = cpu_timer.elapsedSeconds();

    PredictorMetrics &metrics = predictorMetrics();
    metrics.groupsSimulated->inc();
    metrics.groupSeconds->observe(result.wallSeconds);
    metrics.groupCycles->observe(
        static_cast<double>(result.stats.cycles));
    return result;
}

ZatelResult
ZatelPredictor::predict()
{
    ZATEL_TRACE_SCOPE("predict");

    // One pool runs the render's row bands in step (1) and the K group
    // simulations in step (6): numThreads workers, by default one per
    // hardware thread.
    ThreadPool pool(params_.numThreads);

    // Steps (1)-(5).
    prepare(&pool);

    // Step (6): concurrent simulation of the K groups.
    std::vector<GroupTask> tasks(groups_.size());
    WallTimer sim_timer;
    {
        ZATEL_TRACE_SCOPE("predict.simulate",
                          static_cast<int64_t>(groups_.size()));
        // grain 0 = automatic: one task per group while K <= 4x workers
        // (each instance is heavy and run in isolation), degrading to
        // range-chunked submission when a sweep forces K far above the
        // worker count, which cuts queue-lock contention.
        pool.parallelForChunked(groups_.size(), 0, [&](size_t g) {
            tasks[g] = runGroupTaskResilient(g);
        });
    }
    const double sim_seconds = sim_timer.elapsedSeconds();
    predictorMetrics().simulateSeconds->observe(sim_seconds);
    predictorMetrics().predictions->inc();

    // Step (7).
    return assemble(std::move(tasks), sim_seconds);
}

OracleResult
ZatelPredictor::runOracle(gpusim::StatsReport *report) const
{
    OracleResult oracle;
    ZATEL_TRACE_SCOPE("oracle.run");
    WallTimer timer;
    ThreadCpuTimer cpu_timer;
    gpusim::SimWorkload workload = [&] {
        ZATEL_TRACE_SCOPE("oracle.workload");
        // A slice of the whole record when there is one; otherwise every
        // pixel is traced here, on this thread.
        return gpusim::SimWorkload::buildFullFrame(
            tracer_, params_.width, params_.height, frameRays_);
    }();
    gpusim::Gpu gpu(targetConfig_, workload);
    if (simProbeInterval_ > 0) {
        // The oracle is watchdogged like any group; it reports the
        // sentinel group index SIZE_MAX on the heartbeat.
        installWatchdogProbe(gpu, SIZE_MAX);
        oracle.stats = gpu.run();
        if (gpu.stoppedEarly())
            throw PredictionCancelled();
    } else {
        oracle.stats = gpu.run();
    }
    oracle.wallSeconds = timer.elapsedSeconds();
    oracle.cpuSeconds = cpu_timer.elapsedSeconds();
    if (report)
        *report = gpu.statsReport();
    return oracle;
}

} // namespace zatel::core
