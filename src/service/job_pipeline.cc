#include "service/job_pipeline.hh"

#include <algorithm>
#include <exception>
#include <new>
#include <stdexcept>
#include <utility>

#include "obs/metrics_registry.hh"
#include "obs/trace_recorder.hh"
#include "rt/scene_library.hh"
#include "util/fault_injection.hh"
#include "util/logging.hh"
#include "util/timer.hh"
#include "zatel/predictor.hh"

namespace zatel::service
{

namespace
{

/** Lazily-registered campaign metrics (docs/OBSERVABILITY.md). The
 *  group_units_skipped counter doubles as the cancellation witness for
 *  SchedulerTimeout.CancelsPendingStages: a timed-out job's pending
 *  group units must land here instead of simulating. */
struct PipelineMetrics
{
    obs::Counter *unitsStart;
    obs::Counter *unitsPrepare;
    obs::Counter *unitsOracle;
    obs::Counter *unitsGroup;
    obs::Counter *unitsFinalize;
    obs::Counter *parkedHeatmap;
    obs::Counter *parkedOracle;
    obs::Counter *groupUnitsSkipped;
    obs::Counter *jobsOk;
    obs::Counter *jobsDegraded;
    obs::Counter *jobsFailed;
    obs::Counter *jobsCancelled;
    obs::Counter *jobsTimedOut;
    obs::Counter *stallCancellations;
};

PipelineMetrics &
pipelineMetrics()
{
    static PipelineMetrics metrics = [] {
        auto &reg = obs::MetricsRegistry::global();
        PipelineMetrics m;
        const std::string unitName = "zatel_campaign_units_total";
        const std::string unitHelp =
            "Campaign scheduler stage units executed";
        m.unitsStart =
            reg.counter(unitName, unitHelp, {{"stage", "start"}});
        m.unitsPrepare =
            reg.counter(unitName, unitHelp, {{"stage", "prepare"}});
        m.unitsOracle =
            reg.counter(unitName, unitHelp, {{"stage", "oracle"}});
        m.unitsGroup =
            reg.counter(unitName, unitHelp, {{"stage", "group"}});
        m.unitsFinalize =
            reg.counter(unitName, unitHelp, {{"stage", "finalize"}});
        const std::string parkedName = "zatel_campaign_parked_total";
        const std::string parkedHelp =
            "Jobs that parked on an artifact another job was building, "
            "releasing their worker until the build landed";
        m.parkedHeatmap =
            reg.counter(parkedName, parkedHelp, {{"kind", "heatmap"}});
        m.parkedOracle =
            reg.counter(parkedName, parkedHelp, {{"kind", "oracle"}});
        m.groupUnitsSkipped = reg.counter(
            "zatel_campaign_group_units_skipped_total",
            "Group units skipped because their job was already "
            "broken (failed / cancelled / timed out)");
        const std::string jobName = "zatel_campaign_jobs_total";
        const std::string jobHelp =
            "Campaign jobs finished, by terminal status";
        m.jobsOk = reg.counter(jobName, jobHelp, {{"status", "ok"}});
        m.jobsDegraded =
            reg.counter(jobName, jobHelp, {{"status", "degraded"}});
        m.jobsFailed =
            reg.counter(jobName, jobHelp, {{"status", "failed"}});
        m.jobsCancelled =
            reg.counter(jobName, jobHelp, {{"status", "cancelled"}});
        m.jobsTimedOut =
            reg.counter(jobName, jobHelp, {{"status", "timed_out"}});
        m.stallCancellations = reg.counter(
            "zatel_campaign_stall_cancellations_total",
            "Simulations the watchdog stopped because they made no "
            "simulated-cycle progress");
        return m;
    }();
    return metrics;
}

/** Monotonic now in nanoseconds (watchdog heartbeat timestamps). */
uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** A progress slot's value once the watchdog found its heartbeat stale
 *  (JobState::progressNs); no heartbeat timestamp reaches it. */
constexpr uint64_t kStalledSlot = UINT64_MAX;

} // namespace

JobPipeline::JobPipeline(ArtifactCache &cache, PipelineParams params)
    : cache_(cache), params_(std::move(params)), pool_(params_.workers)
{
    if (params_.stallTimeoutSeconds > 0.0)
        watchdogThread_ = std::thread([this]() { watchdogLoop(); });
}

JobPipeline::~JobPipeline()
{
    drain();
    if (watchdogThread_.joinable()) {
        watchdogStop_.store(true);
        watchdogThread_.join();
    }
}

void
JobPipeline::submit(Submission submission)
{
    if (!accepting_.load(std::memory_order_acquire))
        throw std::runtime_error(
            "JobPipeline::submit() after drain() started");
    auto state = std::make_unique<JobState>();
    state->job = std::move(submission.job);
    state->timeoutSeconds = submission.timeoutSeconds;
    state->done = std::move(submission.done);
    JobState *s = state.get();
    {
        std::lock_guard<std::mutex> guard(jobsMutex_);
        jobs_.push_back(std::move(state));
    }
    enqueueUnit(s->job.priority, Rank::Control,
                [this, s]() { runStartUnit(*s); });
}

void
JobPipeline::waitIdle()
{
    {
        std::unique_lock<std::mutex> lock(jobsMutex_);
        jobsIdle_.wait(lock, [this]() { return jobs_.empty(); });
    }
    // The unit that finished the last job may still be returning.
    pool_.waitAll();
}

void
JobPipeline::drain()
{
    accepting_.store(false, std::memory_order_release);
    waitIdle();
}

size_t
JobPipeline::pendingJobs() const
{
    std::lock_guard<std::mutex> guard(jobsMutex_);
    return jobs_.size();
}

bool
JobPipeline::pipelineCancelled() const
{
    return params_.cancelled && params_.cancelled();
}

bool
JobPipeline::deadlineExceeded(const JobState &state)
{
    return state.hasDeadline &&
           std::chrono::steady_clock::now() > state.deadline;
}

bool
JobPipeline::jobShouldStop(const JobState &state) const
{
    return pipelineCancelled() || deadlineExceeded(state);
}

void
JobPipeline::simEnter(JobState &state, size_t slot)
{
    // A fresh simulation replaces its predecessor's value, stalled mark
    // included: the heartbeat baseline is now.
    state.progressNs[slot].store(nowNs(), std::memory_order_relaxed);
}

void
JobPipeline::simExit(JobState &state, size_t slot)
{
    state.progressNs[slot].store(0, std::memory_order_relaxed);
}

bool
JobPipeline::slotStalled(const JobState &state, size_t slot)
{
    return state.progressNs[slot].load(std::memory_order_relaxed) ==
           kStalledSlot;
}

void
JobPipeline::watchdogLoop()
{
    const uint64_t timeout_ns = static_cast<uint64_t>(
        params_.stallTimeoutSeconds * 1e9);
    const auto tick = std::chrono::milliseconds(std::max<int64_t>(
        1, std::min<int64_t>(
               50, static_cast<int64_t>(
                       params_.stallTimeoutSeconds * 1000.0 / 4.0))));
    while (!watchdogStop_.load(std::memory_order_relaxed)) {
        // The watchdog runs on its own dedicated thread, not a pool
        // worker; sleeping for one tick IS its duty cycle.
        // zatel-lint: allow(blocking-in-task): watchdog duty cycle
        std::this_thread::sleep_for(tick);
        const uint64_t now = nowNs();
        std::lock_guard<std::mutex> guard(jobsMutex_);
        for (const auto &job : jobs_) {
            JobState &state = *job;
            // progressSlots (release-stored after the array alloc)
            // publishes progressNs to this thread.
            const size_t slots =
                state.progressSlots.load(std::memory_order_acquire);
            for (size_t i = 0; i < slots; ++i) {
                std::atomic<uint64_t> &slot = state.progressNs[i];
                uint64_t ts = slot.load(std::memory_order_relaxed);
                if (ts == 0 || ts == kStalledSlot || now <= ts ||
                    now - ts <= timeout_ns)
                    continue;
                // A heartbeat or a fresh simulation that lands in
                // between wins: only the stale value is replaced.
                if (!slot.compare_exchange_strong(ts, kStalledSlot,
                                                  std::memory_order_relaxed))
                    continue;
                pipelineMetrics().stallCancellations->inc();
                warn("campaign job '", state.job.id,
                     "': watchdog: no simulated-cycle progress in ",
                     i + 1 == slots ? std::string("the oracle run")
                                    : "group " + std::to_string(i),
                     " for over ", params_.stallTimeoutSeconds,
                     "s; stopping that simulation for retry");
            }
        }
    }
}

void
JobPipeline::enqueueUnit(int priority, Rank rank, std::function<void()> fn)
{
    // The pool starts the highest key first: job priority, then rank.
    const int64_t key = static_cast<int64_t>(priority) * 3 +
                        static_cast<int64_t>(rank);
    pool_.submit(
        [unit_fn = std::move(fn)]() {
            // "pool.task" fault site: models a worker that failed to
            // pick up a unit. A lost unit would strand the job
            // (unitsRemaining never reaches zero), so the recovery is
            // bounded backoff and then running the unit regardless.
            for (uint32_t attempt = 1; attempt <= 3; ++attempt) {
                if (!ZATEL_FAULT_SITE("pool.task")->shouldFire())
                    break;
                if (attempt == 3)
                    break;
                retryBackoffSleep(attempt);
            }
            try {
                unit_fn();
            } catch (const std::exception &err) {
                // Units handle their own failures; an escape here is a
                // bug, but eating it beats terminating the pool worker.
                warn("campaign: stage unit leaked an exception: ",
                     err.what());
            } catch (...) {
                warn("campaign: stage unit leaked an unknown exception");
            }
        },
        key);
}

void
JobPipeline::markBroken(JobState &state, JobStatus status,
                        const std::string &message)
{
    std::lock_guard<std::mutex> guard(state.errorMutex);
    if (state.broken.load())
        return;
    state.terminalStatus = status;
    state.errorMessage = message;
    state.broken.store(true);
}

void
JobPipeline::finishJob(JobState &state, ResultRow row)
{
    switch (row.status) {
    case JobStatus::Ok:
        pipelineMetrics().jobsOk->inc();
        break;
    case JobStatus::Degraded:
        pipelineMetrics().jobsDegraded->inc();
        break;
    case JobStatus::Failed:
        pipelineMetrics().jobsFailed->inc();
        break;
    case JobStatus::Cancelled:
        pipelineMetrics().jobsCancelled->inc();
        break;
    case JobStatus::TimedOut:
        pipelineMetrics().jobsTimedOut->inc();
        break;
    case JobStatus::Skipped:
        break;
    }
    if (state.done)
        state.done(row);
    std::unique_ptr<JobState> owned;
    {
        std::lock_guard<std::mutex> guard(jobsMutex_);
        auto it = std::find_if(jobs_.begin(), jobs_.end(),
                               [&state](const std::unique_ptr<JobState> &s) {
                                   return s.get() == &state;
                               });
        owned = std::move(*it);
        jobs_.erase(it);
        if (jobs_.empty())
            jobsIdle_.notify_all();
    }
    // The heavyweight state (predictor, scene pack) is freed here,
    // outside the lock the watchdog takes.
}

void
JobPipeline::runStartUnit(JobState &state, uint32_t backoff_attempt)
{
    if (backoff_attempt > 0)
        retryBackoffSleep(backoff_attempt);
    ZATEL_TRACE_SCOPE("job.start");
    pipelineMetrics().unitsStart->inc();
    if (state.startAttempts == 0) {
        // First attempt only: a retried start stage must not extend
        // the job's wall-clock budget.
        state.startTime = std::chrono::steady_clock::now();
        if (state.timeoutSeconds > 0.0) {
            state.hasDeadline = true;
            state.deadline =
                state.startTime +
                std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(state.timeoutSeconds));
        }
    }

    try {
        if (jobShouldStop(state))
            throw core::PredictionCancelled();

        const rt::SceneId scene_id = resolveSceneName(state.job.scene);
        state.config = gpuConfigFromName(state.job.gpu);
        const CampaignJob &job = state.job;

        // Stage: scene + BVH, built once per recipe across all jobs.
        const uint64_t pack_key =
            scenePackKey(rt::sceneName(scene_id), job.sceneDetail,
                         job.sceneSeed, job.bvh);
        state.pack = cache_.getOrBuild<ScenePack>(
            ArtifactKind::ScenePack, pack_key,
            [&]() -> std::pair<std::shared_ptr<const ScenePack>, uint64_t> {
                ZATEL_INJECT_FAULT("scene.pack.build");
                // Heap-allocate and build the BVH in place: the Bvh keeps
                // a pointer into the scene's triangle vector, so the pack
                // must never be moved after build().
                auto pack = std::make_shared<ScenePack>();
                rt::SceneDetail detail;
                detail.density = job.sceneDetail;
                pack->scene =
                    rt::buildScene(scene_id, detail, job.sceneSeed);
                pack->bvh.build(pack->scene.triangles(), job.bvh);
                pack->contentHash = hashSceneContent(pack->scene);
                const uint64_t bytes = pack->approxBytes();
                return {std::shared_ptr<const ScenePack>(std::move(pack)),
                        bytes};
            });

        state.predictor = std::make_unique<core::ZatelPredictor>(
            state.pack->scene, state.pack->bvh, state.config, job.params);
        state.predictor->setCancelCheck(
            [this, s = &state]() { return jobShouldStop(*s); });

        // Stage: heatmap profile + quantize, once per content key. When
        // another job is building it, park on that build: this worker
        // goes back to the pool and a prepare unit resumes the job.
        const uint64_t map_key =
            heatmapKey(state.pack->contentHash, job.bvh, job.params);
        std::shared_ptr<const HeatmapArtifact> artifact =
            cache_.getOrPark<HeatmapArtifact>(
                ArtifactKind::QuantizedHeatmap, map_key,
                [&]() -> std::pair<std::shared_ptr<const HeatmapArtifact>,
                                   uint64_t> {
                    ZATEL_INJECT_FAULT("heatmap.build");
                    // Rendered without a pool: this stage is itself a
                    // unit on the shared scheduler pool, whose workers
                    // run other jobs' units. A nested parallel loop
                    // would help-run their group simulations here. The
                    // render records the frame's rays, which every job
                    // served this entry from memory slices for its group
                    // and oracle workloads instead of tracing again.
                    auto result = std::make_shared<HeatmapArtifact>();
                    auto rays = std::make_shared<rt::FrameRayRecord>();
                    result->map = core::buildQuantizedHeatmap(
                        state.pack->scene, state.pack->bvh, job.params,
                        nullptr, rays.get());
                    result->rays = std::move(rays);
                    const uint64_t bytes = result->approxBytes();
                    return {result, bytes};
                },
                [this, s = &state](
                    std::shared_ptr<const HeatmapArtifact> value,
                    std::exception_ptr failure) {
                    // The builder's failure costs this job a start
                    // attempt, as it costs the builder's job one. It is
                    // handled here, on the builder's thread, so the
                    // exception never leaves the thread that threw it.
                    if (failure) {
                        failStartStage(*s, failure);
                        return;
                    }
                    enqueueUnit(s->job.priority, Rank::Control,
                                [this, s, value = std::move(value)]() {
                                    runPrepareUnit(*s, *value);
                                });
                });
        if (!artifact) {
            // Parked: the prepare unit owns the job from here on.
            pipelineMetrics().parkedHeatmap->inc();
            return;
        }
        fanOut(state, *artifact);
    } catch (...) {
        failStartStage(state, std::current_exception());
    }
}

void
JobPipeline::runPrepareUnit(JobState &state,
                            const HeatmapArtifact &artifact)
{
    ZATEL_TRACE_SCOPE("job.prepare");
    pipelineMetrics().unitsPrepare->inc();
    try {
        fanOut(state, artifact);
    } catch (...) {
        failStartStage(state, std::current_exception());
    }
}

void
JobPipeline::fanOut(JobState &state, const HeatmapArtifact &artifact)
{
    // A heatmap loaded from disk has no frame ray record; the job's
    // workloads then trace their pixels.
    state.predictor->setPrebuiltHeatmap(artifact.map, artifact.rays);
    state.predictor->prepare();

    // Fan the oracle and the K group simulations out as priority units.
    const size_t group_count = state.predictor->groupCount();
    state.tasks.resize(group_count);
    state.groupAttempts.assign(group_count, 0);
    if (params_.stallTimeoutSeconds > 0.0) {
        // One progress slot per group plus one for the oracle, all 0
        // (make_unique value-initializes); the release store on
        // progressSlots publishes the array to the watchdog thread.
        const size_t slots = group_count + 1;
        state.progressNs = std::make_unique<std::atomic<uint64_t>[]>(slots);
        state.progressSlots.store(slots, std::memory_order_release);
        // The oracle run reports group index SIZE_MAX.
        const auto slot_of = [group_count](size_t group_index) {
            return group_index == SIZE_MAX ? group_count : group_index;
        };
        state.predictor->setSimulationProbe(
            params_.probeIntervalCycles,
            [s = &state, slot_of](size_t group_index, uint64_t) {
                std::atomic<uint64_t> &slot =
                    s->progressNs[slot_of(group_index)];
                // A marked slot stays marked: the heartbeat only
                // replaces a timestamp.
                uint64_t seen = slot.load(std::memory_order_relaxed);
                while (seen != kStalledSlot &&
                       !slot.compare_exchange_weak(
                           seen, nowNs(), std::memory_order_relaxed)) {
                }
            },
            [s = &state, slot_of](size_t group_index) {
                return slotStalled(*s, slot_of(group_index));
            });
    }
    const int priority = state.job.priority;
    const bool with_oracle = state.job.withOracle;
    state.unitsRemaining.store(group_count + (with_oracle ? 1 : 0));
    state.simStartNs = nowNs();
    if (with_oracle) {
        enqueueUnit(priority, Rank::Oracle,
                    [this, s = &state]() { runOracleUnit(*s); });
    }
    for (size_t g = 0; g < group_count; ++g) {
        enqueueUnit(priority, Rank::Group,
                    [this, s = &state, g]() { runGroupUnit(*s, g); });
    }
}

void
JobPipeline::failStartStage(JobState &state, std::exception_ptr error)
{
    ResultRow row;
    row.jobId = state.job.id;
    row.scene = state.pack ? state.pack->scene.name() : state.job.scene;
    row.gpu = state.job.gpu;
    try {
        std::rethrow_exception(error);
    } catch (const core::PredictionCancelled &) {
        const bool timed_out = deadlineExceeded(state) &&
                               !pipelineCancelled();
        row.status =
            timed_out ? JobStatus::TimedOut : JobStatus::Cancelled;
        row.error = timed_out ? "job timeout during preprocessing"
                              : "campaign cancelled";
    } catch (const CampaignError &err) {
        // Configuration problems (unknown scene/GPU) are permanent:
        // retrying cannot fix a typo.
        row.status = JobStatus::Failed;
        row.error = err.what();
    } catch (const std::bad_alloc &err) {
        // The recipe's size caused it: a retry repeats the allocation.
        row.status = JobStatus::Failed;
        row.error = err.what();
    } catch (const std::exception &err) {
        // Possibly-transient failure (I/O, injected fault): retry the
        // whole start stage with deterministic backoff, slept by the
        // retry unit (this may run on another job's builder thread).
        if (state.startAttempts < params_.stageRetries) {
            const uint32_t attempt = ++state.startAttempts;
            warn("campaign job '", state.job.id,
                 "': start stage failed (", err.what(), "); retry ",
                 attempt, "/", params_.stageRetries);
            enqueueUnit(state.job.priority, Rank::Control,
                        [this, s = &state, attempt]() {
                            runStartUnit(*s, attempt);
                        });
            return;
        }
        row.status = JobStatus::Failed;
        row.error = err.what();
    } catch (...) {
        row.status = JobStatus::Failed;
        row.error = "start stage failed with an unknown exception";
    }
    finishJob(state, std::move(row));
}

void
JobPipeline::runOracleUnit(JobState &state, uint32_t backoff_attempt)
{
    if (backoff_attempt > 0)
        retryBackoffSleep(backoff_attempt);
    ZATEL_TRACE_SCOPE("job.oracle");
    pipelineMetrics().unitsOracle->inc();
    if (state.broken.load()) {
        // Dropped without simulating, like a broken job's group units.
        unitLanded(state);
        return;
    }

    const bool watchdog_on = params_.stallTimeoutSeconds > 0.0;
    const size_t slot = state.predictor->groupCount();
    WallTimer timer;
    std::shared_ptr<const gpusim::GpuStats> stats;
    std::exception_ptr error;
    try {
        stats = cache_.getOrPark<gpusim::GpuStats>(
            ArtifactKind::OracleStats,
            oracleKey(state.pack->contentHash, state.job.bvh, state.config,
                      state.job.params),
            [&]() -> std::pair<std::shared_ptr<const gpusim::GpuStats>,
                               uint64_t> {
                ZATEL_INJECT_FAULT("oracle.run");
                if (watchdog_on)
                    simEnter(state, slot);
                core::OracleResult oracle;
                try {
                    oracle = state.predictor->runOracle();
                } catch (...) {
                    if (watchdog_on)
                        simExit(state, slot);
                    throw;
                }
                if (watchdog_on)
                    simExit(state, slot);
                return {std::make_shared<const gpusim::GpuStats>(
                            oracle.stats),
                        sizeof(gpusim::GpuStats)};
            },
            [this, s = &state](std::shared_ptr<const gpusim::GpuStats> value,
                               std::exception_ptr failure) {
                // Another job's build landed. Its cancellation (its own
                // watchdog or timeout) is no stall of this job's oracle.
                settleOracle(*s, std::move(value), std::move(failure),
                             true);
            });
        if (!stats) {
            // Parked: the continuation owns the job from here on and
            // may already have finished it, so touch nothing.
            pipelineMetrics().parkedOracle->inc();
            return;
        }
    } catch (...) {
        error = std::current_exception();
    }
    state.oracleSeconds += timer.elapsedSeconds();
    settleOracle(state, std::move(stats), error, false);
}

void
JobPipeline::settleOracle(JobState &state,
                          std::shared_ptr<const gpusim::GpuStats> stats,
                          std::exception_ptr error, bool parked)
{
    if (stats) {
        state.oracleStats = std::move(stats);
        unitLanded(state);
        return;
    }
    std::string message;
    try {
        std::rethrow_exception(error);
    } catch (const core::PredictionCancelled &) {
        const bool cancelled = pipelineCancelled();
        if (cancelled || deadlineExceeded(state)) {
            markBroken(state,
                       cancelled ? JobStatus::Cancelled
                                 : JobStatus::TimedOut,
                       cancelled ? "campaign cancelled"
                                 : "job timeout during the oracle run");
            unitLanded(state);
            return;
        }
        if (parked) {
            // The build this job parked on was stopped: this job's own
            // oracle did not fail, so its retry is free.
            enqueueUnit(state.job.priority, Rank::Oracle,
                        [this, s = &state]() { runOracleUnit(*s); });
            return;
        }
        // This job's own run was stopped: the watchdog found it stale.
        message = "stalled: no simulated-cycle progress within " +
                  std::to_string(params_.stallTimeoutSeconds) + "s";
    } catch (const std::exception &err) {
        message = err.what();
    } catch (...) {
        message = "unknown exception";
    }
    if (state.oracleAttempts < params_.stageRetries) {
        const uint32_t attempt = ++state.oracleAttempts;
        warn("campaign job '", state.job.id, "': oracle run failed (",
             message, "); retry ", attempt, "/", params_.stageRetries);
        // The retry unit sleeps the backoff: this may run on another
        // job's builder thread.
        enqueueUnit(state.job.priority, Rank::Oracle,
                    [this, s = &state, attempt]() {
                        runOracleUnit(*s, attempt);
                    });
        return;
    }
    state.oracleError = message;
    unitLanded(state);
}

void
JobPipeline::runGroupUnit(JobState &state, size_t group_index)
{
    ZATEL_TRACE_SCOPE("job.group", static_cast<int64_t>(group_index));
    pipelineMetrics().unitsGroup->inc();
    const bool watchdog_on = params_.stallTimeoutSeconds > 0.0;
    if (state.broken.load()) {
        // The job already failed / timed out / was cancelled: this
        // pending unit is dropped without simulating so the pool
        // drains quickly (SchedulerTimeout.CancelsPendingStages).
        pipelineMetrics().groupUnitsSkipped->inc();
    } else {
        if (watchdog_on)
            simEnter(state, group_index);
        bool requeue = false;
        try {
            state.tasks[group_index] =
                state.predictor->runGroupTaskResilient(group_index);
        } catch (const core::PredictionCancelled &) {
            if (pipelineCancelled()) {
                markBroken(state, JobStatus::Cancelled,
                           "campaign cancelled");
            } else if (deadlineExceeded(state)) {
                markBroken(state, JobStatus::TimedOut,
                           "job timeout during group simulation");
            } else if (watchdog_on && slotStalled(state, group_index)) {
                // The watchdog stopped this simulation: it spends a
                // group attempt.
                const uint32_t attempt = ++state.groupAttempts[group_index];
                if (attempt <= state.job.params.groupRetries) {
                    warn("campaign job '", state.job.id, "': group ",
                         group_index, " stalled; retry ", attempt, "/",
                         state.job.params.groupRetries);
                    requeue = true;
                } else {
                    state.tasks[group_index] =
                        state.predictor->failedGroupTask(
                            group_index,
                            "stalled: no simulated-cycle progress within " +
                                std::to_string(params_.stallTimeoutSeconds) +
                                "s (retries exhausted)");
                }
            } else {
                // The cancel hook fired for a reason that has since
                // cleared; treat it as cancellation.
                markBroken(state, JobStatus::Cancelled,
                           "campaign cancelled");
            }
        } catch (const std::exception &err) {
            // runGroupTaskResilient converts failures into failed
            // tasks; anything escaping is unexpected but must not
            // wedge the pipeline.
            markBroken(state, JobStatus::Failed, err.what());
        }
        if (watchdog_on)
            simExit(state, group_index);
        if (requeue) {
            enqueueUnit(state.job.priority, Rank::Group,
                        [this, s = &state, group_index]() {
                            runGroupUnit(*s, group_index);
                        });
            return; // unitsRemaining stays owed to the retry.
        }
    }
    // The group phase ends when its last group lands, whether or not
    // the oracle is still running.
    const uint64_t now = nowNs();
    uint64_t seen = state.simEndNs.load(std::memory_order_relaxed);
    while (seen < now && !state.simEndNs.compare_exchange_weak(
                             seen, now, std::memory_order_relaxed)) {
    }
    unitLanded(state);
}

void
JobPipeline::unitLanded(JobState &state)
{
    if (state.unitsRemaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        enqueueUnit(state.job.priority, Rank::Control,
                    [this, s = &state]() { runFinalizeUnit(*s); });
    }
}

void
JobPipeline::runFinalizeUnit(JobState &state)
{
    ZATEL_TRACE_SCOPE("job.finalize");
    pipelineMetrics().unitsFinalize->inc();
    ResultRow row;
    row.jobId = state.job.id;
    row.scene = state.job.scene;
    row.gpu = state.job.gpu;

    if (state.broken.load()) {
        {
            std::lock_guard<std::mutex> guard(state.errorMutex);
            row.status = state.terminalStatus;
            row.error = state.errorMessage;
        }
        finishJob(state, std::move(row));
        return;
    }

    try {
        const double sim_seconds =
            static_cast<double>(state.simEndNs.load(
                                    std::memory_order_relaxed) -
                                state.simStartNs) *
            1e-9;
        core::ZatelResult result = state.predictor->assemble(
            std::move(state.tasks), sim_seconds);
        state.tasks.clear();

        row.scene = state.pack->scene.name();
        row.k = result.k;
        row.fractionTraced = result.fractionTraced;
        row.predicted = result.predicted;
        row.preprocessSeconds = result.preprocessWallSeconds;
        row.simSeconds = result.simWallSeconds;
        row.maxGroupSeconds = result.maxGroupWallSeconds;
        row.status = JobStatus::Ok;
        if (result.degraded) {
            // Survivors-only prediction (docs/ROBUSTNESS.md): valid
            // numbers with widened sampling error.
            row.status = JobStatus::Degraded;
            row.failedGroups =
                static_cast<uint32_t>(result.failedGroups.size());
            row.survivorExtrapolation = result.survivorExtrapolation;
            row.error = std::to_string(result.failedGroups.size()) +
                        " group(s) failed; prediction assembled from "
                        "survivors";
        }

        if (state.job.withOracle) {
            if (state.oracleStats) {
                row.oracleSeconds = state.oracleSeconds;
                for (gpusim::Metric metric : gpusim::allMetrics()) {
                    row.oracle[metric] =
                        state.oracleStats->metricValue(metric);
                }
            } else {
                // The prediction itself is fine — deliver it, flagged
                // Degraded because the requested reference is missing.
                row.status = JobStatus::Degraded;
                if (!row.error.empty())
                    row.error += "; ";
                row.error += "oracle failed: " + state.oracleError;
            }
        }
    } catch (const core::PredictionCancelled &) {
        const bool timed_out = deadlineExceeded(state) &&
                               !pipelineCancelled();
        row.status = timed_out ? JobStatus::TimedOut : JobStatus::Cancelled;
        row.error = timed_out ? "job timeout during finalize"
                              : "campaign cancelled";
    } catch (const core::GroupFailureError &err) {
        // Too many failed groups (or fail-fast): no usable prediction.
        row.status = JobStatus::Failed;
        row.error = err.what();
    } catch (const std::exception &err) {
        row.status = JobStatus::Failed;
        row.error = err.what();
    }
    finishJob(state, std::move(row));
}

} // namespace zatel::service
