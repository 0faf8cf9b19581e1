/**
 * @file
 * Incremental-submission job pipeline: the per-job execution core that
 * CampaignScheduler used to own, extracted so long-running callers
 * (the zatel-serve daemon, tools/zatel_serve.cpp) can feed jobs in one
 * at a time while a batch campaign submits them all up front.
 *
 * Each submitted job decomposes into pipeline stages:
 *
 *   start     resolve scene + GPU, get the ScenePack (blocking
 *             single-flight getOrBuild) and the quantized heatmap
 *             (getOrPark: built at most once per recipe), prepare the
 *             predictor and fan the job out
 *   prepare   the rest of a start stage whose heatmap another job was
 *             building: the start unit parked on that build instead of
 *             holding a worker, and resumes here when it lands
 *   oracle    optional full-frame oracle run, enqueued at fan-out and
 *             run beside the groups; a job whose oracle another job is
 *             building parks on it the same way
 *   group g   one unit per image-plane group: the downscaled simulator
 *             instance (the bulk of the work)
 *   finalize  once the groups and the oracle landed: extrapolate +
 *             combine, attach the oracle stats, invoke the submission's
 *             done callback with the terminal row
 *
 * Stage units are submitted straight to the shared ThreadPool, whose
 * queue is the only one they wait in: it starts them by job priority
 * (descending), then stage rank, FIFO among equals, so a late
 * high-priority job overtakes an earlier job's unit backlog. Within a
 * priority, start, prepare and finalize units go first (they are short
 * and create work or deliver a row), then oracles, then groups: the
 * oracle is a job's longest unit and cannot be split, so starting it
 * before the group slices that fill in around it is longest-first list
 * scheduling.
 *
 * Cancellation and timeouts are cooperative: every predictor polls a
 * cancel hook between stages and before each group simulation, so a
 * cancelled pipeline or a job past its wall-clock budget stops at the
 * next stage boundary and is recorded as Cancelled / TimedOut.
 *
 * Resilience (docs/ROBUSTNESS.md): transient start-stage failures are
 * retried (stageRetries) with deterministic backoff, group simulations
 * retry inside ZatelPredictor::runGroupTaskResilient, and a progress
 * watchdog thread stops each simulation that makes no simulated-cycle
 * progress for stallTimeoutSeconds — that one only, its siblings run
 * on — so a hung instance is retried or recorded as a failed group
 * instead of wedging the pipeline.
 *
 * Determinism: stage units compute into per-job, per-group slots and
 * assembly happens in group order, so a pipelined prediction is
 * byte-identical to ZatelPredictor::predict() on the same inputs (see
 * tests/test_determinism.cc).
 */

#ifndef ZATEL_SERVICE_JOB_PIPELINE_HH
#define ZATEL_SERVICE_JOB_PIPELINE_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/artifact_cache.hh"
#include "service/campaign.hh"
#include "service/result_store.hh"
#include "util/thread_pool.hh"

namespace zatel::service
{

/** Pipeline tuning; SchedulerParams extends it with the batch's knobs. */
struct PipelineParams
{
    /** Shared-pool worker count; 0 = hardware concurrency. */
    size_t workers = 0;
    /**
     * Hang watchdog (docs/ROBUSTNESS.md): a group/oracle simulation
     * that reports no simulated-cycle progress for this many seconds
     * is cooperatively stopped and retried (or recorded as a failed
     * group once retries are exhausted). <= 0 disables the watchdog
     * (and the mid-run progress probe entirely).
     */
    double stallTimeoutSeconds = 0.0;
    /** Retries for transient start-stage and oracle failures. */
    uint32_t stageRetries = 1;
    /** Simulated cycles between watchdog heartbeats. */
    uint64_t probeIntervalCycles = 250000;
    /** Pipeline-level cooperative cancellation (polled frequently). */
    std::function<bool()> cancelled;
};

/**
 * Runs prediction jobs submitted at any time, from any thread, on ONE
 * shared worker pool. Construct once; submit() as work arrives; each
 * submission's done callback fires exactly once with the terminal
 * ResultRow (from a pool worker; must be thread-safe and must not
 * block on the pipeline itself). drain()/the destructor finish all
 * in-flight jobs before returning.
 */
class JobPipeline
{
  public:
    /** One job plus its per-request policy. */
    struct Submission
    {
        CampaignJob job;
        /** Per-job wall-clock budget in seconds; <= 0 disables it. */
        double timeoutSeconds = 0.0;
        /** Terminal-row sink; invoked exactly once per submission. */
        std::function<void(const ResultRow &)> done;
    };

    /** @param cache Shared artifact cache (outlives the pipeline). */
    explicit JobPipeline(ArtifactCache &cache, PipelineParams params = {});
    ~JobPipeline();

    JobPipeline(const JobPipeline &) = delete;
    JobPipeline &operator=(const JobPipeline &) = delete;

    /**
     * Enqueue one job (thread-safe). @throws std::runtime_error when
     * called after drain() started.
     */
    void submit(Submission submission);

    /** Block until no submitted job is pending or executing. */
    void waitIdle();

    /** Stop accepting submissions, then waitIdle(). Idempotent. */
    void drain();

    /** Jobs submitted but not yet finished. */
    size_t pendingJobs() const;

    size_t workerCount() const { return pool_.workerCount(); }

  private:
    /** Dispatch rank of a stage unit within one job priority: the
     *  higher rank starts first. */
    enum class Rank : uint8_t
    {
        Group = 0,
        Oracle = 1,
        /** start, prepare and finalize units. */
        Control = 2,
    };

    /** Mutable per-job execution state. */
    struct JobState
    {
        CampaignJob job;
        /** Per-job wall-clock budget (from the submission). */
        double timeoutSeconds = 0.0;
        /** Terminal-row sink (from the submission). */
        std::function<void(const ResultRow &)> done;

        gpusim::GpuConfig config;
        std::shared_ptr<const ScenePack> pack;
        std::unique_ptr<core::ZatelPredictor> predictor;
        std::vector<core::ZatelPredictor::GroupTask> tasks;
        /** Group and oracle units still to land; the last schedules
         *  finalize. */
        std::atomic<size_t> unitsRemaining{0};

        /** Set once by whichever unit fails first. */
        std::atomic<bool> broken{false};
        std::mutex errorMutex;
        JobStatus terminalStatus = JobStatus::Ok;
        std::string errorMessage;

        std::chrono::steady_clock::time_point startTime;
        std::chrono::steady_clock::time_point deadline;
        bool hasDeadline = false;
        /** Group phase: fan-out, and the landing of its last group
         *  (monotonic ns). */
        uint64_t simStartNs = 0;
        std::atomic<uint64_t> simEndNs{0};

        // ---- Oracle stage (touched by one oracle unit or its
        // continuation at a time, read by finalize) ----
        std::shared_ptr<const gpusim::GpuStats> oracleStats;
        /** Why the oracle is missing once its attempts ran out. */
        std::string oracleError;
        /** Wall time of this job's own oracle units. */
        double oracleSeconds = 0.0;
        /** Oracle retries consumed. */
        uint32_t oracleAttempts = 0;

        // ---- Hang-watchdog state (docs/ROBUSTNESS.md) ----
        /**
         * One progress slot per group plus a final slot for the oracle
         * run. A slot holds 0 while no simulation runs in it, else its
         * simulation's last heartbeat (monotonic ns), or kStalledSlot
         * once the watchdog found that heartbeat stale: the simulation
         * must stop, and the slot stays marked until it leaves.
         * Allocated at fan-out; progressSlots (released after the
         * allocation) publishes the array to the watchdog thread.
         */
        std::unique_ptr<std::atomic<uint64_t>[]> progressNs;
        std::atomic<size_t> progressSlots{0};
        /** Stall retries consumed per group. Element g is only touched
         *  by group g's unit (requeues serialize it). */
        std::vector<uint32_t> groupAttempts;
        /** Start-stage retries consumed (start units serialize). */
        uint32_t startAttempts = 0;
    };

    /** Submit one stage unit to the pool, keyed by @p priority then
     *  @p rank. */
    void enqueueUnit(int priority, Rank rank, std::function<void()> fn);

    /** True when the pipeline-level cancel hook fired. */
    bool pipelineCancelled() const;
    /** Cancel-hook body for @p state (pipeline cancel or job timeout). */
    bool jobShouldStop(const JobState &state) const;

    /** @param backoff_attempt Retry pacing owed before this attempt. */
    void runStartUnit(JobState &state, uint32_t backoff_attempt = 0);
    /** Resume a start stage that parked on another job's heatmap
     *  build, with the heatmap that build produced. */
    void runPrepareUnit(JobState &state, const HeatmapArtifact &artifact);
    /** Inject the heatmap and its frame ray record (when it has one),
     *  prepare() the predictor, then enqueue the oracle and groups. */
    void fanOut(JobState &state, const HeatmapArtifact &artifact);
    /** Retry the start stage or finish the job with a terminal row.
     *  Call it on the thread that threw @p error. */
    void failStartStage(JobState &state, std::exception_ptr error);
    /** @param backoff_attempt Retry pacing owed before this attempt. */
    void runOracleUnit(JobState &state, uint32_t backoff_attempt = 0);
    /**
     * Settle one oracle attempt: land @p stats, or classify @p error
     * and retry, requeue or give up. @p parked says the attempt was
     * another job's build this job parked on: when that build was
     * stopped, this job's oracle did not fail and requeues for free.
     */
    void settleOracle(JobState &state,
                      std::shared_ptr<const gpusim::GpuStats> stats,
                      std::exception_ptr error, bool parked);
    void runGroupUnit(JobState &state, size_t group_index);
    void runFinalizeUnit(JobState &state);
    /** Count a group or oracle unit as landed; the last schedules
     *  finalize. @p state may be gone once this returns. */
    void unitLanded(JobState &state);

    /** Start @p slot's simulation: heartbeat baseline = now. */
    static void simEnter(JobState &state, size_t slot);
    /** Empty @p slot: no simulation runs in it. */
    static void simExit(JobState &state, size_t slot);
    /** True when the watchdog marked @p slot's simulation stalled. */
    static bool slotStalled(const JobState &state, size_t slot);
    /** True when @p state's deadline exists and has passed. */
    static bool deadlineExceeded(const JobState &state);
    /** Watchdog thread body: marks progress slots gone stale. */
    void watchdogLoop();

    /** Record the first failure of a job (later calls are ignored). */
    void markBroken(JobState &state, JobStatus status,
                    const std::string &message);
    /** Fire the done callback and destroy the job's state. Every other
     *  unit of the job has landed by then; @p state is gone after. */
    void finishJob(JobState &state, ResultRow row);

    ArtifactCache &cache_;
    PipelineParams params_;
    ThreadPool pool_;

    /** Live job states (submit to finishJob); guarded by jobsMutex_. */
    mutable std::mutex jobsMutex_;
    std::vector<std::unique_ptr<JobState>> jobs_;
    /** Notified when jobs_ becomes empty. */
    std::condition_variable jobsIdle_;
    std::atomic<bool> accepting_{true};

    std::atomic<bool> watchdogStop_{false};
    std::thread watchdogThread_;
};

} // namespace zatel::service

#endif // ZATEL_SERVICE_JOB_PIPELINE_HH
