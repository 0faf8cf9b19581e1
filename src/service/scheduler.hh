/**
 * @file
 * Campaign scheduler: runs a batch of prediction jobs on ONE shared
 * worker pool (paper Section III-A runs each prediction's K instances on
 * K cores; a campaign of J predictions would need J x K cores if every
 * predictor owned its pool — the scheduler multiplexes them instead).
 *
 * Since the zatel-serve work the execution machinery itself — priority
 * stage units, stall watchdog, retries, cooperative cancellation —
 * lives in JobPipeline (job_pipeline.hh), which accepts
 * jobs incrementally from any thread. CampaignScheduler is the batch
 * front end: it submits every campaign job up front with the shared
 * per-job timeout, appends each terminal row to the ResultStore, and
 * aggregates the terminal-status tallies plus the cache counters into
 * a CampaignSummary when the pipeline drains.
 *
 * Determinism: stage units compute into per-job, per-group slots and
 * assembly happens in group order, so a scheduled prediction is
 * byte-identical to ZatelPredictor::predict() on the same inputs (see
 * tests/test_determinism.cc).
 */

#ifndef ZATEL_SERVICE_SCHEDULER_HH
#define ZATEL_SERVICE_SCHEDULER_HH

#include <cstddef>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "service/artifact_cache.hh"
#include "service/campaign.hh"
#include "service/job_pipeline.hh"
#include "service/result_store.hh"

namespace zatel::service
{

/** Scheduler tuning: the pipeline's knobs plus the batch's own. */
struct SchedulerParams : PipelineParams
{
    /** Per-job wall-clock budget in seconds; <= 0 disables it. */
    double jobTimeoutSeconds = 0.0;
    /** Job ids to skip (already "ok" in a resumed result file). */
    std::set<std::string> alreadyCompleted;
    /**
     * Called after each job's row is appended (from a pool worker; must
     * be thread-safe). Tests use it to observe completion order.
     */
    std::function<void(const ResultRow &)> resultHook;
};

/** What a campaign run did, including the cache's effectiveness. */
struct CampaignSummary
{
    size_t totalJobs = 0;
    size_t ok = 0;
    /** Jobs that finished with a survivors-only or oracle-less
     *  prediction (JobStatus::Degraded, docs/ROBUSTNESS.md). */
    size_t degraded = 0;
    size_t failed = 0;
    size_t cancelled = 0;
    size_t timedOut = 0;
    size_t skipped = 0;
    double wallSeconds = 0.0;

    /** Aggregate cache counters at the end of the run. */
    ArtifactCache::Counters cacheTotals;
    /** Per-kind counters, indexed by ArtifactKind. */
    ArtifactCache::Counters cachePerKind[3];
    /** True when the cache's disk tier degraded to memory-only. */
    bool cacheDiskDegraded = false;

    /** Multi-line human-readable report (includes "cache hits: N"). */
    std::string toString() const;
};

/**
 * Runs one campaign to completion. Construct, then call run() once from
 * the owning thread; run() blocks until every job reached a terminal
 * state and returns the summary.
 */
class CampaignScheduler
{
  public:
    /**
     * @param jobs Finalized campaign (unique ids; see finalizeCampaign).
     * @param cache Shared artifact cache (outlives the scheduler).
     * @param store Result sink (outlives the scheduler).
     */
    CampaignScheduler(std::vector<CampaignJob> jobs, ArtifactCache &cache,
                      ResultStore &store, SchedulerParams params = {});

    CampaignScheduler(const CampaignScheduler &) = delete;
    CampaignScheduler &operator=(const CampaignScheduler &) = delete;

    /** Execute the campaign; call exactly once. */
    CampaignSummary run();

    size_t workerCount() const { return pipeline_.workerCount(); }

  private:
    ArtifactCache &cache_;
    ResultStore &store_;
    SchedulerParams params_;
    JobPipeline pipeline_;

    std::vector<CampaignJob> jobs_;
    size_t skippedJobs_ = 0;

    // Terminal-status tallies (guarded by tallyMutex_).
    std::mutex tallyMutex_;
    size_t okJobs_ = 0;
    size_t degradedJobs_ = 0;
    size_t failedJobs_ = 0;
    size_t cancelledJobs_ = 0;
    size_t timedOutJobs_ = 0;

    bool ran_ = false;
};

} // namespace zatel::service

#endif // ZATEL_SERVICE_SCHEDULER_HH
