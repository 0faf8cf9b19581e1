/**
 * @file
 * Distributed-campaign coordinator (docs/DISTRIBUTED.md).
 *
 * Embedded in zatel-batch (--workers N): shards the expanded campaign
 * across N spawned zatel-worker processes over a filesystem job board
 * (job_board.hh), monitors worker liveness through lease heartbeats
 * and exit codes, reclaims and reassigns the shards of dead or stalled
 * workers, and merges the published fragments into the caller's
 * ResultStore in the original campaign-job order.
 *
 * Robustness contract (mirrors the single-process retry/degraded
 * machinery, docs/ROBUSTNESS.md):
 *  - A dead/stalled worker costs one shard reassignment, not the
 *    campaign. Each shard gets maxShardReassignments reclamations;
 *    past that it is marked exhausted and its jobs surface as
 *    JobStatus::Degraded rows ("shard reassignments exhausted") —
 *    never a campaign failure.
 *  - The merge tolerates torn/partial fragments: exhausted shards
 *    contribute whatever complete rows their partial fragment holds
 *    (ResultStore's truncated-line discipline), and only the genuinely
 *    missing jobs get synthesized Degraded rows.
 *  - Because workers produce byte-stable rows, the merged file equals
 *    a single-process run of the same campaign row-for-row (sorted by
 *    job id), no matter which workers died when — the invariant
 *    tests/test_dist.cc's chaos matrix asserts.
 *
 * Fault site worker.spawn fires in the spawn path; lease/fragment/
 * heartbeat sites live in job_board.hh.
 */

#ifndef ZATEL_DIST_COORDINATOR_HH
#define ZATEL_DIST_COORDINATOR_HH

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "service/artifact_cache.hh"
#include "service/campaign.hh"
#include "service/result_store.hh"

namespace zatel::dist
{

/** Coordinator tuning (zatel-batch --workers flags). */
struct DistParams
{
    /** Worker processes to keep alive. */
    uint32_t workers = 2;
    /** Worker executable; "" = "zatel-worker" next to this binary. */
    std::string workerCmd;
    /** Job-board directory (required; recreated fresh each run — the
     *  result file is the durable state, the board is scratch). */
    std::string boardDir;
    /** Shard count; 0 = min(jobs, workers * 4), at least 1. */
    uint32_t shards = 0;

    /** A lease older than this is reclaimed (its worker is presumed
     *  dead or stalled). Workers heartbeat at a quarter of it. */
    double leaseTimeoutSeconds = 10.0;
    /** Reclamations per shard before it is marked exhausted. */
    uint32_t maxShardReassignments = 3;
    /** Total worker respawns across the run; 0 = workers * 4. */
    uint32_t maxWorkerRespawns = 0;
    /** Monitor poll period. */
    double pollSeconds = 0.05;

    /** Keep the board directory after the run (debugging). */
    bool keepBoard = false;
    bool quiet = false;

    /** Extra argv entries appended to every worker command line
     *  (zatel-batch passes its CampaignOptions::toArgs() this way). */
    std::vector<std::string> workerExtraArgs;
    /** Environment overrides for workers (tests arm ZATEL_FAULTS /
     *  ZATEL_WORKER_KILL worker-side without polluting their own). */
    std::vector<std::pair<std::string, std::string>> workerEnv;

    /** Job ids to skip (already done in a resumed result file);
     *  counted as skipped, no rows — mirrors CampaignScheduler. */
    std::set<std::string> alreadyCompleted;
};

/** What a distributed run did. */
struct DistSummary
{
    uint32_t shards = 0;
    uint32_t workersSpawned = 0;
    uint32_t respawns = 0;
    uint32_t spawnFailures = 0;
    uint64_t leaseExpirations = 0;
    uint64_t shardReassignments = 0;
    uint32_t exhaustedShards = 0;

    /** Rows copied/synthesized into the final store. */
    uint64_t mergedRows = 0;
    /** Rows recovered from an exhausted shard's partial fragment. */
    uint64_t salvagedRows = 0;
    /** Missing jobs synthesized as Degraded. */
    uint64_t degradedSynthesized = 0;

    // Terminal-status tallies of the merged rows (zatel-batch reuses
    // its single-process exit-code policy on these).
    size_t totalJobs = 0;
    size_t ok = 0;
    size_t degraded = 0;
    size_t failed = 0;
    size_t cancelled = 0;
    size_t timedOut = 0;
    size_t skipped = 0;
    double wallSeconds = 0.0;

    /** Sum of every worker's cache counters (stats files). */
    service::ArtifactCache::Counters workerCacheTotals;

    /** Multi-line human-readable report. */
    std::string toString() const;
};

/**
 * Runs one distributed campaign to completion. Construct, then call
 * run() once from the owning thread; blocks until every shard is
 * published or exhausted and the merge is done.
 */
class DistCoordinator
{
  public:
    /**
     * @param jobs Finalized campaign (unique ids; see finalizeCampaign).
     * @param store Final result sink (outlives the coordinator). The
     *        merge appends in original campaign-job order.
     */
    DistCoordinator(std::vector<service::CampaignJob> jobs,
                    service::ResultStore &store, DistParams params = {});

    DistCoordinator(const DistCoordinator &) = delete;
    DistCoordinator &operator=(const DistCoordinator &) = delete;

    /**
     * Execute the campaign; call exactly once.
     * @throws std::runtime_error when the board cannot be created, a
     *         shard spec does not round-trip, or no worker could ever
     *         be spawned AND no partial results exist (a completely
     *         failed launch with nothing to salvage still yields a
     *         fully-Degraded result set, not a throw).
     */
    DistSummary run();

  private:
    std::vector<service::CampaignJob> jobs_;
    service::ResultStore &store_;
    DistParams params_;
    size_t skippedJobs_ = 0;
    bool ran_ = false;
};

} // namespace zatel::dist

#endif // ZATEL_DIST_COORDINATOR_HH
