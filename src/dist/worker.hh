/**
 * @file
 * The zatel-worker process body (docs/DISTRIBUTED.md).
 *
 * A worker repeatedly scans the job board for an unclaimed shard,
 * claims it (job_board.hh), runs its jobs through the regular
 * CampaignScheduler while a heartbeat thread keeps the lease fresh,
 * appends rows to the shard's partial fragment (resuming whatever a
 * previous claimant finished), and publishes the fragment by rename.
 *
 * Fencing: a worker whose heartbeat fails three consecutive times must
 * assume the coordinator has already reclaimed its lease and handed
 * the shard to someone else. It cooperatively cancels the scheduler,
 * abandons the shard WITHOUT publishing and exits with
 * WorkerExit::HeartbeatLost — the completed rows stay in the partial
 * fragment for the next claimant to resume. Because prediction is
 * deterministic and rows are %.17g byte-stable, a zombie and its
 * replacement would write identical bytes anyway; the fencing rule
 * exists so an unpublishable half-shard never masquerades as done.
 *
 * Exit codes are the worker<->coordinator protocol (the coordinator
 * logs them and decides respawn vs exhaust):
 *   0  board complete (every shard published or exhausted)
 *   2  board unreadable (no/invalid MANIFEST) or bad options
 *   3  claim I/O kept failing (3 consecutive all-error board scans)
 *   4  heartbeat lost (fenced; shard abandoned unpublished)
 *   5  every claimable shard failed to publish twice
 */

#ifndef ZATEL_DIST_WORKER_HH
#define ZATEL_DIST_WORKER_HH

#include <cstdint>
#include <string>

#include "service/campaign.hh"

namespace zatel::dist
{

/** Worker process tuning (zatel-worker command line). */
struct WorkerOptions
{
    /** Job-board root directory (required). */
    std::string boardDir;
    /** Coordinator-assigned id; names the lease/stats/log files. */
    uint64_t workerId = 0;

    /** Shared artifact persistence directory; "" disables it. */
    std::string cacheDir;
    /** In-memory artifact cache budget (MiB). */
    uint64_t cacheMb = 512;
    /** Disk-tier byte budget (MiB); 0 = unlimited. */
    uint64_t cacheDiskMb = 0;

    /** Scheduler pool size per worker; 0 = hardware concurrency. */
    size_t jobs = 0;
    double jobTimeoutSeconds = 0.0;
    double stallTimeoutSeconds = 0.0;
    uint32_t stageRetries = 1;

    // Per-job resilience knobs (docs/ROBUSTNESS.md). Shard specs carry
    // only campaign fields, so the coordinator forwards these on the
    // worker command line and the worker applies them to every loaded
    // job — the same way zatel-batch applies them before scheduling.
    service::GroupResilience resilience;

    /** Lease refresh period; the coordinator passes leaseTimeout/4. */
    double heartbeatSeconds = 1.0;
    /** Emit wall-clock columns in fragment rows. */
    bool includeTiming = true;
    bool quiet = false;
};

/** The exit-code protocol (see file header). */
enum class WorkerExit : int
{
    Ok = 0,
    BoardUnreadable = 2,
    CannotClaim = 3,
    HeartbeatLost = 4,
    CannotPublish = 5,
};

/**
 * Run the worker loop until the board is complete or a protocol exit
 * applies; returns the WorkerExit value as the process exit code.
 * Reads ZATEL_WORKER_KILL for the chaos harness (ChaosKillSpec).
 * @throws std::invalid_argument for a malformed ZATEL_WORKER_KILL.
 */
int runWorker(const WorkerOptions &options);

/**
 * Multi-process cache stress body (zatel-worker --cache-stress):
 * repeatedly builds a small fixed recipe set through FRESH ArtifactCache
 * instances sharing @p cache_dir, with an aggressive disk byte budget
 * and a near-zero eviction grace window, verifying every artifact
 * round-trips intact. tests/test_dist.cc runs two of these against one
 * directory to hammer the eviction-scan-vs-concurrent-publish race.
 * Returns 0 on success, 1 on any corrupted/failed artifact.
 */
int runCacheStress(const std::string &cache_dir, uint32_t iterations,
                   uint64_t disk_budget_bytes);

} // namespace zatel::dist

#endif // ZATEL_DIST_WORKER_HH
