#include "dist/coordinator.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#ifdef __unix__
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "dist/job_board.hh"
#include "obs/metrics_registry.hh"
#include "util/fault_injection.hh"
#include "util/logging.hh"
#include "util/numbers.hh"

namespace zatel::dist
{

namespace
{

// ---------------------------------------------------------------------------
// Metrics (docs/OBSERVABILITY.md); no-ops while the registry is off.
// ---------------------------------------------------------------------------

obs::Counter *
leaseExpirationsCounter()
{
    static obs::Counter *counter = obs::MetricsRegistry::global().counter(
        "zatel_dist_lease_expirations_total",
        "Shard leases reclaimed because their heartbeat went stale");
    return counter;
}

obs::Counter *
shardReassignmentsCounter()
{
    static obs::Counter *counter = obs::MetricsRegistry::global().counter(
        "zatel_dist_shard_reassignments_total",
        "Shards reclaimed from a dead or stalled worker and reoffered");
    return counter;
}

obs::Counter *
workerRespawnsCounter()
{
    static obs::Counter *counter = obs::MetricsRegistry::global().counter(
        "zatel_dist_worker_respawns_total",
        "Replacement worker processes spawned after a worker died");
    return counter;
}

obs::Counter *
spawnFailuresCounter()
{
    static obs::Counter *counter = obs::MetricsRegistry::global().counter(
        "zatel_dist_spawn_failures_total",
        "Worker spawn attempts that failed (fork/exec or injected)");
    return counter;
}

obs::Gauge *
workersLiveGauge()
{
    static obs::Gauge *gauge = obs::MetricsRegistry::global().gauge(
        "zatel_dist_workers_live", "Worker processes currently alive");
    return gauge;
}

obs::Gauge *
shardsDoneGauge()
{
    static obs::Gauge *gauge = obs::MetricsRegistry::global().gauge(
        "zatel_dist_shards_done", "Shards with a published fragment");
    return gauge;
}

// ---------------------------------------------------------------------------
// Worker process management
// ---------------------------------------------------------------------------

struct WorkerProc
{
    uint64_t id = 0;
    long pid = -1;
    bool alive = false;
    int exitCode = -1;
};

/** "zatel-worker" next to the running executable, or bare name as a
 *  PATH fallback when /proc/self/exe is unreadable. */
std::string
defaultWorkerCmd()
{
    std::error_code ec;
    const std::filesystem::path self =
        std::filesystem::read_symlink("/proc/self/exe", ec);
    if (!ec)
        return (self.parent_path() / "zatel-worker").string();
    return "zatel-worker";
}

#ifdef __unix__
/**
 * fork/exec one worker. The injectable branch (worker.spawn) and a
 * failed fork both throw; exec failure surfaces as exit code 127 via
 * the monitor's reaping (the child cannot throw across exec).
 */
WorkerProc
spawnWorker(const BoardPaths &paths, const DistParams &params,
            const std::string &worker_cmd, uint64_t worker_id,
            double heartbeat_seconds)
{
    ZATEL_INJECT_FAULT_KEYED("worker.spawn", worker_id);

    std::vector<std::string> args;
    args.push_back(worker_cmd);
    args.push_back("--board-dir");
    args.push_back(paths.root);
    args.push_back("--worker-id");
    args.push_back(std::to_string(worker_id));
    args.push_back("--heartbeat-ms");
    args.push_back(std::to_string(
        static_cast<uint64_t>(heartbeat_seconds * 1000.0)));
    for (const std::string &extra : params.workerExtraArgs)
        args.push_back(extra);

    const std::string log_path = paths.workerLogPath(worker_id);
    const pid_t pid = ::fork();
    if (pid < 0) {
        throw std::runtime_error(std::string("dist: fork failed: ") +
                                 std::strerror(errno));
    }
    if (pid == 0) {
        // Child. Redirect stdout/stderr into the worker's log file so
        // interleaved worker chatter never corrupts the coordinator's
        // terminal, then exec.
        const int log_fd = ::open(log_path.c_str(),
                                  O_CREAT | O_WRONLY | O_APPEND, 0644);
        if (log_fd >= 0) {
            ::dup2(log_fd, 1);
            ::dup2(log_fd, 2);
            ::close(log_fd);
        }
        for (const auto &kv : params.workerEnv)
            ::setenv(kv.first.c_str(), kv.second.c_str(), 1);
        std::vector<char *> argv;
        argv.reserve(args.size() + 1);
        for (std::string &arg : args)
            argv.push_back(arg.data());
        argv.push_back(nullptr);
        ::execvp(argv[0], argv.data());
        ::_exit(127);
    }
    WorkerProc proc;
    proc.id = worker_id;
    proc.pid = pid;
    proc.alive = true;
    return proc;
}
#endif // __unix__

/** Parse one worker's key=value stats file into cache counters. */
void
accumulateWorkerStats(const std::string &path,
                      service::ArtifactCache::Counters &totals)
{
    // Stats are observability; a missing file only shrinks the report.
    // zatel-lint: allow(fault-site-coverage): observability only
    std::ifstream in(path);
    if (!in.is_open())
        return;
    std::string line;
    while (std::getline(in, line)) {
        const size_t eq = line.find('=');
        if (eq == std::string::npos)
            continue;
        const std::string key = line.substr(0, eq);
        uint64_t value = 0;
        try {
            value = parseUint(line.substr(eq + 1), key);
        } catch (const NumberError &) {
            continue;
        }
        if (key == "hits")
            totals.hits += value;
        else if (key == "misses")
            totals.misses += value;
        else if (key == "disk_hits")
            totals.diskHits += value;
        else if (key == "evictions")
            totals.evictions += value;
        else if (key == "disk_errors")
            totals.diskErrors += value;
        else if (key == "disk_evictions")
            totals.diskEvictions += value;
    }
}

/** Merge preference: the best terminal row wins when a job appears in
 *  several fragment generations (a fenced worker's cancelled row, then
 *  the replacement's ok row). Lower rank is better; negative = never
 *  merged (the job counts as missing). */
int
mergeRank(service::JobStatus status)
{
    switch (status) {
    case service::JobStatus::Ok:
        return 0;
    case service::JobStatus::Degraded:
        return 1;
    case service::JobStatus::Failed:
        return 2;
    case service::JobStatus::TimedOut:
        return 3;
    case service::JobStatus::Cancelled: // an aborted attempt, not a result
    case service::JobStatus::Skipped:   // never serialized by workers
        return -1;
    }
    return -1;
}

} // namespace

std::string
DistSummary::toString() const
{
    std::ostringstream oss;
    oss << "distributed campaign: " << totalJobs << " job(s) over "
        << shards << " shard(s), " << workersSpawned
        << " worker(s) spawned (" << respawns << " respawn(s), "
        << spawnFailures << " spawn failure(s))\n";
    oss << "  ok=" << ok << " degraded=" << degraded
        << " failed=" << failed << " cancelled=" << cancelled
        << " timeout=" << timedOut << " skipped=" << skipped << "\n";
    oss << "  lease expirations=" << leaseExpirations
        << " shard reassignments=" << shardReassignments
        << " exhausted shards=" << exhaustedShards << "\n";
    oss << "  merged rows=" << mergedRows << " (salvaged=" << salvagedRows
        << ", synthesized degraded=" << degradedSynthesized << ")\n";
    oss << "  worker cache: hits=" << workerCacheTotals.hits
        << " (disk=" << workerCacheTotals.diskHits
        << ") misses=" << workerCacheTotals.misses
        << " disk evictions=" << workerCacheTotals.diskEvictions << "\n";
    oss << "  wall time: " << wallSeconds << " s\n";
    return oss.str();
}

DistCoordinator::DistCoordinator(std::vector<service::CampaignJob> jobs,
                                 service::ResultStore &store,
                                 DistParams params)
    : store_(store), params_(std::move(params))
{
    // Mirror CampaignScheduler: resumed-away jobs are dropped up front
    // and counted, never sharded (no rows, docs/ROBUSTNESS.md).
    jobs_.reserve(jobs.size());
    for (auto &job : jobs) {
        if (params_.alreadyCompleted.count(job.id) > 0)
            ++skippedJobs_;
        else
            jobs_.push_back(std::move(job));
    }
}

DistSummary
DistCoordinator::run()
{
#ifndef __unix__
    throw std::runtime_error(
        "dist: --workers needs a POSIX platform (fork/exec + leases)");
#else
    ZATEL_ASSERT(!ran_, "DistCoordinator::run() called twice");
    ran_ = true;
    const auto wall_start = std::chrono::steady_clock::now();

    DistSummary summary;
    summary.totalJobs = jobs_.size() + skippedJobs_;
    summary.skipped = skippedJobs_;
    if (jobs_.empty()) {
        summary.wallSeconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          wall_start)
                .count();
        return summary;
    }

    // ---- Board setup -----------------------------------------------------
    const uint32_t job_count = static_cast<uint32_t>(jobs_.size());
    uint32_t shards = params_.shards;
    if (shards == 0)
        shards = std::min(job_count, params_.workers * 4);
    shards = std::max(1u, std::min(shards, job_count));
    summary.shards = shards;

    BoardPaths paths;
    paths.root = params_.boardDir;
    paths.csv = store_.csv();
    {
        // The board is scratch (the result file is the durable state):
        // a leftover board from a previous crashed run is stale.
        std::error_code ec;
        std::filesystem::remove_all(paths.root, ec);
    }
    BoardManifest manifest;
    manifest.shards = shards;
    manifest.csv = paths.csv;
    manifest.jobs = job_count;
    initBoard(paths, manifest);

    // Shard specs: round-robin so early shards do not hoard the quick
    // jobs, published tmp+rename like every board artifact.
    for (uint32_t shard = 0; shard < shards; ++shard) {
        const std::string spec_path = paths.shardSpecPath(shard);
        const std::string tmp = spec_path + ".tmp";
        {
            // zatel-lint: allow(fault-site-coverage): fail-fast bootstrap
            std::ofstream out(tmp, std::ios::trunc);
            for (uint32_t i = shard; i < job_count; i += shards)
                out << service::serializeJobJsonl(jobs_[i]) << "\n";
            out.flush();
            if (!out.good()) {
                throw std::runtime_error("dist: cannot write shard spec " +
                                         tmp);
            }
        }
        std::error_code ec;
        // zatel-lint: allow(fault-site-coverage): fail-fast bootstrap
        std::filesystem::rename(tmp, spec_path, ec);
        if (ec) {
            throw std::runtime_error("dist: cannot publish shard spec " +
                                     spec_path + ": " + ec.message());
        }
    }

    // ---- Worker fleet ----------------------------------------------------
    const std::string worker_cmd =
        params_.workerCmd.empty() ? defaultWorkerCmd() : params_.workerCmd;
    const double heartbeat = params_.leaseTimeoutSeconds / 4.0;
    const uint32_t respawn_budget = params_.maxWorkerRespawns > 0
                                        ? params_.maxWorkerRespawns
                                        : params_.workers * 4;

    std::vector<WorkerProc> workers;
    uint64_t next_worker_id = 0;
    uint32_t respawns_left = respawn_budget;

    auto try_spawn = [&](bool is_respawn) -> bool {
        const uint64_t id = next_worker_id++;
        try {
            workers.push_back(
                spawnWorker(paths, params_, worker_cmd, id, heartbeat));
        } catch (const std::exception &error) {
            ++summary.spawnFailures;
            spawnFailuresCounter()->inc();
            warn("dist: spawn of worker ", id, " failed: ", error.what());
            return false;
        }
        ++summary.workersSpawned;
        if (is_respawn) {
            ++summary.respawns;
            workerRespawnsCounter()->inc();
        }
        return true;
    };

    for (uint32_t i = 0; i < params_.workers; ++i) {
        // One bounded retry per initial slot; persistent spawn failure
        // drains the respawn budget below instead of looping forever.
        if (!try_spawn(false))
            try_spawn(false);
    }

    // ---- Monitor loop ----------------------------------------------------
    std::map<uint32_t, uint32_t> reassignments;

    auto reclaim_shard = [&](uint32_t shard, bool expired) {
        breakLease(paths, shard);
        ++summary.shardReassignments;
        shardReassignmentsCounter()->inc();
        if (expired) {
            ++summary.leaseExpirations;
            leaseExpirationsCounter()->inc();
        }
        const uint32_t count = ++reassignments[shard];
        if (count > params_.maxShardReassignments &&
            !shardDone(paths, shard) && !shardExhausted(paths, shard)) {
            warn("dist: shard ", shard, " exhausted its ",
                 params_.maxShardReassignments,
                 " reassignment(s); remaining jobs degrade");
            markShardExhausted(paths, shard,
                               "shard reassignments exhausted");
        }
    };

    auto all_settled = [&]() {
        uint32_t done = 0;
        bool settled = true;
        for (uint32_t shard = 0; shard < shards; ++shard) {
            if (shardDone(paths, shard))
                ++done;
            else if (!shardExhausted(paths, shard))
                settled = false;
        }
        shardsDoneGauge()->set(static_cast<double>(done));
        return settled;
    };

    while (!all_settled()) {
        // Reap dead children; a dead worker's leases are reclaimed
        // immediately (no need to wait for the age timeout).
        uint32_t live = 0;
        for (WorkerProc &proc : workers) {
            if (!proc.alive)
                continue;
            int status = 0;
            const pid_t reaped =
                ::waitpid(static_cast<pid_t>(proc.pid), &status, WNOHANG);
            if (reaped == 0) {
                ++live;
                continue;
            }
            proc.alive = false;
            proc.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
            if (!params_.quiet) {
                inform("dist: worker ", proc.id, " (pid ", proc.pid,
                       ") exited ",
                       WIFSIGNALED(status)
                           ? "on signal " + std::to_string(WTERMSIG(status))
                           : "with code " + std::to_string(proc.exitCode));
            }
            for (uint32_t shard = 0; shard < shards; ++shard) {
                if (shardDone(paths, shard) || shardExhausted(paths, shard))
                    continue;
                const LeaseInfo lease = readLease(paths, shard);
                if (lease.exists && lease.pid == proc.pid)
                    reclaim_shard(shard, /*expired=*/false);
            }
        }
        workersLiveGauge()->set(static_cast<double>(live));

        // Age-based reclamation: a lease nobody heartbeats is a worker
        // that died without us noticing (or stalled). Fence the owner
        // with SIGKILL when it is one of ours and still running.
        for (uint32_t shard = 0; shard < shards; ++shard) {
            if (shardDone(paths, shard) || shardExhausted(paths, shard))
                continue;
            const double age = leaseAgeSeconds(paths, shard);
            if (age < params_.leaseTimeoutSeconds)
                continue;
            const LeaseInfo lease = readLease(paths, shard);
            if (lease.exists) {
                for (WorkerProc &proc : workers) {
                    if (proc.alive && proc.pid == lease.pid) {
                        warn("dist: lease of shard ", shard, " expired (",
                             age, " s); killing stalled worker ", proc.id);
                        ::kill(static_cast<pid_t>(proc.pid), SIGKILL);
                        break;
                    }
                }
            }
            reclaim_shard(shard, /*expired=*/true);
        }

        if (all_settled())
            break;

        // Respawn dead slots while work remains and budget lasts.
        while (live < params_.workers && respawns_left > 0) {
            --respawns_left;
            if (try_spawn(true))
                ++live;
        }
        if (live == 0 && respawns_left == 0) {
            // Nobody left to run anything and nobody can be spawned:
            // exhaust what remains so the merge degrades it instead of
            // spinning here forever.
            warn("dist: no live workers and respawn budget exhausted; "
                 "exhausting remaining shards");
            for (uint32_t shard = 0; shard < shards; ++shard) {
                if (!shardDone(paths, shard) &&
                    !shardExhausted(paths, shard)) {
                    markShardExhausted(paths, shard,
                                       "no workers available");
                    ++summary.shardReassignments;
                    shardReassignmentsCounter()->inc();
                }
            }
            break;
        }

        // Monitor poll runs on the coordinator's own thread, never a
        // pool task.
        // zatel-lint: allow(blocking-in-task): coordinator monitor poll
        std::this_thread::sleep_for(
            std::chrono::duration<double>(params_.pollSeconds));
    }

    // ---- Shutdown: workers exit 0 on their next board scan ---------------
    const auto shutdown_deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration<double>(
            std::max(2.0, params_.leaseTimeoutSeconds));
    for (WorkerProc &proc : workers) {
        while (proc.alive) {
            int status = 0;
            const pid_t reaped =
                ::waitpid(static_cast<pid_t>(proc.pid), &status, WNOHANG);
            if (reaped != 0) {
                proc.alive = false;
                proc.exitCode =
                    WIFEXITED(status) ? WEXITSTATUS(status) : -1;
                break;
            }
            if (std::chrono::steady_clock::now() >= shutdown_deadline) {
                warn("dist: worker ", proc.id,
                     " did not exit after completion; killing it");
                ::kill(static_cast<pid_t>(proc.pid), SIGKILL);
                ::waitpid(static_cast<pid_t>(proc.pid), &status, 0);
                proc.alive = false;
                break;
            }
            // zatel-lint: allow(blocking-in-task): shutdown reap poll
            std::this_thread::sleep_for(
                std::chrono::duration<double>(params_.pollSeconds));
        }
    }
    workersLiveGauge()->set(0.0);

    for (const WorkerProc &proc : workers)
        accumulateWorkerStats(paths.workerStatsPath(proc.id),
                              summary.workerCacheTotals);

    // ---- Merge -----------------------------------------------------------
    // Fragment rows are byte-stable, so copying the best-ranked row per
    // job reproduces the single-process output exactly. Exhausted
    // shards are salvaged from their partial fragment (scanRows skips
    // torn lines); only genuinely missing jobs degrade.
    std::map<std::string, service::ScannedRow> best;
    std::set<std::string> salvaged;
    for (uint32_t shard = 0; shard < shards; ++shard) {
        const bool done = shardDone(paths, shard);
        const std::string frag_path = done
                                          ? paths.fragmentPath(shard)
                                          : paths.partialFragmentPath(shard);
        for (service::ScannedRow &row :
             service::ResultStore::scanRows(frag_path)) {
            const int rank = mergeRank(row.status);
            if (rank < 0)
                continue;
            auto it = best.find(row.jobId);
            if (it == best.end() || rank < mergeRank(it->second.status)) {
                if (!done)
                    salvaged.insert(row.jobId);
                else
                    salvaged.erase(row.jobId);
                best[row.jobId] = std::move(row);
            }
        }
    }
    for (uint32_t shard = 0; shard < shards; ++shard) {
        if (shardExhausted(paths, shard) && !shardDone(paths, shard))
            ++summary.exhaustedShards;
    }

    for (const service::CampaignJob &job : jobs_) {
        auto it = best.find(job.id);
        if (it != best.end()) {
            store_.appendRawLine(it->second.rawLine, it->second.jobId,
                                 it->second.status);
            ++summary.mergedRows;
            if (salvaged.count(job.id) > 0)
                ++summary.salvagedRows;
            switch (it->second.status) {
            case service::JobStatus::Ok:
                ++summary.ok;
                break;
            case service::JobStatus::Degraded:
                ++summary.degraded;
                break;
            case service::JobStatus::Failed:
                ++summary.failed;
                break;
            case service::JobStatus::TimedOut:
                ++summary.timedOut;
                break;
            default:
                break;
            }
            continue;
        }
        // No worker ever finished this job: degrade it, in the same
        // spirit as the single-process survivors-only combine — the
        // campaign reports what it could not compute instead of dying.
        service::ResultRow row;
        row.jobId = job.id;
        row.status = service::JobStatus::Degraded;
        row.scene = job.scene;
        row.gpu = job.gpu;
        row.error = "distributed: shard reassignments exhausted";
        store_.append(row);
        ++summary.mergedRows;
        ++summary.degradedSynthesized;
        ++summary.degraded;
    }
    store_.finalize();

    if (!params_.keepBoard) {
        std::error_code ec;
        std::filesystem::remove_all(paths.root, ec);
    }

    summary.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    return summary;
#endif // __unix__
}

} // namespace zatel::dist
