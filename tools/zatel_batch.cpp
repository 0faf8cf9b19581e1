/**
 * @file
 * zatel-batch — campaign front end for the batch prediction service.
 *
 * Runs a whole campaign of predictions on one shared worker pool with a
 * content-addressed artifact cache (src/service/), instead of invoking
 * `zatel predict` once per configuration:
 *
 *   zatel-batch --campaign sweep.jsonl --jobs 8 --out results.jsonl
 *   zatel-batch --campaign sweep.csv --cache-dir .zatel-cache --resume
 *
 * Without --campaign, a sweep shorthand builds the cartesian product of
 * every repeated --scene / --gpu / --res / --fraction occurrence:
 *
 *   zatel-batch --scene PARK --scene BUNNY --gpu soc --res 64 --res 96
 *
 * expands to four jobs. Job ids are deterministic, so a re-run with
 * --resume skips every job already recorded as "ok" in --out.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dist/coordinator.hh"
#include "obs/metrics_registry.hh"
#include "obs/trace_recorder.hh"
#include "service/artifact_cache.hh"
#include "service/campaign.hh"
#include "service/result_store.hh"
#include "service/scheduler.hh"
#include "util/arg_parser.hh"
#include "util/logging.hh"

namespace
{

using namespace zatel;

/** Build the sweep-shorthand campaign from repeated options. */
std::vector<service::CampaignJob>
campaignFromSweep(const ArgParser &args)
{
    std::vector<std::string> scenes = args.getList("scene");
    std::vector<std::string> gpus = args.getList("gpu");
    std::vector<std::string> resolutions = args.getList("res");
    std::vector<std::string> fractions = args.getList("fraction");
    if (fractions.empty())
        fractions.push_back(""); // equation-(1) fraction

    std::vector<service::CampaignJob> jobs;
    for (const std::string &scene : scenes) {
        for (const std::string &gpu : gpus) {
            for (const std::string &res : resolutions) {
                for (const std::string &fraction : fractions) {
                    service::CampaignJob job;
                    service::applyJobField(job, "scene", scene);
                    service::applyJobField(job, "gpu", gpu);
                    service::applyJobField(job, "res", res);
                    service::applyJobField(job, "fraction", fraction);
                    service::applyJobField(job, "spp", args.get("spp"));
                    service::applyJobField(job, "seed", args.get("seed"));
                    service::applyJobField(job, "detail",
                                           args.get("detail"));
                    service::applyJobField(job, "k", args.get("k"));
                    if (args.getFlag("oracle"))
                        service::applyJobField(job, "oracle", "true");
                    jobs.push_back(std::move(job));
                }
            }
        }
    }
    service::finalizeCampaign(jobs);
    return jobs;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("zatel-batch",
                   "Batch campaign runner: shared-pool scheduling, "
                   "content-addressed artifact cache, resumable results");
    args.addOption("campaign", "",
                   "campaign file (.csv -> CSV with '|' sweeps, anything "
                   "else -> JSONL); omit to use the sweep shorthand");
    args.addOption("out", "zatel-results.jsonl",
                   "result file (.csv -> CSV, anything else -> JSONL)");
    args.addOption("jobs", "0",
                   "shared-pool worker count (0 = hardware concurrency)");
    args.addOption("cache-dir", "",
                   "persist heatmaps/oracle stats here across runs");
    args.addOption("cache-mb", "512",
                   "in-memory artifact cache budget in MiB");
    args.addOption("timeout", "0",
                   "per-job wall-clock budget in seconds (0 = none)");
    // Resilience (docs/ROBUSTNESS.md).
    service::GroupResilience::addOptions(args);
    args.addOption("stall-timeout-ms", "0",
                   "cancel+retry a group/oracle simulation making no "
                   "simulated-cycle progress for this long (0 = no "
                   "watchdog)");
    args.addOption("stage-retries", "1",
                   "retries for transient start-stage/oracle failures");
    // Distributed campaigns (docs/DISTRIBUTED.md).
    args.addOption("workers", "0",
                   "distribute the campaign across this many zatel-worker "
                   "processes (0 = run in-process)");
    args.addOption("worker-cmd", "",
                   "worker executable (default: zatel-worker next to "
                   "this binary)");
    args.addOption("board-dir", "",
                   "job-board scratch directory (default: <out>.board)");
    args.addOption("shards", "0",
                   "job-board shard count (0 = min(jobs, workers*4))");
    args.addOption("lease-timeout-ms", "10000",
                   "reclaim a worker's shard lease after this long "
                   "without a heartbeat");
    args.addOption("max-shard-reassignments", "3",
                   "reclamations per shard before its unfinished jobs "
                   "degrade instead of retrying forever");
    args.addOption("cache-disk-mb", "0",
                   "disk-tier byte budget for the shared --cache-dir in "
                   "MiB (0 = unlimited)");
    args.addFlag("keep-board",
                 "keep the job-board directory after the run (debugging)");
    args.addFlag("retry-degraded",
                 "with --resume: re-run jobs whose recorded status is "
                 "'degraded' (default resumes them as done)");
    // Sweep shorthand (each may repeat to form a cartesian product).
    args.addOption("scene", "PARK", "scene name (repeatable)");
    args.addOption("gpu", "soc", "target GPU: soc | rtx2060 (repeatable)");
    args.addOption("res", "64", "square image resolution (repeatable)");
    args.addOption("fraction", "",
                   "fixed trace fraction (repeatable; bypasses eq. 1)");
    args.addOption("spp", "1", "samples per pixel");
    args.addOption("seed", "173025", "pipeline seed");
    args.addOption("detail", "1.0", "procedural scene density multiplier");
    args.addOption("k", "", "force the division/downscale factor");
    args.addOption("trace-out", "",
                   "write a Chrome trace_event JSON of the campaign here "
                   "(open in chrome://tracing or Perfetto)");
    args.addOption("metrics-out", "",
                   "write the metrics registry here (.json = JSON, "
                   "anything else = Prometheus text)");
    args.addOption("progress-seconds", "10",
                   "interval of the periodic progress line for long "
                   "campaigns (0 disables it)");
    args.addFlag("oracle", "also run the (cached) full simulation");
    args.addFlag("resume", "skip jobs already 'ok' in --out; append");
    args.addFlag("no-timing",
                 "omit wall-clock fields from result rows (for "
                 "byte-identical run-to-run diffs)");
    args.addFlag("quiet", "suppress the per-job progress lines");
    args.addFlag("help", "show this help");

    if (!args.parse(argc, argv)) {
        std::fprintf(stderr, "error: %s\n%s", args.errorMessage().c_str(),
                     args.usage().c_str());
        return 1;
    }
    if (args.getFlag("help")) {
        std::printf("%s", args.usage().c_str());
        return 0;
    }

    // Range-check every numeric knob before touching any state: the
    // validated accessors reject garbage AND "parsed but nonsensical"
    // values with one clear message (stderr + exit 1, never UB from a
    // negative cast).
    const int64_t stage_retries = args.getIntInRange("stage-retries", 0, 100);
    const double stall_timeout_ms = args.getDouble("stall-timeout-ms");
    if (stall_timeout_ms < 0.0) {
        std::fprintf(stderr,
                     "error: --stall-timeout-ms must be >= 0, got %g\n",
                     stall_timeout_ms);
        return 1;
    }
    const int64_t dist_workers = args.getIntInRange("workers", 0, 256);
    const int64_t dist_shards = args.getIntInRange("shards", 0, 4096);
    const int64_t max_shard_reassignments =
        args.getIntInRange("max-shard-reassignments", 0, 1000);
    const int64_t cache_disk_mb =
        args.getIntInRange("cache-disk-mb", 0, 1 << 20);
    const double lease_timeout_ms = args.getDouble("lease-timeout-ms");
    if (lease_timeout_ms <= 0.0) {
        std::fprintf(stderr,
                     "error: --lease-timeout-ms must be > 0, got %g\n",
                     lease_timeout_ms);
        return 1;
    }
    const bool retry_degraded = args.getFlag("retry-degraded");
    if (retry_degraded && !args.getFlag("resume")) {
        std::fprintf(stderr,
                     "error: --retry-degraded requires --resume (it "
                     "changes which recorded rows count as done)\n");
        return 1;
    }

    service::GroupResilience resilience;
    std::vector<service::CampaignJob> jobs;
    try {
        resilience = service::GroupResilience::fromArgs(args);
        jobs = args.has("campaign")
                   ? service::loadCampaignFile(args.get("campaign"))
                   : campaignFromSweep(args);
    } catch (const service::CampaignError &err) {
        std::fprintf(stderr, "error: %s\n", err.what());
        return 1;
    }
    for (service::CampaignJob &job : jobs)
        resilience.applyTo(job.params);

    const std::string out_path = args.get("out");
    service::SchedulerParams sched;
    sched.workers =
        static_cast<size_t>(args.getIntInRange("jobs", 0, 4096));
    sched.jobTimeoutSeconds = args.getDouble("timeout");
    sched.stallTimeoutSeconds = stall_timeout_ms / 1000.0;
    sched.stageRetries = static_cast<uint32_t>(stage_retries);
    if (args.getFlag("resume")) {
        // A previous run may have died mid-append; drop the torn tail
        // line before reopening for append (docs/ROBUSTNESS.md).
        service::ResultStore::repairTruncatedTail(out_path);
        sched.alreadyCompleted = service::ResultStore::completedJobIds(
            out_path, /*degraded_as_done=*/!retry_degraded);
    }

    service::ResultStoreOptions store_options;
    store_options.includeTiming = !args.getFlag("no-timing");
    store_options.append = args.getFlag("resume");
    service::ResultStore store(out_path, store_options);

    // Observability must be switched on BEFORE the scheduler exists
    // (its shared ThreadPool registers worker trace names at startup)
    // and before the distributed coordinator (its counters).
    if (args.has("trace-out")) {
        obs::TraceRecorder::global().enable();
        obs::TraceRecorder::global().setThreadName("main");
    }
    if (args.has("metrics-out"))
        obs::MetricsRegistry::global().setEnabled(true);

    const bool quiet = args.getFlag("quiet");

    // Shared tail for both the in-process and the distributed paths:
    // trace/metrics export, write-failure warning, exit policy.
    // Degraded jobs deliver usable predictions and do NOT fail the
    // campaign's exit code (docs/ROBUSTNESS.md).
    auto finish = [&](size_t failed, size_t cancelled, size_t timed_out) {
        bool io_ok = true;
        if (args.has("trace-out")) {
            obs::TraceRecorder::global().disable();
            const std::string &path = args.get("trace-out");
            if (obs::TraceRecorder::global().writeChromeTrace(path)) {
                std::printf("wrote %s (chrome://tracing)\n",
                            path.c_str());
            } else {
                warn("could not write trace to ", path);
                io_ok = false;
            }
        }
        if (args.has("metrics-out")) {
            const std::string &path = args.get("metrics-out");
            if (obs::MetricsRegistry::global().writeTo(path)) {
                std::printf("wrote %s\n", path.c_str());
            } else {
                warn("could not write metrics to ", path);
                io_ok = false;
            }
        }
        if (store.writeFailures() > 0) {
            warn(store.writeFailures(),
                 " result row(s) could not be written to ", out_path,
                 " (kept in memory only)");
        }
        const bool all_good =
            failed == 0 && cancelled == 0 && timed_out == 0 && io_ok;
        return all_good ? 0 : 1;
    };

    if (dist_workers > 0) {
        dist::DistParams dist_params;
        dist_params.workers = static_cast<uint32_t>(dist_workers);
        dist_params.workerCmd = args.get("worker-cmd");
        dist_params.boardDir = args.get("board-dir").empty()
                                   ? out_path + ".board"
                                   : args.get("board-dir");
        dist_params.shards = static_cast<uint32_t>(dist_shards);
        dist_params.leaseTimeoutSeconds = lease_timeout_ms / 1000.0;
        dist_params.maxShardReassignments =
            static_cast<uint32_t>(max_shard_reassignments);
        dist_params.keepBoard = args.getFlag("keep-board");
        dist_params.quiet = quiet;
        dist_params.alreadyCompleted = std::move(sched.alreadyCompleted);

        // Shard specs carry campaign fields only — forward the pool /
        // cache / resilience knobs on the worker command lines.
        auto forward = [&dist_params](const char *flag,
                                      const std::string &value) {
            dist_params.workerExtraArgs.emplace_back(flag);
            dist_params.workerExtraArgs.emplace_back(value);
        };
        forward("--jobs", args.get("jobs"));
        if (!args.get("cache-dir").empty())
            forward("--cache-dir", args.get("cache-dir"));
        forward("--cache-mb", args.get("cache-mb"));
        forward("--cache-disk-mb", std::to_string(cache_disk_mb));
        forward("--timeout", args.get("timeout"));
        forward("--stall-timeout-ms", args.get("stall-timeout-ms"));
        forward("--stage-retries", std::to_string(stage_retries));
        forward("--group-retries", args.get("group-retries"));
        forward("--min-groups-fraction", args.get("min-groups-fraction"));
        if (resilience.failFast)
            dist_params.workerExtraArgs.emplace_back("--fail-fast");
        if (args.getFlag("no-timing"))
            dist_params.workerExtraArgs.emplace_back("--no-timing");
        if (quiet)
            dist_params.workerExtraArgs.emplace_back("--quiet");

        if (!quiet) {
            std::printf("distributing %zu job(s) across %u worker "
                        "process(es)\n",
                        jobs.size(), dist_params.workers);
        }
        dist::DistSummary dist_summary;
        try {
            dist::DistCoordinator coordinator(std::move(jobs), store,
                                              std::move(dist_params));
            dist_summary = coordinator.run();
        } catch (const std::exception &err) {
            std::fprintf(stderr, "error: %s\n", err.what());
            return 1;
        }
        std::printf("%s", dist_summary.toString().c_str());
        std::printf("results: %s (%zu row(s))\n", out_path.c_str(),
                    store.rowCount());
        return finish(dist_summary.failed, dist_summary.cancelled,
                      dist_summary.timedOut);
    }

    const uint64_t budget =
        static_cast<uint64_t>(args.getPositiveInt("cache-mb")) * 1024 *
        1024;
    service::ArtifactCache::DiskTierOptions disk;
    disk.byteBudget = static_cast<uint64_t>(cache_disk_mb) << 20;
    service::ArtifactCache cache(budget, args.get("cache-dir"), disk);
    std::atomic<size_t> jobs_done{0};
    sched.resultHook = [quiet, &jobs_done](const service::ResultRow &row) {
        jobs_done.fetch_add(1, std::memory_order_relaxed);
        if (quiet)
            return;
        if (row.status == service::JobStatus::Ok) {
            std::printf("[%-9s] %s (K=%u, %.1f%% traced)\n",
                        service::jobStatusName(row.status),
                        row.jobId.c_str(), row.k,
                        row.fractionTraced * 100.0);
        } else if (row.status == service::JobStatus::Degraded) {
            // A degraded row still carries a usable prediction —
            // print it like an ok row plus the reason.
            std::printf("[%-9s] %s (K=%u, %.1f%% traced) — %s\n",
                        service::jobStatusName(row.status),
                        row.jobId.c_str(), row.k,
                        row.fractionTraced * 100.0, row.error.c_str());
        } else {
            std::printf("[%-9s] %s: %s\n",
                        service::jobStatusName(row.status),
                        row.jobId.c_str(), row.error.c_str());
        }
    };

    const size_t job_count = jobs.size();
    service::CampaignScheduler scheduler(std::move(jobs), cache, store,
                                         std::move(sched));
    if (!quiet) {
        std::printf("running %zu job(s) on %zu worker(s)\n", job_count,
                    scheduler.workerCount());
    }

    // Periodic progress line for long campaigns: a side thread wakes
    // every --progress-seconds and reports jobs done so far; it exits
    // promptly (condition variable, not a sleep) when run() returns.
    std::mutex progress_mutex;
    std::condition_variable progress_cv;
    bool progress_stop = false;
    std::thread progress_thread;
    const double progress_interval = args.getDouble("progress-seconds");
    if (!quiet && progress_interval > 0) {
        progress_thread = std::thread([&] {
            std::unique_lock<std::mutex> lock(progress_mutex);
            while (!progress_cv.wait_for(
                lock, std::chrono::duration<double>(progress_interval),
                [&] { return progress_stop; })) {
                std::printf("progress: %zu/%zu job(s) done\n",
                            jobs_done.load(std::memory_order_relaxed),
                            job_count);
                std::fflush(stdout);
            }
        });
    }

    service::CampaignSummary summary = scheduler.run();
    // Flush + fsync the result file: a machine crash right after the
    // campaign must not lose acknowledged rows (docs/ROBUSTNESS.md).
    store.finalize();

    if (progress_thread.joinable()) {
        {
            std::lock_guard<std::mutex> lock(progress_mutex);
            progress_stop = true;
        }
        progress_cv.notify_all();
        progress_thread.join();
    }

    std::printf("%s", summary.toString().c_str());
    std::printf("results: %s (%zu row(s))\n", out_path.c_str(),
                store.rowCount());
    if (!args.get("cache-dir").empty())
        std::printf("%s\n", cache.summary().c_str());

    return finish(summary.failed, summary.cancelled, summary.timedOut);
}
