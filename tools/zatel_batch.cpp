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
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dist/coordinator.hh"
#include "obs/exports.hh"
#include "service/artifact_cache.hh"
#include "service/campaign.hh"
#include "service/campaign_options.hh"
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

/** Run the campaign; returns the exit code, throws on bad input. */
int
run(const ArgParser &args)
{
    // Every option is read and range-checked before any state exists.
    const service::CampaignOptions options =
        service::CampaignOptions::fromArgs(args);
    const uint64_t dist_workers = args.getUint("workers", 0, 256);
    const uint64_t dist_shards = args.getUint("shards", 0, 4096);
    const uint64_t max_shard_reassignments =
        args.getUint("max-shard-reassignments", 0, 1000);
    const double lease_timeout_ms =
        args.getDouble("lease-timeout-ms", 0.0, 86400000.0);
    if (lease_timeout_ms <= 0.0)
        throw std::invalid_argument("--lease-timeout-ms must be > 0");
    const double progress_interval =
        args.getDouble("progress-seconds", 0.0, 86400.0);
    const bool retry_degraded = args.getFlag("retry-degraded");
    if (retry_degraded && !args.getFlag("resume")) {
        throw std::invalid_argument(
            "--retry-degraded requires --resume (it changes which "
            "recorded rows count as done)");
    }

    std::vector<service::CampaignJob> jobs =
        args.has("campaign") ? service::loadCampaignFile(args.get("campaign"))
                             : campaignFromSweep(args);
    for (service::CampaignJob &job : jobs)
        options.resilience.applyTo(job.params);

    const std::string out_path = args.get("out");
    service::SchedulerParams sched = options.schedulerParams();
    if (args.getFlag("resume")) {
        // A previous run may have died mid-append; drop the torn tail
        // line before reopening for append (docs/ROBUSTNESS.md).
        service::ResultStore::repairTruncatedTail(out_path);
        sched.alreadyCompleted = service::ResultStore::completedJobIds(
            out_path, /*degraded_as_done=*/!retry_degraded);
    }

    service::ResultStoreOptions store_options;
    store_options.includeTiming = options.includeTiming;
    store_options.append = args.getFlag("resume");
    service::ResultStore store(out_path, store_options);

    // Observability must be switched on BEFORE the scheduler exists
    // (its shared ThreadPool registers worker trace names at startup)
    // and before the distributed coordinator (its counters).
    const std::string trace_out = args.get("trace-out");
    const std::string metrics_out = args.get("metrics-out");
    obs::enableExports(trace_out, metrics_out);

    // Shared tail for both the in-process and the distributed paths:
    // trace/metrics export, write-failure warning, exit policy.
    // Degraded jobs deliver usable predictions and do NOT fail the
    // campaign's exit code (docs/ROBUSTNESS.md).
    auto finish = [&](size_t failed, size_t cancelled, size_t timed_out) {
        const bool io_ok = obs::writeExports(trace_out, metrics_out);
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
        dist_params.quiet = options.quiet;
        dist_params.alreadyCompleted = std::move(sched.alreadyCompleted);
        // Shard specs carry campaign fields only; the workers read the
        // process options from their command lines.
        dist_params.workerExtraArgs = options.toArgs();

        if (!options.quiet) {
            std::printf("distributing %zu job(s) across %u worker "
                        "process(es)\n",
                        jobs.size(), dist_params.workers);
        }
        dist::DistCoordinator coordinator(std::move(jobs), store,
                                          std::move(dist_params));
        const dist::DistSummary dist_summary = coordinator.run();
        std::printf("%s", dist_summary.toString().c_str());
        std::printf("results: %s (%zu row(s))\n", out_path.c_str(),
                    store.rowCount());
        return finish(dist_summary.failed, dist_summary.cancelled,
                      dist_summary.timedOut);
    }

    service::ArtifactCache cache(
        options.cacheMb << 20, options.cacheDir,
        {.byteBudget = options.cacheDiskMb << 20});
    std::atomic<size_t> jobs_done{0};
    const bool quiet = options.quiet;
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
    if (!options.cacheDir.empty())
        std::printf("%s\n", cache.summary().c_str());

    return finish(summary.failed, summary.cancelled, summary.timedOut);
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
    // Pool, cache, budgets, resilience (docs/ROBUSTNESS.md) and row
    // format: the options zatel-worker reads too.
    service::CampaignOptions::addOptions(args);
    // Distributed campaigns (docs/DISTRIBUTED.md).
    args.addOption("workers", "0",
                   "distribute the campaign across this many zatel-worker "
                   "processes, 0-256 (0 = run in-process)");
    args.addOption("worker-cmd", "",
                   "worker executable (default: zatel-worker next to "
                   "this binary)");
    args.addOption("board-dir", "",
                   "job-board scratch directory (default: <out>.board)");
    args.addOption("shards", "0",
                   "job-board shard count, 0-4096 (0 = min(jobs, "
                   "workers*4))");
    args.addOption("lease-timeout-ms", "10000",
                   "reclaim a worker's shard lease after this long "
                   "without a heartbeat (at most 86400000)");
    args.addOption("max-shard-reassignments", "3",
                   "reclamations per shard, 0-1000, before its unfinished "
                   "jobs degrade instead of retrying forever");
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
                   "campaigns, 0-86400 (0 disables it)");
    args.addFlag("oracle", "also run the (cached) full simulation");
    args.addFlag("resume", "skip jobs already 'ok' in --out; append");
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
    try {
        return run(args);
    } catch (const std::exception &err) {
        std::fprintf(stderr, "error: %s\n", err.what());
        return 1;
    }
}
