/**
 * @file
 * zatel-worker — one distributed-campaign worker process
 * (docs/DISTRIBUTED.md).
 *
 * Spawned by zatel-batch --workers N (it is rarely useful to run by
 * hand): claims shards from the filesystem job board, runs their jobs
 * through the regular campaign scheduler while heartbeating the lease,
 * and publishes result fragments. The exit code is the protocol with
 * the coordinator (src/dist/worker.hh).
 *
 *   zatel-worker --board-dir results.jsonl.board --worker-id 0
 *
 * The chaos harness (tests/test_dist.cc) arms ZATEL_WORKER_KILL
 * ("point:nth[@workerid]") to SIGKILL the worker at a seeded point,
 * and ZATEL_FAULTS to arm the dist.* / worker.* fault sites.
 *
 * --cache-stress mode runs the multi-process ArtifactCache stress body
 * instead of the worker loop (two of these against one --cache-dir
 * hammer the disk-tier eviction/publish race).
 */

#include <cstdio>
#include <exception>
#include <string>

#include "dist/worker.hh"
#include "service/campaign.hh"
#include "util/arg_parser.hh"

int
main(int argc, char **argv)
{
    using namespace zatel;

    ArgParser args("zatel-worker",
                   "Distributed-campaign worker: claims job-board shards, "
                   "runs them, publishes result fragments");
    args.addOption("board-dir", "", "job-board directory (required "
                                    "unless --cache-stress)");
    args.addOption("worker-id", "0", "coordinator-assigned worker id");
    args.addOption("jobs", "0",
                   "scheduler pool size (0 = hardware concurrency)");
    args.addOption("cache-dir", "",
                   "shared artifact persistence directory");
    args.addOption("cache-mb", "512",
                   "in-memory artifact cache budget in MiB");
    args.addOption("cache-disk-mb", "0",
                   "disk-tier byte budget in MiB (0 = unlimited)");
    args.addOption("timeout", "0",
                   "per-job wall-clock budget in seconds (0 = none)");
    args.addOption("stall-timeout-ms", "0",
                   "simulation stall watchdog (0 = no watchdog)");
    args.addOption("stage-retries", "1",
                   "retries for transient start-stage/oracle failures");
    service::GroupResilience::addOptions(args);
    args.addOption("heartbeat-ms", "1000", "lease refresh period");
    args.addFlag("no-timing",
                 "omit wall-clock fields from fragment rows");
    args.addFlag("quiet", "suppress progress output");
    args.addOption("cache-stress", "",
                   "run the multi-process cache stress against this "
                   "directory instead of the worker loop");
    args.addOption("stress-iterations", "40",
                   "cache-stress batches (fresh cache instance each)");
    args.addOption("stress-disk-budget", "16384",
                   "cache-stress disk-tier byte budget");
    args.addFlag("help", "show this help");

    if (!args.parse(argc, argv)) {
        std::fprintf(stderr, "error: %s\n%s", args.errorMessage().c_str(),
                     args.usage().c_str());
        return 2;
    }
    if (args.getFlag("help")) {
        std::printf("%s", args.usage().c_str());
        return 0;
    }

    try {
        if (args.has("cache-stress")) {
            return dist::runCacheStress(
                args.get("cache-stress"),
                static_cast<uint32_t>(
                    args.getIntInRange("stress-iterations", 1, 1000000)),
                static_cast<uint64_t>(
                    args.getIntInRange("stress-disk-budget", 0,
                                       int64_t(1) << 40)));
        }

        if (args.get("board-dir").empty()) {
            std::fprintf(stderr, "error: --board-dir is required\n");
            return 2;
        }
        dist::WorkerOptions options;
        options.boardDir = args.get("board-dir");
        options.workerId = static_cast<uint64_t>(
            args.getIntInRange("worker-id", 0, int64_t(1) << 40));
        options.jobs =
            static_cast<size_t>(args.getIntInRange("jobs", 0, 4096));
        options.cacheDir = args.get("cache-dir");
        options.cacheMb = static_cast<uint64_t>(
            args.getIntInRange("cache-mb", 1, 1 << 20));
        options.cacheDiskMb = static_cast<uint64_t>(
            args.getIntInRange("cache-disk-mb", 0, 1 << 20));
        options.jobTimeoutSeconds = args.getDouble("timeout");
        options.stallTimeoutSeconds =
            args.getDouble("stall-timeout-ms") / 1000.0;
        options.stageRetries = static_cast<uint32_t>(
            args.getIntInRange("stage-retries", 0, 100));
        options.resilience = service::GroupResilience::fromArgs(args);
        options.heartbeatSeconds =
            args.getDouble("heartbeat-ms") / 1000.0;
        options.includeTiming = !args.getFlag("no-timing");
        options.quiet = args.getFlag("quiet");
        return dist::runWorker(options);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "zatel-worker: %s\n", error.what());
        return 2;
    }
}
