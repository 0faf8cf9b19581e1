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
#include "service/campaign_options.hh"
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
    args.addOption("heartbeat-ms", "1000", "lease refresh period");
    // What zatel-batch read for the campaign, passed on by
    // CampaignOptions::toArgs().
    service::CampaignOptions::addOptions(args);
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

    // Exit 2 is the protocol's "bad options or unreadable board".
    try {
        if (args.has("cache-stress")) {
            return dist::runCacheStress(
                args.get("cache-stress"),
                static_cast<uint32_t>(
                    args.getUint("stress-iterations", 1, 1000000)),
                args.getUint("stress-disk-budget", 0, uint64_t(1) << 40));
        }

        if (args.get("board-dir").empty()) {
            std::fprintf(stderr, "error: --board-dir is required\n");
            return 2;
        }
        dist::WorkerOptions options;
        options.boardDir = args.get("board-dir");
        options.workerId = args.getUint("worker-id", 0, uint64_t(1) << 40);
        options.heartbeatSeconds =
            args.getDouble("heartbeat-ms", 0.0, 86400000.0) / 1000.0;
        options.campaign = service::CampaignOptions::fromArgs(args);
        return dist::runWorker(options);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 2;
    }
}
