/**
 * @file
 * zatel-serve — the prediction server daemon (docs/SERVING.md).
 *
 * Long-running front end over the same execution core zatel-batch uses
 * (JobPipeline + ArtifactCache): clients POST JSON prediction requests
 * and get the prediction back as JSON, with identical concurrent
 * requests coalesced into one simulation and repeat requests answered
 * from cache:
 *
 *   zatel-serve --port 8080 --cache-dir .zatel-cache
 *   curl -d '{"scene":"PARK","gpu":"soc","res":64}' \
 *        http://127.0.0.1:8080/predict
 *
 * Also serves GET /healthz, /status (JSON counters) and /metrics
 * (Prometheus text with the SLO instruments). SIGINT/SIGTERM drain
 * gracefully: stop accepting, finish queued requests, exit 0.
 */

#include <csignal>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "obs/exports.hh"
#include "serve/server.hh"
#include "service/artifact_cache.hh"
#include "util/arg_parser.hh"
#include "util/logging.hh"

namespace
{

using namespace zatel;

/** Set by the SIGINT/SIGTERM handler; polled by the main loop. */
volatile std::sig_atomic_t g_shutdown = 0;

extern "C" void
handleShutdownSignal(int)
{
    g_shutdown = 1;
}

/** Serve until SIGINT/SIGTERM; returns the exit code. */
int
run(const ArgParser &args)
{
    serve::ServeParams params;
    params.host = args.get("host");
    params.port = static_cast<uint16_t>(args.getUint("port", 0, 65535));
    // The *-ms options, in seconds.
    const auto seconds = [&args](const char *name, uint64_t lo, uint64_t hi) {
        return static_cast<double>(args.getUint(name, lo, hi)) / 1000.0;
    };
    params.httpWorkers = args.getUint("http-workers", 1, 256);
    params.connectionQueueLimit = args.getUint("queue-limit", 1, 65536);
    params.readTimeoutSeconds = seconds("read-timeout-ms", 1, 3600000);
    params.predict.defaultDeadlineSeconds =
        seconds("deadline-ms", 0, 86400000);
    params.predict.maxDeadlineSeconds =
        seconds("max-deadline-ms", 0, 86400000);
    params.predict.maxPendingPredictions =
        args.getUint("max-inflight", 1, 65536);
    params.predict.responseCacheEntries =
        args.getUint("reply-cache", 0, 1 << 20);
    params.pipeline.workers = args.getUint("workers", 0, 4096);
    params.pipeline.stallTimeoutSeconds =
        seconds("stall-timeout-ms", 0, 86400000);
    params.pipeline.stageRetries =
        static_cast<uint32_t>(args.getUint("stage-retries", 0, 100));
    const uint64_t cache_mb = args.getUint("cache-mb", 1, 1 << 20);

    service::ArtifactCache cache(cache_mb << 20, args.get("cache-dir"));
    serve::PredictionServer server(cache, params);
    server.start();

    if (args.has("port-file")) {
        const std::string &path = args.get("port-file");
        std::FILE *file = std::fopen(path.c_str(), "w");
        if (!file) {
            warn("could not write port file ", path);
        } else {
            std::fprintf(file, "%u\n",
                         static_cast<unsigned>(server.port()));
            std::fclose(file);
        }
    }

    struct sigaction action{};
    action.sa_handler = handleShutdownSignal;
    sigaction(SIGINT, &action, nullptr);
    sigaction(SIGTERM, &action, nullptr);

    // The acceptor and workers do all the serving; the main thread only
    // waits for a shutdown signal (tools may sleep — src/ may not).
    while (!g_shutdown)
        std::this_thread::sleep_for(std::chrono::milliseconds(100));

    inform("zatel-serve: shutdown signal received, draining");
    server.stop();

    const bool io_ok = obs::writeExports("", args.get("metrics-out"));
    if (!args.get("cache-dir").empty())
        std::printf("%s\n", cache.summary().c_str());
    return io_ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("zatel-serve",
                   "Prediction server daemon: request coalescing, "
                   "admission control and SLO metrics over the shared "
                   "artifact cache");
    args.addOption("host", "127.0.0.1",
                   "bind address (loopback by default; the daemon "
                   "trusts its clients)");
    args.addOption("port", "8080", "TCP port (0 = pick an ephemeral one)");
    args.addOption("port-file", "",
                   "write the bound port here once listening (for "
                   "scripts using --port 0)");
    args.addOption("http-workers", "4", "HTTP worker threads");
    args.addOption("workers", "0",
                   "simulation worker threads (0 = hardware concurrency)");
    args.addOption("queue-limit", "64",
                   "accepted connections queued before 503 shedding");
    args.addOption("max-inflight", "64",
                   "distinct recipes simulating before 503 shedding");
    args.addOption("deadline-ms", "0",
                   "default per-request deadline (0 = none; a request's "
                   "own deadline_ms field overrides it)");
    args.addOption("max-deadline-ms", "300000",
                   "hardest deadline a request may ask for");
    args.addOption("read-timeout-ms", "10000",
                   "socket budget for reading one request");
    args.addOption("reply-cache", "256",
                   "finished replies kept for cache-hit answers");
    args.addOption("cache-dir", "",
                   "persist heatmaps/oracle stats here across runs");
    args.addOption("cache-mb", "512",
                   "in-memory artifact cache budget in MiB");
    args.addOption("stall-timeout-ms", "0",
                   "cancel+retry a simulation making no progress for "
                   "this long (0 = no watchdog)");
    args.addOption("stage-retries", "1",
                   "retries for transient start-stage failures");
    args.addOption("metrics-out", "",
                   "also dump the metrics registry here on shutdown "
                   "(.json = JSON, anything else = Prometheus text)");
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
