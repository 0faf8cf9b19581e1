/**
 * @file
 * serve-mixed: an in-process PredictionServer on an ephemeral loopback
 * port, driven by two closed-loop clients (one connection each at a
 * time) that walk one shared seeded request stream. A request is cold
 * when its recipe has not been answered yet at the moment it is sent;
 * the rest are warm reply-cache hits.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>

#include "bench.hh"
#include "serve/server.hh"
#include "spans.hh"
#include "stats.hh"

namespace perfbench
{

namespace
{

/** op_tail_ms percentile over all ~40000 requests a 40 s run. */
constexpr double kTailPercentile = 90.0;
/** The printed warm tail: ~35000 warm requests leave ~350 beyond p99. */
constexpr double kWarmTailPercentile = 99.0;
/** Set-ups before the load and again after it. */
constexpr int kSetupRepeats = 3;
/** Closed-loop clients, one connection each at a time. */
constexpr size_t kClients = 2;

/** One HTTP exchange on a fresh connection; empty on any error. */
std::string
exchange(uint16_t port, const std::string &request)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return "";
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        ::close(fd);
        return "";
    }
    size_t offset = 0;
    while (offset < request.size()) {
        const ssize_t n = ::send(fd, request.data() + offset,
                                 request.size() - offset, MSG_NOSIGNAL);
        if (n <= 0) {
            ::close(fd);
            return "";
        }
        offset += static_cast<size_t>(n);
    }
    std::string response;
    char buffer[4096];
    while (true) {
        const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
        if (n <= 0)
            break;
        response.append(buffer, static_cast<size_t>(n));
    }
    ::close(fd);
    return response;
}

std::string
postPredict(const std::string &body)
{
    return "POST /predict HTTP/1.1\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\n\r\n" + body;
}

/** True for a 200 response, with its body in @p body. */
bool
okBody(const std::string &response, std::string &body)
{
    if (response.rfind("HTTP/1.1 200 ", 0) != 0)
        return false;
    const size_t split = response.find("\r\n\r\n");
    if (split == std::string::npos)
        return false;
    body = response.substr(split + 4);
    return true;
}

double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

struct ServeHarness::Impl
{
    zatel::service::ArtifactCache cache{1ull << 30};
    std::unique_ptr<zatel::serve::PredictionServer> server;

    std::mutex mutex;
    /** First 200 body per recipe; a recipe is answered once present. */
    std::map<uint32_t, std::string> bodies;
    uint64_t nextIndex = 0;
};

ServeHarness::ServeHarness(uint64_t workload_seed)
    : impl_(std::make_unique<Impl>()), stream_(workload_seed)
{
    const auto start = std::chrono::steady_clock::now();
    // One HTTP worker per client and half the cores for simulation, so
    // warm hits are not queued behind runnable simulation threads.
    zatel::serve::ServeParams params;
    params.port = 0;
    params.httpWorkers = 2;
    params.pipeline.workers = std::max(1u, hardwareThreads() / 2);
    impl_->server = std::make_unique<zatel::serve::PredictionServer>(
        impl_->cache, params);
    impl_->server->start();
    for (uint32_t id : stream_.initialPool()) {
        std::string body;
        if (okBody(exchange(impl_->server->port(),
                            postPredict(stream_.recipe(id).body())),
                   body))
            impl_->bodies[id] = body;
        else
            ++setupFailures_;
    }
    setupSeconds_ = msSince(start) / 1000.0;
}

ServeHarness::~ServeHarness()
{
    impl_->server->stop();
}

ServeLoad
ServeHarness::drive(double seconds)
{
    ServeLoad load;
    std::vector<std::string> logs(kClients);
    std::vector<ServeLoad> perClient(kClients);
    const uint16_t port = impl_->server->port();
    const auto start = std::chrono::steady_clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(seconds));

    auto client = [&](size_t c) {
        ServeLoad &mine = perClient[c];
        char line[96];
        while (std::chrono::steady_clock::now() < deadline) {
            uint32_t id = 0;
            uint64_t index = 0;
            bool cold = false;
            {
                std::lock_guard<std::mutex> guard(impl_->mutex);
                id = stream_.next();
                index = impl_->nextIndex++;
                cold = impl_->bodies.count(id) == 0;
            }
            const std::string request =
                postPredict(stream_.recipe(id).body());
            const auto sent = std::chrono::steady_clock::now();
            const std::string response = exchange(port, request);
            const double ms = msSince(sent);

            std::string body;
            bool ok = okBody(response, body);
            if (ok) {
                std::lock_guard<std::mutex> guard(impl_->mutex);
                auto [it, inserted] = impl_->bodies.emplace(id, body);
                if (!inserted && it->second != body) {
                    ok = false;
                    ++mine.mismatched;
                }
            }
            ++mine.attempted;
            if (!ok) {
                ++mine.failed;
            } else {
                (cold ? mine.coldMs : mine.warmMs).push_back(ms);
                mine.replyBytes += body.size();
            }
            std::snprintf(line, sizeof(line), "%llu %u %d %.4f %d\n",
                          static_cast<unsigned long long>(index), id,
                          cold ? 1 : 0, ms, ok ? 1 : 0);
            logs[c] += line;
        }
    };
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c)
        threads.emplace_back(client, c);
    for (std::thread &thread : threads)
        thread.join();
    load.wallSeconds = msSince(start) / 1000.0;

    for (size_t c = 0; c < kClients; ++c) {
        const ServeLoad &mine = perClient[c];
        load.warmMs.insert(load.warmMs.end(), mine.warmMs.begin(),
                           mine.warmMs.end());
        load.coldMs.insert(load.coldMs.end(), mine.coldMs.begin(),
                           mine.coldMs.end());
        load.attempted += mine.attempted;
        load.failed += mine.failed;
        load.mismatched += mine.mismatched;
        load.replyBytes += mine.replyBytes;
        load.log += logs[c];
    }
    return load;
}

std::vector<double>
ServeHarness::warmRoundTrips(size_t count)
{
    const uint32_t id = stream_.initialPool().front();
    const std::string request = postPredict(stream_.recipe(id).body());
    std::vector<double> us;
    for (size_t i = 0; i < count; ++i) {
        const auto sent = std::chrono::steady_clock::now();
        std::string body;
        if (okBody(exchange(impl_->server->port(), request), body))
            us.push_back(msSince(sent) * 1000.0);
    }
    return us;
}

std::string
ServeHarness::answeredBody(uint32_t id) const
{
    std::lock_guard<std::mutex> guard(impl_->mutex);
    auto it = impl_->bodies.find(id);
    return it == impl_->bodies.end() ? std::string() : it->second;
}

std::string
ServeHarness::poolDigest() const
{
    zatel::service::HashStream hash;
    for (uint32_t id : stream_.initialPool())
        hash.str(answeredBody(id));
    char buffer[20];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(hash.digest()));
    return buffer;
}

ServeCounters
ServeHarness::counters() const
{
    const zatel::serve::ServeSnapshot snap = impl_->server->snapshot();
    ServeCounters out;
    out.simulated = snap.predict.simulated;
    out.coalesced = snap.predict.coalesced;
    out.cacheHits = snap.predict.cacheHits;
    out.shed = snap.predict.shed + snap.shedConnections;
    return out;
}

RunResult
runServeMixed(const RunOptions &options)
{
    RunResult result;

    // Set-up: server start plus answering the initial recipe pool, on a
    // fresh cache each time: before the load (the last of these serves
    // it) and again after, so the median covers the whole run.
    std::vector<double> setupSeconds;
    std::unique_ptr<ServeHarness> harness;
    auto setUp = [&] {
        harness.reset();
        harness = std::make_unique<ServeHarness>(options.seed);
        setupSeconds.push_back(harness->setupSeconds());
        if (harness->setupFailures() > 0)
            result.problem("warm-up: " +
                           std::to_string(harness->setupFailures()) +
                           " initial recipes not answered");
    };
    for (int i = 0; i < kSetupRepeats; ++i)
        setUp();

    const ServeLoad load = harness->drive(options.seconds);
    const ServeCounters counters = harness->counters();
    const std::string digest = harness->poolDigest();
    for (int i = 0; i < kSetupRepeats; ++i)
        setUp();
    harness.reset();

    for (uint64_t i = 0; i < load.attempted; ++i)
        result.operation(i >= load.failed);
    if (load.mismatched > 0)
        result.problem(std::to_string(load.mismatched) +
                       " replies differ from the recipe's first body");
    writeTextFile(options.outDir + "/requests.log",
                  "# index recipe cold ms ok\n" + load.log);
    {
        RequestStream stream(options.seed);
        std::string recipes;
        for (uint64_t i = 0; i < load.attempted; ++i)
            stream.next();
        for (uint32_t id = 0; id < stream.recipeCount(); ++id)
            recipes += std::to_string(id) + " " +
                       stream.recipe(id).body() + "\n";
        writeTextFile(options.outDir + "/recipes.txt", recipes);
    }
    if (load.warmMs.empty() || load.coldMs.empty()) {
        result.problem("no warm or no cold request completed");
        return result;
    }

    // The operation is any /predict request, warm or cold: its p90 falls
    // among the cold ones. The warm tail is printed but not bounded: on a
    // shared virtual machine it mostly measures vCPU scheduling gaps, and
    // moves several times more between quiet and busy host phases than
    // any other figure here.
    std::vector<double> allMs = load.warmMs;
    allMs.insert(allMs.end(), load.coldMs.begin(), load.coldMs.end());
    const Tail tail = tailAt(allMs, kTailPercentile);
    const Tail warmTail = tailAt(load.warmMs, kWarmTailPercentile);
    const double rps =
        static_cast<double>(load.attempted - load.failed) / load.wallSeconds;
    result.set("op_p50_ms", median(allMs));
    result.set("op_tail_ms", tail.value);
    result.set("ops_per_s", rps);
    result.set("ref_p50_ms", median(load.coldMs));
    result.set("setup_s", median(setupSeconds));

    std::printf("serve-mixed: 2 closed-loop clients, %llu requests "
                "(%zu warm, %zu cold), %llu simulated, %llu coalesced\n",
                static_cast<unsigned long long>(load.attempted),
                load.warmMs.size(), load.coldMs.size(),
                static_cast<unsigned long long>(counters.simulated),
                static_cast<unsigned long long>(counters.coalesced));
    printMetric("request_p50_ms", median(allMs), "ms");
    char note[128];
    std::snprintf(note, sizeof(note),
                  "p%g of %zu, %zu beyond (rule picks p%g)",
                  tail.percentile, tail.samples, tail.beyond,
                  highestTailPercentile(tail.samples));
    printMetric("request_tail_ms", tail.value, "ms", note);
    printMetric("serve_cold_p50_ms", median(load.coldMs), "ms");
    printMetric("serve_warm_p50_ms", median(load.warmMs), "ms");
    std::snprintf(note, sizeof(note),
                  "p%g of %zu, %zu beyond (rule picks p%g)",
                  warmTail.percentile, warmTail.samples, warmTail.beyond,
                  highestTailPercentile(warmTail.samples));
    printMetric("serve_warm_tail_ms", warmTail.value, "ms", note);
    printMetric("serve_rps", rps, "1/s");
    printMetric("setup_s", median(setupSeconds), "s",
                "server start + 16 initial recipes");
    std::printf("  digest serve-mixed %s\n", digest.c_str());
    return result;
}

} // namespace perfbench
