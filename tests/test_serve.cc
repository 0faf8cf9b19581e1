/**
 * @file
 * End-to-end tests for the zatel-serve daemon (docs/SERVING.md): a real
 * PredictionServer bound to an ephemeral loopback port, driven by raw
 * POSIX-socket clients. The acceptance contract:
 *
 *  - two identical concurrent requests run exactly ONE simulation and
 *    receive byte-identical bodies (single-flight coalescing)
 *  - requests beyond the admission queue bound are shed with 503
 *    without affecting accepted requests
 *  - a request past its deadline answers 504; the daemon lives on
 *  - every serve.* fault site degrades exactly one request to a 5xx
 *    and never kills the daemon (docs/ROBUSTNESS.md)
 *  - stop() drains gracefully: in-flight requests finish, the listener
 *    closes, a second stop() is a no-op
 *  - a reply is the job's --no-timing result row, and a request names
 *    the same job a campaign JSONL line with the same text would (or
 *    both reject it); a deeply nested body or a recipe the predictor
 *    cannot run is a 400, not a crash
 *
 * The ServeConcurrency suite doubles as the TSan target for the serve
 * layer (tsan-determinism preset).
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hh"
#include "serve/server.hh"
#include "service/artifact_cache.hh"
#include "service/campaign.hh"
#include "service/result_store.hh"
#include "service/scheduler.hh"
#include "util/fault_injection.hh"

namespace zatel::serve
{
namespace
{

constexpr uint64_t kCacheBudget = 256ull * 1024 * 1024;

/** The small fast recipe every test uses (32x32 PARK, low density). */
const char kRecipe[] =
    "{\"scene\":\"PARK\",\"detail\":0.3,\"res\":32,\"fraction\":0.2}";

int
connectTo(uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

bool
sendAll(int fd, const std::string &bytes)
{
    size_t offset = 0;
    while (offset < bytes.size()) {
        const ssize_t n = ::send(fd, bytes.data() + offset,
                                 bytes.size() - offset, MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        offset += static_cast<size_t>(n);
    }
    return true;
}

/** Read until the server closes (Connection: close framing). */
std::string
readAll(int fd)
{
    std::string out;
    char buffer[4096];
    while (true) {
        const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
        if (n <= 0)
            break;
        out.append(buffer, static_cast<size_t>(n));
    }
    return out;
}

/** One full request/response exchange; empty string on connect error. */
std::string
exchange(uint16_t port, const std::string &rawRequest)
{
    const int fd = connectTo(port);
    if (fd < 0)
        return "";
    std::string response;
    if (sendAll(fd, rawRequest))
        response = readAll(fd);
    ::close(fd);
    return response;
}

std::string
postPredict(const std::string &json)
{
    return "POST /predict HTTP/1.1\r\n"
           "Content-Type: application/json\r\n"
           "Content-Length: " +
           std::to_string(json.size()) + "\r\n\r\n" + json;
}

std::string
get(const std::string &target)
{
    return "GET " + target + " HTTP/1.1\r\n\r\n";
}

int
statusOf(const std::string &response)
{
    // "HTTP/1.1 NNN ..."
    if (response.size() < 12 || response.rfind("HTTP/1.1 ", 0) != 0)
        return -1;
    return std::stoi(response.substr(9, 3));
}

std::string
bodyOf(const std::string &response)
{
    const size_t split = response.find("\r\n\r\n");
    return split == std::string::npos ? std::string()
                                      : response.substr(split + 4);
}

/** Server + cache pair on an ephemeral port with test-sized knobs. */
class Serve : public testing::Test
{
  protected:
    void SetUp() override
    {
        FaultRegistry::global().resetForTest();
        params_.port = 0;
        params_.httpWorkers = 2;
        params_.pipeline.workers = 2;
        params_.readTimeoutSeconds = 5.0;
    }

    void TearDown() override
    {
        if (server_) {
            server_->stop();
            server_.reset();
        }
        FaultRegistry::global().resetForTest();
    }

    /** Build + start the server with the current params_. */
    void start()
    {
        cache_ = std::make_unique<service::ArtifactCache>(kCacheBudget,
                                                          std::string());
        server_ = std::make_unique<PredictionServer>(*cache_, params_);
        server_->start();
    }

    uint16_t port() const { return server_->port(); }

    ServeParams params_;
    std::unique_ptr<service::ArtifactCache> cache_;
    std::unique_ptr<PredictionServer> server_;
};

TEST_F(Serve, HealthStatusAndMetricsEndpointsAnswer)
{
    start();
    const std::string health = exchange(port(), get("/healthz"));
    EXPECT_EQ(statusOf(health), 200);
    EXPECT_EQ(bodyOf(health), "ok\n");

    const std::string status = exchange(port(), get("/status"));
    EXPECT_EQ(statusOf(status), 200);
    EXPECT_NE(bodyOf(status).find("\"predict\""), std::string::npos);

    const std::string metrics = exchange(port(), get("/metrics"));
    EXPECT_EQ(statusOf(metrics), 200);
    const std::string text = bodyOf(metrics);
    // The SLO instruments the dashboards read (docs/SERVING.md).
    EXPECT_NE(text.find("# TYPE zatel_serve_request_seconds histogram"),
              std::string::npos);
    EXPECT_NE(text.find("zatel_serve_request_seconds_bucket"),
              std::string::npos);
    EXPECT_NE(text.find("zatel_serve_queue_depth"), std::string::npos);
    EXPECT_NE(text.find("zatel_serve_predictions_total"),
              std::string::npos);

    const std::string missing = exchange(port(), get("/nope"));
    EXPECT_EQ(statusOf(missing), 404);
    const std::string wrongVerb = exchange(port(), get("/predict"));
    EXPECT_EQ(statusOf(wrongVerb), 405);
}

TEST_F(Serve, InvalidPredictRequestsAnswer400)
{
    start();
    EXPECT_EQ(statusOf(exchange(port(), postPredict("not json"))), 400);
    EXPECT_EQ(statusOf(exchange(port(), postPredict("[1,2]"))), 400);
    EXPECT_EQ(statusOf(exchange(
                  port(), postPredict("{\"scene\":\"NOPE\"}"))),
              400);
    EXPECT_EQ(statusOf(exchange(
                  port(), postPredict("{\"bogus_field\":1}"))),
              400);
    EXPECT_EQ(server_->snapshot().predict.invalid, 4u);
    // Malformed requests never reach the pipeline.
    EXPECT_EQ(server_->snapshot().predict.simulated, 0u);
}

TEST_F(Serve, NegativeIntegerFieldAnswers400)
{
    start();
    // A negative integer field used to wrap through std::stoull ("-1"
    // -> 2^64-1) and reach the pipeline as an absurd resolution; it
    // must be rejected at parse time instead.
    const std::string response = exchange(
        port(), postPredict("{\"scene\":\"PARK\",\"res\":-1}"));
    EXPECT_EQ(statusOf(response), 400);
    EXPECT_NE(bodyOf(response).find("negative"), std::string::npos);
    const std::string seed = exchange(
        port(),
        postPredict("{\"scene\":\"PARK\",\"res\":32,\"seed\":-3}"));
    EXPECT_EQ(statusOf(seed), 400);
    EXPECT_EQ(server_->snapshot().predict.invalid, 2u);
    EXPECT_EQ(server_->snapshot().predict.simulated, 0u);
}

TEST_F(Serve, DeeplyNestedBodyAnswers400AndTheDaemonStaysUp)
{
    start();
    // 50,000 '[' is far below the body limit; without a depth cap the
    // recursive parser would overflow the worker's stack.
    const std::string deep = exchange(
        port(), postPredict(std::string(50000, '[')));
    EXPECT_EQ(statusOf(deep), 400);
    EXPECT_NE(bodyOf(deep).find("nesting"), std::string::npos)
        << bodyOf(deep);
    const std::string normal = exchange(port(), postPredict(kRecipe));
    EXPECT_EQ(statusOf(normal), 200) << normal;
}

TEST_F(Serve, ImpossibleRecipeAnswers400AndTheDaemonStaysUp)
{
    start();
    // spp 0 once aborted the daemon; a 2x2 plane cannot give each of
    // soc's four groups a pixel; fraction 0 once answered 200 with an
    // extrapolation of a 0% trace (IPC 192).
    for (const char *body : {R"({"scene":"PARK","res":16,"spp":0})",
                             R"({"scene":"PARK","res":2})",
                             R"({"scene":"PARK","res":32,"fraction":0})"}) {
        const std::string response = exchange(port(), postPredict(body));
        EXPECT_EQ(statusOf(response), 400) << body << "\n" << response;
    }
    EXPECT_EQ(server_->snapshot().predict.invalid, 3u);
    EXPECT_EQ(server_->snapshot().predict.simulated, 0u);
    const std::string normal = exchange(port(), postPredict(kRecipe));
    EXPECT_EQ(statusOf(normal), 200) << normal;
}

TEST_F(Serve, ReplyIsTheNoTimingResultRow)
{
    start();
    const std::string response = exchange(port(), postPredict(kRecipe));
    ASSERT_EQ(statusOf(response), 200) << response;

    // The same recipe as a one-line campaign, written the way
    // zatel-batch --no-timing writes it.
    std::istringstream line(kRecipe);
    std::vector<service::CampaignJob> jobs =
        service::parseCampaignJsonl(line);
    service::finalizeCampaign(jobs);
    service::ArtifactCache cache(kCacheBudget, std::string());
    service::ResultStoreOptions options;
    options.includeTiming = false;
    service::ResultStore store("", options);
    service::SchedulerParams sched;
    sched.workers = 2;
    service::CampaignScheduler(jobs, cache, store, sched).run();
    ASSERT_EQ(store.rowCount(), 1u);
    EXPECT_EQ(bodyOf(response), store.formatRow(store.rows()[0]));
}

TEST_F(Serve, RequestsAndCampaignLinesNameTheSameJob)
{
    start();
    // Each document once as a /predict body and once as a campaign
    // JSONL line: both readers must build the same job, or both must
    // reject it.
    const std::string docs[] = {
        R"({"scene":"PARK","detail":0.3,"res":32,"fraction":0.2,)"
        R"("seed":9007199254740993})",
        R"({"scene":"PARK","detail":0.3,"res":32,"height":16,)"
        R"("fraction":0.2})",
        R"({"scene":"PARK","detail":0.3,"res":16,"res":32,)"
        R"("fraction":0.2})",
        R"({"scene":"PARK","detail":null,"res":32,"fraction":0.2})",
        R"({"scene":"PARK","detail":0.3,"res":32,"fraction":"nan"})",
        R"({"scene":"PARK","detail":0.3,"res":010,"fraction":0.2})",
    };
    for (const std::string &doc : docs) {
        std::vector<service::CampaignJob> jobs;
        bool campaignAccepts = true;
        try {
            std::istringstream line(doc);
            jobs = service::parseCampaignJsonl(line);
        } catch (const service::CampaignError &) {
            campaignAccepts = false;
        }
        const std::string response = exchange(port(), postPredict(doc));
        if (!campaignAccepts) {
            EXPECT_EQ(statusOf(response), 400) << doc;
            continue;
        }
        ASSERT_EQ(jobs.size(), 1u) << doc;
        ASSERT_EQ(statusOf(response), 200) << doc << "\n" << response;
        const obs::JsonValue reply = obs::parseJson(bodyOf(response));
        EXPECT_EQ(reply.at("job").stringValue,
                  service::autoJobId(jobs[0]))
            << doc;
    }
}

TEST_F(Serve, IdenticalConcurrentRequestsRunOneSimulation)
{
    start();
    constexpr size_t kClients = 6;
    std::vector<std::string> responses(kClients);
    std::vector<std::thread> clients;
    for (size_t i = 0; i < kClients; ++i) {
        clients.emplace_back([this, &responses, i]() {
            responses[i] = exchange(port(), postPredict(kRecipe));
        });
    }
    for (std::thread &client : clients)
        client.join();

    std::set<std::string> bodies;
    for (const std::string &response : responses) {
        ASSERT_EQ(statusOf(response), 200) << response;
        bodies.insert(bodyOf(response));
    }
    // Byte-identical bodies from every client...
    EXPECT_EQ(bodies.size(), 1u);
    EXPECT_NE(bodies.begin()->find("\"status\":\"ok\""),
              std::string::npos);

    // ...and exactly one simulation behind them: the rest were
    // coalesced onto the in-flight prediction or answered from the
    // reply cache.
    const ServeSnapshot snap = server_->snapshot();
    EXPECT_EQ(snap.predict.simulated, 1u);
    EXPECT_EQ(snap.predict.coalesced + snap.predict.cacheHits,
              kClients - 1);

    // A repeat after the flight finished is a pure cache hit.
    const std::string repeat = exchange(port(), postPredict(kRecipe));
    EXPECT_EQ(statusOf(repeat), 200);
    EXPECT_EQ(bodyOf(repeat), *bodies.begin());
    EXPECT_EQ(server_->snapshot().predict.simulated, 1u);
    EXPECT_EQ(server_->snapshot().predict.cacheHits,
              snap.predict.cacheHits + 1);
}

TEST_F(Serve, OverloadedQueueShedsWith503WithoutHurtingAccepted)
{
    params_.httpWorkers = 1;
    params_.connectionQueueLimit = 1;
    start();

    // Park the only worker: an incomplete request holds it in its
    // read loop until we finish the message.
    const int parked = connectTo(port());
    ASSERT_GE(parked, 0);
    ASSERT_TRUE(sendAll(parked, "GET /healthz HTTP/1.1\r\n"));
    // Wait until the worker picked it up (queue back to empty).
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (server_->snapshot().accepted < 1 ||
           server_->snapshot().queueDepth > 0) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline);
        std::this_thread::yield();
    }

    // This one fills the single queue slot and must eventually win.
    std::thread queuedClient([this]() {
        const std::string response =
            exchange(port(), get("/healthz"));
        EXPECT_EQ(statusOf(response), 200) << response;
    });
    while (server_->snapshot().queueDepth < 1) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline);
        std::this_thread::yield();
    }

    // Queue full, worker busy: further connections are shed with 503
    // by the acceptor itself.
    size_t shed = 0;
    for (int i = 0; i < 3; ++i) {
        const std::string response =
            exchange(port(), get("/healthz"));
        if (statusOf(response) == 503)
            ++shed;
    }
    EXPECT_GT(shed, 0u);
    EXPECT_GE(server_->snapshot().shedConnections, shed);

    // Release the parked worker; the queued request must complete
    // untouched by the shedding around it.
    ASSERT_TRUE(sendAll(parked, "\r\n"));
    EXPECT_EQ(statusOf(readAll(parked)), 200);
    ::close(parked);
    queuedClient.join();
}

TEST_F(Serve, DeadlineExpiredPredictionAnswers504)
{
    start();
    // A deadline far below the simulation cost: the pipeline records
    // TimedOut at its first stage boundary.
    const std::string response = exchange(
        port(),
        postPredict("{\"scene\":\"PARK\",\"detail\":0.3,\"res\":32,"
                    "\"fraction\":0.2,\"deadline_ms\":0.001}"));
    EXPECT_EQ(statusOf(response), 504) << response;
    EXPECT_EQ(server_->snapshot().predict.timeouts, 1u);
    // Timed-out replies are not cached: the same recipe without the
    // deadline simulates and succeeds.
    const std::string retry = exchange(port(), postPredict(kRecipe));
    EXPECT_EQ(statusOf(retry), 200) << retry;
}

TEST_F(Serve, EveryServeFaultSiteDegradesOneRequestNotTheDaemon)
{
    start();
    struct Case
    {
        const char *site;
        int expectedStatus;
    };
    // Documented always-policy outcomes (docs/ROBUSTNESS.md): the
    // campaign-driven matrix in test_resilience.cc skips serve.*, so
    // this is their expectation table.
    const std::vector<Case> cases = {
        {"serve.accept", 503},
        {"serve.read", 500},
        {"serve.write", 500},
    };
    for (const Case &c : cases) {
        FaultRegistry::global().resetForTest();
        FaultRegistry::global().setPolicy(c.site, FaultPolicy::always());
        const std::string response =
            exchange(port(), get("/healthz"));
        EXPECT_EQ(statusOf(response), c.expectedStatus)
            << c.site << ": " << response;
        EXPECT_GT(FaultRegistry::global().site(c.site)->fires(), 0u)
            << c.site << " never fired";

        // Clearing the fault restores full service: the daemon
        // survived every injected failure.
        FaultRegistry::global().resetForTest();
        const std::string recovered =
            exchange(port(), get("/healthz"));
        EXPECT_EQ(statusOf(recovered), 200) << c.site;
    }
}

TEST_F(Serve, StopDrainsInFlightRequestsAndIsIdempotent)
{
    start();
    // An in-flight prediction when stop() lands must still terminate
    // with a real reply (graceful drain, not a dropped connection).
    std::string response;
    std::thread client([this, &response]() {
        response = exchange(port(), postPredict(kRecipe));
    });
    while (server_->snapshot().predict.simulated == 0 &&
           server_->snapshot().predict.invalid == 0)
        std::this_thread::yield();

    server_->stop();
    client.join();
    EXPECT_EQ(statusOf(response), 200) << response;
    EXPECT_FALSE(server_->running());

    // The listener is gone...
    const int fd = connectTo(port());
    if (fd >= 0)
        ::close(fd);
    EXPECT_LT(fd, 0);
    // ...and a second stop() is a no-op.
    server_->stop();
}

/** TSan target: hammer the full socket path from many threads. */
TEST(ServeConcurrency, ManyClientsCoalesceOntoOneSimulation)
{
    FaultRegistry::global().resetForTest();
    service::ArtifactCache cache(kCacheBudget, "");
    ServeParams params;
    params.port = 0;
    params.httpWorkers = 4;
    params.pipeline.workers = 2;
    PredictionServer server(cache, params);
    server.start();

    constexpr size_t kClients = 8;
    std::vector<std::string> responses(kClients);
    std::vector<std::thread> clients;
    for (size_t i = 0; i < kClients; ++i) {
        clients.emplace_back([&server, &responses, i]() {
            // Mix predictions with reads of the mutable endpoints so
            // TSan sees the counters race against the hot path.
            responses[i] =
                exchange(server.port(), postPredict(kRecipe));
            exchange(server.port(), get("/status"));
            exchange(server.port(), get("/metrics"));
        });
    }
    for (std::thread &client : clients)
        client.join();

    std::set<std::string> bodies;
    size_t ok = 0;
    for (const std::string &response : responses) {
        if (statusOf(response) == 200) {
            ++ok;
            bodies.insert(bodyOf(response));
        }
    }
    // Every client got the one coalesced answer (admission limits are
    // generous enough that nothing sheds here).
    EXPECT_EQ(ok, kClients);
    EXPECT_EQ(bodies.size(), 1u);
    EXPECT_EQ(server.snapshot().predict.simulated, 1u);

    server.stop();
    EXPECT_FALSE(server.running());
}

} // namespace
} // namespace zatel::serve
