#include "serve/server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include "obs/json.hh"
#include "obs/metrics_registry.hh"
#include "util/fault_injection.hh"
#include "util/logging.hh"
#include "util/timer.hh"

namespace zatel::serve
{

namespace
{

/** The fixed endpoint label set (bounded metric cardinality). */
const char *const kEndpoints[] = {"predict", "healthz", "status",
                                  "metrics", "other"};

/** Lazily-registered SLO instruments (docs/SERVING.md). */
struct ServeMetrics
{
    obs::Gauge *queueDepth;
    obs::Counter *shedConnections;
    /** Request latency histogram per endpoint (kEndpoints order). */
    obs::Histogram *latency[5];
};

ServeMetrics &
serveMetrics()
{
    static ServeMetrics metrics = [] {
        auto &reg = obs::MetricsRegistry::global();
        ServeMetrics m;
        m.queueDepth = reg.gauge(
            "zatel_serve_queue_depth",
            "Accepted connections waiting for an HTTP worker");
        m.shedConnections =
            reg.counter("zatel_serve_shed_total",
                        "Requests shed by admission control",
                        {{"stage", "connection"}});
        for (size_t i = 0; i < 5; ++i) {
            m.latency[i] = reg.histogram(
                "zatel_serve_request_seconds",
                "Request latency from accept-queue exit to response",
                obs::Histogram::timeBuckets(),
                {{"endpoint", kEndpoints[i]}});
        }
        return m;
    }();
    return metrics;
}

size_t
endpointIndex(const std::string &endpoint)
{
    for (size_t i = 0; i < 5; ++i) {
        if (endpoint == kEndpoints[i])
            return i;
    }
    return 4;
}

/** Status-code class label for zatel_serve_requests_total. */
const char *
codeClass(int status)
{
    if (status >= 200 && status < 300)
        return "2xx";
    if (status >= 400 && status < 500)
        return "4xx";
    return "5xx";
}

void
countRequestMetric(const std::string &endpoint, int status)
{
    // find-or-register: allocates only the first time an
    // (endpoint, class) pair appears; later calls are a map lookup.
    obs::MetricsRegistry::global()
        .counter("zatel_serve_requests_total",
                 "HTTP requests served, by endpoint and status class",
                 {{"endpoint", endpoint}, {"code", codeClass(status)}})
        ->inc();
}

} // namespace

PredictionServer::PredictionServer(service::ArtifactCache &cache,
                                   ServeParams params)
    : cache_(cache), params_(std::move(params)),
      pipeline_(cache, params_.pipeline),
      predictService_(pipeline_, params_.predict),
      queue_(params_.connectionQueueLimit)
{
}

PredictionServer::~PredictionServer()
{
    stop();
}

void
PredictionServer::start()
{
    ZATEL_ASSERT(!started_, "PredictionServer::start() called twice");
    started_ = true;
    // Metrics are part of the serving contract (/metrics endpoint).
    obs::MetricsRegistry::global().setEnabled(true);
    serveMetrics();

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        throw ServeError("socket(): " + std::string(strerror(errno)));
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(params_.port);
    if (::inet_pton(AF_INET, params_.host.c_str(), &addr.sin_addr) != 1) {
        ::close(listenFd_);
        listenFd_ = -1;
        throw ServeError("bad bind address '" + params_.host + "'");
    }
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        const std::string what = strerror(errno);
        ::close(listenFd_);
        listenFd_ = -1;
        throw ServeError("bind(" + params_.host + ":" +
                         std::to_string(params_.port) + "): " + what);
    }
    if (::listen(listenFd_, 128) != 0) {
        const std::string what = strerror(errno);
        ::close(listenFd_);
        listenFd_ = -1;
        throw ServeError("listen(): " + what);
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&bound),
                      &len) == 0)
        boundPort_ = ntohs(bound.sin_port);

    startTime_ = std::chrono::steady_clock::now();
    running_.store(true, std::memory_order_release);
    acceptor_ = std::thread([this]() { acceptorLoop(); });
    workers_.reserve(params_.httpWorkers);
    for (size_t i = 0; i < params_.httpWorkers; ++i)
        workers_.emplace_back([this]() { workerLoop(); });
    inform("zatel-serve: listening on ", params_.host, ":", boundPort_,
           " (", params_.httpWorkers, " http worker(s), ",
           pipeline_.workerCount(), " sim worker(s))");
}

void
PredictionServer::stop()
{
    if (!started_ || stopped_)
        return;
    stopped_ = true;
    stopping_.store(true, std::memory_order_release);
    if (acceptor_.joinable())
        acceptor_.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    // Serve every already-queued connection, then release the workers.
    queue_.stop();
    for (std::thread &worker : workers_)
        worker.join();
    workers_.clear();
    pipeline_.drain();
    running_.store(false, std::memory_order_release);
    inform("zatel-serve: drained (", accepted_.load(), " connection(s) "
           "served, ", shedConnections_.load(), " shed)");
}

uint16_t
PredictionServer::port() const
{
    return boundPort_;
}

void
PredictionServer::acceptorLoop()
{
    while (!stopping_.load(std::memory_order_acquire)) {
        pollfd pfd{};
        pfd.fd = listenFd_;
        pfd.events = POLLIN;
        const int rc = ::poll(&pfd, 1, 100);
        if (rc <= 0)
            continue; // timeout or EINTR: re-check stopping_.
        sockaddr_in addr{};
        socklen_t len = sizeof(addr);
        const int fd = ::accept(
            listenFd_, reinterpret_cast<sockaddr *>(&addr), &len);
        if (fd < 0)
            continue;
        char ip[INET_ADDRSTRLEN] = "unknown";
        ::inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof(ip));

        Conn conn;
        conn.fd = fd;
        conn.client = ip;
        conn.accepted = std::chrono::steady_clock::now();

        // "serve.accept" fault site: models accept-path failures
        // (fd exhaustion, interrupted handshake). The degraded mode is
        // load-shedding — the one connection gets 503, the daemon
        // lives on (docs/ROBUSTNESS.md).
        bool shed = ZATEL_FAULT_SITE("serve.accept")->shouldFire();
        if (!shed && !queue_.push(std::move(conn)))
            shed = true;
        if (shed) {
            writeResponse(
                fd, httpResponse(503, "application/json",
                                 errorBody("server busy; try again")));
            countResponse(503);
            countRequestMetric("other", 503);
            shedConnections_.fetch_add(1, std::memory_order_relaxed);
            serveMetrics().shedConnections->inc();
            ::close(fd);
        } else {
            accepted_.fetch_add(1, std::memory_order_relaxed);
        }
        serveMetrics().queueDepth->set(
            static_cast<double>(queue_.depth()));
    }
}

void
PredictionServer::workerLoop()
{
    while (true) {
        std::optional<Conn> conn = queue_.pop();
        if (!conn.has_value())
            break; // stopped and drained.
        serveMetrics().queueDepth->set(
            static_cast<double>(queue_.depth()));
        handleConnection(*conn);
        ::close(conn->fd);
    }
}

void
PredictionServer::handleConnection(const Conn &conn)
{
    WallTimer timer;
    HttpParser parser(params_.httpLimits);
    std::string endpoint = "other";
    std::string contentType = "application/json";
    int status = 0;
    std::string body;

    // "serve.read" fault site: models a failed request read (reset
    // connection, bad checksum). Degraded mode: this request gets a
    // 500, the daemon lives on (docs/ROBUSTNESS.md).
    if (ZATEL_FAULT_SITE("serve.read")->shouldFire()) {
        status = 500;
        body = errorBody("injected fault at serve.read");
    } else {
        const auto deadline =
            conn.accepted +
            std::chrono::duration_cast<
                std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(
                    params_.readTimeoutSeconds));
        char buffer[4096];
        while (parser.status() == HttpParser::Status::NeedMore) {
            const auto now = std::chrono::steady_clock::now();
            if (now >= deadline)
                break;
            const auto remaining =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - now)
                    .count();
            pollfd pfd{};
            pfd.fd = conn.fd;
            pfd.events = POLLIN;
            const int rc = ::poll(
                &pfd, 1,
                static_cast<int>(std::min<long long>(remaining, 250)));
            if (rc == 0)
                continue; // poll slice elapsed; re-check the budget.
            if (rc < 0) {
                if (errno == EINTR)
                    continue;
                break;
            }
            const ssize_t n = ::recv(conn.fd, buffer, sizeof(buffer), 0);
            if (n == 0)
                break; // peer closed before completing the request.
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                break;
            }
            parser.feed(buffer, static_cast<size_t>(n));
        }

        if (parser.status() == HttpParser::Status::Complete) {
            PredictService::Reply reply =
                route(parser.request(), endpoint, contentType);
            status = reply.status;
            body = std::move(reply.body);
        } else if (parser.status() == HttpParser::Status::Failed) {
            status = parser.errorStatus();
            body = errorBody(parser.errorReason());
        } else {
            status = 408;
            body = errorBody(
                "timed out waiting for a complete request");
        }
    }

    const bool wrote =
        writeResponse(conn.fd, httpResponse(status, contentType, body));
    const int sentStatus = wrote ? status : 500;
    countResponse(sentStatus);
    countRequestMetric(endpoint, sentStatus);
    serveMetrics()
        .latency[endpointIndex(endpoint)]
        ->observe(timer.elapsedSeconds());
}

PredictService::Reply
PredictionServer::route(const HttpRequest &request, std::string &endpoint,
                        std::string &contentType)
{
    if (request.target == "/predict") {
        endpoint = "predict";
        if (request.method != "POST")
            return {405, errorBody("use POST /predict")};
        return predictService_.predict(request.body);
    }
    if (request.target == "/healthz") {
        endpoint = "healthz";
        contentType = "text/plain; charset=utf-8";
        if (request.method != "GET")
            return {405, "use GET /healthz\n"};
        return {200, "ok\n"};
    }
    if (request.target == "/status") {
        endpoint = "status";
        if (request.method != "GET")
            return {405, errorBody("use GET /status")};
        return {200, statusJson()};
    }
    if (request.target == "/metrics") {
        endpoint = "metrics";
        contentType = "text/plain; version=0.0.4; charset=utf-8";
        if (request.method != "GET")
            return {405, "use GET /metrics\n"};
        return {200, obs::MetricsRegistry::global().prometheusText()};
    }
    endpoint = "other";
    return {404, errorBody("no such endpoint: " + request.target)};
}

bool
PredictionServer::writeResponse(int fd, const std::string &response)
{
    // "serve.write" fault site: models a failed response write (peer
    // reset mid-reply). Degraded mode: a best-effort bare 500 so the
    // client sees a terminal status; the daemon lives on.
    if (ZATEL_FAULT_SITE("serve.write")->shouldFire()) {
        static const char kDegraded[] =
            "HTTP/1.1 500 Internal Server Error\r\n"
            "Content-Length: 0\r\nConnection: close\r\n\r\n";
        (void)::send(fd, kDegraded, sizeof(kDegraded) - 1, MSG_NOSIGNAL);
        return false;
    }
    size_t offset = 0;
    while (offset < response.size()) {
        const ssize_t n = ::send(fd, response.data() + offset,
                                 response.size() - offset, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        offset += static_cast<size_t>(n);
    }
    return true;
}

void
PredictionServer::countResponse(int status)
{
    if (status >= 200 && status < 300)
        responses2xx_.fetch_add(1, std::memory_order_relaxed);
    else if (status >= 400 && status < 500)
        responses4xx_.fetch_add(1, std::memory_order_relaxed);
    else
        responses5xx_.fetch_add(1, std::memory_order_relaxed);
}

ServeSnapshot
PredictionServer::snapshot() const
{
    ServeSnapshot snap;
    snap.accepted = accepted_.load(std::memory_order_relaxed);
    snap.shedConnections =
        shedConnections_.load(std::memory_order_relaxed);
    snap.responses2xx = responses2xx_.load(std::memory_order_relaxed);
    snap.responses4xx = responses4xx_.load(std::memory_order_relaxed);
    snap.responses5xx = responses5xx_.load(std::memory_order_relaxed);
    snap.queueDepth = queue_.depth();
    snap.pipelinePending = pipeline_.pendingJobs();
    snap.predict = predictService_.stats();
    return snap;
}

std::string
PredictionServer::statusJson() const
{
    const ServeSnapshot snap = snapshot();
    const service::ArtifactCache::Counters cache = cache_.totals();
    const double uptime =
        running_.load(std::memory_order_acquire)
            ? std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - startTime_)
                  .count()
            : 0.0;
    std::ostringstream oss;
    oss << "{\"listening\":\"" << obs::jsonEscaped(params_.host)
        << ":" << boundPort_ << "\""
        << ",\"uptime_seconds\":" << obs::formatDouble17(uptime)
        << ",\"http\":{\"accepted\":" << snap.accepted
        << ",\"shed\":" << snap.shedConnections
        << ",\"queue_depth\":" << snap.queueDepth
        << ",\"queue_limit\":" << queue_.limit()
        << ",\"workers\":" << params_.httpWorkers
        << ",\"responses\":{\"2xx\":" << snap.responses2xx
        << ",\"4xx\":" << snap.responses4xx
        << ",\"5xx\":" << snap.responses5xx << "}}"
        << ",\"predict\":{\"simulated\":" << snap.predict.simulated
        << ",\"coalesced\":" << snap.predict.coalesced
        << ",\"cache_hits\":" << snap.predict.cacheHits
        << ",\"shed\":" << snap.predict.shed
        << ",\"invalid\":" << snap.predict.invalid
        << ",\"timeouts\":" << snap.predict.timeouts
        << ",\"inflight\":" << predictService_.inflight()
        << ",\"pipeline_pending\":" << snap.pipelinePending
        << ",\"sim_workers\":" << pipeline_.workerCount() << "}"
        << ",\"cache\":{\"hits\":" << cache.hits
        << ",\"misses\":" << cache.misses
        << ",\"disk_hits\":" << cache.diskHits
        << ",\"evictions\":" << cache.evictions
        << ",\"disk_degraded\":"
        << (cache_.diskDegraded() ? "true" : "false") << "}}";
    return oss.str();
}

} // namespace zatel::serve
