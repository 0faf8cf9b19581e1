/**
 * @file
 * PredictService: the socket-free core of the /predict endpoint
 * (docs/SERVING.md). Maps one JSON request body to one terminal HTTP
 * reply, composing the pieces the batch service already has:
 *
 *   parse       obs::parseJson -> jobFromJson() -> CampaignJob, the
 *               campaign JSONL path minus "deadline_ms"; any malformed
 *               field answers 400 before touching the pipeline
 *               (unknown scene/GPU typos included — they are
 *               permanent, retrying cannot fix them)
 *   dedupe      response cache: a recipe that already produced an Ok
 *               reply is answered from memory (LRU-bounded), counted
 *               as a cache hit
 *   coalesce    single-flight per jobParamsHash key: identical
 *               requests in flight share ONE JobPipeline submission
 *               and receive byte-identical bodies
 *   admit       at most maxPendingPredictions distinct recipes may be
 *               in flight; beyond that requests are shed with 503
 *   execute     JobPipeline::submit with the request's deadline; the
 *               terminal ResultRow maps to HTTP status (Ok/Degraded ->
 *               200, TimedOut -> 504, Cancelled -> 503, Failed -> 500)
 *
 * A reply body is the job's result row (service::formatJsonlRow) with
 * timing off: identical recipes serialize to identical bytes, the same
 * line zatel-batch --no-timing writes — the properties the CI serve
 * smoke and the single-flight end-to-end test assert.
 *
 * Thread-safe: predict() is called concurrently from every HTTP
 * worker; blocking (on the shared simulation) is the design — the
 * caller owns one connection and has nothing else to do.
 */

#ifndef ZATEL_SERVE_PREDICT_SERVICE_HH
#define ZATEL_SERVE_PREDICT_SERVICE_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "service/job_pipeline.hh"

namespace zatel::serve
{

/** JSON error document ({"error":"..."}) for every non-row reply. */
std::string errorBody(const std::string &message);

/** Knobs for the /predict core (flag-mapped in tools/zatel_serve.cpp). */
struct PredictParams
{
    /** Per-request wall-clock budget in seconds; <= 0 disables it. A
     *  request's "deadline_ms" field overrides it (never upward past
     *  maxDeadlineSeconds). */
    double defaultDeadlineSeconds = 0.0;
    /** Upper bound a request may raise its own deadline to. */
    double maxDeadlineSeconds = 300.0;
    /** Distinct recipes in flight before 503 shedding. */
    size_t maxPendingPredictions = 64;
    /** Ok replies kept for cache-hit answers (LRU evicted). */
    size_t responseCacheEntries = 256;
};

class PredictService
{
  public:
    /** One finished request. */
    struct Reply
    {
        int status = 200;
        std::string body; ///< Result row or {"error":...} document.
    };

    /** Monotonic counters for /status and tests. */
    struct Stats
    {
        uint64_t simulated = 0;  ///< Submissions that ran the pipeline.
        uint64_t coalesced = 0;  ///< Requests served by another flight.
        uint64_t cacheHits = 0;  ///< Served straight from the reply cache.
        uint64_t shed = 0;       ///< 503: too many recipes in flight.
        uint64_t invalid = 0;    ///< 400: unparsable request.
        uint64_t timeouts = 0;   ///< 504: deadline exceeded.
    };

    /** @param pipeline Shared execution core (outlives the service). */
    explicit PredictService(service::JobPipeline &pipeline,
                            PredictParams params = {});

    PredictService(const PredictService &) = delete;
    PredictService &operator=(const PredictService &) = delete;

    /** Serve one /predict request body; blocks until terminal. */
    Reply predict(const std::string &requestBody);

    Stats stats() const;

    /** Recipes currently in flight (admission-control signal). */
    size_t inflight() const;

  private:
    /** A coalesced in-flight prediction. */
    struct Flight
    {
        bool done = false; ///< Guarded by the service mutex.
        Reply reply;       ///< Valid once done.
    };

    /** Parse + validate a request body. @throws CampaignError /
     *  obs::JsonError with a client-presentable message. */
    service::CampaignJob parseRequest(const std::string &requestBody,
                                      double &deadlineSeconds) const;
    /** Terminal row -> HTTP reply (no timing fields; deterministic). */
    static Reply buildReply(const service::ResultRow &row);

    service::JobPipeline &pipeline_;
    const PredictParams params_;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    /** In-flight recipes by jobParamsHash. Guarded by mutex_. */
    std::map<uint64_t, std::shared_ptr<Flight>> flights_;
    /** Ok-reply cache by recipe key. Guarded by mutex_. */
    std::map<uint64_t, std::string> replyCache_;
    /** LRU order for replyCache_ (front = oldest). Guarded by mutex_. */
    std::list<uint64_t> lruOrder_;
    Stats stats_; ///< Guarded by mutex_.
};

} // namespace zatel::serve

#endif // ZATEL_SERVE_PREDICT_SERVICE_HH
