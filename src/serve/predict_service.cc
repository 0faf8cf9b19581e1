#include "serve/predict_service.hh"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/json.hh"
#include "obs/metrics_registry.hh"
#include "util/logging.hh"

namespace zatel::serve
{

namespace
{

/** Lazily-registered /predict outcome counters (docs/SERVING.md). */
struct PredictMetrics
{
    obs::Counter *simulated;
    obs::Counter *coalesced;
    obs::Counter *cached;
    obs::Counter *shed;
    obs::Counter *invalid;
    obs::Counter *timeouts;
};

PredictMetrics &
predictMetrics()
{
    static PredictMetrics metrics = [] {
        auto &reg = obs::MetricsRegistry::global();
        PredictMetrics m;
        const std::string name = "zatel_serve_predictions_total";
        const std::string help =
            "Predict requests by how they were satisfied";
        m.simulated =
            reg.counter(name, help, {{"source", "simulated"}});
        m.coalesced =
            reg.counter(name, help, {{"source", "coalesced"}});
        m.cached = reg.counter(name, help, {{"source", "cached"}});
        m.shed = reg.counter("zatel_serve_shed_total",
                             "Requests shed by admission control",
                             {{"stage", "predict"}});
        m.invalid =
            reg.counter("zatel_serve_invalid_requests_total",
                        "Predict requests rejected as malformed (400)");
        m.timeouts = reg.counter(
            "zatel_serve_timeouts_total",
            "Predict requests that exceeded their deadline (504)");
        return m;
    }();
    return metrics;
}

} // namespace

std::string
errorBody(const std::string &message)
{
    return "{\"error\":\"" + obs::jsonEscaped(message) + "\"}";
}

PredictService::PredictService(service::JobPipeline &pipeline,
                               PredictParams params)
    : pipeline_(pipeline), params_(params)
{
    // Register the outcome series up front so /metrics exposes them
    // from the first scrape, not the first request.
    predictMetrics();
}

service::CampaignJob
PredictService::parseRequest(const std::string &requestBody,
                             double &deadlineSeconds) const
{
    obs::JsonValue doc = obs::parseJson(requestBody);
    if (!doc.isObject())
        throw service::CampaignError(
            "request body must be a JSON object");

    // deadline_ms is the one serving-only field: take it out, then the
    // rest is a campaign job like any JSONL line.
    deadlineSeconds = params_.defaultDeadlineSeconds;
    auto &members = doc.objectValue;
    auto deadline = std::find_if(
        members.begin(), members.end(),
        [](const auto &member) { return member.first == "deadline_ms"; });
    if (deadline != members.end()) {
        const obs::JsonValue &value = deadline->second;
        if (!value.isNull()) {
            if (!value.isNumber() || value.numberValue < 0.0)
                throw service::CampaignError(
                    "deadline_ms must be a non-negative number");
            deadlineSeconds = std::min(value.numberValue / 1000.0,
                                       params_.maxDeadlineSeconds);
        }
        members.erase(deadline);
    }
    service::CampaignJob job = service::jobFromJson(doc);

    // The client-supplied id is ignored: replies are keyed, cached and
    // coalesced by recipe, so the id must be a pure function of the
    // parameters or two coalesced requests could disagree on it.
    job.id = service::autoJobId(job);

    // Permanent config errors must answer 400 here, not 500 later.
    service::resolveSceneName(job.scene);
    service::gpuConfigFromName(job.gpu);
    service::checkRecipe(job);
    return job;
}

PredictService::Reply
PredictService::buildReply(const service::ResultRow &row)
{
    Reply reply;
    switch (row.status) {
    case service::JobStatus::Ok:
    case service::JobStatus::Degraded:
        reply.status = 200;
        break;
    case service::JobStatus::TimedOut:
        reply.status = 504;
        break;
    case service::JobStatus::Cancelled:
        reply.status = 503;
        break;
    case service::JobStatus::Failed:
    case service::JobStatus::Skipped:
        reply.status = 500;
        break;
    }
    // The result row with timing off: identical recipes serialize
    // identically, and the body is the line zatel-batch --no-timing
    // writes for the same recipe.
    reply.body = service::formatJsonlRow(row, /*include_timing=*/false);
    return reply;
}

PredictService::Reply
PredictService::predict(const std::string &requestBody)
{
    service::CampaignJob job;
    double deadlineSeconds = 0.0;
    try {
        job = parseRequest(requestBody, deadlineSeconds);
    } catch (const std::exception &err) {
        {
            std::lock_guard<std::mutex> guard(mutex_);
            ++stats_.invalid;
        }
        predictMetrics().invalid->inc();
        return Reply{400, errorBody(err.what())};
    }

    const uint64_t key = service::jobParamsHash(job);
    std::shared_ptr<Flight> flight;
    {
        std::unique_lock<std::mutex> lock(mutex_);

        auto cached = replyCache_.find(key);
        if (cached != replyCache_.end()) {
            // Touch the LRU entry (O(n) over a small bounded list).
            auto pos =
                std::find(lruOrder_.begin(), lruOrder_.end(), key);
            lruOrder_.splice(lruOrder_.end(), lruOrder_, pos);
            ++stats_.cacheHits;
            predictMetrics().cached->inc();
            return Reply{200, cached->second};
        }

        auto inflight = flights_.find(key);
        if (inflight != flights_.end()) {
            flight = inflight->second;
            ++stats_.coalesced;
            predictMetrics().coalesced->inc();
            cv_.wait(lock, [&flight]() { return flight->done; });
            return flight->reply;
        }

        if (flights_.size() >= params_.maxPendingPredictions) {
            ++stats_.shed;
            predictMetrics().shed->inc();
            return Reply{
                503, errorBody("server overloaded; retry later")};
        }

        flight = std::make_shared<Flight>();
        flights_.emplace(key, flight);
        ++stats_.simulated;
        predictMetrics().simulated->inc();
    }

    service::JobPipeline::Submission submission;
    submission.job = std::move(job);
    submission.timeoutSeconds = deadlineSeconds;
    submission.done = [this, key,
                       flight](const service::ResultRow &row) {
        Reply reply = buildReply(row);
        {
            std::lock_guard<std::mutex> guard(mutex_);
            if (row.status == service::JobStatus::Ok) {
                if (replyCache_.size() >=
                        params_.responseCacheEntries &&
                    !lruOrder_.empty()) {
                    replyCache_.erase(lruOrder_.front());
                    lruOrder_.pop_front();
                }
                replyCache_.emplace(key, reply.body);
                lruOrder_.push_back(key);
            }
            if (row.status == service::JobStatus::TimedOut) {
                ++stats_.timeouts;
                predictMetrics().timeouts->inc();
            }
            flights_.erase(key);
            flight->reply = std::move(reply);
            flight->done = true;
        }
        cv_.notify_all();
    };
    try {
        pipeline_.submit(std::move(submission));
    } catch (const std::exception &) {
        // drain() started between admission and submit: shed late.
        std::lock_guard<std::mutex> guard(mutex_);
        flights_.erase(key);
        flight->done = true;
        flight->reply =
            Reply{503, errorBody("server draining; connection refused")};
        return flight->reply;
    }

    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&flight]() { return flight->done; });
    return flight->reply;
}

PredictService::Stats
PredictService::stats() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return stats_;
}

size_t
PredictService::inflight() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return flights_.size();
}

} // namespace zatel::serve
