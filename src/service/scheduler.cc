#include "service/scheduler.hh"

#include <sstream>
#include <utility>

#include "util/logging.hh"
#include "util/timer.hh"

namespace zatel::service
{

std::string
CampaignSummary::toString() const
{
    std::ostringstream oss;
    oss << "campaign: " << totalJobs << " job(s) in " << wallSeconds
        << "s — ok=" << ok << " degraded=" << degraded
        << " failed=" << failed << " cancelled=" << cancelled
        << " timeout=" << timedOut << " skipped=" << skipped << "\n";
    oss << "cache hits: " << cacheTotals.hits
        << " (disk: " << cacheTotals.diskHits
        << "), misses: " << cacheTotals.misses
        << ", evictions: " << cacheTotals.evictions;
    if (cacheDiskDegraded) {
        // The CI fault smoke greps for this token (docs/ROBUSTNESS.md).
        oss << ", disk=degraded";
    }
    oss << "\n";
    for (int kind = 0; kind < 3; ++kind) {
        const ArtifactCache::Counters &c = cachePerKind[kind];
        oss << "  " << artifactKindName(static_cast<ArtifactKind>(kind))
            << ": hits=" << c.hits << " misses=" << c.misses
            << " diskHits=" << c.diskHits << "\n";
    }
    return oss.str();
}

CampaignScheduler::CampaignScheduler(std::vector<CampaignJob> jobs,
                                     ArtifactCache &cache,
                                     ResultStore &store,
                                     SchedulerParams params)
    : cache_(cache), store_(store), params_(std::move(params)),
      pipeline_(cache, params_)
{
    for (CampaignJob &job : jobs) {
        if (params_.alreadyCompleted.count(job.id) != 0) {
            ++skippedJobs_;
            continue;
        }
        jobs_.push_back(std::move(job));
    }
}

CampaignSummary
CampaignScheduler::run()
{
    ZATEL_ASSERT(!ran_, "CampaignScheduler::run() may only be called once");
    ran_ = true;

    WallTimer timer;
    const size_t total = jobs_.size();
    for (CampaignJob &job : jobs_) {
        JobPipeline::Submission submission;
        submission.job = std::move(job);
        submission.timeoutSeconds = params_.jobTimeoutSeconds;
        submission.done = [this](const ResultRow &row) {
            store_.append(row);
            {
                std::lock_guard<std::mutex> guard(tallyMutex_);
                switch (row.status) {
                case JobStatus::Ok:
                    ++okJobs_;
                    break;
                case JobStatus::Degraded:
                    ++degradedJobs_;
                    break;
                case JobStatus::Failed:
                    ++failedJobs_;
                    break;
                case JobStatus::Cancelled:
                    ++cancelledJobs_;
                    break;
                case JobStatus::TimedOut:
                    ++timedOutJobs_;
                    break;
                case JobStatus::Skipped:
                    break;
                }
            }
            if (params_.resultHook)
                params_.resultHook(row);
        };
        pipeline_.submit(std::move(submission));
    }
    jobs_.clear();
    pipeline_.waitIdle();

    CampaignSummary summary;
    summary.totalJobs = total + skippedJobs_;
    summary.skipped = skippedJobs_;
    {
        std::lock_guard<std::mutex> guard(tallyMutex_);
        summary.ok = okJobs_;
        summary.degraded = degradedJobs_;
        summary.failed = failedJobs_;
        summary.cancelled = cancelledJobs_;
        summary.timedOut = timedOutJobs_;
    }
    summary.wallSeconds = timer.elapsedSeconds();
    summary.cacheTotals = cache_.totals();
    for (int kind = 0; kind < 3; ++kind) {
        summary.cachePerKind[kind] =
            cache_.counters(static_cast<ArtifactKind>(kind));
    }
    summary.cacheDiskDegraded = cache_.diskDegraded();
    return summary;
}

} // namespace zatel::service
