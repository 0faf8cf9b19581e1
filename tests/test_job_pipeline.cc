/**
 * @file
 * Units for the incremental-submission JobPipeline extracted from the
 * one-shot CampaignScheduler (docs/SERVING.md):
 *
 *  - submissions arriving one at a time — concurrently, from many
 *    threads — all reach their terminal done callback (the property
 *    the serve daemon depends on; a batch campaign merely submits
 *    everything up front)
 *  - per-submission deadlines: one late job times out without
 *    touching its siblings
 *  - drain() is terminal: late submissions are refused by throwing,
 *    never silently dropped
 *  - job priority: a late high-priority job overtakes an earlier
 *    job queued on a busy worker
 *  - identical recipes produce bit-identical predictions through the
 *    pipeline (the serve coalescing/caching layers assume it)
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/artifact_cache.hh"
#include "service/campaign.hh"
#include "service/job_pipeline.hh"
#include "service/result_store.hh"

namespace zatel::service
{
namespace
{

constexpr uint64_t kCacheBudget = 256ull * 1024 * 1024;

/** A small, fast job: 32x32 PARK at reduced procedural density. */
CampaignJob
makeJob(double fraction)
{
    CampaignJob job;
    job.scene = "PARK";
    job.sceneDetail = 0.3f;
    job.params.width = 32;
    job.params.height = 32;
    job.params.selector.fixedFraction = fraction;
    job.id = autoJobId(job);
    return job;
}

uint64_t
bitsOf(double value)
{
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

TEST(JobPipeline, ConcurrentIncrementalSubmissionsAllComplete)
{
    ArtifactCache cache(kCacheBudget, "");
    PipelineParams params;
    params.workers = 2;
    JobPipeline pipeline(cache, params);

    constexpr size_t kThreads = 4;
    constexpr size_t kPerThread = 2;
    std::atomic<size_t> okRows{0};
    std::atomic<size_t> doneRows{0};

    // The serve daemon's submission pattern: many HTTP workers feeding
    // jobs into one pipeline at unpredictable times.
    std::vector<std::thread> submitters;
    for (size_t t = 0; t < kThreads; ++t) {
        submitters.emplace_back([&pipeline, &okRows, &doneRows, t]() {
            for (size_t i = 0; i < kPerThread; ++i) {
                JobPipeline::Submission submission;
                submission.job = makeJob(
                    0.1 + 0.05 * static_cast<double>(t * kPerThread + i));
                submission.done = [&okRows,
                                   &doneRows](const ResultRow &row) {
                    if (row.status == JobStatus::Ok)
                        okRows.fetch_add(1);
                    doneRows.fetch_add(1);
                };
                pipeline.submit(std::move(submission));
            }
        });
    }
    for (std::thread &thread : submitters)
        thread.join();
    pipeline.waitIdle();

    EXPECT_EQ(doneRows.load(), kThreads * kPerThread);
    EXPECT_EQ(okRows.load(), kThreads * kPerThread);
    EXPECT_EQ(pipeline.pendingJobs(), 0u);
}

TEST(JobPipeline, PerSubmissionTimeoutOnlyAffectsItsJob)
{
    ArtifactCache cache(kCacheBudget, "");
    PipelineParams params;
    params.workers = 2;
    JobPipeline pipeline(cache, params);

    std::mutex mutex;
    std::vector<std::pair<std::string, JobStatus>> rows;
    auto record = [&mutex, &rows](const ResultRow &row) {
        std::lock_guard<std::mutex> guard(mutex);
        rows.emplace_back(row.jobId, row.status);
    };

    JobPipeline::Submission doomed;
    doomed.job = makeJob(0.2);
    doomed.job.id = "doomed";
    doomed.timeoutSeconds = 1e-6; // expires before the first stage
    doomed.done = record;
    pipeline.submit(std::move(doomed));

    JobPipeline::Submission healthy;
    healthy.job = makeJob(0.25);
    healthy.job.id = "healthy";
    healthy.done = record; // no deadline
    pipeline.submit(std::move(healthy));

    pipeline.waitIdle();

    ASSERT_EQ(rows.size(), 2u);
    for (const auto &[id, status] : rows) {
        if (id == "doomed")
            EXPECT_EQ(status, JobStatus::TimedOut) << id;
        else
            EXPECT_EQ(status, JobStatus::Ok) << id;
    }
}

TEST(JobPipeline, SubmitAfterDrainThrows)
{
    ArtifactCache cache(kCacheBudget, "");
    PipelineParams params;
    params.workers = 1;
    JobPipeline pipeline(cache, params);
    pipeline.drain();

    JobPipeline::Submission submission;
    submission.job = makeJob(0.2);
    submission.done = [](const ResultRow &) {};
    EXPECT_THROW(pipeline.submit(std::move(submission)),
                 std::runtime_error);
}

TEST(JobPipeline, HigherPriorityJobOvertakesABacklog)
{
    ArtifactCache cache(kCacheBudget, "");
    PipelineParams params;
    params.workers = 1;
    JobPipeline pipeline(cache, params);

    std::mutex mutex;
    std::vector<std::string> finished;
    const auto submit = [&](const std::string &id, double fraction,
                            int priority,
                            std::function<void()> on_done = nullptr) {
        JobPipeline::Submission submission;
        submission.job = makeJob(fraction);
        submission.job.id = id;
        submission.job.priority = priority;
        submission.done = [&mutex, &finished, on_done](const ResultRow &row) {
            {
                std::lock_guard<std::mutex> guard(mutex);
                finished.push_back(row.jobId);
            }
            if (on_done)
                on_done();
        };
        pipeline.submit(std::move(submission));
    };
    // The one worker runs "hold" and then stops inside its done
    // callback until both later jobs are queued, so neither of them can
    // start before "urgent" is submitted. "urgent" comes second but
    // ranks higher: its units run ahead of "backlog"'s queued work, and
    // it finishes first.
    std::promise<void> holding;
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    submit("hold", 0.2, 0, [&holding, released]() {
        holding.set_value();
        released.wait();
    });
    holding.get_future().wait();
    submit("backlog", 0.2, 0);
    submit("urgent", 0.25, 5);
    release.set_value();
    pipeline.waitIdle();

    EXPECT_EQ(finished,
              (std::vector<std::string>{"hold", "urgent", "backlog"}));
}

TEST(JobPipeline, IdenticalRecipesYieldBitIdenticalPredictions)
{
    ArtifactCache cache(kCacheBudget, "");
    PipelineParams params;
    params.workers = 2;
    JobPipeline pipeline(cache, params);

    std::mutex mutex;
    std::vector<ResultRow> rows;
    for (int i = 0; i < 2; ++i) {
        JobPipeline::Submission submission;
        submission.job = makeJob(0.2);
        submission.done = [&mutex, &rows](const ResultRow &row) {
            std::lock_guard<std::mutex> guard(mutex);
            rows.push_back(row);
        };
        pipeline.submit(std::move(submission));
    }
    pipeline.waitIdle();

    ASSERT_EQ(rows.size(), 2u);
    ASSERT_EQ(rows[0].status, JobStatus::Ok);
    ASSERT_EQ(rows[1].status, JobStatus::Ok);
    ASSERT_EQ(rows[0].predicted.size(), rows[1].predicted.size());
    for (const auto &[metric, value] : rows[0].predicted) {
        auto it = rows[1].predicted.find(metric);
        ASSERT_NE(it, rows[1].predicted.end());
        EXPECT_EQ(bitsOf(value), bitsOf(it->second));
    }
}

} // namespace
} // namespace zatel::service
