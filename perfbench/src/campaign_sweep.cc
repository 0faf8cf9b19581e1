/**
 * @file
 * campaign-sweep: the paper's Section IV-D fraction sweep as one batch on
 * an in-process CampaignScheduler (workers = nproc), repeated with a
 * fresh memory-only ArtifactCache each time and a ResultStore with
 * timing off.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>

#include "bench.hh"
#include "service/scheduler.hh"
#include "spans.hh"
#include "stats.hh"

namespace perfbench
{

namespace
{

using namespace zatel::service;

/** op_tail_ms percentile: 24 jobs x ~16 repetitions a 40 s run leave ~38
 *  latencies beyond p90, and still 10 at half the speed. */
constexpr double kTailPercentile = 90.0;
/** The four scene packs take ~6 ms: this many up front and again after
 *  every repetition. */
constexpr int kSetupRepeats = 5;

const zatel::rt::SceneId kScenes[] = {
    zatel::rt::SceneId::Park, zatel::rt::SceneId::Bunny,
    zatel::rt::SceneId::Sprng, zatel::rt::SceneId::Bath};

/**
 * Wall time of each oracle a repetition built, in ms. The three jobs of a
 * scene and GPU share one oracle: one of them builds it and the others
 * wait for it or hit the cache, so the longest oracle time in the group
 * is the build.
 */
std::vector<double>
oracleBuildMs(const std::vector<ResultRow> &rows)
{
    std::map<std::pair<std::string, std::string>, double> longest;
    for (const ResultRow &row : rows) {
        double &ms = longest[{row.scene, row.gpu}];
        ms = std::max(ms, row.oracleSeconds * 1000.0);
    }
    std::vector<double> out;
    for (const auto &[key, ms] : longest)
        out.push_back(ms);
    return out;
}

} // namespace

CampaignRep
runCampaignOnce(const std::vector<CampaignJob> &jobs)
{
    CampaignRep rep;
    ArtifactCache cache(1ull << 30);
    ResultStoreOptions storeOptions;
    storeOptions.includeTiming = false;
    ResultStore store("", storeOptions);

    std::mutex doneMutex;
    std::chrono::steady_clock::time_point start;
    SchedulerParams params;
    params.workers = hardwareThreads();
    params.resultHook = [&](const ResultRow &) {
        const double ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count();
        std::lock_guard<std::mutex> guard(doneMutex);
        rep.doneMs.push_back(ms);
    };
    CampaignScheduler scheduler(jobs, cache, store, params);
    start = std::chrono::steady_clock::now();
    const CampaignSummary summary = scheduler.run();
    rep.wallMs = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();

    rep.okRows = summary.ok;
    rep.rows = store.rows();
    std::vector<std::string> lines;
    for (const ResultRow &row : rep.rows)
        lines.push_back(store.formatRow(row));
    std::sort(lines.begin(), lines.end());
    for (const std::string &line : lines)
        rep.canonicalRows += line + "\n";
    for (int kind = 0; kind < 3; ++kind)
        rep.perKind[kind] = cache.counters(static_cast<ArtifactKind>(kind));
    return rep;
}

RunResult
runCampaignSweep(const RunOptions &options)
{
    RunResult result;
    const std::vector<CampaignJob> jobs = campaignSweepJobs(options.seed);
    std::string jobList;
    for (const CampaignJob &job : jobs)
        jobList += serializeJobJsonl(job) + "\n";
    writeTextFile(options.outDir + "/jobs.jsonl", jobList);

    // Set-up: the campaign's four scene packs (scene + BVH), several
    // times up front and again after every repetition, so the median
    // covers the whole run.
    std::vector<double> setupMs;
    auto setupSample = [&setupMs] {
        double ms = 0.0;
        for (zatel::rt::SceneId id : kScenes) {
            std::unique_ptr<BuiltScene> built = buildScene(id, nullptr);
            ms += built->sceneMs + built->bvhMs;
        }
        setupMs.push_back(ms);
    };
    for (int i = 0; i < kSetupRepeats; ++i)
        setupSample();

    // Warm-up repetition: checked, not timed.
    const CampaignRep reference = runCampaignOnce(jobs);
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(options.seconds));

    std::vector<CampaignRep> reps;
    do {
        reps.push_back(runCampaignOnce(jobs));
        for (int i = 0; i < kSetupRepeats; ++i)
            setupSample();
    } while (std::chrono::steady_clock::now() < deadline);

    std::vector<double> doneMs;
    std::vector<double> wallMs;
    std::vector<double> oracleMs;
    std::vector<double> jobsPerSecond;
    size_t differing = 0;
    for (const CampaignRep &rep : reps) {
        for (size_t j = 0; j < jobs.size(); ++j)
            result.operation(j < rep.okRows);
        doneMs.insert(doneMs.end(), rep.doneMs.begin(), rep.doneMs.end());
        wallMs.push_back(rep.wallMs);
        const std::vector<double> built = oracleBuildMs(rep.rows);
        oracleMs.insert(oracleMs.end(), built.begin(), built.end());
        jobsPerSecond.push_back(static_cast<double>(jobs.size()) /
                                (rep.wallMs / 1000.0));
        if (rep.canonicalRows != reference.canonicalRows)
            ++differing;
    }
    if (reference.okRows != jobs.size())
        result.problem("warm-up repetition: only " +
                       std::to_string(reference.okRows) + " of " +
                       std::to_string(jobs.size()) + " rows ok");
    if (differing > 0)
        result.problem(std::to_string(differing) +
                       " repetitions wrote rows that differ from the first");
    writeTextFile(options.outDir + "/rows.jsonl", reference.canonicalRows);

    double maeSum = 0.0;
    zatel::service::HashStream digest;
    for (const ResultRow &row : reference.rows)
        maeSum += rowMaePct(row);
    digest.str(reference.canonicalRows);
    const double mae =
        reference.rows.empty()
            ? 0.0
            : maeSum / static_cast<double>(reference.rows.size());

    const Tail tail = tailAt(doneMs, kTailPercentile);
    result.set("op_p50_ms", median(doneMs));
    result.set("op_tail_ms", tail.value);
    result.set("ops_per_s", median(jobsPerSecond));
    result.set("ref_p50_ms", median(oracleMs));
    result.set("setup_s", median(setupMs) / 1000.0);

    std::printf("campaign-sweep: %zu jobs x %zu timed repetitions, "
                "%u workers\n",
                jobs.size(), reps.size(), hardwareThreads());
    printMetric("campaign_jobs_per_s", median(jobsPerSecond), "1/s");
    printMetric("job_done_p50_ms", median(doneMs), "ms",
                "run() start to the job's row");
    char note[128];
    std::snprintf(note, sizeof(note),
                  "p%g of %zu, %zu beyond (rule picks p%g)",
                  tail.percentile, tail.samples, tail.beyond,
                  highestTailPercentile(tail.samples));
    printMetric("job_done_tail_ms", tail.value, "ms", note);
    printMetric("campaign_ms", median(wallMs), "ms", "one repetition");
    printMetric("campaign_oracle_ms", median(oracleMs), "ms",
                std::to_string(oracleMs.size()) + " oracle builds");
    printMetric("campaign_mae_pct", mae, "%", "deterministic for a seed");
    printMetric("setup_s", median(setupMs) / 1000.0, "s",
                "4 scene packs (scene + BVH)");
    const auto &hm = reference.perKind[1];
    std::printf("  cache: scenepack %llu/%llu heatmap %llu/%llu oracle "
                "%llu/%llu (hits/misses)\n",
                static_cast<unsigned long long>(reference.perKind[0].hits),
                static_cast<unsigned long long>(reference.perKind[0].misses),
                static_cast<unsigned long long>(hm.hits),
                static_cast<unsigned long long>(hm.misses),
                static_cast<unsigned long long>(reference.perKind[2].hits),
                static_cast<unsigned long long>(reference.perKind[2].misses));
    std::printf("  digest campaign-sweep %016llx\n",
                static_cast<unsigned long long>(digest.digest()));
    return result;
}

} // namespace perfbench
