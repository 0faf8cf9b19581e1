/**
 * @file
 * Unit tests of the benchmark's own helpers: medians, tail-percentile
 * selection, bench-side span self time, the seeded input generators, and
 * the catalogue's names. Quartile/spread maths are checked in
 * test_run.py.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "catalogue.hh"
#include "spans.hh"
#include "stats.hh"
#include "streams.hh"

using namespace perfbench;

namespace
{

std::vector<double>
oneTo(size_t n)
{
    std::vector<double> values;
    for (size_t i = 1; i <= n; ++i)
        values.push_back(static_cast<double>(i));
    return values;
}

} // namespace

TEST(Tail, NearestRankAndSamplesBeyond)
{
    const Tail p90 = tailAt(oneTo(100), 90.0);
    EXPECT_DOUBLE_EQ(p90.value, 90.0);
    EXPECT_EQ(p90.samples, 100u);
    EXPECT_EQ(p90.beyond, 10u);

    const Tail p50 = tailAt({5.0, 1.0, 3.0}, 50.0);
    EXPECT_DOUBLE_EQ(p50.value, 3.0);
    EXPECT_EQ(p50.beyond, 1u);

    const Tail p999 = tailAt(oneTo(10000), 99.9);
    EXPECT_DOUBLE_EQ(p999.value, 9990.0);
    EXPECT_EQ(p999.beyond, 10u);
}

TEST(Tail, RuleNeedsTenSamplesBeyond)
{
    EXPECT_EQ(highestTailPercentile(10), 0.0);
    EXPECT_EQ(highestTailPercentile(20), 50.0);
    EXPECT_EQ(highestTailPercentile(39), 50.0);
    EXPECT_EQ(highestTailPercentile(40), 75.0);
    EXPECT_EQ(highestTailPercentile(99), 75.0);
    EXPECT_EQ(highestTailPercentile(100), 90.0);
    EXPECT_EQ(highestTailPercentile(200), 95.0);
    EXPECT_EQ(highestTailPercentile(999), 95.0);
    EXPECT_EQ(highestTailPercentile(1000), 99.0);
    EXPECT_EQ(highestTailPercentile(10000), 99.9);
    // The rule and tailAt agree on the count beyond.
    for (size_t n : {40u, 100u, 200u, 1000u, 10000u}) {
        const Tail tail = tailAt(oneTo(n), highestTailPercentile(n));
        EXPECT_GE(tail.beyond, 10u) << n;
    }
}

TEST(Median, OddEvenAndEmpty)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Spans, SelfTimeSubtractsDirectChildren)
{
    using zatel::obs::TraceEvent;
    auto event = [](const char *name, double ts, double dur, uint32_t tid,
                    uint32_t depth) {
        TraceEvent e;
        e.name = name;
        e.tsMicros = ts;
        e.durMicros = dur;
        e.tid = tid;
        e.depth = depth;
        return e;
    };
    const std::vector<TraceEvent> events = {
        event("outer", 0, 100, 0, 0), event("child", 10, 30, 0, 1),
        event("grandchild", 15, 10, 0, 2), event("child", 50, 20, 0, 1),
        // Another thread at the same times is nobody's child.
        event("other", 10, 50, 1, 0)};
    const auto totals = spanTotals(events);
    EXPECT_DOUBLE_EQ(totals.at("outer").selfUs, 50.0);
    EXPECT_DOUBLE_EQ(totals.at("child").totalUs, 50.0);
    EXPECT_DOUBLE_EQ(totals.at("child").selfUs, 40.0);
    EXPECT_EQ(totals.at("child").count, 2u);
    EXPECT_DOUBLE_EQ(totals.at("grandchild").selfUs, 10.0);
    EXPECT_DOUBLE_EQ(totals.at("other").selfUs, 50.0);
}

TEST(Streams, RequestStreamIsSeeded)
{
    auto take = [](uint64_t seed) {
        RequestStream stream(seed);
        std::vector<std::string> bodies;
        for (int i = 0; i < 500; ++i)
            bodies.push_back(stream.recipe(stream.next()).body());
        return bodies;
    };
    EXPECT_EQ(take(7), take(7));
    EXPECT_NE(take(7), take(8));
}

TEST(Streams, RequestStreamColdShareAndPool)
{
    RequestStream stream(3);
    EXPECT_EQ(stream.recipeCount(), RequestStream::kPoolSize);
    const int requests = 8000;
    std::set<uint32_t> seen;
    for (uint32_t id : stream.initialPool())
        seen.insert(id);
    int fresh = 0;
    for (int i = 0; i < requests; ++i)
        fresh += seen.insert(stream.next()).second ? 1 : 0;
    // About one request in eight names a recipe never named before.
    EXPECT_NEAR(static_cast<double>(fresh) / requests, 1.0 / 8.0, 0.02);
}

TEST(Streams, CampaignJobsAreSeeded)
{
    auto ids = [](uint64_t seed) {
        std::vector<std::string> out;
        for (const auto &job : campaignSweepJobs(seed))
            out.push_back(job.id);
        return out;
    };
    const std::vector<std::string> first = ids(1);
    EXPECT_EQ(first.size(), 24u);
    EXPECT_EQ(first, ids(1));
    EXPECT_NE(first, ids(2));
    EXPECT_EQ(std::set<std::string>(first.begin(), first.end()).size(), 24u);
    EXPECT_EQ(predictParkParams(5).seed, predictParkParams(5).seed);
    EXPECT_NE(predictParkParams(5).seed, predictParkParams(6).seed);
}

TEST(Catalogue, NamesAreValidUniqueDeclaredAndDocumented)
{
    const Catalogue catalogue = loadCatalogue(PERFBENCH_BENCHMARK_JSON);
    std::ifstream in(PERFBENCH_METRICS_MD);
    std::stringstream doc;
    doc << in.rdbuf();
    ASSERT_FALSE(doc.str().empty());

    std::vector<std::string> names;
    for (const WorkloadDef &w : workloads())
        names.push_back(w.name);
    // Every gated workload is one the driver runs.
    for (const std::string &name : catalogue.workloads)
        EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
            << name;
    for (const auto *metrics : {&catalogue.endToEnd, &catalogue.perLayer}) {
        for (const MetricDef &m : *metrics)
            names.push_back(m.name);
    }
    EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(),
              names.size());
    const std::regex valid("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
    for (const std::string &name : names) {
        EXPECT_TRUE(std::regex_match(name, valid)) << name;
        EXPECT_NE(doc.str().find("`" + name + "`"), std::string::npos)
            << name << " is not in METRICS.md";
    }
}
