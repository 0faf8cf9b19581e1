/**
 * @file
 * Unit tests for the deterministic fault-injection framework
 * (src/util/fault_injection.*, docs/ROBUSTNESS.md): policy parsing
 * round trips, registry arm/disarm semantics, the exactly-once Nth
 * policy under thread races, keyed-probability determinism (the
 * property that keeps degraded predictions byte-identical between
 * thread counts), typo protection in configure(), hit/fire counters
 * and the deterministic retry backoff schedule.
 *
 * End-to-end behaviour of the armed sites (a campaign surviving every
 * catalog fault) lives in tests/test_resilience.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/fault_injection.hh"

namespace zatel
{
namespace
{

// ---------------------------------------------------------------------
// FaultPolicy parsing
// ---------------------------------------------------------------------

TEST(FaultInjectionPolicy, ParseRoundTripsCanonicalSpellings)
{
    for (const std::string text :
         {"never", "always", "nth:1", "nth:3", "prob:0.25",
          "prob:0.5:7"}) {
        const FaultPolicy policy = FaultPolicy::parse(text);
        // toString() must parse back to an equivalent policy.
        const FaultPolicy again = FaultPolicy::parse(policy.toString());
        EXPECT_EQ(policy.kind, again.kind) << text;
        EXPECT_EQ(policy.nth, again.nth) << text;
        EXPECT_EQ(policy.probability, again.probability) << text;
        EXPECT_EQ(policy.seed, again.seed) << text;
    }
}

TEST(FaultInjectionPolicy, ParseFieldsAreExact)
{
    EXPECT_FALSE(FaultPolicy::parse("never").armed());
    EXPECT_TRUE(FaultPolicy::parse("always").armed());

    const FaultPolicy nth = FaultPolicy::parse("nth:3");
    EXPECT_EQ(nth.kind, FaultPolicy::Kind::Nth);
    EXPECT_EQ(nth.nth, 3u);

    const FaultPolicy prob = FaultPolicy::parse("prob:0.5:7");
    EXPECT_EQ(prob.kind, FaultPolicy::Kind::Probability);
    EXPECT_DOUBLE_EQ(prob.probability, 0.5);
    EXPECT_EQ(prob.seed, 7u);

    // Seed defaults to 0 when omitted.
    EXPECT_EQ(FaultPolicy::parse("prob:1").seed, 0u);
}

TEST(FaultInjectionPolicy, ParseRejectsMalformedSpecs)
{
    for (const std::string bad :
         {"", "sometimes", "nth", "nth:", "nth:0", "nth:abc", "prob",
          "prob:", "prob:1.5", "prob:-0.1", "prob:x", "prob:0.5:zz",
          "always:1", "nth:-1", "nth:0x3", "prob:nan", "prob:0.5:-7"}) {
        EXPECT_THROW(FaultPolicy::parse(bad), std::invalid_argument)
            << "'" << bad << "' should not parse";
    }
}

// ---------------------------------------------------------------------
// Private-registry behaviour (no global state involved)
// ---------------------------------------------------------------------

TEST(FaultInjectionRegistry, CatalogIsPreRegisteredAndDisarmed)
{
    FaultRegistry registry;
    EXPECT_FALSE(registry.anyArmed());
    const std::vector<std::string> names = registry.siteNames();
    for (const std::string &known : FaultRegistry::knownSiteNames()) {
        EXPECT_NE(std::find(names.begin(), names.end(), known),
                  names.end())
            << known << " missing from a fresh registry";
    }
}

TEST(FaultInjectionRegistry, SitePointersAreStableAcrossRegistrations)
{
    FaultRegistry registry;
    FaultSite *first = registry.site("test.pointer.stability");
    // Registering many more sites must not invalidate the pointer.
    for (int i = 0; i < 64; ++i)
        registry.site("test.filler." + std::to_string(i));
    EXPECT_EQ(first, registry.site("test.pointer.stability"));
    EXPECT_EQ(first->name(), "test.pointer.stability");
}

TEST(FaultInjectionRegistry, SetPolicyArmsAndDisarmAllClears)
{
    FaultRegistry registry;
    FaultSite *site = registry.site("test.arm");
    EXPECT_FALSE(site->shouldFire());

    registry.setPolicy("test.arm", FaultPolicy::always());
    EXPECT_TRUE(registry.anyArmed());
    EXPECT_TRUE(site->shouldFire());

    registry.disarmAll();
    EXPECT_FALSE(registry.anyArmed());
    EXPECT_FALSE(site->shouldFire());
}

TEST(FaultInjectionRegistry, ConfigureArmsEveryEntry)
{
    FaultRegistry registry;
    registry.configure("cache.disk.write=always,group.sim=nth:2");
    EXPECT_TRUE(registry.anyArmed());
    EXPECT_EQ(registry.site("cache.disk.write")->policy().kind,
              FaultPolicy::Kind::Always);
    EXPECT_EQ(registry.site("group.sim")->policy().kind,
              FaultPolicy::Kind::Nth);
    EXPECT_EQ(registry.site("group.sim")->policy().nth, 2u);

    // Semicolons are accepted as separators too.
    FaultRegistry semi;
    semi.configure("oracle.run=always;heatmap.build=prob:0.5:3");
    EXPECT_TRUE(semi.site("oracle.run")->policy().armed());
    EXPECT_TRUE(semi.site("heatmap.build")->policy().armed());
}

TEST(FaultInjectionRegistry, ConfigureRejectsTyposWithoutArmingAnything)
{
    FaultRegistry registry;
    // The first entry is valid; the typo'd second entry must reject the
    // whole spec (all-or-nothing): a typo is loud, never a partially
    // applied fault plan.
    EXPECT_THROW(
        registry.configure("cache.disk.write=always,grp.sim=always"),
        std::invalid_argument);
    EXPECT_FALSE(registry.anyArmed());
    EXPECT_FALSE(registry.site("cache.disk.write")->policy().armed());

    EXPECT_THROW(registry.configure("cache.disk.write"),
                 std::invalid_argument);
    EXPECT_THROW(registry.configure("=always"), std::invalid_argument);
    EXPECT_THROW(registry.configure("cache.disk.write="),
                 std::invalid_argument);
    EXPECT_THROW(registry.configure("cache.disk.write=bogus"),
                 std::invalid_argument);
}

TEST(FaultInjectionRegistry, NthFiresExactlyOnceAcrossRacingThreads)
{
    FaultRegistry registry;
    registry.setPolicy("test.nth.race", FaultPolicy::nthHit(100));
    FaultSite *site = registry.site("test.nth.race");

    constexpr int kThreads = 8;
    constexpr int kPerThread = 200; // 1600 evaluations >> nth=100
    std::atomic<int> fired{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kPerThread; ++i) {
                if (site->shouldFire())
                    fired.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    EXPECT_EQ(fired.load(), 1)
        << "nth:N models ONE transient fault; it must never fire twice";
    EXPECT_EQ(site->fires(), 1u);
    EXPECT_EQ(site->hits(),
              static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(FaultInjectionRegistry, KeyedProbabilityIsAPureFunctionOfItsInputs)
{
    FaultRegistry registry;
    registry.setPolicy("test.prob.keyed",
                       FaultPolicy::withProbability(0.4, 42));
    FaultSite *site = registry.site("test.prob.keyed");

    // First sweep records the failing subset.
    std::set<uint64_t> failing;
    for (uint64_t key = 0; key < 256; ++key) {
        if (site->shouldFire(key))
            failing.insert(key);
    }
    // The subset is neither empty nor everything at p=0.4 over 256 keys
    // (each would indicate a broken hash, not bad luck).
    EXPECT_GT(failing.size(), 0u);
    EXPECT_LT(failing.size(), 256u);

    // Sweeping again — including in reverse order and from another
    // thread — yields the identical subset: outcome depends only on
    // (seed, site, key), never on evaluation order or thread identity.
    std::set<uint64_t> again;
    std::thread other([&] {
        for (uint64_t key = 256; key-- > 0;) {
            if (site->shouldFire(key))
                again.insert(key);
        }
    });
    other.join();
    EXPECT_EQ(failing, again);

    // A different seed selects a different subset (streams are
    // independent).
    registry.setPolicy("test.prob.keyed",
                       FaultPolicy::withProbability(0.4, 43));
    std::set<uint64_t> other_seed;
    for (uint64_t key = 0; key < 256; ++key) {
        if (site->shouldFire(key))
            other_seed.insert(key);
    }
    EXPECT_NE(failing, other_seed);

    // Probability extremes behave as documented.
    registry.setPolicy("test.prob.keyed",
                       FaultPolicy::withProbability(0.0, 42));
    EXPECT_FALSE(site->shouldFire(7));
    registry.setPolicy("test.prob.keyed",
                       FaultPolicy::withProbability(1.0, 42));
    EXPECT_TRUE(site->shouldFire(7));
}

TEST(FaultInjectionRegistry, DifferentSitesFailDifferentSubsets)
{
    // The site name participates in the hash: two sites armed with the
    // same prob policy must not fail the same keys in lockstep.
    FaultRegistry registry;
    registry.setPolicy("test.prob.a", FaultPolicy::withProbability(0.4, 9));
    registry.setPolicy("test.prob.b", FaultPolicy::withProbability(0.4, 9));
    std::set<uint64_t> a, b;
    for (uint64_t key = 0; key < 256; ++key) {
        if (registry.site("test.prob.a")->shouldFire(key))
            a.insert(key);
        if (registry.site("test.prob.b")->shouldFire(key))
            b.insert(key);
    }
    EXPECT_NE(a, b);
}

TEST(FaultInjectionRegistry, ResetForTestRestoresPristineState)
{
    FaultRegistry registry;
    registry.setPolicy("test.reset", FaultPolicy::always());
    FaultSite *site = registry.site("test.reset");
    EXPECT_TRUE(site->shouldFire());
    EXPECT_GT(site->hits(), 0u);
    EXPECT_GT(site->fires(), 0u);

    registry.resetForTest();
    EXPECT_FALSE(registry.anyArmed());
    EXPECT_FALSE(site->policy().armed());
    EXPECT_EQ(site->hits(), 0u);
    EXPECT_EQ(site->fires(), 0u);
}

TEST(FaultInjectionRegistry, DisarmedProbesCountNothing)
{
    // hits() counts probe evaluations "while any fault was armed":
    // with nothing armed the fast path must not touch the counters.
    FaultRegistry registry;
    FaultSite *site = registry.site("test.disarmed");
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(site->shouldFire(static_cast<uint64_t>(i)));
    EXPECT_EQ(site->hits(), 0u);
    EXPECT_EQ(site->fires(), 0u);
}

// ---------------------------------------------------------------------
// Global-registry macros
// ---------------------------------------------------------------------

/** Arms sites in the PROCESS-WIDE registry; always restores pristine
 *  state so no other test inherits an armed fault plan. */
class FaultInjectionGlobal : public testing::Test
{
  protected:
    void SetUp() override { FaultRegistry::global().resetForTest(); }
    void TearDown() override { FaultRegistry::global().resetForTest(); }
};

TEST_F(FaultInjectionGlobal, InjectMacroThrowsTypedErrorWhenArmed)
{
    ZATEL_INJECT_FAULT("test.macro.site"); // disarmed: no-op

    FaultRegistry::global().setPolicy("test.macro.site",
                                      FaultPolicy::always());
    try {
        ZATEL_INJECT_FAULT("test.macro.site");
        FAIL() << "armed probe did not throw";
    } catch (const FaultInjectedError &error) {
        EXPECT_EQ(error.site(), "test.macro.site");
        EXPECT_NE(std::string(error.what()).find("test.macro.site"),
                  std::string::npos);
    }
}

TEST_F(FaultInjectionGlobal, KeyedMacroRespectsTheKey)
{
    FaultRegistry::global().setPolicy("test.macro.keyed",
                                      FaultPolicy::withProbability(0.5, 11));
    std::set<uint64_t> failing;
    for (uint64_t key = 0; key < 64; ++key) {
        try {
            ZATEL_INJECT_FAULT_KEYED("test.macro.keyed", key);
        } catch (const FaultInjectedError &) {
            failing.insert(key);
        }
    }
    EXPECT_GT(failing.size(), 0u);
    EXPECT_LT(failing.size(), 64u);
    // Re-sweeping reproduces the subset exactly.
    for (uint64_t key = 0; key < 64; ++key) {
        bool fired = false;
        try {
            ZATEL_INJECT_FAULT_KEYED("test.macro.keyed", key);
        } catch (const FaultInjectedError &) {
            fired = true;
        }
        EXPECT_EQ(fired, failing.count(key) == 1) << "key " << key;
    }
}

// ---------------------------------------------------------------------
// Retry backoff schedule
// ---------------------------------------------------------------------

TEST(FaultInjectionBackoff, ScheduleIsDeterministicDoublingWithCap)
{
    EXPECT_EQ(retryBackoffMicros(1), 1000u);
    EXPECT_EQ(retryBackoffMicros(2), 2000u);
    EXPECT_EQ(retryBackoffMicros(3), 4000u);
    EXPECT_EQ(retryBackoffMicros(4), 8000u);
    EXPECT_EQ(retryBackoffMicros(5), 16000u);
    // Capped: huge attempt numbers must not overflow the shift.
    EXPECT_EQ(retryBackoffMicros(6), 16000u);
    EXPECT_EQ(retryBackoffMicros(100), 16000u);
}

} // namespace
} // namespace zatel
