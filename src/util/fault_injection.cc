#include "util/fault_injection.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <utility>

#include "obs/metrics_registry.hh"
#include "util/logging.hh"

namespace zatel
{

namespace
{

/** splitmix64 finalizer: the standard seed-expansion mix also used by
 *  Rng's constructor. Pure, so probability decisions are a function of
 *  (seed, site, key) alone — independent of thread interleaving. */
uint64_t
splitmix64(uint64_t z)
{
    z += 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/** FNV-1a over the site name (stable across platforms). */
uint64_t
hashName(const std::string &name)
{
    uint64_t h = 0xCBF29CE484222325ull;
    for (unsigned char c : name) {
        h ^= c;
        h *= 0x100000001B3ull;
    }
    return h;
}

/** Uniform double in [0, 1) from (seed, site, key). */
double
keyedUnitDouble(uint64_t seed, uint64_t name_hash, uint64_t key)
{
    uint64_t x = splitmix64(seed ^ name_hash);
    x = splitmix64(x ^ key);
    return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/** Split @p text on @p sep, dropping empty pieces. */
std::vector<std::string>
splitNonEmpty(const std::string &text, const std::string &seps)
{
    std::vector<std::string> out;
    std::string current;
    for (char c : text) {
        if (seps.find(c) != std::string::npos) {
            if (!current.empty())
                out.push_back(std::move(current));
            current.clear();
        } else {
            current.push_back(c);
        }
    }
    if (!current.empty())
        out.push_back(std::move(current));
    return out;
}

} // namespace

// ---------------------------------------------------------------- policy

FaultPolicy
FaultPolicy::nthHit(uint64_t n)
{
    ZATEL_ASSERT(n >= 1, "nth-hit fault policies are 1-based");
    FaultPolicy p;
    p.kind = Kind::Nth;
    p.nth = n;
    return p;
}

FaultPolicy
FaultPolicy::withProbability(double probability, uint64_t seed)
{
    ZATEL_ASSERT(probability >= 0.0 && probability <= 1.0,
                 "fault probability must be in [0, 1], got ", probability);
    FaultPolicy p;
    p.kind = Kind::Probability;
    p.probability = probability;
    p.seed = seed;
    return p;
}

FaultPolicy
FaultPolicy::parse(const std::string &text)
{
    if (text == "never")
        return never();
    if (text == "always")
        return always();

    const auto bad = [&text](const std::string &why) -> std::invalid_argument {
        return std::invalid_argument("bad fault policy '" + text + "': " +
                                     why);
    };

    std::vector<std::string> parts = splitNonEmpty(text, ":");
    if (parts.empty())
        throw bad("expected never|always|nth:N|prob:P[:SEED]");

    if (parts[0] == "nth") {
        if (parts.size() != 2)
            throw bad("expected nth:N");
        size_t used = 0;
        unsigned long long n = 0;
        try {
            n = std::stoull(parts[1], &used);
        } catch (const std::exception &) {
            throw bad("'" + parts[1] + "' is not a count");
        }
        if (used != parts[1].size() || n < 1)
            throw bad("nth wants an integer >= 1");
        return nthHit(n);
    }

    if (parts[0] == "prob") {
        if (parts.size() != 2 && parts.size() != 3)
            throw bad("expected prob:P[:SEED]");
        size_t used = 0;
        double p = 0.0;
        try {
            p = std::stod(parts[1], &used);
        } catch (const std::exception &) {
            throw bad("'" + parts[1] + "' is not a probability");
        }
        if (used != parts[1].size() || p < 0.0 || p > 1.0)
            throw bad("probability must be in [0, 1]");
        uint64_t seed = 0;
        if (parts.size() == 3) {
            try {
                seed = std::stoull(parts[2], &used);
            } catch (const std::exception &) {
                throw bad("'" + parts[2] + "' is not a seed");
            }
            if (used != parts[2].size())
                throw bad("'" + parts[2] + "' is not a seed");
        }
        return withProbability(p, seed);
    }

    throw bad("unknown policy kind '" + parts[0] + "'");
}

std::string
FaultPolicy::toString() const
{
    switch (kind) {
      case Kind::Never:
        return "never";
      case Kind::Always:
        return "always";
      case Kind::Nth:
        return "nth:" + std::to_string(nth);
      case Kind::Probability:
        return "prob:" + std::to_string(probability) + ":" +
               std::to_string(seed);
    }
    return "never";
}

// ------------------------------------------------------------------ site

FaultSite::FaultSite(std::string name, const std::atomic<bool> *any_armed)
    : name_(std::move(name)), nameHash_(hashName(name_)), anyArmed_(any_armed)
{
    auto &reg = obs::MetricsRegistry::global();
    hitsCounter_ = reg.counter(
        "zatel_fault_site_hits_total",
        "Fault probe evaluations while any fault was armed",
        {{"site", name_}});
    firesCounter_ = reg.counter("zatel_fault_site_fires_total",
                                "Fault probe evaluations that fired",
                                {{"site", name_}});
}

FaultPolicy
FaultSite::policy() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return policy_;
}

void
FaultSite::setPolicy(const FaultPolicy &policy)
{
    std::lock_guard<std::mutex> lock(mutex_);
    policy_ = policy;
}

void
FaultSite::resetCounts()
{
    hits_.store(0, std::memory_order_relaxed);
    fires_.store(0, std::memory_order_relaxed);
}

bool
FaultSite::shouldFireSlow(uint64_t key)
{
    FaultPolicy policy;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        policy = policy_;
    }
    if (!policy.armed())
        return false;

    const uint64_t hit = hits_.fetch_add(1, std::memory_order_relaxed) + 1;
    hitsCounter_->inc();

    bool fire = false;
    switch (policy.kind) {
      case FaultPolicy::Kind::Never:
        break;
      case FaultPolicy::Kind::Always:
        fire = true;
        break;
      case FaultPolicy::Kind::Nth:
        // fetch_add hands every evaluation a unique index, so exactly
        // one of them matches: a transient fault fires once even when
        // probes race across threads.
        fire = (hit == policy.nth);
        break;
      case FaultPolicy::Kind::Probability:
        fire = keyedUnitDouble(policy.seed, nameHash_, key) <
               policy.probability;
        break;
    }
    if (fire) {
        fires_.fetch_add(1, std::memory_order_relaxed);
        firesCounter_->inc();
    }
    return fire;
}

// -------------------------------------------------------------- registry

FaultRegistry::FaultRegistry()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const std::string &name : knownSiteNames())
        siteLocked(name);
}

FaultRegistry &
FaultRegistry::global()
{
    static FaultRegistry *registry = [] {
        auto *r = new FaultRegistry();
        if (const char *spec = std::getenv("ZATEL_FAULTS");
            spec != nullptr && spec[0] != '\0') {
            try {
                r->configure(spec);
            } catch (const std::invalid_argument &e) {
                fatal("ZATEL_FAULTS: ", e.what());
            }
        }
        return r;
    }();
    return *registry;
}

const std::vector<std::string> &
FaultRegistry::knownSiteNames()
{
    // The production site catalog. Keep docs/ROBUSTNESS.md and the
    // fault-matrix test (tests/test_resilience.cc) in sync.
    static const std::vector<std::string> names = {
        "cache.disk.read",     // ArtifactCache disk-tier load
        "cache.disk.write",    // ArtifactCache disk-tier store
        "scene.pack.build",    // Scheduler start unit: scene pack build
        "heatmap.build",       // Scheduler start unit: profile heatmap
        "group.sim",           // Predictor group task entry (keyed: group)
        "group.sim.midrun",    // Inside simulateGroup, pre-run (keyed)
        "group.sim.stall",     // Group sim stops making progress (keyed)
        "pool.task",           // Scheduler unit submission to the pool
        "result.store.append", // ResultStore row append I/O
        "oracle.run",          // Scheduler oracle unit: oracle sim
        "serve.accept",        // Daemon acceptor: shed the connection
        "serve.read",          // Daemon request read: fail with 500
        "serve.write",         // Daemon response write: bare 500
        "worker.spawn",        // Dist coordinator: worker fork/exec
        "worker.heartbeat",    // Dist worker: lease heartbeat refresh
        "dist.lease.write",    // Dist worker: shard lease claim write
        "dist.fragment.write", // Dist worker: fragment publish rename
    };
    return names;
}

FaultSite *
FaultRegistry::site(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return siteLocked(name);
}

FaultSite *
FaultRegistry::siteLocked(const std::string &name)
{
    for (auto &site : sites_) {
        if (site->name() == name)
            return site.get();
    }
    sites_.push_back(std::unique_ptr<FaultSite>(
        new FaultSite(name, &anyArmed_)));
    return sites_.back().get();
}

void
FaultRegistry::setPolicy(const std::string &name, const FaultPolicy &policy)
{
    std::lock_guard<std::mutex> lock(mutex_);
    siteLocked(name)->setPolicy(policy);
    recomputeArmedLocked();
}

void
FaultRegistry::configure(const std::string &spec)
{
    const std::vector<std::string> &known = knownSiteNames();
    std::vector<std::pair<std::string, FaultPolicy>> parsed;
    for (const std::string &entry : splitNonEmpty(spec, ",;")) {
        const size_t eq = entry.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 >= entry.size()) {
            throw std::invalid_argument(
                "bad fault spec entry '" + entry +
                "' (expected site=policy)");
        }
        const std::string name = entry.substr(0, eq);
        if (std::find(known.begin(), known.end(), name) == known.end()) {
            std::string catalog;
            for (const std::string &k : known)
                catalog += (catalog.empty() ? "" : ", ") + k;
            throw std::invalid_argument("unknown fault site '" + name +
                                        "' (known sites: " + catalog + ")");
        }
        parsed.emplace_back(name, FaultPolicy::parse(entry.substr(eq + 1)));
    }
    // All-or-nothing: nothing is armed unless the whole spec parsed.
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[name, policy] : parsed)
        siteLocked(name)->setPolicy(policy);
    recomputeArmedLocked();
}

void
FaultRegistry::disarmAll()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &site : sites_)
        site->setPolicy(FaultPolicy::never());
    recomputeArmedLocked();
}

void
FaultRegistry::resetForTest()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &site : sites_) {
        site->setPolicy(FaultPolicy::never());
        site->resetCounts();
    }
    recomputeArmedLocked();
}

std::vector<std::string>
FaultRegistry::siteNames() const
{
    std::vector<std::string> names;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        names.reserve(sites_.size());
        for (const auto &site : sites_)
            names.push_back(site->name());
    }
    std::sort(names.begin(), names.end());
    return names;
}

void
FaultRegistry::recomputeArmedLocked()
{
    bool armed = false;
    for (const auto &site : sites_) {
        if (site->policy().armed()) {
            armed = true;
            break;
        }
    }
    anyArmed_.store(armed, std::memory_order_relaxed);
}

// --------------------------------------------------------------- backoff

uint64_t
retryBackoffMicros(uint32_t attempt)
{
    if (attempt == 0)
        return 0;
    const uint32_t shift = std::min<uint32_t>(attempt - 1, 4);
    return std::min<uint64_t>(1000ull << shift, 16000ull);
}

void
retryBackoffSleep(uint32_t attempt)
{
    const uint64_t micros = retryBackoffMicros(attempt);
    if (micros > 0)
        std::this_thread::sleep_for(std::chrono::microseconds(micros));
}

} // namespace zatel
