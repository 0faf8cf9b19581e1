/**
 * @file
 * Shared types of the benchmark driver: run options, the result every
 * workload fills in, and the workload building blocks the traced run
 * reuses (one campaign repetition, one serve session).
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace_recorder.hh"
#include "rt/bvh.hh"
#include "rt/scene.hh"
#include "rt/scene_library.hh"
#include "service/artifact_cache.hh"
#include "service/campaign.hh"
#include "service/result_store.hh"
#include "streams.hh"
#include "zatel/predictor.hh"

namespace perfbench
{

struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for recorded inputs, results and the trace. */
    std::string outDir = ".";
};

/** What a run reports. */
class RunResult
{
  public:
    /** Record a catalogue metric (last value wins). */
    void set(const std::string &name, double value) { metrics_[name] = value; }

    /** Record a failed correctness check. */
    void problem(const std::string &what);

    /** Count one operation; @p ok false counts it as failed. */
    void operation(bool ok);

    bool correct() const { return problems_.empty(); }
    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    const std::map<std::string, double> &metrics() const { return metrics_; }

  private:
    std::map<std::string, double> metrics_;
    std::vector<std::string> problems_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/** Print one human-readable metric line ("  name  value unit  note"). */
void printMetric(const std::string &name, double value, const char *unit,
                 const std::string &note = "");

/** Hex digest of %.17g renderings of @p metrics. */
std::string metricDigest(const std::map<zatel::gpusim::Metric, double> &metrics);

/** Mean over Table I metrics of |predicted - oracle| / |oracle| in %. */
double rowMaePct(const zatel::service::ResultRow &row);

/** Hardware threads (at least 1). */
unsigned hardwareThreads();

/** A scene with its BVH; heap-held because the BVH points into the
 *  scene's triangles. */
struct BuiltScene
{
    zatel::rt::Scene scene;
    zatel::rt::Bvh bvh;
    double sceneMs = 0.0;
    double bvhMs = 0.0;
};
std::unique_ptr<BuiltScene> buildScene(zatel::rt::SceneId id,
                                       zatel::obs::TraceRecorder *recorder);

// ---- Workloads ----
RunResult runPredictPark(const RunOptions &options);
RunResult runCampaignSweep(const RunOptions &options);
RunResult runServeMixed(const RunOptions &options);
/** --trace 1 for any workload: the per-layer attribution run. */
RunResult runTraced(const RunOptions &options);

// ---- Building blocks the traced run shares ----

/** One campaign-sweep repetition on a fresh memory-only cache. */
struct CampaignRep
{
    double wallMs = 0.0;
    /** Per job: ms from run() start to its row. */
    std::vector<double> doneMs;
    std::vector<zatel::service::ResultRow> rows;
    /** Rows serialized with timing off, sorted by job id. */
    std::string canonicalRows;
    size_t okRows = 0;
    zatel::service::ArtifactCache::Counters perKind[3];
};
CampaignRep runCampaignOnce(
    const std::vector<zatel::service::CampaignJob> &jobs);

/** True when two predictions are bit-identical (metrics, K, traced
 *  fraction and every group's raw counters). */
bool samePrediction(const zatel::core::ZatelResult &a,
                    const zatel::core::ZatelResult &b);

/** What a serve-mixed load phase measured. */
struct ServeLoad
{
    std::vector<double> warmMs;
    std::vector<double> coldMs;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t mismatched = 0;
    double wallSeconds = 0.0;
    uint64_t replyBytes = 0;
    /** One line per request: index, recipe id, cold, ms, ok. */
    std::string log;
};

struct ServeCounters
{
    uint64_t simulated = 0;
    uint64_t coalesced = 0;
    uint64_t cacheHits = 0;
    uint64_t shed = 0;
};

/** A running in-process PredictionServer plus its warm-up. */
class ServeHarness
{
  public:
    /** Start a server on an ephemeral loopback port and answer the
     *  stream's initial pool once (the warm-up). */
    explicit ServeHarness(uint64_t workload_seed);
    ~ServeHarness();

    ServeHarness(const ServeHarness &) = delete;
    ServeHarness &operator=(const ServeHarness &) = delete;

    /** Seconds start() plus the warm-up took. */
    double setupSeconds() const { return setupSeconds_; }
    /** Warm-up failures (non-200 or refused). */
    uint64_t setupFailures() const { return setupFailures_; }

    /** Two closed-loop clients on the shared stream for @p seconds. */
    ServeLoad drive(double seconds);

    /** @p count sequential warm requests for one answered recipe;
     *  returns the round-trip times in us. */
    std::vector<double> warmRoundTrips(size_t count);

    ServeCounters counters() const;
    const RequestStream &stream() const { return stream_; }

    /** The first 200 body served for recipe @p id ("" if none). */
    std::string answeredBody(uint32_t id) const;

    /** Digest of the initial pool's reply bodies (deterministic). */
    std::string poolDigest() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
    RequestStream stream_;
    double setupSeconds_ = 0.0;
    uint64_t setupFailures_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
