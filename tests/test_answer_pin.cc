/**
 * @file
 * Cross-commit answer pin: the paper's answer for two small recipes,
 * checked bit for bit against committed constants.
 *
 * The determinism and differential suites compare variants inside one
 * build; they cannot catch a commit that moves every variant's answer
 * the same way. This test can: it pins, for PARK on the Mobile SoC and
 * SPRNG on the RTX 2060 at 64x64,
 *
 *  - every predicted Table I metric, printed with %.17g,
 *  - a hash of the quantized heatmap's cluster ids,
 *  - a hash of every group workload's threads and RayTask fields.
 *
 * Both ways a prediction gets its group workloads are pinned to the
 * same constants: a predictor that renders the frame, or is given a
 * cached heatmap with its frame ray record, slices the record, and one
 * given a heatmap alone traces its groups' pixels.
 *
 * The constants were generated before the parallel front end existed
 * and must not change with it. Regenerating them is a deliberate act:
 * on a mismatch the test prints the actual values in the table's own
 * format, and the diff of the table is what gets reviewed.
 *
 * FramePin does the same for the functional tracer alone, at more than
 * one sample per pixel: a pooled render's image, profiles and frame ray
 * record, and the full-frame workload the oracle simulates.
 *
 * OraclePin pins what the oracle makes of that workload: every raw
 * GpuStats counter and Table I metric of runOracle() for the AnswerPin
 * recipes, and each predicted metric's error against it. Both oracle
 * paths meet the same constants: after predict() the oracle slices the
 * frame ray record, and a fresh predictor's traces the frame. A timing-model
 * change that moves the fast cycle loop and its slow-tick reference
 * together passes every in-build differential test, but not this one.
 *
 * RtUnitPin does the same for Gpu::run alone on small filtered frames,
 * under RT-unit settings the default configurations never use.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "gpusim/gpu.hh"
#include "gpusim/workload.hh"
#include "rt/scene_library.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"
#include "zatel/evaluation.hh"
#include "zatel/predictor.hh"

namespace zatel::core
{
namespace
{

/** One pinned recipe and its committed answer. */
struct Pin
{
    const char *name;
    rt::SceneId scene;
    bool rtx2060;
    uint64_t clusterHash;
    uint64_t workloadHash;
    /** metricName -> %.17g, in allMetrics() order. */
    std::vector<std::pair<const char *, const char *>> metrics;
};

/** FNV-1a over raw bytes, chained through @p h. */
uint64_t
fnv(uint64_t h, const void *data, size_t bytes)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 0x100000001B3ull;
    }
    return h;
}

constexpr uint64_t kFnvBasis = 0xCBF29CE484222325ull;

template <typename T>
uint64_t
fnvValue(uint64_t h, const T &value)
{
    return fnv(h, &value, sizeof(value));
}

/** Hash of a RayTask, field by field (RayTask has padding bytes, which
 *  carry no meaning). */
uint64_t
hashRayTask(uint64_t h, const rt::RayTask &task)
{
    const float fields[] = {task.ray.origin.x,    task.ray.origin.y,
                            task.ray.origin.z,    task.ray.direction.x,
                            task.ray.direction.y, task.ray.direction.z,
                            task.ray.tMin,        task.ray.tMax};
    h = fnv(h, fields, sizeof(fields));
    h = fnvValue(h, static_cast<uint8_t>(task.mode));
    h = fnvValue(h, static_cast<uint8_t>(task.hit));
    h = fnvValue(h, task.materialId);
    return fnvValue(h, task.bounce);
}

/** Hash of a workload's threads and RayTasks. */
uint64_t
hashWorkload(uint64_t h, const gpusim::SimWorkload &workload)
{
    for (const gpusim::ThreadWork &thread : workload.threads) {
        h = fnvValue(h, thread.pixelLinear);
        h = fnvValue(h, static_cast<uint8_t>(thread.selected));
        h = fnvValue(h, thread.rayCount);
        for (uint32_t r = 0; r < thread.rayCount; ++r)
            h = hashRayTask(h, thread.rays[r]);
    }
    return h;
}

ZatelParams
pinParams()
{
    ZatelParams params;
    params.width = 64;
    params.height = 64;
    params.numThreads = 2;
    return params;
}

/** Groups and selections exactly as ZatelPredictor::prepare() makes
 *  them, from public stage functions. With @p frame the workloads slice
 *  it; without, they trace their pixels. */
uint64_t
groupWorkloadHash(const rt::Tracer &tracer, const ZatelParams &params,
                  uint32_t k, const heatmap::QuantizedHeatmap &quantized,
                  const std::shared_ptr<const rt::FrameRayRecord> &frame)
{
    std::vector<PixelGroup> groups =
        divideImagePlane(params.width, params.height, k, params.partition);
    Rng rng(params.seed);
    uint64_t h = kFnvBasis;
    for (const PixelGroup &group : groups) {
        Rng group_rng = rng.split();
        Selection selection = selectRepresentativePixels(
            group, quantized, params.selector, group_rng);
        h = hashWorkload(h, gpusim::SimWorkload::build(
                                tracer, params.width, params.height, group,
                                &selection.mask, frame));
    }
    return h;
}

std::string
formatMetric(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

/** The table row a regeneration would write for @p pin. */
std::string
formatPin(const Pin &pin, uint64_t cluster_hash, uint64_t workload_hash,
          const ZatelResult &result)
{
    char hashes[96];
    std::snprintf(hashes, sizeof(hashes),
                  "0x%016" PRIx64 "ull, 0x%016" PRIx64 "ull,\n",
                  cluster_hash, workload_hash);
    std::string out = std::string("{\"") + pin.name + "\", ...,\n " +
                      hashes + " {";
    for (gpusim::Metric metric : gpusim::allMetrics()) {
        out += std::string("{\"") + gpusim::metricName(metric) + "\", \"" +
               formatMetric(result.metric(metric)) + "\"},\n  ";
    }
    return out + "}},";
}

const std::vector<Pin> &
pins()
{
    static const std::vector<Pin> table = {
        {"PARK/soc",
         rt::SceneId::Park,
         false,
         0xf9ffd93978f37ea7ull,
         0x7f93b996cfe480e2ull,
         {{"GPU IPC", "11.294222971288281"},
          {"GPU Sim Cycles", "55921.599999999999"},
          {"L1D Miss Rate", "0.028394404632719413"},
          {"L2 Miss Rate", "0.65259287172626868"},
          {"RT Avg Efficiency", "16.747162185716892"},
          {"DRAM Efficiency", "0.54111188597745696"},
          {"BW Utilization", "0.47330036780255708"}}},
        {"SPRNG/rtx2060",
         rt::SceneId::Sprng,
         true,
         0x7890c87ea90b1fb4ull,
         0x3ae62181f3ee0cd1ull,
         {{"GPU IPC", "15.01195851328151"},
          {"GPU Sim Cycles", "9368.9603174603162"},
          {"L1D Miss Rate", "0.13592871455732217"},
          {"L2 Miss Rate", "0.76637452716282028"},
          {"RT Avg Efficiency", "14.586439861694465"},
          {"DRAM Efficiency", "0.23689114673839431"},
          {"BW Utilization", "0.19023673441933989"}}},
    };
    return table;
}

class AnswerPin : public testing::TestWithParam<size_t>
{
};

TEST_P(AnswerPin, MatchesCommittedConstants)
{
    const Pin &pin = pins()[GetParam()];
    rt::Scene scene = rt::buildScene(pin.scene);
    rt::Bvh bvh;
    bvh.build(scene.triangles());
    const gpusim::GpuConfig config = pin.rtx2060
                                         ? gpusim::GpuConfig::rtx2060()
                                         : gpusim::GpuConfig::mobileSoc();
    const ZatelParams params = pinParams();

    // Renders the frame on its own pool; the groups slice the record.
    ZatelPredictor predictor(scene, bvh, config, params);
    const ZatelResult result = predictor.predict();
    const heatmap::QuantizedHeatmap &quantized =
        predictor.quantizedHeatmap();

    // Given the same heatmap, as from the cache's disk tier; the groups
    // trace.
    ZatelPredictor injected(scene, bvh, config, params);
    injected.setPrebuiltHeatmap(quantized);
    const ZatelResult traced_result = injected.predict();

    const std::vector<uint32_t> &ids = quantized.clusterIds();
    const uint64_t cluster_hash =
        fnv(kFnvBasis, ids.data(), ids.size() * sizeof(uint32_t));

    rt::TracerParams tp;
    tp.samplesPerPixel = params.samplesPerPixel;
    const rt::Tracer tracer(scene, bvh, tp);
    ThreadPool pool(3);
    auto frame = std::make_shared<rt::FrameRayRecord>();
    tracer.render(params.width, params.height, &pool, frame.get());
    const uint64_t workload_hash =
        groupWorkloadHash(tracer, params, result.k, quantized, nullptr);
    const uint64_t sliced_hash =
        groupWorkloadHash(tracer, params, result.k, quantized, frame);

    // Given the heatmap with its frame ray record, as from the cache's
    // memory tier; the groups slice it.
    ZatelPredictor injected_rays(scene, bvh, config, params);
    injected_rays.setPrebuiltHeatmap(quantized, frame);
    const ZatelResult sliced_result = injected_rays.predict();

    SCOPED_TRACE("actual: " +
                 formatPin(pin, cluster_hash, workload_hash, result));
    EXPECT_EQ(cluster_hash, pin.clusterHash);
    EXPECT_EQ(workload_hash, pin.workloadHash) << "traced workloads";
    EXPECT_EQ(sliced_hash, pin.workloadHash) << "sliced workloads";
    ASSERT_EQ(pin.metrics.size(), gpusim::allMetrics().size());
    size_t m = 0;
    for (gpusim::Metric metric : gpusim::allMetrics()) {
        EXPECT_STREQ(gpusim::metricName(metric), pin.metrics[m].first);
        EXPECT_EQ(formatMetric(result.metric(metric)), pin.metrics[m].second)
            << gpusim::metricName(metric) << " (rendering predictor)";
        EXPECT_EQ(formatMetric(traced_result.metric(metric)),
                  pin.metrics[m].second)
            << gpusim::metricName(metric) << " (injected heatmap)";
        EXPECT_EQ(formatMetric(sliced_result.metric(metric)),
                  pin.metrics[m].second)
            << gpusim::metricName(metric)
            << " (injected heatmap and frame ray record)";
        ++m;
    }
}

INSTANTIATE_TEST_SUITE_P(Recipes, AnswerPin, testing::Values(0, 1),
                         [](const testing::TestParamInfo<size_t> &info) {
                             return info.param == 0 ? "ParkSoc"
                                                    : "SprngRtx2060";
                         });

/** The oracle's committed answer for one AnswerPin recipe. */
struct OracleCase
{
    /** Every raw GpuStats counter, in gpuStatsFields() order. */
    std::vector<std::pair<const char *, uint64_t>> counters;
    /** metricName -> %.17g of the oracle, in allMetrics() order. */
    std::vector<std::pair<const char *, const char *>> metrics;
    /** metricName -> %.17g of the prediction's error in percent. */
    std::vector<std::pair<const char *, const char *>> errorPct;
};

/** Every raw GpuStats counter, as a table's {name, value} list. */
std::string
formatCounters(const gpusim::GpuStats &stats)
{
    std::string out = "{";
    const char *sep = "";
    for (const gpusim::GpuStatsField &field : gpusim::gpuStatsFields()) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "%s{\"%s\", %" PRIu64 "ull}", sep,
                      field.name, stats.*field.member);
        out += buf;
        sep = ",\n  ";
    }
    return out;
}

/** Expect every raw GpuStats counter of @p stats to equal @p expected
 *  (gpuStatsFields() order); @p what names the run in a failure. */
void
expectCounters(const std::vector<std::pair<const char *, uint64_t>> &expected,
               const gpusim::GpuStats &stats, const char *what)
{
    ASSERT_EQ(expected.size(), gpusim::gpuStatsFields().size());
    size_t c = 0;
    for (const gpusim::GpuStatsField &field : gpusim::gpuStatsFields()) {
        EXPECT_STREQ(field.name, expected[c].first);
        EXPECT_EQ(stats.*field.member, expected[c].second)
            << field.name << " (" << what << ")";
        ++c;
    }
}

/** The table entry a regeneration would write. */
std::string
formatOracleCase(const gpusim::GpuStats &stats,
                 const std::vector<ComparisonRow> &rows)
{
    std::string out = "{";
    out += formatCounters(stats);
    const auto metric_list = [&](double ComparisonRow::*value) {
        std::string list = "},\n {";
        const char *comma = "";
        for (const ComparisonRow &row : rows) {
            list += std::string(comma) + "{\"" +
                    gpusim::metricName(row.metric) + "\", \"" +
                    formatMetric(row.*value) + "\"}";
            comma = ",\n  ";
        }
        return list;
    };
    out += metric_list(&ComparisonRow::oracle);
    out += metric_list(&ComparisonRow::errorPct);
    return out + "}},";
}

/** Indexed like pins(). Generated before the RT unit replayed the
 *  tracer's recorded traversal, and must not change with it. */
const std::vector<OracleCase> &
oracleCases()
{
    static const std::vector<OracleCase> table = {
        {{{"cycles", 49276ull},
          {"threadInstructions", 612798ull},
          {"warpInstructions", 7965ull},
          {"l1dAccesses", 467842ull},
          {"l1dMisses", 19791ull},
          {"l2Accesses", 19791ull},
          {"l2Misses", 4685ull},
          {"rtActiveRaySum", 18243778ull},
          {"rtResidentWarpCycles", 1202364ull},
          {"rtNodeVisits", 450400ull},
          {"rtTriangleTests", 58744ull},
          {"dramBusyCycles", 58058ull},
          {"dramActiveCycles", 154262ull},
          {"dramChannelCycles", 197104ull},
          {"dramBytesRead", 534144ull},
          {"dramBytesWritten", 37504ull},
          {"warpsLaunched", 128ull},
          {"raysTraced", 8763ull},
          {"pixelsTraced", 4096ull},
          {"pixelsFiltered", 0ull}},
         {{"GPU IPC", "12.436033768974754"},
          {"GPU Sim Cycles", "49276"},
          {"L1D Miss Rate", "0.042302743233826802"},
          {"L2 Miss Rate", "0.2367237633267647"},
          {"RT Avg Efficiency", "15.173257017009824"},
          {"DRAM Efficiency", "0.37635969973162542"},
          {"BW Utilization", "0.29455515869794624"}},
         {{"GPU IPC", "9.1814707076065254"},
          {"GPU Sim Cycles", "13.486484292556211"},
          {"L1D Miss Rate", "32.878100893432787"},
          {"L2 Miss Rate", "175.67695889721628"},
          {"RT Avg Efficiency", "10.372889399702762"},
          {"DRAM Efficiency", "43.775193349158542"},
          {"BW Utilization", "60.683102579067864"}}},
        {{{"cycles", 7525ull},
          {"threadInstructions", 113461ull},
          {"warpInstructions", 3727ull},
          {"l1dAccesses", 31391ull},
          {"l1dMisses", 4690ull},
          {"l2Accesses", 4690ull},
          {"l2Misses", 2211ull},
          {"rtActiveRaySum", 1834482ull},
          {"rtResidentWarpCycles", 143846ull},
          {"rtNodeVisits", 27837ull},
          {"rtTriangleTests", 6238ull},
          {"dramBusyCycles", 11893ull},
          {"dramActiveCycles", 52585ull},
          {"dramChannelCycles", 90300ull},
          {"dramBytesRead", 217472ull},
          {"dramBytesWritten", 0ull},
          {"warpsLaunched", 128ull},
          {"raysTraced", 4396ull},
          {"pixelsTraced", 4096ull},
          {"pixelsFiltered", 0ull}},
         {{"GPU IPC", "15.077873754152824"},
          {"GPU Sim Cycles", "7525"},
          {"L1D Miss Rate", "0.14940588066643307"},
          {"L2 Miss Rate", "0.47142857142857142"},
          {"RT Avg Efficiency", "12.753097062135895"},
          {"DRAM Efficiency", "0.22616715793477227"},
          {"BW Utilization", "0.13170542635658913"}},
         {{"GPU IPC", "0.43716535863128375"},
          {"GPU Sim Cycles", "24.50445604598427"},
          {"L1D Miss Rate", "9.0205057853113058"},
          {"L2 Miss Rate", "62.564293640598244"},
          {"RT Avg Efficiency", "14.375667264399549"},
          {"DRAM Efficiency", "4.7416207116662354"},
          {"BW Utilization", "44.441075574425234"}}},
    };
    return table;
}

class OraclePin : public testing::TestWithParam<size_t>
{
};

TEST_P(OraclePin, MatchesCommittedConstants)
{
    const Pin &pin = pins()[GetParam()];
    const OracleCase &expected = oracleCases()[GetParam()];
    rt::Scene scene = rt::buildScene(pin.scene);
    rt::Bvh bvh;
    bvh.build(scene.triangles());
    const gpusim::GpuConfig config = pin.rtx2060
                                         ? gpusim::GpuConfig::rtx2060()
                                         : gpusim::GpuConfig::mobileSoc();
    ZatelPredictor predictor(scene, bvh, config, pinParams());
    const ZatelResult result = predictor.predict();
    // After predict() the oracle slices the frame ray record.
    const gpusim::GpuStats oracle = predictor.runOracle().stats;
    // A predictor that never rendered traces the frame for its oracle.
    const gpusim::GpuStats traced_oracle =
        ZatelPredictor(scene, bvh, config, pinParams()).runOracle().stats;
    const std::vector<ComparisonRow> rows =
        compareToOracle(result.predicted, oracle);

    SCOPED_TRACE(std::string("actual ") + pin.name + ": " +
                 formatOracleCase(oracle, rows));
    expectCounters(expected.counters, oracle, "sliced oracle workload");
    expectCounters(expected.counters, traced_oracle,
                   "traced oracle workload");
    ASSERT_EQ(expected.metrics.size(), rows.size());
    ASSERT_EQ(expected.errorPct.size(), rows.size());
    for (size_t m = 0; m < rows.size(); ++m) {
        const char *name = gpusim::metricName(rows[m].metric);
        EXPECT_STREQ(name, expected.metrics[m].first);
        EXPECT_EQ(formatMetric(rows[m].oracle), expected.metrics[m].second)
            << name << " (oracle)";
        EXPECT_STREQ(name, expected.errorPct[m].first);
        EXPECT_EQ(formatMetric(rows[m].errorPct),
                  expected.errorPct[m].second)
            << name << " (error %)";
    }
}

INSTANTIATE_TEST_SUITE_P(Recipes, OraclePin, testing::Values(0, 1),
                         [](const testing::TestParamInfo<size_t> &info) {
                             return info.param == 0 ? "ParkSoc"
                                                    : "SprngRtx2060";
                         });

/** One RT-unit configuration of the Mobile SoC and its committed run. */
struct RtUnitCase
{
    const char *name;
    rt::SceneId scene;
    uint32_t rtUnitsPerSm;
    uint32_t rtMaxWarps;
    uint32_t rtVisitsPerCycle;
    uint32_t rtMshrSize;
    uint32_t l1dLatencyCycles;
    uint32_t warpSize;
    gpusim::WarpSchedulerPolicy scheduler;
    /** Every raw GpuStats counter of Gpu::run, in gpuStatsFields()
     *  order. */
    std::vector<std::pair<const char *, uint64_t>> counters;
};

/**
 * RT-unit pin: every GpuStats counter of one Gpu::run per case, under
 * RT settings OraclePin (one unit of 4 warps, 4 visits per cycle, 64
 * MSHRs, GTO) never reaches: several units per SM, one and eight
 * resident warps, one visit per cycle, a two-entry MSHR, zero-latency
 * L1 hits, half-width warps and the LRR scheduler. The fast cycle loop
 * and its slow-tick reference share the RT unit, so a change to it
 * moves both and passes the in-build differential suite; it cannot
 * pass this table in either loop mode. Generated before the RT unit
 * addressed its lanes by pool index, and must not change with it.
 */
class RtUnitPin : public testing::TestWithParam<size_t>
{
};

const std::vector<RtUnitCase> &
rtUnitCases()
{
    using gpusim::WarpSchedulerPolicy;
    static const std::vector<RtUnitCase> table = {
        {"TwoUnitsEightWarps", rt::SceneId::Park, 2, 8, 4, 64, 20, 32,
         WarpSchedulerPolicy::GreedyThenOldest,
         {{"cycles", 29954ull},
          {"threadInstructions", 124734ull},
          {"warpInstructions", 2070ull},
          {"l1dAccesses", 94647ull},
          {"l1dMisses", 6254ull},
          {"l2Accesses", 6193ull},
          {"l2Misses", 2517ull},
          {"rtActiveRaySum", 5720985ull},
          {"rtResidentWarpCycles", 433525ull},
          {"rtNodeVisits", 91344ull},
          {"rtTriangleTests", 11916ull},
          {"dramBusyCycles", 31226ull},
          {"dramActiveCycles", 76418ull},
          {"dramChannelCycles", 119816ull},
          {"dramBytesRead", 305792ull},
          {"dramBytesWritten", 1664ull},
          {"warpsLaunched", 32ull},
          {"raysTraced", 1770ull},
          {"pixelsTraced", 819ull},
          {"pixelsFiltered", 205ull}}},
        {"ThreeUnitsOneWarpOneVisit", rt::SceneId::Park, 3, 1, 1, 64, 20,
         32, WarpSchedulerPolicy::GreedyThenOldest,
         {{"cycles", 66512ull},
          {"threadInstructions", 124734ull},
          {"warpInstructions", 2070ull},
          {"l1dAccesses", 99201ull},
          {"l1dMisses", 7152ull},
          {"l2Accesses", 7152ull},
          {"l2Misses", 3054ull},
          {"rtActiveRaySum", 3753983ull},
          {"rtResidentWarpCycles", 348539ull},
          {"rtNodeVisits", 91344ull},
          {"rtTriangleTests", 11916ull},
          {"dramBusyCycles", 38584ull},
          {"dramActiveCycles", 164935ull},
          {"dramChannelCycles", 266048ull},
          {"dramBytesRead", 374528ull},
          {"dramBytesWritten", 5376ull},
          {"warpsLaunched", 32ull},
          {"raysTraced", 1770ull},
          {"pixelsTraced", 819ull},
          {"pixelsFiltered", 205ull}}},
        {"TinyMshrZeroLatency", rt::SceneId::Sprng, 1, 4, 4, 2, 0, 32,
         WarpSchedulerPolicy::GreedyThenOldest,
         {{"cycles", 41819ull},
          {"threadInstructions", 23307ull},
          {"warpInstructions", 952ull},
          {"l1dAccesses", 6178ull},
          {"l1dMisses", 1460ull},
          {"l2Accesses", 969ull},
          {"l2Misses", 730ull},
          {"rtActiveRaySum", 2511395ull},
          {"rtResidentWarpCycles", 317804ull},
          {"rtNodeVisits", 5545ull},
          {"rtTriangleTests", 1365ull},
          {"dramBusyCycles", 7826ull},
          {"dramActiveCycles", 80732ull},
          {"dramChannelCycles", 167276ull},
          {"dramBytesRead", 77056ull},
          {"dramBytesWritten", 0ull},
          {"warpsLaunched", 32ull},
          {"raysTraced", 880ull},
          {"pixelsTraced", 819ull},
          {"pixelsFiltered", 205ull}}},
        {"LrrThreeUnits", rt::SceneId::Sprng, 3, 2, 1, 8, 0, 32,
         WarpSchedulerPolicy::LooseRoundRobin,
         {{"cycles", 14967ull},
          {"threadInstructions", 23307ull},
          {"warpInstructions", 952ull},
          {"l1dAccesses", 6489ull},
          {"l1dMisses", 1730ull},
          {"l2Accesses", 1090ull},
          {"l2Misses", 849ull},
          {"rtActiveRaySum", 737558ull},
          {"rtResidentWarpCycles", 88772ull},
          {"rtNodeVisits", 5545ull},
          {"rtTriangleTests", 1365ull},
          {"dramBusyCycles", 9373ull},
          {"dramActiveCycles", 48996ull},
          {"dramChannelCycles", 59868ull},
          {"dramBytesRead", 92288ull},
          {"dramBytesWritten", 0ull},
          {"warpsLaunched", 32ull},
          {"raysTraced", 880ull},
          {"pixelsTraced", 819ull},
          {"pixelsFiltered", 205ull}}},
        {"HalfWarpsLrr", rt::SceneId::Park, 2, 8, 2, 2, 20, 16,
         WarpSchedulerPolicy::LooseRoundRobin,
         {{"cycles", 173269ull},
          {"threadInstructions", 124734ull},
          {"warpInstructions", 3794ull},
          {"l1dAccesses", 98107ull},
          {"l1dMisses", 10195ull},
          {"l2Accesses", 3890ull},
          {"l2Misses", 1398ull},
          {"rtActiveRaySum", 33945153ull},
          {"rtResidentWarpCycles", 3785567ull},
          {"rtNodeVisits", 91344ull},
          {"rtTriangleTests", 11916ull},
          {"dramBusyCycles", 16510ull},
          {"dramActiveCycles", 187311ull},
          {"dramChannelCycles", 693076ull},
          {"dramBytesRead", 162560ull},
          {"dramBytesWritten", 0ull},
          {"warpsLaunched", 64ull},
          {"raysTraced", 1770ull},
          {"pixelsTraced", 819ull},
          {"pixelsFiltered", 205ull}}},
    };
    return table;
}

TEST_P(RtUnitPin, MatchesCommittedConstants)
{
    constexpr uint32_t kSize = 32;
    const RtUnitCase &pin = rtUnitCases()[GetParam()];
    const rt::Scene scene = rt::buildScene(pin.scene);
    rt::Bvh bvh;
    bvh.build(scene.triangles());
    const rt::Tracer tracer(scene, bvh);
    // A filtered frame, as a Zatel group is: every fifth pixel (on a
    // diagonal pattern) runs only the filter check and leaves its lane
    // inactive in the RT unit.
    std::vector<gpusim::PixelCoord> pixels;
    std::vector<bool> selected;
    for (uint32_t y = 0; y < kSize; ++y) {
        for (uint32_t x = 0; x < kSize; ++x) {
            pixels.push_back({x, y});
            selected.push_back((x + 2 * y) % 5 != 0);
        }
    }
    const gpusim::SimWorkload workload = gpusim::SimWorkload::build(
        tracer, kSize, kSize, pixels, &selected);

    // Two SMs hold 16 warps each, so every unit stays contended.
    gpusim::GpuConfig config = gpusim::GpuConfig::mobileSoc();
    config.numSms = 2;
    config.rtUnitsPerSm = pin.rtUnitsPerSm;
    config.rtMaxWarps = pin.rtMaxWarps;
    config.rtVisitsPerCycle = pin.rtVisitsPerCycle;
    config.rtMshrSize = pin.rtMshrSize;
    config.l1dLatencyCycles = pin.l1dLatencyCycles;
    config.warpSize = pin.warpSize;
    config.scheduler = pin.scheduler;
    const gpusim::GpuStats stats = gpusim::Gpu(config, workload).run();

    SCOPED_TRACE(std::string("actual ") + pin.name + ": " +
                 formatCounters(stats) + "}");
    expectCounters(pin.counters, stats, pin.name);
}

INSTANTIATE_TEST_SUITE_P(RtSettings, RtUnitPin,
                         testing::Range<size_t>(0, rtUnitCases().size()),
                         [](const testing::TestParamInfo<size_t> &info) {
                             return std::string(
                                 rtUnitCases()[info.param].name);
                         });

/** One pinned functional frame: the tracer's whole output. */
struct FrameCase
{
    const char *name;
    rt::SceneId scene;
    uint32_t samplesPerPixel;
    /** Image bits, every PixelProfile field and the FrameRayRecord of
     *  a render on a 3-worker pool. */
    uint64_t renderHash;
    /** SimWorkload::buildFullFrame(), the oracle's input. */
    uint64_t fullFrameHash;
};

/**
 * Frame pin: the functional tracer's bits for the two mirror-heavy
 * scenes at more than one sample per pixel, where reflection chains run
 * deepest and jittered samples differ. AnswerPin covers 1 spp only.
 * Generated before the tracer's shading recursion was unified and must
 * not change with it.
 */
class FramePin : public testing::TestWithParam<size_t>
{
};

const std::vector<FrameCase> &
frameCases()
{
    static const std::vector<FrameCase> table = {
        {"Park2spp", rt::SceneId::Park, 2, 0x957e98ed5fa52cd3ull,
         0x13d7d98b92e9ad2full},
        {"Bath3spp", rt::SceneId::Bath, 3, 0x1767de8106dd24b7ull,
         0xc754c487d7f68abaull},
    };
    return table;
}

TEST_P(FramePin, RenderAndFullFrameRecordMatchCommittedHashes)
{
    constexpr uint32_t kSize = 48;
    const FrameCase &pin = frameCases()[GetParam()];
    const rt::Scene scene = rt::buildScene(pin.scene);
    rt::Bvh bvh;
    bvh.build(scene.triangles());
    rt::TracerParams tp;
    tp.samplesPerPixel = pin.samplesPerPixel;
    const rt::Tracer tracer(scene, bvh, tp);

    ThreadPool pool(3);
    rt::FrameRayRecord frame;
    const rt::RenderResult render =
        tracer.render(kSize, kSize, &pool, &frame);
    uint64_t render_hash = kFnvBasis;
    for (const rt::Vec3 &color : render.image.pixels()) {
        const float bits[] = {color.x, color.y, color.z};
        render_hash = fnv(render_hash, bits, sizeof(bits));
    }
    for (const rt::PixelProfile &profile : render.profiles) {
        render_hash = fnvValue(render_hash, profile.nodesVisited);
        render_hash = fnvValue(render_hash, profile.triangleTests);
        render_hash = fnvValue(render_hash, profile.raysCast);
        render_hash =
            fnvValue(render_hash, static_cast<uint8_t>(profile.primaryHit));
    }
    render_hash = fnvValue(render_hash, frame.width);
    render_hash = fnvValue(render_hash, frame.height);
    for (size_t offset : frame.offsets)
        render_hash = fnvValue(render_hash, static_cast<uint64_t>(offset));
    for (const rt::RayTask &task : frame.rays)
        render_hash = hashRayTask(render_hash, task);

    const uint64_t full_frame_hash = hashWorkload(
        kFnvBasis,
        gpusim::SimWorkload::buildFullFrame(tracer, kSize, kSize));

    char actual[96];
    std::snprintf(actual, sizeof(actual),
                  "0x%016" PRIx64 "ull, 0x%016" PRIx64 "ull", render_hash,
                  full_frame_hash);
    SCOPED_TRACE(std::string("actual: ") + actual);
    EXPECT_EQ(render_hash, pin.renderHash);
    EXPECT_EQ(full_frame_hash, pin.fullFrameHash);
}

INSTANTIATE_TEST_SUITE_P(MirrorScenes, FramePin, testing::Values(0, 1),
                         [](const testing::TestParamInfo<size_t> &info) {
                             return std::string(frameCases()[info.param].name);
                         });

} // namespace
} // namespace zatel::core
