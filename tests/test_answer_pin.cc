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
 * same constants: a predictor that renders the frame slices the frame
 * ray record, and one given a cached heatmap traces its groups' pixels.
 *
 * The constants were generated before the parallel front end existed
 * and must not change with it. Regenerating them is a deliberate act:
 * on a mismatch the test prints the actual values in the table's own
 * format, and the diff of the table is what gets reviewed.
 *
 * FramePin does the same for the functional tracer alone, at more than
 * one sample per pixel: a pooled render's image, profiles and frame ray
 * record, and the full-frame workload the oracle simulates.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "gpusim/workload.hh"
#include "rt/scene_library.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"
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
                  const rt::FrameRayRecord *frame)
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
        out += "{\"" + std::string(gpusim::metricName(metric)) + "\", \"" +
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

    // Given the same heatmap, as from the cache; the groups trace.
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
    rt::FrameRayRecord frame;
    tracer.render(params.width, params.height, &pool, &frame);
    const uint64_t workload_hash =
        groupWorkloadHash(tracer, params, result.k, quantized, nullptr);
    const uint64_t sliced_hash =
        groupWorkloadHash(tracer, params, result.k, quantized, &frame);

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
        ++m;
    }
}

INSTANTIATE_TEST_SUITE_P(Recipes, AnswerPin, testing::Values(0, 1),
                         [](const testing::TestParamInfo<size_t> &info) {
                             return info.param == 0 ? "ParkSoc"
                                                    : "SprngRtx2060";
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
