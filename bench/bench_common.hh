/**
 * @file
 * Shared support for the per-experiment bench binaries.
 *
 * Every bench reads its scale knobs from the environment so the whole
 * harness can be re-run at paper scale without recompiling:
 *
 *   ZATEL_BENCH_RES     square image resolution (default 160; paper 512)
 *   ZATEL_BENCH_SPP     samples per pixel (default 1; paper 2)
 *   ZATEL_BENCH_QUICK   1 = thin out sweep points for a fast smoke run
 *   ZATEL_BENCH_SEED    pipeline seed (default 174049, i.e. 0x2A7E1)
 *
 * Each is a base-10 integer read by the shared number reader
 * (util/numbers.hh); RES and SPP must be at least 1. A bad value is an
 * `error:` line and exit 1 before any work.
 */

#ifndef ZATEL_BENCH_COMMON_HH
#define ZATEL_BENCH_COMMON_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gpusim/config.hh"
#include "rt/bvh.hh"
#include "rt/scene_library.hh"
#include "zatel/evaluation.hh"
#include "util/csv.hh"
#include "zatel/predictor.hh"

namespace zatel::bench
{

/** Environment-derived bench scale. */
struct BenchOptions
{
    uint32_t resolution = 160;
    uint32_t samplesPerPixel = 1;
    bool quick = false;
    uint64_t seed = 0x2A7E1;
    /** Sweep-figure target: "soc" (default) or "rtx2060". */
    std::string sweepConfigName = "soc";
};

/** Parse the ZATEL_BENCH_* environment variables (exit 1 on bad ones). */
BenchOptions benchOptions();

/** A scene with its BVH, built once per bench binary. */
struct PreparedScene
{
    rt::Scene scene;
    rt::Bvh bvh;

    explicit PreparedScene(rt::SceneId id)
        : scene(rt::buildScene(id))
    {
        bvh.build(scene.triangles());
    }

    PreparedScene(const PreparedScene &) = delete;
    PreparedScene &operator=(const PreparedScene &) = delete;
};

/**
 * One render of a scene: the quantized heatmap and frame ray record
 * core::buildQuantizedHeatmap() makes for a sweep's params. Nothing in
 * it depends on the traced fraction, K or the division method, so a
 * sweep over those hands it to every predictor with
 * setPrebuiltHeatmap() and predicts exactly what a fresh render would,
 * and an oracle on such a predictor slices the record instead of
 * tracing the frame.
 */
struct SceneRender
{
    heatmap::QuantizedHeatmap map;
    std::shared_ptr<const rt::FrameRayRecord> rays;
};

/** Render @p prepared once for @p params on params.numThreads threads. */
SceneRender renderScene(const PreparedScene &prepared,
                        const core::ZatelParams &params);

/** Default ZatelParams for a bench at the given options. */
core::ZatelParams defaultParams(const BenchOptions &options);

/** Print the standard bench banner. */
void printHeader(const std::string &title, const BenchOptions &options);

/** Sweep percentages for the Section IV-D experiments. */
std::vector<int> sweepPercents(const BenchOptions &options);

/** The LumiBench scene set, thinned in quick mode. */
std::vector<rt::SceneId> benchScenes(const BenchOptions &options);

/**
 * Target GPU for the Section IV-D sweep figures (13-16, 20).
 *
 * The paper plots the RTX 2060 (512x512, 2 spp keeps its 30 SMs
 * saturated) and notes the Mobile SoC shows the same trends. At this
 * repo's reduced default resolution the SoC is the configuration that
 * stays saturated like the paper's runs, so it is the default; set
 * ZATEL_BENCH_CONFIG=rtx2060 to sweep the larger chip instead.
 */
gpusim::GpuConfig sweepConfig(const BenchOptions &options);

/**
 * Write a bench's data series to ZATEL_BENCH_OUT/<name>.csv (the
 * directory defaults to ./bench_results and is created if absent).
 * Prints the destination; failures warn and continue.
 */
void writeBenchCsv(const std::string &name, const CsvWriter &csv);

} // namespace zatel::bench

#endif // ZATEL_BENCH_COMMON_HH
