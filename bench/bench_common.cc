#include "bench_common.hh"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "service/campaign.hh"
#include "util/thread_pool.hh"

namespace zatel::bench
{

namespace
{

uint64_t
envOr(const char *name, uint64_t fallback)
{
    const char *value = std::getenv(name);
    if (!value || !*value)
        return fallback;
    return std::strtoull(value, nullptr, 0);
}

} // namespace

BenchOptions
benchOptions()
{
    BenchOptions options;
    options.resolution =
        static_cast<uint32_t>(envOr("ZATEL_BENCH_RES", 160));
    options.samplesPerPixel =
        static_cast<uint32_t>(envOr("ZATEL_BENCH_SPP", 1));
    options.quick = envOr("ZATEL_BENCH_QUICK", 0) != 0;
    options.seed = envOr("ZATEL_BENCH_SEED", 0x2A7E1);
    if (const char *name = std::getenv("ZATEL_BENCH_CONFIG"); name && *name)
        options.sweepConfigName = name;
    return options;
}

core::ZatelParams
defaultParams(const BenchOptions &options)
{
    core::ZatelParams params;
    params.width = options.resolution;
    params.height = options.resolution;
    params.samplesPerPixel = options.samplesPerPixel;
    params.seed = options.seed;
    return params;
}

SceneRender
renderScene(const PreparedScene &prepared, const core::ZatelParams &params)
{
    ThreadPool pool(params.numThreads);
    auto rays = std::make_shared<rt::FrameRayRecord>();
    SceneRender render;
    render.map = core::buildQuantizedHeatmap(prepared.scene, prepared.bvh,
                                             params, &pool, rays.get());
    render.rays = std::move(rays);
    return render;
}

void
printHeader(const std::string &title, const BenchOptions &options)
{
    std::printf("==================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("resolution %ux%u, %u spp%s\n", options.resolution,
                options.resolution, options.samplesPerPixel,
                options.quick ? " (quick mode)" : "");
    std::printf("==================================================\n");
}

std::vector<int>
sweepPercents(const BenchOptions &options)
{
    if (options.quick)
        return {10, 50, 90};
    return {10, 20, 30, 40, 50, 60, 70, 80, 90};
}

gpusim::GpuConfig
sweepConfig(const BenchOptions &options)
{
    try {
        return service::gpuConfigFromName(options.sweepConfigName);
    } catch (const service::CampaignError &err) {
        std::fprintf(stderr, "ZATEL_BENCH_CONFIG: %s\n", err.what());
        std::exit(1);
    }
}

std::vector<rt::SceneId>
benchScenes(const BenchOptions &options)
{
    if (options.quick) {
        return {rt::SceneId::Park, rt::SceneId::Sprng, rt::SceneId::Bunny,
                rt::SceneId::Ship};
    }
    return rt::allScenes();
}

void
writeBenchCsv(const std::string &name, const CsvWriter &csv)
{
    const char *env = std::getenv("ZATEL_BENCH_OUT");
    std::string dir = env && *env ? env : "bench_results";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    std::string path = dir + "/" + name + ".csv";
    if (csv.writeTo(path))
        std::printf("wrote %s\n", path.c_str());
    else
        std::fprintf(stderr, "warn: could not write %s\n", path.c_str());
}

} // namespace zatel::bench
