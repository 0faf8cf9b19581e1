/**
 * @file
 * zatel — command-line front end for the prediction pipeline.
 *
 * Subcommands (first positional argument):
 *   scenes    list the available scenes
 *   predict   run the Zatel pipeline and print the predicted metrics
 *   oracle    run the full cycle-level simulation
 *   compare   run both and print the error table
 *
 * Examples:
 *   zatel scenes
 *   zatel predict --scene PARK --gpu soc --res 160
 *   zatel compare --scene BUNNY --gpu rtx2060 --fraction 0.4 --no-downscale
 *   zatel oracle --scene SPNZA --res 96 --dump-stats
 */

#include <cstdio>
#include <string>

#include "gpusim/gpu.hh"
#include "obs/metrics_registry.hh"
#include "obs/trace_recorder.hh"
#include "rt/bvh.hh"
#include "rt/obj_loader.hh"
#include "rt/scene_library.hh"
#include "util/arg_parser.hh"
#include "util/csv.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "zatel/evaluation.hh"
#include "zatel/predictor.hh"

namespace
{

using namespace zatel;

gpusim::GpuConfig
configFromName(const std::string &name)
{
    if (name == "soc" || name == "mobile")
        return gpusim::GpuConfig::mobileSoc();
    if (name == "rtx2060" || name == "rtx")
        return gpusim::GpuConfig::rtx2060();
    fatal("unknown GPU config '", name, "' (use soc or rtx2060)");
}

core::ZatelParams
paramsFromArgs(const ArgParser &args)
{
    core::ZatelParams params;
    params.width = static_cast<uint32_t>(args.getPositiveInt("res"));
    params.height = params.width;
    params.samplesPerPixel =
        static_cast<uint32_t>(args.getPositiveInt("spp"));
    params.seed = static_cast<uint64_t>(args.getInt("seed"));
    params.numThreads =
        static_cast<uint32_t>(args.getIntInRange("threads", 0, 4096));
    params.downscaleGpu = !args.getFlag("no-downscale");

    if (args.has("fraction"))
        params.selector.fixedFraction = args.getDouble("fraction");
    if (args.has("k"))
        params.forcedK =
            static_cast<uint32_t>(args.getPositiveInt("k"));

    const std::string &division = args.get("division");
    if (division == "coarse")
        params.partition.method = core::DivisionMethod::CoarseGrained;
    else if (division != "fine")
        fatal("unknown division '", division, "' (fine|coarse)");

    const std::string &dist = args.get("distribution");
    if (dist == "lintmp")
        params.selector.distribution = core::DistributionMethod::LinTemp;
    else if (dist == "exptmp")
        params.selector.distribution = core::DistributionMethod::ExpTemp;
    else if (dist != "uniform")
        fatal("unknown distribution '", dist,
              "' (uniform|lintmp|exptmp)");

    if (args.getFlag("regression")) {
        params.extrapolation =
            core::ExtrapolationMethod::ExponentialRegression;
    }
    if (args.has("profile-noise")) {
        params.profiler.source = heatmap::ProfilingSource::HardwareTimer;
        params.profiler.timerNoise = args.getDouble("profile-noise");
    }

    // Resilience knobs (docs/ROBUSTNESS.md), range-checked so a
    // negative or out-of-range value is a clear error, not a huge
    // unsigned wrap.
    params.groupRetries = static_cast<uint32_t>(
        args.getIntInRange("group-retries", 0, 100));
    const double min_fraction = args.getDouble("min-groups-fraction");
    if (min_fraction < 0.0 || min_fraction > 1.0)
        fatal("--min-groups-fraction must be in [0, 1], got ",
              min_fraction);
    params.minGroupsFraction = min_fraction;
    params.failFast = args.getFlag("fail-fast");
    return params;
}

void
printPrediction(const core::ZatelResult &result)
{
    AsciiTable table({"Metric", "Predicted"});
    for (gpusim::Metric metric : gpusim::allMetrics()) {
        table.addRow({gpusim::metricName(metric),
                      AsciiTable::num(result.metric(metric), 4)});
    }
    std::printf("%s", table.toString().c_str());
    std::printf("K=%u, %.1f%% of pixels traced, slowest instance %.2fs\n",
                result.k, result.fractionTraced * 100.0,
                result.maxGroupWallSeconds);
    if (result.degraded) {
        std::printf("DEGRADED: %zu of %u group(s) failed; prediction "
                    "assembled from survivors (extrapolation x%.4f) — "
                    "expect widened sampling error\n",
                    result.failedGroups.size(), result.k,
                    result.survivorExtrapolation);
    }
}

void
maybeWriteCsv(const ArgParser &args, const core::ZatelResult &result)
{
    if (!args.has("csv"))
        return;
    CsvWriter csv;
    csv.setHeader({"metric", "predicted"});
    for (gpusim::Metric metric : gpusim::allMetrics()) {
        csv.addRow({gpusim::metricName(metric),
                    CsvWriter::formatDouble(result.metric(metric))});
    }
    if (csv.writeTo(args.get("csv")))
        std::printf("wrote %s\n", args.get("csv").c_str());
    else
        warn("could not write ", args.get("csv"));
}

/**
 * Wrap a user OBJ mesh in a scene: a camera framing the mesh bounds and
 * a light above it.
 */
rt::Scene
sceneFromObj(const std::string &path)
{
    rt::Scene scene(path);
    uint16_t mat =
        scene.addMaterial(rt::Material::diffuse({0.7f, 0.7f, 0.7f}));
    rt::ObjLoadResult loaded = rt::loadObjFile(path, mat);
    if (loaded.triangles.empty())
        fatal("OBJ file '", path, "' contains no triangles");
    inform("loaded ", loaded.triangles.size(), " triangles from ", path);

    rt::Aabb bounds;
    for (const rt::Triangle &tri : loaded.triangles)
        bounds.expand(tri.bounds());
    rt::Vec3 center = bounds.center();
    float radius = length(bounds.extent()) * 0.5f;
    scene.addTriangles(std::move(loaded.triangles));
    scene.setCamera(rt::Camera(
        center + rt::Vec3{0.0f, radius * 0.4f, radius * 2.2f}, center,
        {0.0f, 1.0f, 0.0f}, 50.0f));
    scene.setLight({center + rt::Vec3{radius, radius * 2.0f, radius},
                    {1.1f, 1.1f, 1.05f}});
    return scene;
}

/**
 * Turn on the observability layer when --trace-out / --metrics-out was
 * given. Must run BEFORE any thread pool is created so workers can
 * register their trace names (docs/OBSERVABILITY.md).
 */
void
setupObservability(const ArgParser &args)
{
    if (args.has("trace-out")) {
        obs::TraceRecorder::global().enable();
        obs::TraceRecorder::global().setThreadName("main");
    }
    if (args.has("metrics-out"))
        obs::MetricsRegistry::global().setEnabled(true);
}

/** Flush --trace-out / --metrics-out files; returns 0 on success. */
int
writeObsOutputs(const ArgParser &args)
{
    int status = 0;
    if (args.has("trace-out")) {
        obs::TraceRecorder::global().disable();
        const std::string &path = args.get("trace-out");
        if (obs::TraceRecorder::global().writeChromeTrace(path))
            std::printf("wrote %s (chrome://tracing)\n", path.c_str());
        else {
            warn("could not write trace to ", path);
            status = 1;
        }
    }
    if (args.has("metrics-out")) {
        const std::string &path = args.get("metrics-out");
        if (obs::MetricsRegistry::global().writeTo(path))
            std::printf("wrote %s\n", path.c_str());
        else {
            warn("could not write metrics to ", path);
            status = 1;
        }
    }
    return status;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("zatel",
                   "Sample complexity-aware scale-model simulation for "
                   "ray tracing (commands: scenes predict oracle compare)");
    args.addOption("scene", "PARK", "scene name");
    args.addOption("obj", "", "load geometry from this OBJ file instead "
                              "of a built-in scene");
    args.addOption("gpu", "soc", "target GPU: soc | rtx2060");
    args.addOption("res", "128", "square image resolution");
    args.addOption("spp", "1", "samples per pixel");
    args.addOption("seed", "173025", "pipeline seed");
    args.addOption("threads", "0",
                   "worker threads for the render bands and the group "
                   "simulations (0 = hardware concurrency)");
    args.addOption("division", "fine", "image division: fine | coarse");
    args.addOption("distribution", "uniform",
                   "selection distribution: uniform | lintmp | exptmp");
    args.addOption("fraction", "", "fixed trace fraction (bypasses eq. 1)");
    args.addOption("k", "", "force the division/downscale factor");
    args.addOption("profile-noise", "",
                   "profile with noisy HW timers at this relative sigma");
    args.addOption("group-retries", "1",
                   "retries per failed group simulation before the group "
                   "is excluded (docs/ROBUSTNESS.md)");
    args.addOption("min-groups-fraction", "0.5",
                   "minimum fraction of groups that must survive for a "
                   "degraded prediction");
    args.addFlag("fail-fast",
                 "treat any group failure as fatal (no degraded mode)");
    args.addOption("csv", "", "write predicted metrics to this CSV file");
    args.addOption("trace-out", "",
                   "write a Chrome trace_event JSON of the run here "
                   "(open in chrome://tracing or Perfetto)");
    args.addOption("metrics-out", "",
                   "write the metrics registry here (.json = JSON, "
                   "anything else = Prometheus text)");
    args.addOption("heatmap-out", "",
                   "write the quantized heatmap PPM here (predict only)");
    args.addFlag("no-downscale", "run one group on the full GPU");
    args.addFlag("regression", "use 3-point exponential extrapolation");
    args.addFlag("dump-stats", "print the per-component stats breakdown");
    args.addFlag("help", "show this help");

    if (!args.parse(argc, argv)) {
        std::fprintf(stderr, "error: %s\n%s", args.errorMessage().c_str(),
                     args.usage().c_str());
        return 1;
    }
    if (args.getFlag("help") || args.positional().empty()) {
        std::printf("%s", args.usage().c_str());
        return args.getFlag("help") ? 0 : 1;
    }

    const std::string &command = args.positional().front();
    if (command == "scenes") {
        for (rt::SceneId id : rt::allScenes()) {
            rt::Scene scene = rt::buildScene(id);
            std::printf("%-6s %7zu triangles, %d bounce(s)\n",
                        scene.name().c_str(), scene.triangleCount(),
                        scene.maxBounces());
        }
        return 0;
    }

    if (command != "predict" && command != "oracle" &&
        command != "compare") {
        // Unknown subcommand: print the usage text on stderr and exit
        // nonzero so scripts notice the typo instead of parsing no
        // output (and before any expensive scene building).
        std::fprintf(stderr,
                     "error: unknown command '%s' (use scenes, predict, "
                     "oracle or compare)\n%s",
                     command.c_str(), args.usage().c_str());
        return 1;
    }

    setupObservability(args);
    rt::Scene scene = args.has("obj")
                          ? sceneFromObj(args.get("obj"))
                          : rt::buildScene(
                                rt::sceneIdFromName(args.get("scene")));
    rt::Bvh bvh;
    bvh.build(scene.triangles());
    gpusim::GpuConfig config = configFromName(args.get("gpu"));
    core::ZatelParams params = paramsFromArgs(args);
    core::ZatelPredictor predictor(scene, bvh, config, params);

    if (command == "predict") {
        core::ZatelResult result = predictor.predict();
        printPrediction(result);
        maybeWriteCsv(args, result);
        if (args.has("heatmap-out")) {
            if (predictor.quantizedHeatmap().writePpm(
                    args.get("heatmap-out")))
                std::printf("wrote %s\n", args.get("heatmap-out").c_str());
        }
        return writeObsOutputs(args);
    }

    if (command == "oracle") {
        rt::TracerParams tracer_params;
        tracer_params.samplesPerPixel = params.samplesPerPixel;
        gpusim::SimWorkload workload = gpusim::SimWorkload::buildFullFrame(
            rt::Tracer(scene, bvh, tracer_params), params.width,
            params.height);
        gpusim::Gpu gpu(config, workload);
        gpusim::GpuStats stats = gpu.run();
        AsciiTable table({"Metric", "Value"});
        for (gpusim::Metric metric : gpusim::allMetrics()) {
            table.addRow({gpusim::metricName(metric),
                          AsciiTable::num(stats.metricValue(metric), 4)});
        }
        std::printf("%s", table.toString().c_str());
        if (args.getFlag("dump-stats"))
            std::printf("\n%s", gpu.statsReport().toString().c_str());
        return writeObsOutputs(args);
    }

    if (command == "compare") {
        // Predict first: the oracle then slices the frame ray record the
        // prediction's render made instead of tracing the frame again.
        core::ZatelResult result = predictor.predict();
        core::OracleResult oracle = predictor.runOracle();
        auto rows = core::compareToOracle(result.predicted, oracle.stats);
        std::printf("%s", core::comparisonTable(
                              rows, "Zatel vs full simulation ('" +
                                        scene.name() + "' on " +
                                        config.name + ")")
                              .c_str());
        // Thread CPU seconds: one core per group, whatever else runs.
        std::printf("speedup (1 core/group): %.1fx\n",
                    oracle.cpuSeconds / (result.maxGroupCpuSeconds + 1e-9));
        maybeWriteCsv(args, result);
        return writeObsOutputs(args);
    }

    return 0;
}
