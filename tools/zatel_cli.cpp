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
 * The recipe flags are campaign fields (docs/SERVICE.md), read by
 * service::applyJobField and service::checkRecipe like a campaign line
 * or a /predict body (--profile-noise, --no-downscale and --regression
 * are profile_noise, downscale=false and regression=true). Bad input
 * or a failed run (std::bad_alloc included) is one `error:` line and
 * exit 1.
 *
 * Examples:
 *   zatel scenes
 *   zatel predict --scene PARK --gpu soc --res 160
 *   zatel compare --scene BUNNY --gpu rtx2060 --fraction 0.4 --no-downscale
 *   zatel oracle --scene SPNZA --res 96 --dump-stats
 */

#include <cstdio>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>

#include "obs/exports.hh"
#include "rt/bvh.hh"
#include "rt/obj_loader.hh"
#include "rt/scene_library.hh"
#include "service/campaign.hh"
#include "util/arg_parser.hh"
#include "util/csv.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "zatel/evaluation.hh"
#include "zatel/predictor.hh"

namespace
{

using namespace zatel;

/** Flags that are campaign fields under the same name. */
constexpr const char *kRecipeFields[] = {
    "scene", "gpu", "res", "spp", "seed", "threads",
    "division", "distribution", "fraction", "k"};

/**
 * The recipe the flags describe, read and checked the way a campaign
 * line is.
 * @throws service::CampaignError for a value the reader or
 *         service::checkRecipe rejects.
 */
service::CampaignJob
recipeFromArgs(const ArgParser &args)
{
    service::CampaignJob job;
    for (const char *field : kRecipeFields)
        service::applyJobField(job, field, args.get(field));
    service::applyJobField(job, "profile_noise", args.get("profile-noise"));
    if (args.getFlag("no-downscale"))
        service::applyJobField(job, "downscale", "false");
    if (args.getFlag("regression"))
        service::applyJobField(job, "regression", "true");
    service::GroupResilience::fromArgs(args).applyTo(job.params);
    service::checkRecipe(job);
    return job;
}

/** Print one Table I metric per row. */
void
printMetrics(const char *column,
             const std::map<gpusim::Metric, double> &values)
{
    AsciiTable table({"Metric", column});
    for (gpusim::Metric metric : gpusim::allMetrics()) {
        table.addRow({gpusim::metricName(metric),
                      AsciiTable::num(values.at(metric), 4)});
    }
    std::printf("%s", table.toString().c_str());
}

void
printPrediction(const core::ZatelResult &result)
{
    printMetrics("Predicted", result.predicted);
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
        throw std::runtime_error("OBJ file '" + path +
                                 "' contains no triangles");
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

/** Run a predict, oracle or compare command; throws on any failure. */
void
run(const std::string &command, const ArgParser &args)
{
    const service::CampaignJob job = recipeFromArgs(args);
    const gpusim::GpuConfig config = service::gpuConfigFromName(job.gpu);
    // Before any thread pool exists, so the workers register their
    // trace names (docs/OBSERVABILITY.md).
    obs::enableExports(args.get("trace-out"), args.get("metrics-out"));
    rt::Scene scene =
        args.has("obj")
            ? sceneFromObj(args.get("obj"))
            : rt::buildScene(service::resolveSceneName(job.scene),
                             rt::SceneDetail{job.sceneDetail}, job.sceneSeed);
    rt::Bvh bvh;
    bvh.build(scene.triangles());
    core::ZatelPredictor predictor(scene, bvh, config, job.params);

    if (command == "oracle") {
        gpusim::StatsReport report;
        printMetrics("Value", predictor.runOracle(&report).metrics());
        if (args.getFlag("dump-stats"))
            std::printf("\n%s", report.toString().c_str());
        return;
    }

    const core::ZatelResult result = predictor.predict();
    if (command == "predict") {
        printPrediction(result);
        maybeWriteCsv(args, result);
        if (args.has("heatmap-out") &&
            predictor.quantizedHeatmap().writePpm(args.get("heatmap-out")))
            std::printf("wrote %s\n", args.get("heatmap-out").c_str());
        return;
    }

    // compare: the oracle slices the frame ray record the prediction's
    // render made instead of tracing the frame again.
    const core::OracleResult oracle = predictor.runOracle();
    auto rows = core::compareToOracle(result.predicted, oracle.stats);
    std::printf("%s", core::comparisonTable(
                          rows, "Zatel vs full simulation ('" +
                                    scene.name() + "' on " + config.name +
                                    ")")
                          .c_str());
    std::printf("speedup (1 core/group): %.1fx\n",
                core::oneCorePerGroupSpeedup(oracle, result));
    maybeWriteCsv(args, result);
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("zatel",
                   "Sample complexity-aware scale-model simulation for "
                   "ray tracing (commands: scenes predict oracle compare)");
    // Recipe flags: campaign fields (docs/SERVICE.md).
    args.addOption("scene", "PARK", "scene name");
    args.addOption("gpu", "soc", "target GPU: soc | rtx2060");
    args.addOption("res", "128", "square image resolution");
    args.addOption("spp", "1", "samples per pixel");
    args.addOption("seed", "173025", "pipeline seed");
    args.addOption("threads", "0",
                   "worker threads for the render bands and the group "
                   "simulations (0 = hardware concurrency, at most 4096)");
    args.addOption("division", "fine", "image division: fine | coarse");
    args.addOption("distribution", "uniform",
                   "selection distribution: uniform | lintmp | exptmp");
    args.addOption("fraction", "",
                   "fixed trace fraction in (0, 1] (bypasses eq. 1)");
    args.addOption("k", "", "force the division/downscale factor");
    args.addOption("profile-noise", "",
                   "profile with noisy HW timers at this relative sigma");
    args.addFlag("no-downscale", "run one group on the full GPU");
    args.addFlag("regression", "use 3-point exponential extrapolation");
    service::GroupResilience::addOptions(args);
    // Inputs and outputs of this process.
    args.addOption("obj", "", "load geometry from this OBJ file instead "
                              "of a built-in scene");
    args.addOption("csv", "", "write predicted metrics to this CSV file");
    args.addOption("trace-out", "",
                   "write a Chrome trace_event JSON of the run here "
                   "(open in chrome://tracing or Perfetto)");
    args.addOption("metrics-out", "",
                   "write the metrics registry here (.json = JSON, "
                   "anything else = Prometheus text)");
    args.addOption("heatmap-out", "",
                   "write the quantized heatmap PPM here (predict only)");
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

    try {
        run(command, args);
    } catch (const std::exception &err) {
        std::fprintf(stderr, "error: %s\n", err.what());
        return 1;
    }
    return obs::writeExports(args.get("trace-out"), args.get("metrics-out"))
               ? 0
               : 1;
}
