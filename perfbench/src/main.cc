/**
 * @file
 * perfbench: the repository benchmark driver (see perfbench/METRICS.md).
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--out <dir>] [--commit <id>]
 *
 * The metrics it reports are the ones BENCHMARK.json declares (read at
 * start-up from the repository root the driver was built from).
 * Human-readable lines first; the last stdout line is one JSON object
 * {"correct", "attempted", "failed", "metrics"}. Exit code 0 only when
 * every correctness check held and no operation failed.
 */

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hh"
#include "catalogue.hh"

namespace
{

using namespace perfbench;

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out <dir>] "
                 "[--commit <id>]\n",
                 why);
    return 2;
}

bool
knownWorkload(const std::string &name)
{
    for (const WorkloadDef &w : workloads()) {
        if (name == w.name)
            return true;
    }
    return false;
}

std::string
jsonString(const std::string &text)
{
    return "\"" + zatel::service::jsonEscaped(text) + "\"";
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions options;
    std::string commit = "unknown";
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            options.workload = value;
            haveWorkload = true;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
            haveSeed = end != value.c_str() && *end == '\0';
        } else if (arg == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
            haveSeconds = end != value.c_str() && *end == '\0' &&
                          options.seconds > 0.0 && options.seconds <= 600.0;
        } else if (arg == "--trace") {
            options.trace = value == "1";
            haveTrace = value == "0" || value == "1";
        } else if (arg == "--out") {
            options.outDir = value;
        } else if (arg == "--commit") {
            commit = value;
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace)
        return usage("--workload, --seed, --seconds and --trace are "
                     "required and must be valid");
    if (!knownWorkload(options.workload))
        return usage(("unknown workload " + options.workload).c_str());
    Catalogue catalogue;
    try {
        catalogue = loadCatalogue(PERFBENCH_BENCHMARK_JSON);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
    for (const std::string &name : catalogue.workloads) {
        if (!knownWorkload(name))
            return usage(("BENCHMARK.json names unknown workload " + name)
                             .c_str());
    }
    ::mkdir(options.outDir.c_str(), 0755);

    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0);
    std::printf("  hardware_threads=%u build=%s flags=\"%s\" commit=%s\n",
                hardwareThreads(), PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
                commit.c_str());
    if (!kOptimized) {
        std::printf("  WARNING: UNOPTIMIZED BUILD -- timings are not "
                    "representative\n");
        std::fprintf(stderr, "perfbench: WARNING: unoptimized build\n");
    }
    std::fflush(stdout);

    RunResult result;
    if (options.trace)
        result = runTraced(options);
    else if (options.workload == "predict-park")
        result = runPredictPark(options);
    else if (options.workload == "campaign-sweep")
        result = runCampaignSweep(options);
    else
        result = runServeMixed(options);

    // Every catalogue metric of the mode, finite, and nothing else.
    const std::vector<MetricDef> &expected =
        options.trace ? catalogue.perLayer : catalogue.endToEnd;
    if (result.correct()) {
        for (const MetricDef &m : expected) {
            auto it = result.metrics().find(m.name);
            if (it == result.metrics().end() || !std::isfinite(it->second))
                result.problem("metric missing or not finite: " + m.name);
        }
        if (result.metrics().size() != expected.size())
            result.problem("metric set differs from the catalogue");
    }
    const double failedRatio =
        result.attempted() == 0
            ? 1.0
            : static_cast<double>(result.failed()) /
                  static_cast<double>(result.attempted());
    if (result.attempted() == 0)
        result.problem("no operation attempted");
    printMetric("failed_ratio", failedRatio, "ratio",
                std::to_string(result.failed()) + " of " +
                    std::to_string(result.attempted()));

    std::string metrics;
    for (const MetricDef &m : expected) {
        auto it = result.metrics().find(m.name);
        if (it == result.metrics().end() || !std::isfinite(it->second))
            continue;
        char value[40];
        std::snprintf(value, sizeof(value), "%.17g", it->second);
        metrics += (metrics.empty() ? "" : ", ") + jsonString(m.name) +
                   ": {\"value\": " + value +
                   ", \"unit\": " + jsonString(m.unit) + "}";
    }
    const bool correct = result.correct();
    const std::string line =
        std::string("{\"correct\": ") + (correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(result.attempted()) +
        ", \"failed\": " + std::to_string(result.failed()) +
        ", \"metrics\": {" + metrics + "}}";
    writeTextFile(
        options.outDir + "/result.json",
        "{\"workload\": " + jsonString(options.workload) +
            ", \"seed\": " + std::to_string(options.seed) +
            ", \"seconds\": " + std::to_string(options.seconds) +
            ", \"trace\": " + (options.trace ? "1" : "0") +
            ", \"hardware_threads\": " + std::to_string(hardwareThreads()) +
            ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) +
            ", \"cxx_flags\": " + jsonString(PERFBENCH_CXX_FLAGS) +
            ", \"optimized\": " + (kOptimized ? "true" : "false") +
            ", \"commit\": " + jsonString(commit) +
            ", \"result\": " + line + "}\n");
    std::printf("%s\n", line.c_str());
    return correct && result.failed() == 0 ? 0 : 1;
}
