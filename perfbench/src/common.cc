#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench.hh"
#include "spans.hh"
#include "util/math_utils.hh"

namespace perfbench
{

void
RunResult::problem(const std::string &what)
{
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    problems_.push_back(what);
}

void
RunResult::operation(bool ok)
{
    ++attempted_;
    if (!ok)
        ++failed_;
}

void
printMetric(const std::string &name, double value, const char *unit,
            const std::string &note)
{
    std::printf("  %-34s %14.6g %-6s %s\n", name.c_str(), value, unit,
                note.c_str());
}

std::string
metricDigest(const std::map<zatel::gpusim::Metric, double> &metrics)
{
    zatel::service::HashStream hash;
    for (const auto &[metric, value] : metrics)
        hash.u32(static_cast<uint32_t>(metric))
            .str(zatel::service::formatDouble17(value));
    char buffer[20];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(hash.digest()));
    return buffer;
}

double
rowMaePct(const zatel::service::ResultRow &row)
{
    double sum = 0.0;
    size_t count = 0;
    for (const auto &[metric, predicted] : row.predicted) {
        auto it = row.oracle.find(metric);
        if (it == row.oracle.end())
            continue;
        sum += zatel::relativeErrorPct(predicted, it->second);
        ++count;
    }
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

unsigned
hardwareThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

std::unique_ptr<BuiltScene>
buildScene(zatel::rt::SceneId id, zatel::obs::TraceRecorder *recorder)
{
    auto built = std::make_unique<BuiltScene>();
    {
        Span span(recorder, "rt.scene_build");
        built->scene = zatel::rt::buildScene(id);
        built->sceneMs = span.stopMs();
    }
    {
        Span span(recorder, "rt.bvh_build");
        built->bvh.build(built->scene.triangles());
        built->bvhMs = span.stopMs();
    }
    return built;
}

} // namespace perfbench
