#include "obs/exports.hh"

#include <cstdio>

#include "obs/metrics_registry.hh"
#include "obs/trace_recorder.hh"
#include "util/logging.hh"

namespace zatel::obs
{

void
enableExports(const std::string &trace_path, const std::string &metrics_path)
{
    if (!trace_path.empty()) {
        TraceRecorder::global().enable();
        TraceRecorder::global().setThreadName("main");
    }
    if (!metrics_path.empty())
        MetricsRegistry::global().setEnabled(true);
}

bool
writeExports(const std::string &trace_path, const std::string &metrics_path)
{
    bool ok = true;
    if (!trace_path.empty()) {
        TraceRecorder::global().disable();
        if (TraceRecorder::global().writeChromeTrace(trace_path)) {
            std::printf("wrote %s (chrome://tracing)\n", trace_path.c_str());
        } else {
            warn("could not write trace to ", trace_path);
            ok = false;
        }
    }
    if (!metrics_path.empty()) {
        if (MetricsRegistry::global().writeTo(metrics_path)) {
            std::printf("wrote %s\n", metrics_path.c_str());
        } else {
            warn("could not write metrics to ", metrics_path);
            ok = false;
        }
    }
    return ok;
}

} // namespace zatel::obs
