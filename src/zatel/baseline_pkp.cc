#include "zatel/baseline_pkp.hh"

#include <algorithm>
#include <deque>
#include <utility>

#include "gpusim/gpu.hh"
#include "util/logging.hh"
#include "util/timer.hh"

namespace zatel::core
{

PkpResult
runPkpBaseline(const gpusim::GpuConfig &config, const rt::Tracer &tracer,
               const PkpParams &params,
               std::shared_ptr<const rt::FrameRayRecord> frame)
{
    ZATEL_ASSERT(params.window >= 2, "PKP needs a window of >= 2 samples");

    PkpResult result;
    WallTimer timer;
    ThreadCpuTimer cpu_timer;

    // Total traversal work is known exactly from the functional trace
    // that built the workload: each ray recorded every node it visited.
    gpusim::SimWorkload workload = gpusim::SimWorkload::buildFullFrame(
        tracer, params.width, params.height, std::move(frame));
    uint64_t total_visits = 0;
    for (const gpusim::ThreadWork &thread : workload.threads)
        for (uint32_t r = 0; r < thread.rayCount; ++r)
            total_visits += thread.rays[r].visits.visits;

    gpusim::Gpu gpu(config, workload);

    std::deque<double> ipc_window;
    gpusim::GpuStats stop_snapshot;
    bool have_snapshot = false;

    gpu.setProgressCallback(
        params.checkIntervalCycles,
        [&](uint64_t cycle, const gpusim::GpuStats &snapshot) {
            (void)cycle;
            double progress =
                total_visits == 0
                    ? 1.0
                    : static_cast<double>(snapshot.rtNodeVisits) /
                          static_cast<double>(total_visits);
            ipc_window.push_back(snapshot.ipc());
            if (ipc_window.size() > params.window)
                ipc_window.pop_front();
            if (ipc_window.size() < params.window ||
                progress < params.minProgress) {
                return false;
            }
            // Stable when every sample sits within epsilon of the last.
            double latest = ipc_window.back();
            if (latest <= 0.0)
                return false;
            for (double sample : ipc_window) {
                if (std::abs(sample - latest) / latest > params.epsilon)
                    return false;
            }
            stop_snapshot = snapshot;
            have_snapshot = true;
            return true;
        });

    gpusim::GpuStats final_stats = gpu.run();
    result.wallSeconds = timer.elapsedSeconds();
    result.cpuSeconds = cpu_timer.elapsedSeconds();
    result.stoppedEarly = gpu.stoppedEarly();

    const gpusim::GpuStats &stats =
        (result.stoppedEarly && have_snapshot) ? stop_snapshot : final_stats;
    result.simulatedCycles = stats.cycles;
    result.workFractionCompleted =
        total_visits == 0 ? 1.0
                          : std::min(1.0, static_cast<double>(
                                              stats.rtNodeVisits) /
                                              static_cast<double>(
                                                  total_visits));

    // Projection: cycles scale with the remaining work; ratio metrics
    // are assumed to have stabilized (PKP's premise).
    double fraction = std::max(result.workFractionCompleted, 1e-9);
    for (gpusim::Metric metric : gpusim::allMetrics()) {
        double value = stats.metricValue(metric);
        if (metric == gpusim::Metric::SimCycles)
            value /= fraction;
        result.predicted[metric] = value;
    }
    return result;
}

} // namespace zatel::core
