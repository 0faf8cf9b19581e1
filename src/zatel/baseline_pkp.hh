/**
 * @file
 * Principal-Kernel-Projection-style baseline (paper Section IV-B).
 *
 * PKA (Avalos Baddouh et al., MICRO'21) accelerates GPGPU simulation
 * with two techniques; the paper argues only the second, Principal
 * Kernel Projection (PKP), is even applicable to ray tracing (which
 * launches a single kernel), and that it "might stop the simulation too
 * early, outputting a value with high error" on divergent ray-tracing
 * workloads whose IPC keeps shifting as the warp mix changes.
 *
 * This module implements that baseline so the claim is testable: the
 * full-size GPU simulates the full frame but terminates as soon as the
 * IPC stabilizes (relative change below epsilon across a trailing
 * window of samples), then projects total cycles from the completed
 * share of traversal work and reports the stabilized ratio metrics
 * as-is.
 */

#ifndef ZATEL_ZATEL_BASELINE_PKP_HH
#define ZATEL_ZATEL_BASELINE_PKP_HH

#include <cstdint>
#include <map>
#include <memory>

#include "gpusim/config.hh"
#include "gpusim/stats.hh"
#include "rt/bvh.hh"
#include "rt/scene.hh"
#include "rt/tracer.hh"

namespace zatel::core
{

/** PKP tuning. */
struct PkpParams
{
    uint32_t width = 128;
    uint32_t height = 128;
    uint32_t samplesPerPixel = 1;
    /** Cycles between IPC samples (PKA samples aggressively to reap
     *  large speedups on long-running kernels). */
    uint64_t checkIntervalCycles = 500;
    /** Stop when max relative IPC change over the window is below this. */
    double epsilon = 0.05;
    /** Trailing samples considered for stability. */
    uint32_t window = 4;
    /** Never stop before this share of traversal work completed. */
    double minProgress = 0.02;
};

/** PKP outcome. */
struct PkpResult
{
    /** Projected Table I metrics. */
    std::map<gpusim::Metric, double> predicted;
    /** True when the stability detector fired before completion. */
    bool stoppedEarly = false;
    /** Cycles actually simulated. */
    uint64_t simulatedCycles = 0;
    /** Share of total traversal work completed at the stop point. */
    double workFractionCompleted = 1.0;
    /** Wall-clock seconds of the (possibly truncated) simulation. */
    double wallSeconds = 0.0;
    /** CPU seconds of the thread that built the workload and ran it. */
    double cpuSeconds = 0.0;
};

/**
 * Run the PKP baseline for @p tracer's scene on @p config.
 *
 * The total traversal work (node visits) is known from the functional
 * render, so the cycle projection is
 * cycles_simulated / work_fraction_completed; ratio metrics are taken
 * from the stop-point snapshot.
 *
 * @param frame The frame ray record of a render of this frame by
 *        @p tracer, or null. The workload slices the record, as an
 *        oracle on a predictor holding one does; without it every
 *        pixel is traced inside the timed region. The result is the
 *        same either way.
 */
PkpResult runPkpBaseline(const gpusim::GpuConfig &config,
                         const rt::Tracer &tracer, const PkpParams &params,
                         std::shared_ptr<const rt::FrameRayRecord> frame =
                             nullptr);

} // namespace zatel::core

#endif // ZATEL_ZATEL_BASELINE_PKP_HH
