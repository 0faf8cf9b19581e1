/**
 * @file
 * ZatelPredictor: the end-to-end prediction pipeline (paper Fig. 3).
 *
 *   (1) profile the workload into an execution-time heatmap
 *   (2) quantize its colors with K-Means
 *   (3) pick the downscaling factor K and shrink the GPU configuration
 *   (4) divide the image plane into K groups
 *   (5) select each group's representative pixels
 *   (6) run one downscaled simulator instance per group, concurrently
 *   (7) extrapolate and combine the group statistics
 *
 * The predictor is configured once and then predict()s; an oracle run
 * (full scene, full GPU) is provided for error evaluation.
 */

#ifndef ZATEL_ZATEL_PREDICTOR_HH
#define ZATEL_ZATEL_PREDICTOR_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "gpusim/config.hh"
#include "gpusim/gpu.hh"
#include "gpusim/stats.hh"
#include "heatmap/heatmap.hh"
#include "heatmap/profiler.hh"
#include "rt/bvh.hh"
#include "rt/ray_record.hh"
#include "rt/scene.hh"
#include "rt/tracer.hh"
#include "zatel/combine.hh"
#include "zatel/extrapolate.hh"
#include "zatel/partition.hh"
#include "zatel/pixel_selector.hh"

namespace zatel
{
class ThreadPool;
}

namespace zatel::core
{

/**
 * Thrown when a cancellation hook (setCancelCheck) aborts a prediction
 * between pipeline stages; the campaign scheduler uses it for cooperative
 * per-job cancellation and wall-clock timeouts.
 */
class PredictionCancelled : public std::runtime_error
{
  public:
    PredictionCancelled() : std::runtime_error("zatel: prediction cancelled")
    {
    }
};

/**
 * Thrown by assemble() when group failures exceed the resilience
 * budget: more than (1 - minGroupsFraction) of the groups failed, or
 * any group failed while failFast was set (docs/ROBUSTNESS.md).
 */
class GroupFailureError : public std::runtime_error
{
  public:
    GroupFailureError(std::string what, std::vector<uint32_t> failed_groups)
        : std::runtime_error(std::move(what)),
          failedGroups_(std::move(failed_groups))
    {
    }

    /** Indices of the groups whose simulations failed. */
    const std::vector<uint32_t> &failedGroups() const
    {
        return failedGroups_;
    }

  private:
    std::vector<uint32_t> failedGroups_;
};

/** Full pipeline configuration. */
struct ZatelParams
{
    /** Rendered image size (the paper uses 512x512). */
    uint32_t width = 128;
    uint32_t height = 128;
    /** Samples per pixel (the paper uses 2). */
    uint32_t samplesPerPixel = 1;

    /** Image-plane division (fine-grained 32x2 is the tuned choice). */
    PartitionParams partition;
    /** Representative-pixel selection. */
    SelectorParams selector;
    /** Per-group extrapolation model. */
    ExtrapolationMethod extrapolation = ExtrapolationMethod::Linear;
    /** Fractions simulated when extrapolation == ExponentialRegression. */
    std::vector<double> regressionFractions = {0.2, 0.3, 0.4};

    /** Downscale the GPU by K = gcd(#SM, #partitions) and split into K
     *  groups. When false the full GPU runs one group (pure pixel
     *  sub-sampling, the Section IV-D mode). */
    bool downscaleGpu = true;
    /** Override the division/downscale factor (Section IV-E sweeps). */
    std::optional<uint32_t> forcedK;

    /** Heatmap profiling source (functional vs noisy HW timers). */
    heatmap::ProfilerParams profiler;
    /** K-Means palette size for heatmap quantization. */
    uint32_t quantizeColors = 8;
    /** Seed for all randomized stages. */
    uint64_t seed = 0x2A7E1;
    /** Workers of the pool predict() owns, which runs the render's row
     *  bands and the K group simulations; 0 = hardware concurrency. */
    uint32_t numThreads = 0;

    // ---- Resilience (docs/ROBUSTNESS.md) ----
    /** Times a failed group simulation is re-attempted (with
     *  deterministic backoff) before it is recorded as failed. */
    uint32_t groupRetries = 1;
    /**
     * Minimum fraction of groups that must survive for a degraded
     * prediction to be assembled from the survivors (the paper's
     * sampling-error analysis licenses subset extrapolation); below
     * it assemble() throws GroupFailureError.
     */
    double minGroupsFraction = 0.5;
    /** Treat any group failure as fatal (no degraded mode). */
    bool failFast = false;
};

/** Per-group outcome. */
struct GroupResult
{
    uint32_t groupIndex = 0;
    uint64_t pixels = 0;
    uint64_t selectedPixels = 0;
    double fractionTraced = 0.0;
    /** Raw simulator counters for this group's instance. */
    gpusim::GpuStats stats;
    /** Extrapolated Table I metric values, allMetrics() order. */
    std::vector<double> extrapolated;
    /** Wall-clock seconds this instance took. */
    double wallSeconds = 0.0;
    /** CPU seconds of the thread that built this instance's workload
     *  and ran it: its cost on a core of its own. */
    double cpuSeconds = 0.0;

    // ---- Resilience (docs/ROBUSTNESS.md) ----
    /** True when every attempt at this group's simulation failed; the
     *  stats/extrapolated fields are then meaningless. */
    bool failed = false;
    /** Human-readable reason for the last failed attempt. */
    std::string error;
    /** Simulation attempts consumed (1 = first try succeeded). */
    uint32_t attempts = 1;
};

/** Final prediction. */
struct ZatelResult
{
    /** Predicted Table I metrics, keyed by Metric. */
    std::map<gpusim::Metric, double> predicted;
    std::vector<GroupResult> groups;
    uint32_t k = 1;
    /** Overall fraction of image pixels traced. */
    double fractionTraced = 0.0;
    /** Wall-clock seconds of the (concurrent) simulation phase. */
    double simWallSeconds = 0.0;
    /**
     * Wall-clock seconds of the slowest single instance. On a machine
     * with >= K cores this equals simWallSeconds; on fewer cores it
     * models the paper's deployment of one CPU core per group
     * (Section III-A step 6).
     */
    double maxGroupWallSeconds = 0.0;
    /**
     * CPU seconds of the costliest single instance (GroupResult::
     * cpuSeconds): the paper's one core per group, whatever else ran on
     * the host. Speedups over the oracle divide OracleResult::cpuSeconds
     * by it.
     */
    double maxGroupCpuSeconds = 0.0;
    /** Wall-clock seconds of preprocessing (heatmap + quantization). */
    double preprocessWallSeconds = 0.0;

    // ---- Resilience (docs/ROBUSTNESS.md) ----
    /**
     * True when one or more groups failed every attempt but enough
     * survived (params.minGroupsFraction) to assemble a prediction
     * from the surviving subset. Degraded predictions carry the wider
     * sampling error of a smaller representative set — consumers
     * should treat them like a lower-fraction Zatel run.
     */
    bool degraded = false;
    /** Indices of the groups excluded from the combine step. */
    std::vector<uint32_t> failedGroups;
    /**
     * Pixel-weighted re-weighting factor applied to Sum-rule metrics:
     * total image pixels / surviving groups' pixels (1.0 when nothing
     * failed). Average-rule metrics average over survivors only.
     */
    double survivorExtrapolation = 1.0;

    double metric(gpusim::Metric m) const { return predicted.at(m); }
};

/**
 * Steps (1) + (2): render the frame, profile it into an execution-time
 * heatmap and quantize the heatmap's colors. ZatelPredictor::prepare()
 * and the campaign service's cached heatmap artifact both build through
 * this one function, so cached and uncached predictions cannot drift.
 *
 * @param pool Runs the render's row bands; null renders on the calling
 *        thread. The result does not depend on it.
 * @param rays Optional out: the frame ray record of the same render.
 */
heatmap::QuantizedHeatmap
buildQuantizedHeatmap(const rt::Scene &scene, const rt::Bvh &bvh,
                      const ZatelParams &params, ThreadPool *pool = nullptr,
                      rt::FrameRayRecord *rays = nullptr);

/**
 * Step (3)'s division/downscale factor for @p params on @p target: the
 * forced K (at least 1), else gcd(#SMs, #partitions) when the GPU is
 * downscaled, else 1. The predictor and the campaign service's recipe
 * check (service::checkRecipe) both use this one rule.
 */
uint32_t effectiveK(const ZatelParams &params,
                    const gpusim::GpuConfig &target);

/** Oracle (full-resolution, full-GPU) reference run. */
struct OracleResult
{
    gpusim::GpuStats stats;
    double wallSeconds = 0.0;
    /** CPU seconds of the thread that built the workload and ran it. */
    double cpuSeconds = 0.0;

    std::map<gpusim::Metric, double> metrics() const;
};

/** The Zatel pipeline bound to one scene + target GPU. */
class ZatelPredictor
{
  public:
    /**
     * @param scene Scene to evaluate (kept by reference).
     * @param bvh Built BVH over the scene's triangles.
     * @param target_config The full-size GPU being evaluated.
     */
    ZatelPredictor(const rt::Scene &scene, const rt::Bvh &bvh,
                   const gpusim::GpuConfig &target_config,
                   const ZatelParams &params);

    /** Run the full pipeline. */
    ZatelResult predict();

    /** Effective division/downscale factor this pipeline will use. */
    uint32_t effectiveK() const;

    /** The quantized heatmap (valid after prepare() / predict()). */
    const heatmap::QuantizedHeatmap &quantizedHeatmap() const
    {
        return quantized_;
    }

    /**
     * Full simulation of the target GPU for error evaluation. Its
     * workload slices the frame ray record when this predictor holds
     * one (after predict(), or an injected record); otherwise it traces
     * the whole frame on the calling thread.
     */
    OracleResult runOracle() const;

    const ZatelParams &params() const { return params_; }

    // ---- Injection points (campaign service, src/service/) ----

    /**
     * Inject a pre-built quantized heatmap (e.g. from the artifact
     * cache), skipping the render, profile and quantize stages. Must
     * match the configured image size and must equal what
     * buildQuantizedHeatmap() produces for these params if
     * byte-identical results with and without the cache are required.
     *
     * @param rays The frame ray record of the render that built
     *        @p quantized, from this scene, BVH and spp; the group and
     *        oracle workloads then slice it. Null (a heatmap loaded
     *        from disk) makes them trace their pixels themselves; the
     *        workloads are the same either way.
     */
    void setPrebuiltHeatmap(heatmap::QuantizedHeatmap quantized,
                            std::shared_ptr<const rt::FrameRayRecord> rays =
                                nullptr);

    /**
     * Cooperative cancellation: @p cancelled is polled between pipeline
     * stages and before each group simulation; returning true makes the
     * pipeline throw PredictionCancelled.
     */
    void setCancelCheck(std::function<bool()> cancelled)
    {
        cancelCheck_ = std::move(cancelled);
    }

    /**
     * Mid-run progress probe for hang watchdogs (docs/ROBUSTNESS.md):
     * every @p interval_cycles simulated cycles of a group (or oracle)
     * run, @p heartbeat(group_index, cycle) is invoked, then the cancel
     * check and @p stopped(group_index) are polled — either one firing
     * aborts that simulation mid-run with PredictionCancelled instead
     * of waiting for the stage boundary. The oracle run reports
     * group_index SIZE_MAX. Interval 0 (the default) disables the
     * probe; the activity-driven cycle loop's probe alignment keeps
     * simulated stats byte-identical either way (docs/SIMULATOR.md).
     */
    void
    setSimulationProbe(uint64_t interval_cycles,
                       std::function<void(size_t, uint64_t)> heartbeat,
                       std::function<bool(size_t)> stopped)
    {
        simProbeInterval_ = interval_cycles;
        simHeartbeat_ = std::move(heartbeat);
        simStopped_ = std::move(stopped);
    }

    // ---- Stage-level API ----
    // predict() is composed of these; the campaign scheduler calls them
    // directly so it can feed every job's group simulations into one
    // shared pool with per-job priority (src/service/scheduler.cc).

    /**
     * Steps (1)-(5): heatmap (unless injected), downscale factor,
     * image-plane division and representative-pixel selection.
     * Idempotent; cheap when a pre-built heatmap was injected.
     * @param pool Runs the render's row bands; null renders serially.
     */
    void prepare(ThreadPool *pool = nullptr);

    bool prepared() const { return prepared_; }

    /** Number of group-simulation tasks (valid after prepare()). */
    size_t groupCount() const;

    /** One unit of step (6): a group's simulation(s). */
    struct GroupTask
    {
        GroupResult primary;
        /** One run per regression fraction (regression mode only). */
        std::vector<GroupResult> regressionRuns;
    };

    /**
     * Run group @p group_index's simulation(s). Thread-safe after
     * prepare(): may be called concurrently for distinct groups, and is
     * deterministic regardless of execution order.
     */
    GroupTask runGroupTask(size_t group_index) const;

    /**
     * Resilient wrapper around runGroupTask (docs/ROBUSTNESS.md): a
     * throwing group simulation is re-attempted up to
     * params.groupRetries times with deterministic backoff; when every
     * attempt fails the task is returned with primary.failed set (and
     * the reason in primary.error) instead of throwing, so one broken
     * group cannot poison the whole prediction. PredictionCancelled is
     * never swallowed — cancellation is not a fault.
     */
    GroupTask runGroupTaskResilient(size_t group_index) const;

    /**
     * A placeholder task for group @p group_index recording a failure
     * that happened outside runGroupTask (e.g. the campaign
     * scheduler's watchdog giving up on a stalled unit). Pixel counts
     * are filled in so assemble() can re-weight survivors.
     */
    GroupTask failedGroupTask(size_t group_index,
                              const std::string &reason) const;

    /**
     * Step (7): extrapolate and combine @p tasks (one entry per group,
     * in group order) into the final prediction. Tasks whose
     * primary.failed flag is set are excluded from the combine step:
     * if enough groups survive (params.minGroupsFraction) the result
     * is assembled from the survivors with `degraded` set and Sum-rule
     * metrics re-weighted by `survivorExtrapolation`; otherwise (or
     * with params.failFast) GroupFailureError is thrown. With no
     * failed task the result is bit-identical to the pre-resilience
     * assemble.
     * @param sim_wall_seconds Wall-clock of the whole simulation phase.
     */
    ZatelResult assemble(std::vector<GroupTask> tasks,
                         double sim_wall_seconds) const;

  private:
    /** Throw PredictionCancelled when the cancellation hook fires. */
    void throwIfCancelled() const;
    /** True when the cancel check or @p group_index's stop query
     *  fires (the simulation probe's mid-run poll). */
    bool simulationMustStop(size_t group_index) const;
    /** Wire the watchdog heartbeat + mid-run stop poll (and the
     *  group.sim.stall fault site) into @p gpu's progress callback. */
    void installWatchdogProbe(gpusim::Gpu &gpu, size_t group_index) const;
    /** Simulate one group at one selection; returns raw stats + time. */
    GroupResult simulateGroup(uint32_t group_index, const PixelGroup &group,
                              const Selection &selection,
                              const gpusim::GpuConfig &config) const;

    const rt::Scene &scene_;
    const rt::Bvh &bvh_;
    gpusim::GpuConfig targetConfig_;
    ZatelParams params_;
    rt::Tracer tracer_;
    heatmap::QuantizedHeatmap quantized_;

    // Injection state.
    std::function<bool()> cancelCheck_;
    bool hasPrebuiltHeatmap_ = false;
    uint64_t simProbeInterval_ = 0;
    std::function<void(size_t, uint64_t)> simHeartbeat_;
    std::function<bool(size_t)> simStopped_;

    // Prepared-pipeline state (steps 1-5), immutable once prepared_.
    bool prepared_ = false;
    uint32_t k_ = 1;
    gpusim::GpuConfig groupConfig_;
    std::vector<PixelGroup> groups_;
    std::vector<Selection> selections_;
    /** Every pixel's rays, recorded by prepare()'s render or injected
     *  with the heatmap; null before prepare() renders and when an
     *  injected heatmap came without one. Read-only, and shared with
     *  every job that got the same cached heatmap. */
    std::shared_ptr<const rt::FrameRayRecord> frameRays_;
    std::vector<double> fractionsToRun_;
    double preprocessSeconds_ = 0.0;
};

} // namespace zatel::core

#endif // ZATEL_ZATEL_PREDICTOR_HH
