/**
 * @file
 * Ray-tracing workload fed to the timed simulator.
 *
 * A workload is an ordered list of pixel threads. Zatel's pixel filter is
 * represented exactly like the paper's injected PTX filter_shader: every
 * pixel of the group still launches a thread, but unselected threads
 * execute a few filter-check instructions and exit (Section III-F).
 */

#ifndef ZATEL_GPUSIM_WORKLOAD_HH
#define ZATEL_GPUSIM_WORKLOAD_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "rt/bvh.hh"
#include "rt/ray_record.hh"
#include "rt/tracer.hh"

namespace zatel::gpusim
{

/** Image-plane pixel coordinate. */
struct PixelCoord
{
    uint32_t x = 0;
    uint32_t y = 0;

    bool operator==(const PixelCoord &o) const { return x == o.x && y == o.y; }
};

/** One pixel thread: its identity, filter decision, and recorded rays. */
struct ThreadWork
{
    /** Linear pixel index (y * width + x) in the full image plane. */
    uint32_t pixelLinear = 0;
    /** False when the Zatel filter skips this pixel. */
    bool selected = true;
    /**
     * Rays this pixel casts in program order, or null when !selected:
     * the pixel's slice of the owning SimWorkload's ray store (its frame
     * ray record, or the record it traced itself), so the timed hot
     * path walks contiguous RayTask storage instead of a per-thread
     * vector (docs/SIMULATOR.md, "Data layout of the hot path").
     */
    const rt::RayTask *rays = nullptr;
    uint32_t rayCount = 0;
};

/** A complete launch for one simulator instance. Move-only: the ray
 *  store backing every ThreadWork span moves with it, and a copy would
 *  point into the original's. */
struct SimWorkload
{
    SimWorkload() = default;
    SimWorkload(SimWorkload &&) = default;
    SimWorkload &operator=(SimWorkload &&) = default;
    SimWorkload(const SimWorkload &) = delete;
    SimWorkload &operator=(const SimWorkload &) = delete;

    uint32_t width = 0;
    uint32_t height = 0;
    /** Acceleration structure the RT units traverse. */
    const rt::Bvh *bvh = nullptr;
    /** Threads in launch order; warps are consecutive runs of warpSize. */
    std::vector<ThreadWork> threads;
    uint64_t selectedCount = 0;
    /** The ray store, one of two: the frame ray record the threads'
     *  spans slice, when built from one (held so that it outlives the
     *  workload), or else the record the build traced every selected
     *  pixel into, pixel after pixel in launch order. */
    std::shared_ptr<const rt::FrameRayRecord> frame;
    rt::PixelRayRecord traced;
    /** The store's bounds-hit bits, which every ray's visits.firstWord
     *  indexes. */
    const uint64_t *visitBits = nullptr;

    /** Total recorded rays over all selected threads. */
    uint64_t totalRays() const;

    /**
     * Build a workload over @p pixels in the given launch order.
     *
     * @param tracer Functional tracer (provides scene, BVH and spp).
     * @param pixels Pixels in launch order (a Zatel group or a full frame).
     * @param selected Optional mask aligned with @p pixels; null = all.
     * @param frame Optional frame ray record of this image plane, made
     *        by @p tracer's render(). When given, each selected pixel's
     *        rays point into its slice instead of being traced again, and
     *        the workload holds the record; otherwise each selected pixel
     *        is traced into @c traced. It simulates the same either way.
     */
    static SimWorkload
    build(const rt::Tracer &tracer, uint32_t width, uint32_t height,
          const std::vector<PixelCoord> &pixels,
          const std::vector<bool> *selected = nullptr,
          std::shared_ptr<const rt::FrameRayRecord> frame = nullptr);

    /** Convenience: full-frame workload in row-major order, sliced
     *  from @p frame when given (see build()). */
    static SimWorkload
    buildFullFrame(const rt::Tracer &tracer, uint32_t width, uint32_t height,
                   std::shared_ptr<const rt::FrameRayRecord> frame = nullptr);
};

} // namespace zatel::gpusim

#endif // ZATEL_GPUSIM_WORKLOAD_HH
