/**
 * @file
 * Functional (untimed) path tracer.
 *
 * This is the analogue of Vulkan-Sim's functional mode: it renders the
 * image and records per-pixel traversal work, which Zatel's preprocessing
 * step turns into the execution-time heatmap (paper Section III-B).
 */

#ifndef ZATEL_RT_TRACER_HH
#define ZATEL_RT_TRACER_HH

#include <cstdint>
#include <vector>

#include "rt/bvh.hh"
#include "rt/framebuffer.hh"
#include "rt/scene.hh"
#include "rt/traversal.hh"

namespace zatel
{
class ThreadPool;
}

namespace zatel::rt
{

struct FrameRayRecord;
struct PixelRayRecord;

/** Per-pixel work record produced by the functional tracer. */
struct PixelProfile
{
    /** BVH nodes fetched across all rays of this pixel. */
    uint32_t nodesVisited = 0;
    /** Ray-triangle tests across all rays. */
    uint32_t triangleTests = 0;
    /** Rays cast (primary + shadow + reflection, all samples). */
    uint32_t raysCast = 0;
    /** True when any primary sample hit geometry. */
    bool primaryHit = false;

    /**
     * Scalar execution-time proxy used to build the heatmap. Node fetches
     * dominate RT-unit time; triangle tests add a fractional share.
     */
    double
    cost() const
    {
        return nodesVisited + 0.5 * triangleTests;
    }
};

/** Whole-frame result of a functional render. */
struct RenderResult
{
    FrameBuffer image;
    /** Row-major per-pixel profiles (width x height). */
    std::vector<PixelProfile> profiles;
    uint32_t width = 0;
    uint32_t height = 0;

    const PixelProfile &
    profileAt(uint32_t x, uint32_t y) const
    {
        return profiles[static_cast<size_t>(y) * width + x];
    }
};

/** Functional-renderer tuning knobs. */
struct TracerParams
{
    /** Samples per pixel (paper uses 2 at 512x512). */
    uint32_t samplesPerPixel = 1;
};

/**
 * Functional renderer. Stateless apart from configuration; safe to share
 * across threads when each thread renders distinct pixels.
 */
class Tracer
{
  public:
    using Params = TracerParams;

    Tracer(const Scene &scene, const Bvh &bvh,
           const Params &params = TracerParams());

    /**
     * Render the full image plane.
     *
     * @param pool When non-null, the frame is split into row bands that
     *        run concurrently on @p pool, each band tracing its pixels
     *        one after another. Pixels are independent, so the image and
     *        the profiles are bit-identical to a serial render.
     * @param rays When non-null, the same pass also records every
     *        pixel's rays and their visit streams into this frame
     *        record. Each band fills its own buffer, then copies it
     *        into its slice of the record, on @p pool; one band's
     *        buffer becomes the record.
     */
    RenderResult render(uint32_t width, uint32_t height,
                        ThreadPool *pool = nullptr,
                        FrameRayRecord *rays = nullptr) const;

    /**
     * Trace one pixel (all its samples).
     * @param profile Out: accumulated work for this pixel.
     * @param rays When non-null, every ray the pixel casts is appended
     *        to it in program order, with its visit stream: the record
     *        the timed simulator replays (rt/ray_record.hh).
     * @return average sample radiance.
     */
    Vec3 tracePixel(uint32_t x, uint32_t y, uint32_t width, uint32_t height,
                    PixelProfile &profile,
                    PixelRayRecord *rays = nullptr) const;

    const Scene &scene() const { return scene_; }
    const Bvh &bvh() const { return bvh_; }
    const Params &params() const { return params_; }

  private:
    /**
     * Recursive radiance estimate for @p ray at depth @p bounce. This is
     * the only place the shading control flow is written: one shadow ray
     * per lit hit, one reflection ray per mirror hit. It adds the work
     * of every ray it casts to @p profile and, when @p rays is non-null,
     * appends those rays and their visit streams to it in program order.
     */
    Vec3 shade(const Ray &ray, int bounce, PixelProfile &profile,
               PixelRayRecord *rays) const;

    const Scene &scene_;
    const Bvh &bvh_;
    Params params_;
};

} // namespace zatel::rt

#endif // ZATEL_RT_TRACER_HH
