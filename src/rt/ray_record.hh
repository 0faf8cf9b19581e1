/**
 * @file
 * Per-pixel ray recording for the timed simulator.
 *
 * The cycle-level GPU simulator replays the exact rays the functional
 * tracer casts for each pixel, and their exact BVH traversals:
 * Tracer::shade(), given a ray sink, emits one RayTask per cast ray
 * while it shades, and the traversal that answered the ray records its
 * visit stream (one bounds-hit bit per visited node, traversal.hh) into
 * the sink's bit buffer. The timed RT unit replays that stream with a
 * VisitCursor instead of traversing again, so it fetches the nodes the
 * tracer visited, in the same order, without repeating a box or
 * triangle test.
 *
 * Memory: a ray's bits start on a fresh 64-bit word, so a ray costs
 * VisitStream::wordCount() words besides its 52-byte RayTask (12 bytes
 * of which are the VisitStream). PARK at 160x160, 1 spp: 54,878 rays,
 * 2.82 M visits, 0.57 MB of bit words; at 512x512, 2 spp: 11.6 MB.
 */

#ifndef ZATEL_RT_RAY_RECORD_HH
#define ZATEL_RT_RAY_RECORD_HH

#include <cstdint>
#include <vector>

#include "rt/ray.hh"
#include "rt/tracer.hh"
#include "rt/traversal.hh"

namespace zatel::rt
{

/** One ray the pixel's shader casts, plus what follows it. */
struct RayTask
{
    Ray ray;
    TraversalMode mode = TraversalMode::ClosestHit;
    /** Functional result: did this ray hit (closest) / find occlusion. */
    bool hit = false;
    /** Material of the closest hit (valid when mode==ClosestHit && hit). */
    uint16_t materialId = 0;
    /** Recursion depth (0 = primary / first shadow, 1 = first bounce...). */
    uint8_t bounce = 0;
    /** The ray's recorded traversal; firstWord indexes the visit bits of
     *  whatever holds this task (a record or a workload thread). */
    VisitStream visits;
};

/** All rays a pixel casts, in program order, over all its samples. */
struct PixelRayRecord
{
    std::vector<RayTask> rays;
    /** Bounds-hit bits of every ray, ray after ray. */
    std::vector<uint64_t> visitBits;

    /** Number of closest-hit rays that hit (== shade invocations). */
    uint32_t
    shadeCount() const
    {
        uint32_t count = 0;
        for (const RayTask &task : rays) {
            if (task.mode == TraversalMode::ClosestHit && task.hit)
                ++count;
        }
        return count;
    }
};

/**
 * Every pixel's recorded rays for one frame, in one flat row-major
 * buffer. Tracer::render() fills it in the same pass that shades the
 * frame, so a consumer that needs a pixel's rays (SimWorkload::build)
 * points into its slice instead of tracing the pixel a second time.
 * Per pixel the slice equals recordPixelRays(), except that each
 * firstWord is offset by where the pixel's words start in visitBits.
 */
struct FrameRayRecord
{
    uint32_t width = 0;
    uint32_t height = 0;
    /** All rays, pixel after pixel in row-major order. */
    std::vector<RayTask> rays;
    /** Bounds-hit bits of every ray, in the same order; a pixel's rays
     *  own one contiguous run of words. */
    std::vector<uint64_t> visitBits;
    /** width * height + 1 entries: pixel p's rays are
     *  rays[offsets[p], offsets[p + 1]), p = y * width + x. */
    std::vector<size_t> offsets;

    bool empty() const { return offsets.empty(); }
};

/**
 * Record the rays pixel (x, y) casts under @p tracer's configuration:
 * Tracer::tracePixel() with a ray sink, the image and profile dropped.
 */
PixelRayRecord recordPixelRays(const Tracer &tracer, uint32_t x, uint32_t y,
                               uint32_t width, uint32_t height);

} // namespace zatel::rt

#endif // ZATEL_RT_RAY_RECORD_HH
