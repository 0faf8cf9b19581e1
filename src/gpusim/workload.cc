#include "gpusim/workload.hh"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics_registry.hh"
#include "util/logging.hh"

namespace zatel::gpusim
{

namespace
{

/** zatel_workload_pixels_total{source}: selected pixels whose rays a
 *  workload build sliced from a frame ray record, or traced itself. A
 *  no-op while the global MetricsRegistry is disabled. */
obs::Counter *
workloadPixelsCounter(bool from_record)
{
    const auto series = [](const char *source) {
        return obs::MetricsRegistry::global().counter(
            "zatel_workload_pixels_total",
            "Selected pixels of simulator workloads, by where their rays "
            "came from",
            {{"source", source}});
    };
    static obs::Counter *const traced = series("traced");
    static obs::Counter *const record = series("record");
    return from_record ? record : traced;
}

} // namespace

uint64_t
SimWorkload::totalRays() const
{
    uint64_t total = 0;
    for (const ThreadWork &thread : threads)
        total += thread.rayCount;
    return total;
}

SimWorkload
SimWorkload::build(const rt::Tracer &tracer, uint32_t width, uint32_t height,
                   const std::vector<PixelCoord> &pixels,
                   const std::vector<bool> *selected,
                   std::shared_ptr<const rt::FrameRayRecord> frame)
{
    ZATEL_ASSERT(!selected || selected->size() == pixels.size(),
                 "selection mask must align with the pixel list");
    ZATEL_ASSERT(!frame || (frame->width == width && frame->height == height),
                 "frame ray record is for another image plane");

    SimWorkload workload;
    workload.width = width;
    workload.height = height;
    workload.bvh = &tracer.bvh();
    workload.threads.resize(pixels.size());

    // Without a frame record each selected pixel is traced here, into
    // the workload's own record. Each shade() level casts at most a
    // closest-hit and a shadow ray, so this reserve bounds the rays and
    // the record never regrows; capacity never written is never touched.
    rt::PixelRayRecord &traced = workload.traced;
    if (!frame) {
        const size_t pixel_count =
            selected ? static_cast<size_t>(std::count(selected->begin(),
                                                      selected->end(), true))
                     : pixels.size();
        const size_t levels =
            static_cast<size_t>(std::max(0, tracer.scene().maxBounces())) + 1;
        traced.rays.reserve(pixel_count * tracer.params().samplesPerPixel *
                            2 * levels);
    }
    for (size_t i = 0; i < pixels.size(); ++i) {
        const PixelCoord &pixel = pixels[i];
        ZATEL_ASSERT(pixel.x < width && pixel.y < height,
                     "workload pixel out of bounds");
        ThreadWork &thread = workload.threads[i];
        thread.pixelLinear = pixel.y * width + pixel.x;
        thread.selected = !selected || (*selected)[i];
        if (!thread.selected)
            continue;
        ++workload.selectedCount;
        if (frame) {
            // The render already traced this pixel: point at its slice.
            // Its rays' firstWords already index the record's bits.
            const size_t begin = frame->offsets[thread.pixelLinear];
            thread.rays = frame->rays.data() + begin;
            thread.rayCount = static_cast<uint32_t>(
                frame->offsets[thread.pixelLinear + 1] - begin);
            continue;
        }
        const size_t begin = traced.rays.size();
        rt::PixelProfile profile;
        tracer.tracePixel(pixel.x, pixel.y, width, height, profile, &traced);
        thread.rayCount = static_cast<uint32_t>(traced.rays.size() - begin);
    }
    workloadPixelsCounter(frame != nullptr)->inc(workload.selectedCount);
    if (frame) {
        workload.visitBits = frame->visitBits.data();
        workload.frame = std::move(frame);
        return workload;
    }
    // Each traced ray's firstWord indexes the whole record, as a
    // render's do; past 2^32 words they would have wrapped.
    if (traced.visitBits.size() > UINT32_MAX)
        throw std::length_error("workload visit bits exceed 2^32 words");
    // The record no longer grows: each selected thread's rays follow the
    // previous selected thread's.
    const rt::RayTask *next = traced.rays.data();
    for (ThreadWork &thread : workload.threads) {
        if (!thread.selected)
            continue;
        thread.rays = next;
        next += thread.rayCount;
    }
    workload.visitBits = traced.visitBits.data();
    return workload;
}

SimWorkload
SimWorkload::buildFullFrame(const rt::Tracer &tracer, uint32_t width,
                            uint32_t height,
                            std::shared_ptr<const rt::FrameRayRecord> frame)
{
    std::vector<PixelCoord> pixels;
    pixels.reserve(static_cast<size_t>(width) * height);
    for (uint32_t y = 0; y < height; ++y)
        for (uint32_t x = 0; x < width; ++x)
            pixels.push_back({x, y});
    return build(tracer, width, height, pixels, nullptr, std::move(frame));
}

} // namespace zatel::gpusim
