#include "gpusim/workload.hh"

#include "obs/metrics_registry.hh"
#include "util/logging.hh"

namespace zatel::gpusim
{

namespace
{

/** zatel_workload_pixels_total{source}: selected pixels whose rays a
 *  workload build copied from a frame ray record, or traced itself. A
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
    // one record that keeps its capacity from pixel to pixel.
    rt::PixelRayRecord traced;
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
            thread.visitBits = frame->visitBits.data();
            continue;
        }
        traced.rays.clear();
        traced.visitBits.clear();
        rt::PixelProfile profile;
        tracer.tracePixel(pixel.x, pixel.y, width, height, profile, &traced);
        // Flattened into the workload's arena, so the timed hot path
        // walks one contiguous RayTask stream per thread. The traced
        // pixel's rays own all of its words, from word 0.
        thread.rayCount = static_cast<uint32_t>(traced.rays.size());
        thread.rays =
            workload.rayArena.copySpan(traced.rays.data(), traced.rays.size());
        thread.visitBits = workload.rayArena.copySpan(
            traced.visitBits.data(), traced.visitBits.size());
    }
    workloadPixelsCounter(frame != nullptr)->inc(workload.selectedCount);
    workload.frame = std::move(frame);
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
