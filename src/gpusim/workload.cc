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
                   const rt::FrameRayRecord *frame)
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
        const rt::RayTask *rays = nullptr;
        size_t count = 0;
        const std::vector<uint64_t> *bits = &traced.visitBits;
        if (frame) {
            // The render already traced this pixel: copy its slice.
            const size_t begin = frame->offsets[thread.pixelLinear];
            rays = frame->rays.data() + begin;
            count = frame->offsets[thread.pixelLinear + 1] - begin;
            bits = &frame->visitBits;
        } else {
            traced.rays.clear();
            traced.visitBits.clear();
            rt::PixelProfile profile;
            tracer.tracePixel(pixel.x, pixel.y, width, height, profile,
                              &traced);
            rays = traced.rays.data();
            count = traced.rays.size();
        }
        // Flattened into the workload's arena, so the timed hot path
        // walks one contiguous RayTask stream per thread. A pixel's rays
        // own one run of words; rebased, their firstWords index the
        // thread's copy of it.
        rt::RayTask *copy = workload.rayArena.copySpan(rays, count);
        size_t first_word = 0;
        size_t end_word = 0;
        if (count > 0) {
            const rt::VisitStream &last = rays[count - 1].visits;
            first_word = rays[0].visits.firstWord;
            end_word = last.firstWord + last.wordCount();
        }
        for (size_t r = 0; r < count; ++r)
            copy[r].visits.firstWord -= static_cast<uint32_t>(first_word);
        thread.rayCount = static_cast<uint32_t>(count);
        thread.rays = copy;
        thread.visitBits = workload.rayArena.copySpan(
            bits->data() + first_word, end_word - first_word);
    }
    workloadPixelsCounter(frame != nullptr)->inc(workload.selectedCount);
    return workload;
}

SimWorkload
SimWorkload::buildFullFrame(const rt::Tracer &tracer, uint32_t width,
                            uint32_t height, const rt::FrameRayRecord *frame)
{
    std::vector<PixelCoord> pixels;
    pixels.reserve(static_cast<size_t>(width) * height);
    for (uint32_t y = 0; y < height; ++y)
        for (uint32_t x = 0; x < width; ++x)
            pixels.push_back({x, y});
    return build(tracer, width, height, pixels, nullptr, frame);
}

} // namespace zatel::gpusim
