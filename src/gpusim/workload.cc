#include "gpusim/workload.hh"

#include "util/logging.hh"

namespace zatel::gpusim
{

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

    // Selected pixels, in launch order, for the packetized recorder.
    std::vector<uint32_t> xs;
    std::vector<uint32_t> ys;
    std::vector<uint32_t> thread_of;
    xs.reserve(pixels.size());
    ys.reserve(pixels.size());
    thread_of.reserve(pixels.size());

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
            // The render already traced this pixel: copy its slice.
            const size_t begin = frame->offsets[thread.pixelLinear];
            thread.rayCount = static_cast<uint32_t>(
                frame->offsets[thread.pixelLinear + 1] - begin);
            thread.rays = workload.rayArena.copySpan(
                frame->rays.data() + begin, thread.rayCount);
        } else {
            xs.push_back(pixel.x);
            ys.push_back(pixel.y);
            thread_of.push_back(static_cast<uint32_t>(i));
        }
    }

    // Record rays in RayPacket batches; every completed pixel's tasks
    // are flattened into the workload's arena so the timed hot path
    // walks one contiguous RayTask stream per thread.
    rt::recordPixelRaysBatch(
        tracer, xs.data(), ys.data(), static_cast<uint32_t>(xs.size()),
        width, height,
        [&workload, &thread_of](uint32_t index,
                                const rt::PixelRayRecord &record) {
            ThreadWork &thread = workload.threads[thread_of[index]];
            thread.rayCount = static_cast<uint32_t>(record.rays.size());
            thread.rays = workload.rayArena.copySpan(record.rays.data(),
                                                     record.rays.size());
        });
    return workload;
}

SimWorkload
SimWorkload::buildFullFrame(const rt::Tracer &tracer, uint32_t width,
                            uint32_t height)
{
    std::vector<PixelCoord> pixels;
    pixels.reserve(static_cast<size_t>(width) * height);
    for (uint32_t y = 0; y < height; ++y)
        for (uint32_t x = 0; x < width; ++x)
            pixels.push_back({x, y});
    return build(tracer, width, height, pixels);
}

} // namespace zatel::gpusim
