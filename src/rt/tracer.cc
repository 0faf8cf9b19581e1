#include "rt/tracer.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "rt/ray_record.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace zatel::rt
{

namespace
{

/** Deterministic per-sample jitter from a pixel/sample hash. */
float
hashJitter(uint32_t x, uint32_t y, uint32_t sample, uint32_t salt)
{
    uint32_t h = x * 0x9E3779B1u ^ y * 0x85EBCA77u ^ sample * 0xC2B2AE3Du ^
                 salt * 0x27D4EB2Fu;
    h ^= h >> 15;
    h *= 0x2C1B3C6Du;
    h ^= h >> 12;
    h *= 0x297A2D39u;
    h ^= h >> 15;
    return (h & 0xFFFFFFu) / static_cast<float>(0x1000000u);
}

/**
 * Join the band buffers of a render into @p frame, in band order. Each
 * band copies its rays and bit words into its own slice of the frame's
 * buffers, on @p pool when there is one; a band's firstWords index its
 * own bit buffer, so they shift by where that buffer lands.
 */
void
joinBands(std::vector<PixelRayRecord> &bands, ThreadPool *pool,
          FrameRayRecord &frame)
{
    if (bands.size() == 1) {
        // One band's buffers are the frame's, its firstWords included.
        frame.rays = std::move(bands[0].rays);
        frame.visitBits = std::move(bands[0].visitBits);
        return;
    }
    std::vector<size_t> first_ray(bands.size() + 1, 0);
    std::vector<size_t> first_word(bands.size() + 1, 0);
    for (size_t b = 0; b < bands.size(); ++b) {
        first_ray[b + 1] = first_ray[b] + bands[b].rays.size();
        first_word[b + 1] = first_word[b] + bands[b].visitBits.size();
    }
    if (first_word.back() > UINT32_MAX)
        throw std::length_error("frame visit bits exceed 2^32 words");
    frame.rays.assign(first_ray.back(), RayTask{});
    frame.visitBits.assign(first_word.back(), 0);

    const auto join_band = [&](size_t b) {
        const auto base = static_cast<uint32_t>(first_word[b]);
        RayTask *out = frame.rays.data() + first_ray[b];
        for (RayTask task : bands[b].rays) {
            task.visits.firstWord += base;
            *out++ = task;
        }
        std::copy(bands[b].visitBits.begin(), bands[b].visitBits.end(),
                  frame.visitBits.begin() +
                      static_cast<std::ptrdiff_t>(first_word[b]));
    };
    if (pool != nullptr) {
        pool->parallelForChunked(bands.size(), 1, join_band);
    } else {
        for (size_t b = 0; b < bands.size(); ++b)
            join_band(b);
    }
}

} // namespace

Tracer::Tracer(const Scene &scene, const Bvh &bvh, const Params &params)
    : scene_(scene), bvh_(bvh), params_(params)
{
    ZATEL_ASSERT(params_.samplesPerPixel >= 1, "need at least 1 sample");
}

RenderResult
Tracer::render(uint32_t width, uint32_t height, ThreadPool *pool,
               FrameRayRecord *rays) const
{
    RenderResult result;
    result.width = width;
    result.height = height;
    result.image = FrameBuffer(width, height);
    result.profiles.resize(static_cast<size_t>(width) * height);

    // About four bands per worker balance rows of uneven cost; a serial
    // render is one band.
    constexpr uint32_t kBandsPerWorker = 4;
    const uint32_t target_bands =
        pool == nullptr
            ? 1
            : kBandsPerWorker * static_cast<uint32_t>(pool->workerCount());
    const uint32_t band_rows =
        std::max(1u, (height + target_bands - 1) / target_bands);
    const uint32_t bands = (height + band_rows - 1) / band_rows;

    // Each band records its pixels' rays into its own buffer and each
    // pixel's ray count into offsets[p + 1]; the prefix sum below turns
    // the counts into offsets.
    std::vector<PixelRayRecord> band_rays(rays != nullptr ? bands : 0);
    if (rays != nullptr)
        rays->offsets.assign(static_cast<size_t>(width) * height + 1, 0);

    const auto render_band = [&](size_t b) {
        const uint32_t y0 = static_cast<uint32_t>(b) * band_rows;
        const uint32_t y1 = std::min(height, y0 + band_rows);
        PixelRayRecord *out = rays != nullptr ? &band_rays[b] : nullptr;
        for (uint32_t y = y0; y < y1; ++y) {
            for (uint32_t x = 0; x < width; ++x) {
                const size_t p = static_cast<size_t>(y) * width + x;
                const size_t before = out != nullptr ? out->rays.size() : 0;
                result.image.set(x, y,
                                 tracePixel(x, y, width, height,
                                            result.profiles[p], out));
                if (out != nullptr)
                    rays->offsets[p + 1] = out->rays.size() - before;
            }
        }
    };
    if (pool != nullptr) {
        pool->parallelForChunked(bands, 1, render_band);
    } else {
        for (uint32_t b = 0; b < bands; ++b)
            render_band(b);
    }

    if (rays != nullptr) {
        // Bands cover consecutive rows, so band order is pixel order.
        std::partial_sum(rays->offsets.begin(), rays->offsets.end(),
                         rays->offsets.begin());
        rays->width = width;
        rays->height = height;
        joinBands(band_rays, pool, *rays);
    }
    return result;
}

Vec3
Tracer::tracePixel(uint32_t x, uint32_t y, uint32_t width, uint32_t height,
                   PixelProfile &profile, PixelRayRecord *rays) const
{
    Vec3 acc(0.0f);
    for (uint32_t s = 0; s < params_.samplesPerPixel; ++s) {
        float jx = params_.samplesPerPixel == 1 ? 0.5f
                                                : hashJitter(x, y, s, 0x11u);
        float jy = params_.samplesPerPixel == 1 ? 0.5f
                                                : hashJitter(x, y, s, 0x23u);
        Ray ray = scene_.camera().generateRay(x, y, width, height, jx, jy);
        acc += shade(ray, 0, profile, rays);
    }
    return acc / static_cast<float>(params_.samplesPerPixel);
}

Vec3
Tracer::shade(const Ray &ray, int bounce, PixelProfile &profile,
              PixelRayRecord *rays) const
{
    // With a record, each traversal below records its visit stream.
    VisitSink sink;
    VisitSink *record = nullptr;
    if (rays != nullptr) {
        sink.bits = &rays->visitBits;
        record = &sink;
    }

    TraversalCounters counters;
    ++profile.raysCast;
    HitRecord hit = closestHit(bvh_, ray, &counters, record);
    profile.nodesVisited += counters.nodesVisited;
    profile.triangleTests += counters.triangleTests;
    if (rays != nullptr) {
        rays->rays.push_back({ray, TraversalMode::ClosestHit, hit.valid(),
                              hit.materialId, static_cast<uint8_t>(bounce),
                              sink.stream});
    }

    if (!hit.valid())
        return scene_.background();
    if (bounce == 0)
        profile.primaryHit = true;

    const Material &mat = scene_.material(hit.materialId);
    if (mat.type == MaterialType::Emissive)
        return mat.albedo;

    // Direct lighting: one shadow ray toward the scene light.
    const PointLight &light = scene_.light();
    Vec3 to_light = light.position - hit.position;
    float dist = length(to_light);
    Vec3 light_dir = dist > 0.0f ? to_light / dist : Vec3{0.0f, 1.0f, 0.0f};

    Ray shadow_ray;
    shadow_ray.origin = hit.position + hit.normal * 1e-3f;
    shadow_ray.direction = light_dir;
    shadow_ray.tMax = dist - 1e-3f;

    TraversalCounters shadow_counters;
    ++profile.raysCast;
    bool occluded = anyHit(bvh_, shadow_ray, &shadow_counters, record);
    profile.nodesVisited += shadow_counters.nodesVisited;
    profile.triangleTests += shadow_counters.triangleTests;
    if (rays != nullptr) {
        rays->rays.push_back({shadow_ray, TraversalMode::AnyHit, occluded,
                              uint16_t{0}, static_cast<uint8_t>(bounce),
                              sink.stream});
    }

    Vec3 color = mat.albedo * params_.ambient;
    if (!occluded) {
        float ndotl = std::max(0.0f, dot(hit.normal, light_dir));
        float falloff = 1.0f / (1.0f + params_.distanceFalloff * dist * dist);
        color += mat.albedo * light.intensity * (ndotl * falloff);
    }

    if (mat.type == MaterialType::Mirror && mat.reflectivity > 0.0f &&
        bounce < scene_.maxBounces()) {
        Ray refl;
        refl.origin = hit.position + hit.normal * 1e-3f;
        refl.direction = normalize(reflect(ray.direction, hit.normal));
        Vec3 bounced = shade(refl, bounce + 1, profile, rays);
        color += bounced * mat.albedo * mat.reflectivity;
    }
    return color;
}

PixelRayRecord
recordPixelRays(const Tracer &tracer, uint32_t x, uint32_t y, uint32_t width,
                uint32_t height)
{
    PixelRayRecord record;
    PixelProfile profile;
    tracer.tracePixel(x, y, width, height, profile, &record);
    return record;
}

} // namespace zatel::rt
