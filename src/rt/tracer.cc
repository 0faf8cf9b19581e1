#include "rt/tracer.hh"

#include <algorithm>
#include <cmath>

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
 * Wavefront shading engine shared by the render and record paths.
 *
 * Up to RayPacket::kWidth pixels run side by side; every round gathers
 * each live pixel's next ray (closest-hit or shadow, mixed freely) into
 * one RayPacket, traces the packet in lockstep, then advances each
 * pixel's shading state machine. The shading control flow — one shadow
 * ray per lit hit, one reflection ray per mirror hit — is the single
 * source of truth that Tracer::shade() and the scalar recordShade()
 * used to duplicate; both modes now share it, selected per pixel by
 * which output sinks are non-null.
 *
 * Reflection chains are linear (one reflection per shade level), so
 * the recursive radiance sum is folded deepest-first on completion:
 *   c = terminal; for k = K-1 .. 0: c = local_k + (c * albedo_k) * refl_k
 * which performs exactly the float operations of the recursion, in the
 * same order, keeping packetized output bit-identical to the scalar
 * reference paths (tests/test_tracer.cc holds the differentials).
 */
class WavefrontEngine
{
  public:
    /** One pixel's identity and output sinks. Null sinks are skipped:
     *  render mode sets color+profile (plus tasks when it records the
     *  frame's rays), record mode sets tasks only. */
    struct Pixel
    {
        uint32_t x = 0;
        uint32_t y = 0;
        Vec3 *color = nullptr;
        PixelProfile *profile = nullptr;
        PixelRayRecord *tasks = nullptr;
    };

    explicit WavefrontEngine(const Tracer &tracer)
        : scene_(tracer.scene()), bvh_(&tracer.bvh()),
          params_(tracer.params())
    {
    }

    /** Run @p count pixels (<= RayPacket::kWidth) to completion. */
    void
    run(const Pixel *pixels, uint32_t count, uint32_t width, uint32_t height)
    {
        ZATEL_ASSERT(count <= RayPacket::kWidth,
                     "wavefront batch exceeds the packet width");
        width_ = width;
        height_ = height;
        for (uint32_t i = 0; i < count; ++i) {
            Lane &lane = lanes_[i];
            lane.px = pixels[i];
            lane.sample = 0;
            lane.acc = Vec3(0.0f);
            lane.chain.clear();
            lane.done = false;
            if (lane.px.tasks)
                lane.px.tasks->rays.clear();
            startSample(lane);
        }
        uint32_t slotLane[RayPacket::kWidth];
        for (;;) {
            packet_.reset();
            uint32_t slots = 0;
            for (uint32_t i = 0; i < count; ++i) {
                Lane &lane = lanes_[i];
                if (lane.done)
                    continue;
                packet_.add(bvh_, lane.pending,
                            lane.shadowPhase ? TraversalMode::AnyHit
                                             : TraversalMode::ClosestHit);
                slotLane[slots++] = i;
            }
            if (slots == 0)
                return;
            packet_.trace();
            for (uint32_t s = 0; s < slots; ++s)
                consume(lanes_[slotLane[s]], s);
        }
    }

  private:
    /** One shade level that reflected: folded deepest-first at the end. */
    struct ChainLevel
    {
        Vec3 local;
        Vec3 albedo;
        float reflectivity = 0.0f;
    };

    struct Lane
    {
        Pixel px;
        uint32_t sample = 0;
        uint8_t bounce = 0;
        bool shadowPhase = false;
        bool done = true;
        /** The ray the next packet round traces for this lane. */
        Ray pending;
        /** Direction of the level's closest-hit ray (reflect() input). */
        Vec3 inDir;
        HitRecord hit;
        const Material *material = nullptr;
        Vec3 lightDir;
        float lightDist = 0.0f;
        std::vector<ChainLevel> chain;
        Vec3 acc{0.0f};
    };

    void
    startSample(Lane &lane)
    {
        uint32_t spp = params_.samplesPerPixel;
        float jx = spp == 1 ? 0.5f
                            : hashJitter(lane.px.x, lane.px.y, lane.sample,
                                         0x11u);
        float jy = spp == 1 ? 0.5f
                            : hashJitter(lane.px.x, lane.px.y, lane.sample,
                                         0x23u);
        lane.pending = scene_.camera().generateRay(lane.px.x, lane.px.y,
                                                   width_, height_, jx, jy);
        lane.bounce = 0;
        lane.shadowPhase = false;
    }

    /** Fold the reflection chain onto @p terminal and close the sample. */
    void
    finishSample(Lane &lane, const Vec3 &terminal)
    {
        if (lane.px.color) {
            Vec3 c = terminal;
            for (size_t k = lane.chain.size(); k-- > 0;) {
                const ChainLevel &level = lane.chain[k];
                c = level.local + (c * level.albedo) * level.reflectivity;
            }
            lane.acc += c;
        }
        lane.chain.clear();
        ++lane.sample;
        if (lane.sample < params_.samplesPerPixel) {
            startSample(lane);
            return;
        }
        if (lane.px.color) {
            *lane.px.color =
                lane.acc / static_cast<float>(params_.samplesPerPixel);
        }
        lane.done = true;
    }

    /** Advance @p lane past the traversal that ran in packet slot @p s. */
    void
    consume(Lane &lane, uint32_t slot)
    {
        PixelProfile *profile = lane.px.profile;
        PixelRayRecord *out = lane.px.tasks;
        if (profile) {
            ++profile->raysCast;
            profile->nodesVisited += packet_.nodesVisited(slot);
            profile->triangleTests += packet_.triangleTests(slot);
        }

        if (!lane.shadowPhase) {
            const HitRecord &hit = packet_.hit(slot);
            if (out) {
                RayTask task;
                task.ray = lane.pending;
                task.mode = TraversalMode::ClosestHit;
                task.bounce = lane.bounce;
                task.hit = hit.valid();
                if (hit.valid())
                    task.materialId = hit.materialId;
                out->rays.push_back(task);
            }
            if (!hit.valid()) {
                finishSample(lane, scene_.background());
                return;
            }
            if (lane.bounce == 0 && profile)
                profile->primaryHit = true;

            const Material &mat = scene_.material(hit.materialId);
            if (mat.type == MaterialType::Emissive) {
                finishSample(lane, mat.albedo);
                return;
            }

            const PointLight &light = scene_.light();
            Vec3 to_light = light.position - hit.position;
            float dist = length(to_light);
            Vec3 light_dir =
                dist > 0.0f ? to_light / dist : Vec3{0.0f, 1.0f, 0.0f};

            lane.hit = hit;
            lane.material = &mat;
            lane.lightDir = light_dir;
            lane.lightDist = dist;
            lane.inDir = lane.pending.direction;

            Ray shadow_ray;
            shadow_ray.origin = hit.position + hit.normal * 1e-3f;
            shadow_ray.direction = light_dir;
            shadow_ray.tMax = dist - 1e-3f;
            lane.pending = shadow_ray;
            lane.shadowPhase = true;
            return;
        }

        // Shadow phase: the level's lighting is now decidable.
        bool occluded = packet_.hasHit(slot);
        if (out) {
            RayTask task;
            task.ray = lane.pending;
            task.mode = TraversalMode::AnyHit;
            task.bounce = lane.bounce;
            task.hit = occluded;
            out->rays.push_back(task);
        }
        lane.shadowPhase = false;

        const Material &mat = *lane.material;
        Vec3 color;
        if (lane.px.color) {
            color = mat.albedo * params_.ambient;
            if (!occluded) {
                float ndotl = std::max(0.0f, dot(lane.hit.normal,
                                                 lane.lightDir));
                float falloff =
                    1.0f / (1.0f + params_.distanceFalloff * lane.lightDist *
                                       lane.lightDist);
                color += mat.albedo * scene_.light().intensity *
                         (ndotl * falloff);
            }
        }

        if (mat.type == MaterialType::Mirror && mat.reflectivity > 0.0f &&
            lane.bounce < scene_.maxBounces()) {
            if (lane.px.color)
                lane.chain.push_back({color, mat.albedo, mat.reflectivity});
            Ray refl;
            refl.origin = lane.hit.position + lane.hit.normal * 1e-3f;
            refl.direction = normalize(reflect(lane.inDir, lane.hit.normal));
            lane.pending = refl;
            ++lane.bounce;
            return;
        }
        finishSample(lane, color);
    }

    const Scene &scene_;
    const Bvh *bvh_ = nullptr;
    TracerParams params_;
    uint32_t width_ = 0;
    uint32_t height_ = 0;
    Lane lanes_[RayPacket::kWidth];
    RayPacket packet_;
};

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

    /** One band's share of the frame ray record, in pixel order. */
    struct BandRays
    {
        std::vector<RayTask> rays;
        std::vector<uint32_t> counts;
    };
    std::vector<BandRays> band_rays(rays != nullptr ? bands : 0);

    // Packetized wavefront over the band's row-major batches; per pixel
    // the output is bit-identical to the scalar tracePixel() and
    // recordPixelRays() reference paths, whatever the batch.
    const auto render_band = [&](size_t b) {
        const uint32_t y0 = static_cast<uint32_t>(b) * band_rows;
        const uint32_t y1 = std::min(height, y0 + band_rows);
        BandRays *out = rays != nullptr ? &band_rays[b] : nullptr;
        WavefrontEngine engine(*this);
        WavefrontEngine::Pixel batch[RayPacket::kWidth];
        Vec3 colors[RayPacket::kWidth];
        PixelRayRecord records[RayPacket::kWidth];
        uint32_t filled = 0;
        auto flush = [&]() {
            if (filled == 0)
                return;
            engine.run(batch, filled, width, height);
            for (uint32_t i = 0; i < filled; ++i) {
                result.image.set(batch[i].x, batch[i].y, colors[i]);
                if (out != nullptr) {
                    const std::vector<RayTask> &pixel = records[i].rays;
                    out->rays.insert(out->rays.end(), pixel.begin(),
                                     pixel.end());
                    out->counts.push_back(
                        static_cast<uint32_t>(pixel.size()));
                }
            }
            filled = 0;
        };
        for (uint32_t y = y0; y < y1; ++y) {
            for (uint32_t x = 0; x < width; ++x) {
                WavefrontEngine::Pixel &px = batch[filled];
                px.x = x;
                px.y = y;
                px.color = &colors[filled];
                px.profile =
                    &result.profiles[static_cast<size_t>(y) * width + x];
                px.tasks = out != nullptr ? &records[filled] : nullptr;
                if (++filled == RayPacket::kWidth)
                    flush();
            }
        }
        flush();
    };
    if (pool != nullptr) {
        pool->parallelForChunked(bands, 1, render_band);
    } else {
        for (uint32_t b = 0; b < bands; ++b)
            render_band(b);
    }

    if (rays != nullptr) {
        // Bands cover consecutive rows, so band order is pixel order.
        size_t total = 0;
        for (const BandRays &band : band_rays)
            total += band.rays.size();
        rays->width = width;
        rays->height = height;
        rays->rays.clear();
        rays->rays.reserve(total);
        rays->offsets.assign(1, 0);
        rays->offsets.reserve(static_cast<size_t>(width) * height + 1);
        for (const BandRays &band : band_rays) {
            rays->rays.insert(rays->rays.end(), band.rays.begin(),
                              band.rays.end());
            for (uint32_t count : band.counts)
                rays->offsets.push_back(rays->offsets.back() + count);
        }
    }
    return result;
}

Vec3
Tracer::tracePixel(uint32_t x, uint32_t y, uint32_t width, uint32_t height,
                   PixelProfile &profile) const
{
    Vec3 acc(0.0f);
    for (uint32_t s = 0; s < params_.samplesPerPixel; ++s) {
        float jx = params_.samplesPerPixel == 1 ? 0.5f
                                                : hashJitter(x, y, s, 0x11u);
        float jy = params_.samplesPerPixel == 1 ? 0.5f
                                                : hashJitter(x, y, s, 0x23u);
        Ray ray = scene_.camera().generateRay(x, y, width, height, jx, jy);
        acc += shade(ray, 0, profile);
    }
    return acc / static_cast<float>(params_.samplesPerPixel);
}

Vec3
Tracer::shade(const Ray &ray, int bounce, PixelProfile &profile) const
{
    TraversalCounters counters;
    ++profile.raysCast;
    HitRecord hit = closestHit(bvh_, ray, &counters);
    profile.nodesVisited += counters.nodesVisited;
    profile.triangleTests += counters.triangleTests;

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
    bool occluded = anyHit(bvh_, shadow_ray, &shadow_counters);
    profile.nodesVisited += shadow_counters.nodesVisited;
    profile.triangleTests += shadow_counters.triangleTests;

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
        Vec3 bounced = shade(refl, bounce + 1, profile);
        color += bounced * mat.albedo * mat.reflectivity;
    }
    return color;
}

namespace
{

/**
 * Mirror of Tracer::shade() that records rays instead of shading.
 * Any change to the shading control flow must be applied to both.
 */
void
recordShade(const Tracer &tracer, const Ray &ray, int bounce,
            PixelRayRecord &record)
{
    const Scene &scene = tracer.scene();
    const Bvh &bvh = tracer.bvh();

    RayTask primary;
    primary.ray = ray;
    primary.mode = TraversalMode::ClosestHit;
    primary.bounce = static_cast<uint8_t>(bounce);

    HitRecord hit = closestHit(bvh, ray);
    primary.hit = hit.valid();
    if (hit.valid())
        primary.materialId = hit.materialId;
    record.rays.push_back(primary);

    if (!hit.valid())
        return;

    const Material &mat = scene.material(hit.materialId);
    if (mat.type == MaterialType::Emissive)
        return;

    const PointLight &light = scene.light();
    Vec3 to_light = light.position - hit.position;
    float dist = length(to_light);
    Vec3 light_dir = dist > 0.0f ? to_light / dist : Vec3{0.0f, 1.0f, 0.0f};

    RayTask shadow;
    shadow.ray.origin = hit.position + hit.normal * 1e-3f;
    shadow.ray.direction = light_dir;
    shadow.ray.tMax = dist - 1e-3f;
    shadow.mode = TraversalMode::AnyHit;
    shadow.bounce = static_cast<uint8_t>(bounce);
    shadow.hit = anyHit(bvh, shadow.ray);
    record.rays.push_back(shadow);

    if (mat.type == MaterialType::Mirror && mat.reflectivity > 0.0f &&
        bounce < scene.maxBounces()) {
        Ray refl;
        refl.origin = hit.position + hit.normal * 1e-3f;
        refl.direction = normalize(reflect(ray.direction, hit.normal));
        recordShade(tracer, refl, bounce + 1, record);
    }
}

} // namespace

PixelRayRecord
recordPixelRays(const Tracer &tracer, uint32_t x, uint32_t y, uint32_t width,
                uint32_t height)
{
    PixelRayRecord record;
    uint32_t spp = tracer.params().samplesPerPixel;
    for (uint32_t s = 0; s < spp; ++s) {
        float jx = spp == 1 ? 0.5f : hashJitter(x, y, s, 0x11u);
        float jy = spp == 1 ? 0.5f : hashJitter(x, y, s, 0x23u);
        Ray ray =
            tracer.scene().camera().generateRay(x, y, width, height, jx, jy);
        recordShade(tracer, ray, 0, record);
    }
    return record;
}

void
recordPixelRaysBatch(
    const Tracer &tracer, const uint32_t *xs, const uint32_t *ys,
    uint32_t count, uint32_t width, uint32_t height,
    const std::function<void(uint32_t index, const PixelRayRecord &record)>
        &sink)
{
    // One engine for the whole batch: the per-pixel record scratch (and
    // its vector capacity) is reused across packet rounds.
    WavefrontEngine engine(tracer);
    WavefrontEngine::Pixel batch[RayPacket::kWidth];
    PixelRayRecord records[RayPacket::kWidth];
    uint32_t done = 0;
    while (done < count) {
        uint32_t n = std::min(RayPacket::kWidth, count - done);
        for (uint32_t i = 0; i < n; ++i) {
            WavefrontEngine::Pixel &px = batch[i];
            px.x = xs[done + i];
            px.y = ys[done + i];
            px.color = nullptr;
            px.profile = nullptr;
            px.tasks = &records[i];
        }
        engine.run(batch, n, width, height);
        for (uint32_t i = 0; i < n; ++i)
            sink(done + i, records[i]);
        done += n;
    }
}

} // namespace zatel::rt
