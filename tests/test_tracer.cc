/**
 * @file
 * Tests for the functional tracer and the ray recording the timed
 * simulator replays.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <vector>

#include "rt/bvh.hh"
#include "rt/mesh.hh"
#include "rt/ray_record.hh"
#include "rt/scene.hh"
#include "rt/scene_library.hh"
#include "rt/tracer.hh"
#include "util/thread_pool.hh"

namespace zatel::rt
{
namespace
{

/** A sphere in front of the camera over a ground plane. */
Scene
simpleScene()
{
    Scene scene("simple");
    scene.setMaxBounces(2);
    scene.setBackground({0.1f, 0.2f, 0.3f});
    scene.setLight({{5.0f, 10.0f, 5.0f}, {1.0f, 1.0f, 1.0f}});
    scene.setCamera(Camera({0.0f, 1.0f, 6.0f}, {0.0f, 1.0f, 0.0f},
                           {0.0f, 1.0f, 0.0f}, 50.0f));
    uint16_t ball = scene.addMaterial(Material::diffuse({0.8f, 0.3f, 0.3f}));
    uint16_t floor = scene.addMaterial(Material::diffuse({0.4f, 0.4f, 0.4f}));
    MeshBuilder mesh;
    mesh.addSphere({0.0f, 1.0f, 0.0f}, 1.0f, 16, ball);
    mesh.addGroundPlane({0.0f, 0.0f, 0.0f}, 10.0f, 4, floor);
    scene.addTriangles(mesh.takeTriangles());
    return scene;
}

struct TracerFixture : public testing::Test
{
    void
    SetUp() override
    {
        scene = simpleScene();
        bvh.build(scene.triangles());
    }

    Scene scene;
    Bvh bvh;
};

TEST_F(TracerFixture, CenterPixelHitsSphere)
{
    Tracer tracer(scene, bvh);
    PixelProfile profile;
    Vec3 color = tracer.tracePixel(32, 32, 64, 64, profile);
    EXPECT_TRUE(profile.primaryHit);
    EXPECT_GT(profile.nodesVisited, 0u);
    EXPECT_GE(profile.raysCast, 2u); // primary + shadow
    // Reddish sphere.
    EXPECT_GT(color.x, color.y);
}

TEST_F(TracerFixture, SkyPixelIsBackground)
{
    Tracer tracer(scene, bvh);
    PixelProfile profile;
    Vec3 color = tracer.tracePixel(32, 0, 64, 64, profile);
    EXPECT_FALSE(profile.primaryHit);
    EXPECT_EQ(profile.raysCast, 1u);
    EXPECT_FLOAT_EQ(color.x, scene.background().x);
    EXPECT_FLOAT_EQ(color.y, scene.background().y);
}

TEST_F(TracerFixture, RenderDeterministic)
{
    Tracer tracer(scene, bvh);
    RenderResult a = tracer.render(32, 32);
    RenderResult b = tracer.render(32, 32);
    ASSERT_EQ(a.profiles.size(), b.profiles.size());
    for (size_t i = 0; i < a.profiles.size(); ++i) {
        EXPECT_EQ(a.profiles[i].nodesVisited, b.profiles[i].nodesVisited);
        EXPECT_EQ(a.image.pixels()[i], b.image.pixels()[i]);
    }
}

TEST_F(TracerFixture, SppMultipliesRays)
{
    TracerParams params;
    params.samplesPerPixel = 2;
    Tracer tracer2(scene, bvh, params);
    Tracer tracer1(scene, bvh);

    PixelProfile p1, p2;
    tracer1.tracePixel(32, 32, 64, 64, p1);
    tracer2.tracePixel(32, 32, 64, 64, p2);
    EXPECT_GE(p2.raysCast, 2 * p1.raysCast - 2);
    EXPECT_GT(p2.nodesVisited, p1.nodesVisited);
}

TEST_F(TracerFixture, ProfileCostMonotoneInWork)
{
    PixelProfile cheap, expensive;
    cheap.nodesVisited = 10;
    expensive.nodesVisited = 100;
    expensive.triangleTests = 50;
    EXPECT_LT(cheap.cost(), expensive.cost());
}

TEST_F(TracerFixture, RecordMatchesProfileRayCount)
{
    Tracer tracer(scene, bvh);
    for (uint32_t y : {0u, 16u, 32u, 48u}) {
        for (uint32_t x : {0u, 16u, 32u, 48u}) {
            PixelProfile profile;
            tracer.tracePixel(x, y, 64, 64, profile);
            PixelRayRecord record = recordPixelRays(tracer, x, y, 64, 64);
            EXPECT_EQ(record.rays.size(), profile.raysCast)
                << "pixel (" << x << "," << y << ")";
        }
    }
}

TEST_F(TracerFixture, RecordReplaysToSameWork)
{
    Tracer tracer(scene, bvh);
    PixelProfile profile;
    tracer.tracePixel(32, 40, 64, 64, profile);
    PixelRayRecord record = recordPixelRays(tracer, 32, 40, 64, 64);

    // Re-traversing the recorded rays reproduces the profile's node count.
    TraversalCounters counters;
    for (const RayTask &task : record.rays) {
        if (task.mode == TraversalMode::ClosestHit)
            closestHit(bvh, task.ray, &counters);
        else
            anyHit(bvh, task.ray, &counters);
    }
    EXPECT_EQ(counters.nodesVisited, profile.nodesVisited);
    EXPECT_EQ(counters.triangleTests, profile.triangleTests);
}

TEST_F(TracerFixture, RecordHitFlagsConsistent)
{
    Tracer tracer(scene, bvh);
    PixelRayRecord record = recordPixelRays(tracer, 32, 32, 64, 64);
    ASSERT_FALSE(record.rays.empty());
    const RayTask &primary = record.rays.front();
    EXPECT_EQ(primary.mode, TraversalMode::ClosestHit);
    EXPECT_TRUE(primary.hit);
    EXPECT_EQ(closestHit(bvh, primary.ray).valid(), primary.hit);
    EXPECT_EQ(record.shadeCount() >= 1, true);
}

TEST_F(TracerFixture, MirrorSpawnsBounceRays)
{
    // Replace the sphere material with a mirror and re-trace.
    Scene mirror_scene = simpleScene();
    Scene replacement("mirror");
    replacement.setMaxBounces(2);
    replacement.setBackground(mirror_scene.background());
    replacement.setLight(mirror_scene.light());
    replacement.setCamera(mirror_scene.camera());
    uint16_t ball =
        replacement.addMaterial(Material::mirror({0.9f, 0.9f, 0.9f}, 0.8f));
    uint16_t floor =
        replacement.addMaterial(Material::diffuse({0.4f, 0.4f, 0.4f}));
    MeshBuilder mesh;
    mesh.addSphere({0.0f, 1.0f, 0.0f}, 1.0f, 16, ball);
    mesh.addGroundPlane({0.0f, 0.0f, 0.0f}, 10.0f, 4, floor);
    replacement.addTriangles(mesh.takeTriangles());

    Bvh mirror_bvh;
    mirror_bvh.build(replacement.triangles());
    Tracer tracer(replacement, mirror_bvh);
    PixelRayRecord record = recordPixelRays(tracer, 32, 32, 64, 64);

    bool has_bounce = false;
    for (const RayTask &task : record.rays)
        has_bounce |= task.bounce > 0;
    EXPECT_TRUE(has_bounce);
}

TEST_F(TracerFixture, EmissiveTerminatesPath)
{
    Scene glow("glow");
    glow.setCamera(Camera({0.0f, 0.0f, 5.0f}, {0.0f, 0.0f, 0.0f},
                          {0.0f, 1.0f, 0.0f}, 50.0f));
    Vec3 radiance{2.0f, 1.5f, 1.0f};
    uint16_t lamp = glow.addMaterial(Material::emissive(radiance));
    MeshBuilder mesh;
    mesh.addSphere({0.0f, 0.0f, 0.0f}, 1.0f, 12, lamp);
    glow.addTriangles(mesh.takeTriangles());
    Bvh glow_bvh;
    glow_bvh.build(glow.triangles());

    Tracer tracer(glow, glow_bvh);
    PixelProfile profile;
    Vec3 color = tracer.tracePixel(32, 32, 64, 64, profile);
    EXPECT_FLOAT_EQ(color.x, radiance.x);
    // Emissive hit casts no shadow ray.
    EXPECT_EQ(profile.raysCast, 1u);
}

/** Scene with a mirror, so pixels shade reflection chains. */
Scene
mirrorScene()
{
    Scene scene = simpleScene();
    uint16_t shiny =
        scene.addMaterial(Material::mirror({0.9f, 0.9f, 0.95f}));
    MeshBuilder mesh;
    mesh.addSphere({-1.5f, 1.0f, -1.0f}, 0.8f, 12, shiny);
    scene.addTriangles(mesh.takeTriangles());
    return scene;
}

/** Every field of @p got equals @p want, floats bit for bit. */
void
expectSameRayTask(const RayTask &want, const RayTask &got, size_t pixel,
                  size_t ray)
{
    EXPECT_EQ(std::memcmp(&want.ray.origin, &got.ray.origin, sizeof(Vec3)),
              0)
        << "origin diverged: pixel " << pixel << " ray " << ray;
    EXPECT_EQ(std::memcmp(&want.ray.direction, &got.ray.direction,
                          sizeof(Vec3)),
              0)
        << "direction diverged: pixel " << pixel << " ray " << ray;
    EXPECT_EQ(std::memcmp(&want.ray.tMin, &got.ray.tMin, sizeof(float)), 0)
        << "tMin diverged: pixel " << pixel << " ray " << ray;
    EXPECT_EQ(std::memcmp(&want.ray.tMax, &got.ray.tMax, sizeof(float)), 0)
        << "tMax diverged: pixel " << pixel << " ray " << ray;
    EXPECT_EQ(want.mode, got.mode) << "pixel " << pixel << " ray " << ray;
    EXPECT_EQ(want.hit, got.hit) << "pixel " << pixel << " ray " << ray;
    EXPECT_EQ(want.materialId, got.materialId)
        << "pixel " << pixel << " ray " << ray;
    EXPECT_EQ(want.bounce, got.bounce) << "pixel " << pixel << " ray " << ray;
}

/** The same recorded traversal: visit count, last-visit tests and
 *  bounds-hit bits, each task's firstWord indexing its own buffer. */
void
expectSameVisits(const RayTask &want, const std::vector<uint64_t> &want_bits,
                 const RayTask &got, const std::vector<uint64_t> &got_bits,
                 size_t pixel, size_t ray)
{
    ASSERT_EQ(want.visits.visits, got.visits.visits)
        << "pixel " << pixel << " ray " << ray;
    EXPECT_EQ(want.visits.lastVisitTests, got.visits.lastVisitTests)
        << "pixel " << pixel << " ray " << ray;
    const size_t words = want.visits.wordCount();
    ASSERT_LE(want.visits.firstWord + words, want_bits.size());
    ASSERT_LE(got.visits.firstWord + words, got_bits.size());
    for (size_t w = 0; w < words; ++w) {
        EXPECT_EQ(want_bits[want.visits.firstWord + w],
                  got_bits[got.visits.firstWord + w])
            << "visit bits diverged: pixel " << pixel << " ray " << ray
            << " word " << w;
    }
}

// ---------------------------------------------------------------------
// Pooled render differential: render() on a pool splits the frame into
// row bands and records the frame's rays in the same pass. For every
// worker count (and with no pool) the image and profiles must equal the
// plain serial render and tracePixel() bit for bit, and each pixel's
// slice of the frame record must equal recordPixelRays(). The sizes
// leave partial bands.
// ---------------------------------------------------------------------

void
expectPooledRenderMatchesSerial(const Scene &scene, uint32_t spp,
                                uint32_t width, uint32_t height)
{
    Bvh bvh;
    bvh.build(scene.triangles());
    TracerParams params;
    params.samplesPerPixel = spp;
    Tracer tracer(scene, bvh, params);
    const RenderResult serial = tracer.render(width, height);

    for (size_t workers : {0u, 1u, 3u, 4u}) {
        SCOPED_TRACE(testing::Message()
                     << width << "x" << height << " spp=" << spp
                     << " workers=" << workers);
        std::optional<ThreadPool> pool;
        if (workers > 0)
            pool.emplace(workers);
        FrameRayRecord record;
        const RenderResult pooled = tracer.render(
            width, height, pool ? &*pool : nullptr, &record);
        EXPECT_EQ(record.width, width);
        EXPECT_EQ(record.height, height);
        ASSERT_EQ(record.offsets.size(),
                  static_cast<size_t>(width) * height + 1);
        ASSERT_EQ(record.offsets.back(), record.rays.size());

        for (uint32_t y = 0; y < height; ++y) {
            for (uint32_t x = 0; x < width; ++x) {
                const size_t p = static_cast<size_t>(y) * width + x;
                PixelProfile scalar_profile;
                const Vec3 scalar =
                    tracer.tracePixel(x, y, width, height, scalar_profile);
                const Vec3 want = serial.image.at(x, y);
                const Vec3 got = pooled.image.at(x, y);
                ASSERT_EQ(std::memcmp(&want, &got, sizeof(Vec3)), 0)
                    << "color diverged from serial at (" << x << "," << y
                    << ")";
                ASSERT_EQ(std::memcmp(&scalar, &got, sizeof(Vec3)), 0)
                    << "color diverged from tracePixel at (" << x << ","
                    << y << ")";
                const PixelProfile *refs[] = {&serial.profileAt(x, y),
                                              &scalar_profile};
                for (const PixelProfile *ref : refs) {
                    const PixelProfile &profile = pooled.profileAt(x, y);
                    EXPECT_EQ(ref->nodesVisited, profile.nodesVisited);
                    EXPECT_EQ(ref->triangleTests, profile.triangleTests);
                    EXPECT_EQ(ref->raysCast, profile.raysCast);
                    EXPECT_EQ(ref->primaryHit, profile.primaryHit);
                }

                const PixelRayRecord expected =
                    recordPixelRays(tracer, x, y, width, height);
                const size_t begin = record.offsets[p];
                ASSERT_EQ(record.offsets[p + 1] - begin,
                          expected.rays.size())
                    << "ray count diverged at pixel " << p;
                for (size_t r = 0; r < expected.rays.size(); ++r) {
                    expectSameRayTask(expected.rays[r],
                                      record.rays[begin + r], p, r);
                    expectSameVisits(expected.rays[r], expected.visitBits,
                                     record.rays[begin + r],
                                     record.visitBits, p, r);
                }
            }
        }
    }
}

TEST(TracerPooledRender, MatchesSerialAndScalarReferences)
{
    for (const Scene &scene : {simpleScene(), mirrorScene()}) {
        for (uint32_t spp : {1u, 3u}) {
            expectPooledRenderMatchesSerial(scene, spp, 9, 7);
            expectPooledRenderMatchesSerial(scene, spp, 37, 23);
        }
    }
}

} // namespace
} // namespace zatel::rt
