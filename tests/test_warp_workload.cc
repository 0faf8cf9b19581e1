/**
 * @file
 * Tests for workload construction and the warp stage machine.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "gpusim/warp.hh"
#include "gpusim/workload.hh"
#include "rt/bvh.hh"
#include "rt/mesh.hh"
#include "rt/scene.hh"
#include "rt/tracer.hh"
#include "util/thread_pool.hh"

namespace zatel::gpusim
{
namespace
{

struct WorkloadFixture : public testing::Test
{
    void
    SetUp() override
    {
        scene.setCamera(rt::Camera({0.0f, 0.0f, 5.0f}, {0.0f, 0.0f, 0.0f},
                                   {0.0f, 1.0f, 0.0f}, 50.0f));
        scene.setLight({{3.0f, 6.0f, 3.0f}, {1.0f, 1.0f, 1.0f}});
        uint16_t mat =
            scene.addMaterial(rt::Material::diffuse({0.6f, 0.4f, 0.3f}));
        rt::MeshBuilder mesh;
        mesh.addSphere({0.0f, 0.0f, 0.0f}, 1.2f, 12, mat);
        scene.addTriangles(mesh.takeTriangles());
        bvh.build(scene.triangles());
        tracer = std::make_unique<rt::Tracer>(scene, bvh);
        config = GpuConfig::mobileSoc();
    }

    rt::Scene scene{"warp-test"};
    rt::Bvh bvh;
    std::unique_ptr<rt::Tracer> tracer;
    GpuConfig config;
};

TEST_F(WorkloadFixture, FullFrameHasAllThreads)
{
    SimWorkload workload = SimWorkload::buildFullFrame(*tracer, 16, 16);
    EXPECT_EQ(workload.threads.size(), 256u);
    EXPECT_EQ(workload.selectedCount, 256u);
    EXPECT_EQ(workload.bvh, &bvh);
    EXPECT_GT(workload.totalRays(), 0u);
}

TEST_F(WorkloadFixture, FilterMaskSkipsRecording)
{
    std::vector<PixelCoord> pixels{{8, 8}, {0, 0}, {15, 15}};
    std::vector<bool> selected{true, false, true};
    SimWorkload workload =
        SimWorkload::build(*tracer, 16, 16, pixels, &selected);
    EXPECT_EQ(workload.selectedCount, 2u);
    EXPECT_FALSE(workload.threads[1].selected);
    EXPECT_EQ(workload.threads[1].rayCount, 0u);
    EXPECT_GT(workload.threads[0].rayCount, 0u);
}

TEST_F(WorkloadFixture, PixelLinearIndexing)
{
    std::vector<PixelCoord> pixels{{3, 2}};
    SimWorkload workload = SimWorkload::build(*tracer, 16, 16, pixels);
    EXPECT_EQ(workload.threads[0].pixelLinear, 2u * 16u + 3u);
}

TEST_F(WorkloadFixture, WarpRaygenStage)
{
    SimWorkload workload = SimWorkload::buildFullFrame(*tracer, 8, 4);
    Warp warp(0, &config, &workload, 0, 32);

    EXPECT_EQ(warp.phase(), Warp::Phase::NotStarted);
    warp.poll(0);
    EXPECT_EQ(warp.phase(), Warp::Phase::AluIssue);
    EXPECT_TRUE(warp.wantsIssue());
    EXPECT_FALSE(warp.nextIsLoad());

    // Thread instructions for 32 selected threads at raygen cost.
    uint64_t insts = warp.takePendingThreadInsts();
    EXPECT_EQ(insts, 32ull * config.raygenInsts);

    // Issue all raygen instructions.
    for (uint32_t i = 0; i < config.raygenInsts; ++i) {
        ASSERT_TRUE(warp.wantsIssue());
        warp.commitAlu(i);
    }
    EXPECT_FALSE(warp.wantsIssue());
    warp.poll(config.raygenInsts);
    EXPECT_EQ(warp.phase(), Warp::Phase::AluDrain);

    // After the pipeline drains the warp asks for an RT slot.
    warp.poll(config.raygenInsts + config.aluLatency);
    EXPECT_TRUE(warp.wantsRtSlot());
    EXPECT_EQ(warp.currentRaySlot(), 0);
}

TEST_F(WorkloadFixture, FilteredWarpSkipsToFbAndDone)
{
    std::vector<PixelCoord> pixels;
    for (uint32_t i = 0; i < 32; ++i)
        pixels.push_back({i % 8, i / 8});
    std::vector<bool> selected(32, false);
    SimWorkload workload =
        SimWorkload::build(*tracer, 8, 4, pixels, &selected);
    Warp warp(0, &config, &workload, 0, 32);

    warp.poll(0);
    // Filter-exit cost only.
    EXPECT_EQ(warp.takePendingThreadInsts(),
              32ull * config.filterExitInsts);
    uint64_t cycle = 0;
    while (warp.wantsIssue())
        warp.commitAlu(cycle++);
    warp.poll(cycle + config.aluLatency);
    // No rays and no selected threads: straight to Done (the FB stage has
    // no stores for filtered threads).
    EXPECT_TRUE(warp.done());
}

TEST_F(WorkloadFixture, RtRoundTripAndPostRayStage)
{
    SimWorkload workload = SimWorkload::buildFullFrame(*tracer, 8, 4);
    Warp warp(0, &config, &workload, 0, 32);

    uint64_t cycle = 0;
    warp.poll(cycle);
    while (warp.wantsIssue())
        warp.commitAlu(cycle++);
    cycle += config.aluLatency;
    warp.poll(cycle);
    ASSERT_TRUE(warp.wantsRtSlot());

    // Enter the RT unit manually (lending it a lane span the way the RT
    // unit's pool would) and run every lane to completion.
    std::vector<WarpLane> laneSpan(config.warpSize);
    warp.enterRtUnit(laneSpan.data());
    EXPECT_EQ(warp.phase(), Warp::Phase::InRt);
    EXPECT_GT(warp.activeLaneCount(), 0u);
    for (uint32_t i = 0; i < warp.laneCount(); ++i) {
        WarpLane &lane = warp.lanes()[i];
        if (lane.state == WarpLane::State::Inactive)
            continue;
        while (!lane.cursor.finished())
            lane.cursor.step(warp.bvh());
        lane.state = WarpLane::State::Done;
    }
    EXPECT_EQ(warp.activeLaneCount(), 0u);
    warp.exitRtUnit(cycle);

    // Post-ray stage: center pixels hit (shade + material load), edge
    // pixels miss; either way there is ALU work.
    EXPECT_EQ(warp.phase(), Warp::Phase::AluIssue);
    EXPECT_GT(warp.takePendingThreadInsts(), 0u);
}

TEST_F(WorkloadFixture, FbWriteStoresCoalesce)
{
    // 32 threads of one row: 32 consecutive pixels * 16B = 512B = 4 lines.
    std::vector<PixelCoord> pixels;
    for (uint32_t i = 0; i < 32; ++i)
        pixels.push_back({i, 0});
    SimWorkload workload = SimWorkload::build(*tracer, 32, 1, pixels);
    Warp warp(0, &config, &workload, 0, 32);

    // Drive the warp to completion, counting stores.
    uint64_t cycle = 0;
    uint32_t stores = 0;
    std::vector<WarpLane> laneSpan(config.warpSize);
    for (int guard = 0; guard < 100000 && !warp.done(); ++guard) {
        warp.poll(cycle);
        if (warp.wantsRtSlot()) {
            warp.enterRtUnit(laneSpan.data());
            for (uint32_t i = 0; i < warp.laneCount(); ++i) {
                WarpLane &lane = warp.lanes()[i];
                if (lane.state == WarpLane::State::Inactive)
                    continue;
                while (!lane.cursor.finished())
                    lane.cursor.step(warp.bvh());
                lane.state = WarpLane::State::Done;
            }
            warp.exitRtUnit(cycle);
        } else if (warp.wantsIssue()) {
            if (warp.nextIsLoad()) {
                warp.commitLoad();
                warp.onLoadComplete();
            } else if (warp.nextIsStore()) {
                warp.commitStore();
                ++stores;
            } else {
                warp.commitAlu(cycle);
            }
        }
        ++cycle;
    }
    EXPECT_TRUE(warp.done());
    EXPECT_EQ(stores, 4u);
}

TEST_F(WorkloadFixture, PartialWarpFewerThreads)
{
    std::vector<PixelCoord> pixels{{0, 0}, {1, 0}, {2, 0}};
    SimWorkload workload = SimWorkload::build(*tracer, 8, 4, pixels);
    Warp warp(7, &config, &workload, 0, 3);
    EXPECT_EQ(warp.threadCount(), 3u);
    EXPECT_EQ(warp.id(), 7u);
    warp.poll(0);
    EXPECT_EQ(warp.takePendingThreadInsts(), 3ull * config.raygenInsts);
}

/** Every ThreadWork field, every RayTask field and each ray's visit
 *  bits equal, floats bit for bit; the span pointers and firstWords
 *  may differ (a traced workload's rays live in the record it traced
 *  them into, a sliced workload's in the frame ray record). */
void
expectSameWorkload(const SimWorkload &want, const SimWorkload &got)
{
    EXPECT_EQ(want.width, got.width);
    EXPECT_EQ(want.height, got.height);
    EXPECT_EQ(want.bvh, got.bvh);
    EXPECT_EQ(want.selectedCount, got.selectedCount);
    ASSERT_EQ(want.threads.size(), got.threads.size());
    for (size_t t = 0; t < want.threads.size(); ++t) {
        const ThreadWork &a = want.threads[t];
        const ThreadWork &b = got.threads[t];
        EXPECT_EQ(a.pixelLinear, b.pixelLinear) << "thread " << t;
        EXPECT_EQ(a.selected, b.selected) << "thread " << t;
        ASSERT_EQ(a.rayCount, b.rayCount) << "thread " << t;
        EXPECT_EQ(a.rays == nullptr, b.rays == nullptr) << "thread " << t;
        for (uint32_t r = 0; r < a.rayCount; ++r) {
            const rt::RayTask &x = a.rays[r];
            const rt::RayTask &y = b.rays[r];
            EXPECT_EQ(std::memcmp(&x.ray, &y.ray, sizeof(rt::Ray)), 0)
                << "thread " << t << " ray " << r;
            EXPECT_EQ(x.mode, y.mode) << "thread " << t << " ray " << r;
            EXPECT_EQ(x.hit, y.hit) << "thread " << t << " ray " << r;
            EXPECT_EQ(x.materialId, y.materialId)
                << "thread " << t << " ray " << r;
            EXPECT_EQ(x.bounce, y.bounce) << "thread " << t << " ray " << r;
            // The recorded traversal: the same words of bounds-hit bits,
            // wherever each workload's ray store keeps them.
            ASSERT_EQ(x.visits.visits, y.visits.visits)
                << "thread " << t << " ray " << r;
            EXPECT_EQ(x.visits.lastVisitTests, y.visits.lastVisitTests)
                << "thread " << t << " ray " << r;
            EXPECT_EQ(std::memcmp(want.visitBits + x.visits.firstWord,
                                  got.visitBits + y.visits.firstWord,
                                  x.visits.wordCount() * sizeof(uint64_t)),
                      0)
                << "thread " << t << " ray " << r;
        }
    }
}

/** Every selected thread of @p workload points into its one ray store,
 *  and so does its visitBits: the frame record @p frame it slices, or,
 *  when @p frame is null, the record it traced itself. */
void
expectPointsIntoStore(const SimWorkload &workload,
                      const std::shared_ptr<rt::FrameRayRecord> &frame)
{
    EXPECT_EQ(workload.frame, frame);
    if (frame) {
        EXPECT_TRUE(workload.traced.rays.empty());
        EXPECT_EQ(workload.visitBits, frame->visitBits.data());
    } else {
        EXPECT_EQ(workload.visitBits, workload.traced.visitBits.data());
    }
    const rt::RayTask *const begin = workload.traced.rays.data();
    const rt::RayTask *const end = begin + workload.traced.rays.size();
    for (const ThreadWork &thread : workload.threads) {
        if (!thread.selected)
            continue;
        if (frame) {
            EXPECT_EQ(thread.rays,
                      frame->rays.data() + frame->offsets[thread.pixelLinear]);
            continue;
        }
        EXPECT_GE(thread.rays, begin) << "pixel " << thread.pixelLinear;
        EXPECT_LE(thread.rays + thread.rayCount, end)
            << "pixel " << thread.pixelLinear;
    }
}

TEST(WorkloadFrameRecord, SliceBuildMatchesTracedBuild)
{
    // A diffuse sphere, a mirror sphere and a floor, at 2 spp: primary,
    // shadow and reflection rays all appear in the record.
    rt::Scene scene("slice-test");
    scene.setMaxBounces(2);
    scene.setCamera(rt::Camera({0.0f, 1.0f, 6.0f}, {0.0f, 1.0f, 0.0f},
                               {0.0f, 1.0f, 0.0f}, 50.0f));
    scene.setLight({{5.0f, 10.0f, 5.0f}, {1.0f, 1.0f, 1.0f}});
    const uint16_t diffuse =
        scene.addMaterial(rt::Material::diffuse({0.8f, 0.3f, 0.3f}));
    const uint16_t mirror =
        scene.addMaterial(rt::Material::mirror({0.9f, 0.9f, 0.95f}));
    rt::MeshBuilder mesh;
    mesh.addSphere({0.8f, 1.0f, 0.0f}, 0.9f, 12, diffuse);
    mesh.addSphere({-1.2f, 1.0f, -0.5f}, 0.8f, 12, mirror);
    mesh.addGroundPlane({0.0f, 0.0f, 0.0f}, 10.0f, 4, diffuse);
    scene.addTriangles(mesh.takeTriangles());
    rt::Bvh bvh;
    bvh.build(scene.triangles());
    rt::TracerParams params;
    params.samplesPerPixel = 2;
    const rt::Tracer tracer(scene, bvh, params);

    constexpr uint32_t kWidth = 23, kHeight = 17;
    ThreadPool pool(3);
    auto frame = std::make_shared<rt::FrameRayRecord>();
    tracer.render(kWidth, kHeight, &pool, frame.get());

    // A masked group in a scattered launch order, as the image-plane
    // division produces: every third pixel row-major, reversed.
    std::vector<PixelCoord> pixels;
    std::vector<bool> mask;
    for (uint32_t p = kWidth * kHeight; p-- > 0;) {
        if (p % 3 != 0)
            continue;
        pixels.push_back({p % kWidth, p / kWidth});
        mask.push_back(p % 2 == 0);
    }
    SimWorkload traced =
        SimWorkload::build(tracer, kWidth, kHeight, pixels, &mask);
    SimWorkload sliced =
        SimWorkload::build(tracer, kWidth, kHeight, pixels, &mask, frame);
    EXPECT_GT(traced.selectedCount, 0u);
    EXPECT_LT(traced.selectedCount, pixels.size());
    expectSameWorkload(traced, sliced);

    // The traced workload points into the record it owns; the sliced one
    // holds the frame record and points into it: no copy.
    expectPointsIntoStore(traced, nullptr);
    expectPointsIntoStore(sliced, frame);

    // A move carries each store with it: the new objects still point
    // into the stores they hold.
    const SimWorkload moved_traced = std::move(traced);
    SimWorkload moved_sliced;
    moved_sliced = std::move(sliced);
    expectSameWorkload(moved_traced, moved_sliced);
    expectPointsIntoStore(moved_traced, nullptr);
    expectPointsIntoStore(moved_sliced, frame);

    bool has_bounce = false;
    for (const ThreadWork &thread : moved_sliced.threads) {
        for (uint32_t r = 0; r < thread.rayCount; ++r)
            has_bounce |= thread.rays[r].bounce > 0;
    }
    EXPECT_TRUE(has_bounce) << "the mirror should add reflection rays";

    // The unmasked full frame, row-major.
    std::vector<PixelCoord> all;
    for (uint32_t y = 0; y < kHeight; ++y)
        for (uint32_t x = 0; x < kWidth; ++x)
            all.push_back({x, y});
    expectSameWorkload(
        SimWorkload::buildFullFrame(tracer, kWidth, kHeight),
        SimWorkload::build(tracer, kWidth, kHeight, all, nullptr, frame));
}

} // namespace
} // namespace zatel::gpusim
