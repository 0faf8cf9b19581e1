/**
 * @file
 * Tests that the LumiBench-analogue scenes exist and exhibit the heat
 * characters the paper's experiments rely on (see DESIGN.md).
 */

#include <gtest/gtest.h>

#include "rt/bvh.hh"
#include "rt/scene_library.hh"
#include "rt/tracer.hh"
#include "service/campaign.hh"

namespace zatel::rt
{
namespace
{

/** Functional statistics for a scene at low resolution. */
struct SceneStats
{
    double avgCost = 0.0;
    double hitFraction = 0.0;
};

SceneStats
profileScene(SceneId id, uint32_t res = 64)
{
    Scene scene = buildScene(id);
    Bvh bvh;
    bvh.build(scene.triangles());
    Tracer tracer(scene, bvh);
    RenderResult render = tracer.render(res, res);

    SceneStats stats;
    for (const PixelProfile &profile : render.profiles) {
        stats.avgCost += profile.cost();
        stats.hitFraction += profile.primaryHit ? 1.0 : 0.0;
    }
    stats.avgCost /= render.profiles.size();
    stats.hitFraction /= render.profiles.size();
    return stats;
}

TEST(SceneLibrary, AllScenesBuildNonEmpty)
{
    for (SceneId id : allScenes()) {
        Scene scene = buildScene(id);
        EXPECT_GT(scene.triangleCount(), 100u) << sceneName(id);
        EXPECT_GT(scene.materialCount(), 0u) << sceneName(id);
        EXPECT_FALSE(scene.name().empty());
    }
}

TEST(SceneLibrary, EightScenesInPaperOrder)
{
    std::vector<SceneId> scenes = allScenes();
    EXPECT_EQ(scenes.size(), 8u);
    EXPECT_EQ(scenes.front(), SceneId::Park);
}

TEST(SceneLibrary, NamesRoundTrip)
{
    for (SceneId id : allScenes()) {
        EXPECT_EQ(service::resolveSceneName(sceneName(id)), id);
        // Case-insensitive.
        std::string lower = sceneName(id);
        for (char &c : lower)
            c = static_cast<char>(std::tolower(c));
        EXPECT_EQ(service::resolveSceneName(lower), id);
    }
}

TEST(SceneLibrary, UnknownNameIsAnError)
{
    EXPECT_THROW(service::resolveSceneName("NOSUCH"),
                 service::CampaignError);
    EXPECT_THROW(service::resolveSceneName("PARKS"), service::CampaignError);
    EXPECT_THROW(service::resolveSceneName(""), service::CampaignError);
}

TEST(SceneLibrary, RepresentativeSubsetExcludesUnderutilizers)
{
    std::vector<SceneId> subset = representativeSubset();
    EXPECT_FALSE(subset.empty());
    for (SceneId id : subset) {
        EXPECT_NE(id, SceneId::Sprng);
        EXPECT_NE(id, SceneId::Ship);
    }
}

TEST(SceneLibrary, BuildDeterministic)
{
    Scene a = buildScene(SceneId::Wknd);
    Scene b = buildScene(SceneId::Wknd);
    ASSERT_EQ(a.triangleCount(), b.triangleCount());
    for (size_t i = 0; i < a.triangleCount(); i += 97)
        EXPECT_EQ(a.triangles()[i].v0, b.triangles()[i].v0);
}

TEST(SceneLibrary, DensityScalesTriangleCount)
{
    SceneDetail low{0.5f}, high{2.0f};
    Scene small = buildScene(SceneId::Chsnt, low);
    Scene big = buildScene(SceneId::Chsnt, high);
    EXPECT_LT(small.triangleCount(), big.triangleCount());
}

// ---- Heat-character assertions the paper's evaluation relies on ----

TEST(SceneCharacter, SprngUnderutilizes)
{
    // "Since there are only two objects in the scene, most rays end up
    // terminating early" (Section IV-D).
    SceneStats sprng = profileScene(SceneId::Sprng);
    EXPECT_LT(sprng.hitFraction, 0.25);
}

TEST(SceneCharacter, ParkIsTheHardestWorkload)
{
    SceneStats park = profileScene(SceneId::Park);
    for (SceneId other : {SceneId::Sprng, SceneId::Ship, SceneId::Wknd,
                          SceneId::Spnza}) {
        EXPECT_GT(park.avgCost, profileScene(other).avgCost)
            << "PARK should out-cost " << sceneName(other);
    }
}

TEST(SceneCharacter, SpnzaEveryRayHits)
{
    SceneStats spnza = profileScene(SceneId::Spnza);
    EXPECT_GT(spnza.hitFraction, 0.99);
}

TEST(SceneCharacter, ShipColderThanBunny)
{
    // Table III orders SHIP (coldest) < WKND < BUNNY (warmest) under a
    // shared normalization: compare average absolute cost directly.
    SceneStats ship = profileScene(SceneId::Ship);
    SceneStats bunny = profileScene(SceneId::Bunny);
    EXPECT_LT(ship.avgCost, bunny.avgCost);
}

TEST(SceneCharacter, BathHasDeepBounces)
{
    Scene bath = buildScene(SceneId::Bath);
    EXPECT_GE(bath.maxBounces(), 3);
    SceneStats stats = profileScene(SceneId::Bath);
    EXPECT_GT(stats.hitFraction, 0.95); // enclosed room
}

TEST(SceneCharacter, ParkUsesMultiBouncePaths)
{
    Scene park = buildScene(SceneId::Park);
    EXPECT_GE(park.maxBounces(), 2);
}

} // namespace
} // namespace zatel::rt
