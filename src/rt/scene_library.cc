#include "rt/scene_library.hh"

#include <algorithm>
#include <cmath>

#include "rt/mesh.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace zatel::rt
{

namespace
{

int
scaled(int base, float density)
{
    return std::max(1, static_cast<int>(std::lround(base * density)));
}

/**
 * PARK: large outdoor path-traced scene — ground, many trees, mirror pond
 * and mirror ornaments; 3 bounces. Nearly every pixel hits geometry and
 * mirror paths re-traverse the BVH, so the GPU saturates (paper IV-B).
 */
Scene
buildPark(const SceneDetail &detail, uint64_t seed)
{
    Rng rng(seed ^ 0x9A7Bull);
    Scene scene("PARK");
    scene.setMaxBounces(3);
    scene.setBackground({0.35f, 0.45f, 0.65f});
    scene.setLight({{18.0f, 40.0f, 24.0f}, {1.15f, 1.1f, 1.0f}});
    scene.setCamera(Camera({0.0f, 7.0f, 26.0f}, {0.0f, 2.5f, 0.0f},
                           {0.0f, 1.0f, 0.0f}, 55.0f));

    uint16_t grass = scene.addMaterial(Material::diffuse({0.25f, 0.5f, 0.2f}));
    uint16_t bark = scene.addMaterial(Material::diffuse({0.35f, 0.25f, 0.15f}));
    uint16_t leaf = scene.addMaterial(Material::diffuse({0.15f, 0.45f, 0.12f}));
    uint16_t water = scene.addMaterial(Material::mirror({0.6f, 0.75f, 0.9f},
                                                        0.85f));
    uint16_t chrome = scene.addMaterial(Material::mirror({0.9f, 0.9f, 0.95f},
                                                         0.9f));
    uint16_t stone = scene.addMaterial(Material::diffuse({0.5f, 0.5f, 0.52f}));

    MeshBuilder mesh;
    mesh.addTerrain(rng, {0.0f, 0.0f, 0.0f}, 30.0f, scaled(20, detail.density),
                    0.4f, grass);

    // Mirror pond in front of the camera.
    mesh.addQuad({-8.0f, 0.45f, 6.0f}, {8.0f, 0.45f, 6.0f},
                 {8.0f, 0.45f, 18.0f}, {-8.0f, 0.45f, 18.0f}, water);

    // Ring of trees: trunk cone + canopy soup.
    int trees = scaled(14, detail.density);
    for (int i = 0; i < trees; ++i) {
        float angle = 2.0f * static_cast<float>(M_PI) * i / trees;
        float radius = 12.0f + static_cast<float>(rng.nextDouble(0.0, 10.0));
        Vec3 base{radius * std::cos(angle), 0.3f, radius * std::sin(angle)};
        float height = 4.0f + static_cast<float>(rng.nextDouble(0.0, 3.0));
        mesh.addCone(base, 0.7f, height, 8, bark);
        mesh.addTriangleSoup(rng, base + Vec3{0.0f, height + 1.2f, 0.0f},
                             2.2f, scaled(260, detail.density), 0.5f, leaf);
    }

    // Chrome garden ornaments near the pond edge (mirror bounce sources).
    for (int i = 0; i < scaled(4, detail.density); ++i) {
        Vec3 center{-6.0f + 4.0f * i, 1.6f, 3.5f};
        mesh.addSphere(center, 1.1f, 10, chrome);
    }

    // Stone benches.
    for (int i = 0; i < scaled(5, detail.density); ++i) {
        float x = -10.0f + 5.0f * i;
        mesh.addBox({x, 0.4f, -4.0f}, {x + 2.2f, 1.1f, -2.8f}, stone);
    }

    scene.addTriangles(mesh.takeTriangles());
    return scene;
}

/**
 * SPRNG: only two objects in an empty world. Most rays exit after the root
 * test, the GPU never saturates, and cycle counts barely change with the
 * traced-pixel percentage (the Fig. 13 outlier).
 */
Scene
buildSprng(const SceneDetail &detail, uint64_t seed)
{
    Rng rng(seed ^ 0x51B2ull);
    Scene scene("SPRNG");
    scene.setMaxBounces(1);
    scene.setBackground({0.02f, 0.03f, 0.06f});
    scene.setLight({{10.0f, 18.0f, 10.0f}, {1.2f, 1.2f, 1.15f}});
    scene.setCamera(Camera({0.0f, 1.5f, 14.0f}, {0.0f, 0.5f, 0.0f},
                           {0.0f, 1.0f, 0.0f}, 50.0f));

    uint16_t coil = scene.addMaterial(Material::diffuse({0.7f, 0.45f, 0.2f}));
    uint16_t ball = scene.addMaterial(Material::diffuse({0.3f, 0.4f, 0.75f}));

    MeshBuilder mesh;
    // A coiled "spring": stacked tori approximated by rings of small
    // spheres, and a companion ball. Both are small in the frame.
    int rings = scaled(6, detail.density);
    for (int r = 0; r < rings; ++r) {
        float y = -1.2f + 0.5f * r;
        int beads = 14;
        for (int b = 0; b < beads; ++b) {
            float angle = 2.0f * static_cast<float>(M_PI) * b / beads +
                          0.3f * r;
            Vec3 center{-2.2f + 1.3f * std::cos(angle), y,
                        1.3f * std::sin(angle)};
            mesh.addSphere(center, 0.22f, 6, coil);
        }
    }
    mesh.addSphere({2.6f, 0.4f, 0.0f}, 1.3f, 14, ball);
    (void)rng;

    scene.addTriangles(mesh.takeTriangles());
    return scene;
}

/**
 * BUNNY: one dense organic object filling most of the view over a small
 * pedestal; uniformly warm heatmap (the warmest Table III scene).
 */
Scene
buildBunny(const SceneDetail &detail, uint64_t seed)
{
    Rng rng(seed ^ 0xB0BAull);
    Scene scene("BUNNY");
    scene.setMaxBounces(1);
    scene.setBackground({0.07f, 0.08f, 0.1f});
    scene.setLight({{6.0f, 12.0f, 9.0f}, {1.1f, 1.05f, 1.0f}});
    scene.setCamera(Camera({0.0f, 2.4f, 6.2f}, {0.0f, 1.8f, 0.0f},
                           {0.0f, 1.0f, 0.0f}, 52.0f));

    uint16_t fur = scene.addMaterial(Material::diffuse({0.75f, 0.7f, 0.62f}));
    uint16_t base = scene.addMaterial(Material::diffuse({0.4f, 0.38f, 0.36f}));

    MeshBuilder mesh;
    int res = scaled(22, detail.density);
    res = std::max(8, res);
    // Body, haunches, head, ears — a blobby bunny silhouette.
    mesh.addSphere({0.0f, 1.2f, 0.0f}, 1.5f, res, fur);
    mesh.addSphere({-0.9f, 0.8f, 0.3f}, 0.9f, res, fur);
    mesh.addSphere({0.9f, 0.8f, 0.3f}, 0.9f, res, fur);
    mesh.addSphere({0.0f, 2.9f, 0.35f}, 0.85f, res, fur);
    mesh.addCone({-0.35f, 3.4f, 0.3f}, 0.28f, 1.5f, 10, fur);
    mesh.addCone({0.4f, 3.4f, 0.3f}, 0.28f, 1.5f, 10, fur);
    // Fuzzy surface detail increases leaf-level work on the object.
    mesh.addTriangleSoup(rng, {0.0f, 1.6f, 0.0f}, 1.9f,
                         scaled(900, detail.density), 0.16f, fur);
    mesh.addBox({-2.4f, -0.4f, -2.0f}, {2.4f, 0.1f, 2.0f}, base);

    scene.addTriangles(mesh.takeTriangles());
    return scene;
}

/**
 * CHSNT: a chestnut tree with a dense, spatially incoherent canopy over
 * open ground; warm clusters with divergent traversal inside the canopy.
 */
Scene
buildChsnt(const SceneDetail &detail, uint64_t seed)
{
    Rng rng(seed ^ 0xC4E5ull);
    Scene scene("CHSNT");
    scene.setMaxBounces(1);
    scene.setBackground({0.3f, 0.4f, 0.55f});
    scene.setLight({{-14.0f, 30.0f, 16.0f}, {1.1f, 1.05f, 0.95f}});
    scene.setCamera(Camera({0.0f, 4.0f, 18.0f}, {0.0f, 5.0f, 0.0f},
                           {0.0f, 1.0f, 0.0f}, 55.0f));

    uint16_t grass = scene.addMaterial(Material::diffuse({0.3f, 0.5f, 0.25f}));
    uint16_t bark = scene.addMaterial(Material::diffuse({0.3f, 0.2f, 0.12f}));
    uint16_t leaf = scene.addMaterial(Material::diffuse({0.2f, 0.42f, 0.1f}));

    MeshBuilder mesh;
    mesh.addGroundPlane({0.0f, 0.0f, 0.0f}, 24.0f,
                        scaled(12, detail.density), grass);
    mesh.addCone({0.0f, 0.0f, 0.0f}, 1.1f, 7.0f, 10, bark);
    // Three overlapping canopy blobs of fine triangles.
    mesh.addTriangleSoup(rng, {0.0f, 8.5f, 0.0f}, 4.5f,
                         scaled(2400, detail.density), 0.5f, leaf);
    mesh.addTriangleSoup(rng, {-2.5f, 7.0f, 1.0f}, 2.8f,
                         scaled(1100, detail.density), 0.45f, leaf);
    mesh.addTriangleSoup(rng, {2.6f, 7.4f, -0.8f}, 2.6f,
                         scaled(1100, detail.density), 0.45f, leaf);

    scene.addTriangles(mesh.takeTriangles());
    return scene;
}

/**
 * SPNZA: enclosed atrium (floor, walls, colonnades). Every ray hits nearby
 * coherent geometry, so traversal is short and uniform.
 */
Scene
buildSpnza(const SceneDetail &detail, uint64_t seed)
{
    Rng rng(seed ^ 0x59A2ull);
    Scene scene("SPNZA");
    scene.setMaxBounces(1);
    scene.setBackground({0.05f, 0.05f, 0.05f});
    scene.setLight({{0.0f, 11.0f, 0.0f}, {1.3f, 1.25f, 1.1f}});
    scene.setCamera(Camera({0.0f, 4.5f, 13.0f}, {0.0f, 3.5f, 0.0f},
                           {0.0f, 1.0f, 0.0f}, 60.0f));

    uint16_t plaster = scene.addMaterial(
        Material::diffuse({0.7f, 0.62f, 0.5f}));
    uint16_t column = scene.addMaterial(
        Material::diffuse({0.62f, 0.55f, 0.45f}));
    uint16_t floor = scene.addMaterial(Material::diffuse({0.45f, 0.4f, 0.35f}));
    uint16_t drape = scene.addMaterial(Material::diffuse({0.5f, 0.15f, 0.12f}));

    MeshBuilder mesh;
    int cells = scaled(10, detail.density);
    mesh.addGroundPlane({0.0f, 0.0f, 0.0f}, 16.0f, cells, floor);
    // Walls (interior faces of a big box shell).
    mesh.addBox({-16.0f, 0.0f, -16.0f}, {-15.0f, 12.0f, 16.0f}, plaster);
    mesh.addBox({15.0f, 0.0f, -16.0f}, {16.0f, 12.0f, 16.0f}, plaster);
    mesh.addBox({-16.0f, 0.0f, -16.0f}, {16.0f, 12.0f, -15.0f}, plaster);
    mesh.addBox({-16.0f, 11.0f, -16.0f}, {16.0f, 12.0f, 16.0f}, plaster);

    // Two colonnade rows.
    int columns = scaled(7, detail.density);
    for (int i = 0; i < columns; ++i) {
        float z = -12.0f + 24.0f * i / std::max(1, columns - 1);
        mesh.addBox({-9.5f, 0.0f, z - 0.6f}, {-8.3f, 8.0f, z + 0.6f}, column);
        mesh.addBox({8.3f, 0.0f, z - 0.6f}, {9.5f, 8.0f, z + 0.6f}, column);
    }
    // Hanging drapes.
    for (int i = 0; i < scaled(4, detail.density); ++i) {
        float z = -9.0f + 6.0f * i;
        mesh.addQuad({-7.5f, 8.5f, z}, {-7.5f, 3.5f, z}, {-6.0f, 3.5f, z},
                     {-6.0f, 8.5f, z}, drape);
    }
    (void)rng;

    scene.addTriangles(mesh.takeTriangles());
    return scene;
}

/**
 * BATH: small enclosed bathroom with two mirror walls and 4 bounces; the
 * longest-running scene per traced pixel (Fig. 14's steepest slope).
 */
Scene
buildBath(const SceneDetail &detail, uint64_t seed)
{
    Rng rng(seed ^ 0xBA7Bull);
    Scene scene("BATH");
    scene.setMaxBounces(5);
    scene.setBackground({0.02f, 0.02f, 0.02f});
    scene.setLight({{0.0f, 5.2f, 0.0f}, {1.2f, 1.2f, 1.15f}});
    scene.setCamera(Camera({0.0f, 2.6f, 5.4f}, {0.0f, 2.0f, -2.0f},
                           {0.0f, 1.0f, 0.0f}, 62.0f));

    uint16_t tile = scene.addMaterial(Material::diffuse({0.75f, 0.78f, 0.8f}));
    uint16_t mirror = scene.addMaterial(
        Material::mirror({0.92f, 0.93f, 0.95f}, 0.92f));
    uint16_t ceramic = scene.addMaterial(
        Material::diffuse({0.85f, 0.85f, 0.82f}));
    uint16_t brass = scene.addMaterial(
        Material::mirror({0.8f, 0.65f, 0.3f}, 0.7f));
    uint16_t polish = scene.addMaterial(
        Material::mirror({0.8f, 0.82f, 0.85f}, 0.75f));

    // A polished (mirror) floor plus three mirror walls: nearly every
    // path bounces several times, making BATH the longest-running scene
    // per traced pixel (the paper's Fig. 14 observation).
    MeshBuilder mesh;
    int cells = scaled(8, detail.density);
    mesh.addGroundPlane({0.0f, 0.0f, 0.0f}, 6.0f, cells, polish);
    mesh.addGroundPlane({0.0f, 6.0f, 0.0f}, 6.0f, cells, tile); // ceiling
    mesh.addQuad({-6.0f, 0.0f, -6.0f}, {6.0f, 0.0f, -6.0f},
                 {6.0f, 6.0f, -6.0f}, {-6.0f, 6.0f, -6.0f}, mirror);
    mesh.addQuad({6.0f, 0.0f, -6.0f}, {6.0f, 0.0f, 6.0f},
                 {6.0f, 6.0f, 6.0f}, {6.0f, 6.0f, -6.0f}, mirror);
    mesh.addQuad({-6.0f, 0.0f, 6.0f}, {-6.0f, 0.0f, -6.0f},
                 {-6.0f, 6.0f, -6.0f}, {-6.0f, 6.0f, 6.0f}, mirror);
    mesh.addQuad({6.0f, 0.0f, 6.0f}, {-6.0f, 0.0f, 6.0f},
                 {-6.0f, 6.0f, 6.0f}, {6.0f, 6.0f, 6.0f}, tile);

    // Bathtub, sink pedestal, fixtures.
    mesh.addBox({-3.6f, 0.0f, -4.8f}, {-0.4f, 1.2f, -2.6f}, ceramic);
    mesh.addBox({2.0f, 0.0f, -4.6f}, {3.6f, 1.6f, -3.2f}, ceramic);
    mesh.addSphere({2.8f, 2.0f, -3.9f}, 0.35f, 10, brass);
    for (int i = 0; i < scaled(3, detail.density); ++i) {
        float x = -3.0f + 1.2f * i;
        mesh.addSphere({x, 1.5f, -3.7f}, 0.28f, 8, brass);
    }
    (void)rng;

    scene.addTriangles(mesh.takeTriangles());
    return scene;
}

/**
 * SHIP: the coldest heatmap — a small ship on a flat sea under empty sky.
 * Most pixels either miss everything or hit the trivially flat sea.
 */
Scene
buildShip(const SceneDetail &detail, uint64_t seed)
{
    Rng rng(seed ^ 0x5819ull);
    Scene scene("SHIP");
    scene.setMaxBounces(1);
    scene.setBackground({0.5f, 0.6f, 0.75f});
    scene.setLight({{30.0f, 40.0f, 20.0f}, {1.15f, 1.1f, 1.0f}});
    scene.setCamera(Camera({0.0f, 6.0f, 30.0f}, {0.0f, 3.0f, 0.0f},
                           {0.0f, 1.0f, 0.0f}, 50.0f));

    uint16_t sea = scene.addMaterial(Material::diffuse({0.1f, 0.25f, 0.4f}));
    uint16_t hull = scene.addMaterial(Material::diffuse({0.35f, 0.2f, 0.12f}));
    uint16_t sail = scene.addMaterial(Material::diffuse({0.85f, 0.83f, 0.75f}));
    uint16_t mast = scene.addMaterial(Material::diffuse({0.3f, 0.22f, 0.15f}));

    MeshBuilder mesh;
    mesh.addGroundPlane({0.0f, 0.0f, 0.0f}, 60.0f, scaled(8, detail.density),
                        sea);
    // Hull with a stepped profile.
    mesh.addBox({-5.0f, 0.4f, -2.0f}, {5.0f, 2.2f, 2.0f}, hull);
    mesh.addBox({-6.2f, 1.2f, -1.2f}, {-5.0f, 2.6f, 1.2f}, hull);
    mesh.addBox({5.0f, 1.2f, -1.2f}, {6.4f, 3.0f, 1.2f}, hull);
    // Masts and yardarms (thin geometry, expensive BVH around them).
    for (int i = 0; i < 3; ++i) {
        float x = -3.0f + 3.0f * i;
        mesh.addBox({x - 0.12f, 2.2f, -0.12f}, {x + 0.12f, 11.0f, 0.12f},
                    mast);
        mesh.addBox({x - 2.2f, 8.0f, -0.08f}, {x + 2.2f, 8.25f, 0.08f},
                    mast);
        mesh.addQuad({x - 2.0f, 8.0f, 0.1f}, {x + 2.0f, 8.0f, 0.1f},
                     {x + 1.4f, 4.0f, 0.3f}, {x - 1.4f, 4.0f, 0.3f}, sail);
    }
    // Rigging dots.
    for (int i = 0; i < scaled(12, detail.density); ++i) {
        float x = static_cast<float>(rng.nextDouble(-6.0, 6.0));
        float y = static_cast<float>(rng.nextDouble(3.0, 10.0));
        mesh.addSphere({x, y, 0.0f}, 0.1f, 4, mast);
    }

    scene.addTriangles(mesh.takeTriangles());
    return scene;
}

/**
 * WKND: a "ray tracing in one weekend"-style field of random spheres with
 * a few mirrors: a genuine warm/cold mixture (the Table III middle case).
 */
Scene
buildWknd(const SceneDetail &detail, uint64_t seed)
{
    Rng rng(seed ^ 0x3EE7ull);
    Scene scene("WKND");
    scene.setMaxBounces(2);
    scene.setBackground({0.55f, 0.65f, 0.8f});
    scene.setLight({{12.0f, 25.0f, 15.0f}, {1.1f, 1.08f, 1.0f}});
    scene.setCamera(Camera({0.0f, 3.2f, 16.0f}, {0.0f, 1.0f, 0.0f},
                           {0.0f, 1.0f, 0.0f}, 50.0f));

    uint16_t ground = scene.addMaterial(
        Material::diffuse({0.45f, 0.45f, 0.4f}));
    MeshBuilder mesh;
    mesh.addGroundPlane({0.0f, 0.0f, 0.0f}, 30.0f, scaled(10, detail.density),
                        ground);

    int spheres = scaled(48, detail.density);
    for (int i = 0; i < spheres; ++i) {
        Vec3 center{static_cast<float>(rng.nextDouble(-14.0, 14.0)),
                    0.0f,
                    static_cast<float>(rng.nextDouble(-14.0, 8.0))};
        float radius = 0.4f + static_cast<float>(rng.nextDouble(0.0, 1.1));
        center.y = radius;
        uint16_t mat;
        double roll = rng.nextDouble();
        if (roll < 0.22) {
            mat = scene.addMaterial(Material::mirror(
                {0.85f, 0.85f, 0.9f},
                0.75f + static_cast<float>(rng.nextDouble(0.0, 0.2))));
        } else {
            mat = scene.addMaterial(Material::diffuse(
                {static_cast<float>(rng.nextDouble(0.1, 0.9)),
                 static_cast<float>(rng.nextDouble(0.1, 0.9)),
                 static_cast<float>(rng.nextDouble(0.1, 0.9))}));
        }
        mesh.addSphere(center, radius, 10, mat);
    }
    // Three hero spheres.
    uint16_t hero = scene.addMaterial(Material::mirror({0.9f, 0.9f, 0.92f},
                                                       0.9f));
    uint16_t matte = scene.addMaterial(Material::diffuse({0.6f, 0.3f, 0.25f}));
    mesh.addSphere({-3.5f, 1.8f, 0.0f}, 1.8f, 16, hero);
    mesh.addSphere({0.0f, 1.8f, -2.0f}, 1.8f, 16, matte);
    mesh.addSphere({3.5f, 1.8f, 0.0f}, 1.8f, 16, hero);

    scene.addTriangles(mesh.takeTriangles());
    return scene;
}

} // namespace

const char *
sceneName(SceneId id)
{
    switch (id) {
      case SceneId::Park: return "PARK";
      case SceneId::Sprng: return "SPRNG";
      case SceneId::Bunny: return "BUNNY";
      case SceneId::Chsnt: return "CHSNT";
      case SceneId::Spnza: return "SPNZA";
      case SceneId::Bath: return "BATH";
      case SceneId::Ship: return "SHIP";
      case SceneId::Wknd: return "WKND";
    }
    panic("unknown SceneId");
}

std::vector<SceneId>
allScenes()
{
    return {SceneId::Park, SceneId::Sprng, SceneId::Bunny, SceneId::Chsnt,
            SceneId::Spnza, SceneId::Bath, SceneId::Ship, SceneId::Wknd};
}

std::vector<SceneId>
representativeSubset()
{
    // Scenes that keep the GPU busy even when split into groups; SPRNG
    // and SHIP are deliberately excluded (paper Section IV-E).
    return {SceneId::Park, SceneId::Bunny, SceneId::Chsnt, SceneId::Spnza,
            SceneId::Bath};
}

Scene
buildScene(SceneId id, const SceneDetail &detail, uint64_t seed)
{
    switch (id) {
      case SceneId::Park: return buildPark(detail, seed);
      case SceneId::Sprng: return buildSprng(detail, seed);
      case SceneId::Bunny: return buildBunny(detail, seed);
      case SceneId::Chsnt: return buildChsnt(detail, seed);
      case SceneId::Spnza: return buildSpnza(detail, seed);
      case SceneId::Bath: return buildBath(detail, seed);
      case SceneId::Ship: return buildShip(detail, seed);
      case SceneId::Wknd: return buildWknd(detail, seed);
    }
    panic("unknown SceneId");
}

} // namespace zatel::rt
