/**
 * @file
 * Procedural analogues of the LumiBench scenes the paper evaluates on
 * (Fig. 9). Each scene is engineered to reproduce the heat character the
 * paper describes, not the exact geometry (see DESIGN.md, Substitutions):
 *
 *  - PARK:  hardest path-traced scene; saturates the GPU (Section IV-B).
 *  - SPRNG: two objects only; most rays terminate early; under-utilizes
 *           the GPU and breaks linear extrapolation (Section IV-D).
 *  - BUNNY: dense object filling the view; uniformly warm (Table III).
 *  - SHIP:  coldest heatmap; sparse thin geometry over empty sky/sea.
 *  - WKND:  warm/cold mixture of many random spheres.
 *  - CHSNT: dense incoherent foliage clusters.
 *  - SPNZA: enclosed atrium; every ray hits; coherent and cheap.
 *  - BATH:  enclosed mirror-heavy room; the longest-running scene
 *           (Section IV-D, Fig. 14).
 */

#ifndef ZATEL_RT_SCENE_LIBRARY_HH
#define ZATEL_RT_SCENE_LIBRARY_HH

#include <vector>

#include "rt/scene.hh"

namespace zatel::rt
{

/** The LumiBench-analogue scene set. */
enum class SceneId
{
    Park,
    Sprng,
    Bunny,
    Chsnt,
    Spnza,
    Bath,
    Ship,
    Wknd,
};

/** Canonical upper-case name (as the paper spells them). */
const char *sceneName(SceneId id);

/** All eight scenes in paper order. */
std::vector<SceneId> allScenes();

/**
 * The representative subset LumiBench outlines (used by Fig. 17): the
 * scenes that adequately stress the GPU when divided into groups.
 */
std::vector<SceneId> representativeSubset();

/**
 * Scene-complexity knob for scene generation: scales soup/instance counts
 * so tests can run tiny scenes and benches medium ones.
 */
struct SceneDetail
{
    /** Multiplier on procedural element counts (1.0 = bench default). */
    float density = 1.0f;
};

/**
 * Build a scene by id.
 * @param seed Seed for the procedural generators (deterministic default).
 */
Scene buildScene(SceneId id, const SceneDetail &detail = {},
                 uint64_t seed = 0xC0FFEE);

} // namespace zatel::rt

#endif // ZATEL_RT_SCENE_LIBRARY_HH
