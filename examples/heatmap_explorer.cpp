/**
 * @file
 * Heatmap exploration: Zatel's preprocessing stage, visualized.
 *
 * Renders every LumiBench-analogue scene, writes three PPM images per
 * scene (the rendered image, the execution-time heatmap and its K-Means
 * quantized form - paper Fig. 4), and prints per-scene heat statistics,
 * including the equation-(1) trace fraction Zatel would choose.
 *
 * Usage: heatmap_explorer [output_dir] [resolution]
 */

#include <cstdio>
#include <string>

#include "heatmap/heatmap.hh"
#include "rt/bvh.hh"
#include "rt/scene_library.hh"
#include "rt/tracer.hh"
#include "util/numbers.hh"
#include "util/table.hh"
#include "zatel/pixel_selector.hh"

int
main(int argc, char **argv)
{
    using namespace zatel;

    std::string out_dir = argc > 1 ? argv[1] : ".";
    uint32_t resolution = 128;
    try {
        if (argc > 2) {
            resolution = static_cast<uint32_t>(
                parseUint(argv[2], "resolution", 1, UINT32_MAX));
        }
    } catch (const NumberError &err) {
        std::fprintf(stderr, "error: %s\n", err.what());
        return 1;
    }

    AsciiTable table({"Scene", "Triangles", "Avg cost/pixel", "Avg temp",
                      "Hit rate", "Palette", "eq(1) fraction"});

    for (rt::SceneId id : rt::allScenes()) {
        rt::Scene scene = rt::buildScene(id);
        rt::Bvh bvh;
        bvh.build(scene.triangles());
        rt::Tracer tracer(scene, bvh);
        rt::RenderResult render = tracer.render(resolution, resolution);

        heatmap::Heatmap map = heatmap::Heatmap::fromRender(render);
        heatmap::QuantizedHeatmap quantized =
            heatmap::QuantizedHeatmap::quantize(map, 8);

        std::string base = out_dir + "/" + scene.name();
        render.image.writePpm(base + "_render.ppm");
        map.writePpm(base + "_heatmap.ppm");
        quantized.writePpm(base + "_quantized.ppm");

        double total_cost = 0.0, hits = 0.0;
        for (const rt::PixelProfile &profile : render.profiles) {
            total_cost += profile.cost();
            hits += profile.primaryHit ? 1.0 : 0.0;
        }

        // The whole image as one group: what fraction would Zatel trace?
        core::PixelGroup group;
        for (uint32_t y = 0; y < resolution; ++y)
            for (uint32_t x = 0; x < resolution; ++x)
                group.push_back({x, y});
        double fraction =
            core::equationOneFraction(group, quantized, 0.3, 0.6);

        table.addRow(
            {scene.name(), std::to_string(scene.triangleCount()),
             AsciiTable::num(total_cost / render.profiles.size(), 1),
             AsciiTable::num(map.averageTemperature(), 3),
             AsciiTable::pct(100.0 * hits / render.profiles.size()),
             std::to_string(quantized.paletteSize()),
             AsciiTable::pct(fraction * 100.0)});
        std::printf("wrote %s_{render,heatmap,quantized}.ppm\n",
                    base.c_str());
    }

    std::printf("\n%s", table.toString().c_str());
    std::printf("\nWarm scenes (high avg temp) saturate the GPU and "
                "predict accurately with fewer pixels;\ncold scenes "
                "(SPRNG, SHIP) under-utilize it, which is exactly where "
                "the paper reports the\nhighest Zatel errors (Sections "
                "IV-C and IV-D).\n");
    return 0;
}
