/**
 * @file
 * Architecture-exploration scenario (the paper's Fig. 11 use case).
 *
 * An architect wants to know whether a proposed GPU (more SMs, wider RT
 * units) beats the Mobile SoC baseline on a path-traced workload -
 * WITHOUT waiting for a full cycle-level simulation of each design
 * point. Zatel predicts both designs; the oracle runs validate that the
 * predicted cross-architecture trends hold.
 *
 * Usage: arch_compare [resolution]
 */

#include <cstdio>
#include <vector>

#include "rt/bvh.hh"
#include "rt/scene_library.hh"
#include "util/numbers.hh"
#include "util/table.hh"
#include "zatel/predictor.hh"

int
main(int argc, char **argv)
{
    using namespace zatel;
    using gpusim::Metric;

    uint32_t resolution = 96;
    try {
        if (argc > 1) {
            resolution = static_cast<uint32_t>(
                parseUint(argv[1], "resolution", 1, UINT32_MAX));
        }
    } catch (const NumberError &err) {
        std::fprintf(stderr, "error: %s\n", err.what());
        return 1;
    }

    rt::Scene scene = rt::buildScene(rt::SceneId::Park);
    rt::Bvh bvh;
    bvh.build(scene.triangles());

    // Baseline and two early-stage design proposals.
    gpusim::GpuConfig baseline = gpusim::GpuConfig::mobileSoc();

    gpusim::GpuConfig more_sms = baseline;
    more_sms.name = "Proposal-A (2x SMs)";
    more_sms.numSms = 16;
    more_sms.numMemPartitions = 4;

    gpusim::GpuConfig wider_rt = baseline;
    wider_rt.name = "Proposal-B (2x RT width)";
    wider_rt.rtVisitsPerCycle = 8;
    wider_rt.rtMaxWarps = 8;

    core::ZatelParams params;
    params.width = resolution;
    params.height = resolution;

    AsciiTable table({"Design", "K", "Zatel cycles", "Oracle cycles",
                      "Zatel speedup vs base", "Oracle speedup vs base"});

    double base_pred = 0.0, base_oracle = 0.0;
    for (const gpusim::GpuConfig &config :
         std::vector<gpusim::GpuConfig>{baseline, more_sms, wider_rt}) {
        core::ZatelPredictor predictor(scene, bvh, config, params);
        std::printf("evaluating %-24s (K=%u)...\n", config.name.c_str(),
                    predictor.effectiveK());
        core::ZatelResult prediction = predictor.predict();
        core::OracleResult oracle = predictor.runOracle();

        double pred_cycles = prediction.metric(Metric::SimCycles);
        double oracle_cycles = oracle.stats.simCycles();
        if (base_pred == 0.0) {
            base_pred = pred_cycles;
            base_oracle = oracle_cycles;
        }
        table.addRow({config.name, std::to_string(predictor.effectiveK()),
                      AsciiTable::num(pred_cycles, 0),
                      AsciiTable::num(oracle_cycles, 0),
                      AsciiTable::num(base_pred / pred_cycles, 2) + "x",
                      AsciiTable::num(base_oracle / oracle_cycles, 2) +
                          "x"});
    }

    std::printf("\n%s", table.toString().c_str());
    std::printf("\nZatel preserves the relative ordering of design points "
                "(paper Section IV-B, Fig. 11):\nif the Zatel speedup "
                "column ranks the proposals the same way the oracle "
                "column does, the\nprediction is good enough to pick "
                "which design to simulate in detail.\n");
    return 0;
}
