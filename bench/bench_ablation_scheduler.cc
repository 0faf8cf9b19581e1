/**
 * @file
 * Ablation - warp scheduler policy (Table II lists Greedy-then-Oldest).
 *
 * Compares GTO against loose round-robin on the oracle runs, and checks
 * whether Zatel's prediction error is sensitive to the scheduling policy
 * of the simulated machine. Because Zatel wraps the simulator rather
 * than modelling the microarchitecture analytically (the paper's core
 * argument versus GCoM/MDM), an architectural change like the scheduler
 * needs no change to Zatel itself.
 */

#include <cstdio>

#include "bench_common.hh"
#include "util/table.hh"

int
main()
{
    using namespace zatel;
    using namespace zatel::bench;
    using gpusim::WarpSchedulerPolicy;

    BenchOptions options = benchOptions();
    printHeader("Ablation: warp scheduler policy (GTO vs loose "
                "round-robin)",
                options);

    AsciiTable table({"Scene", "GTO cycles", "LRR cycles", "GTO RT eff",
                      "LRR RT eff", "Zatel MAE (GTO)", "Zatel MAE (LRR)"});

    std::vector<rt::SceneId> scenes = {rt::SceneId::Park, rt::SceneId::Bunny,
                                       rt::SceneId::Spnza};
    if (options.quick)
        scenes.resize(2);

    for (rt::SceneId id : scenes) {
        PreparedScene prepared(id);
        std::vector<std::string> row{prepared.scene.name()};
        std::vector<std::string> maes;
        for (WarpSchedulerPolicy policy :
             {WarpSchedulerPolicy::GreedyThenOldest,
              WarpSchedulerPolicy::LooseRoundRobin}) {
            gpusim::GpuConfig config = gpusim::GpuConfig::mobileSoc();
            config.scheduler = policy;
            core::ZatelParams params = defaultParams(options);
            core::ZatelPredictor predictor(prepared.scene, prepared.bvh,
                                           config, params);
            core::ZatelResult result = predictor.predict();
            core::OracleResult oracle = predictor.runOracle();
            auto rows = core::compareToOracle(result.predicted, oracle.stats);
            row.push_back(AsciiTable::num(oracle.stats.simCycles(), 0));
            maes.push_back(AsciiTable::pct(core::maeOf(rows)));
            // stash RT efficiency right after cycles; reorder below
            row.push_back(AsciiTable::num(oracle.stats.rtEfficiency(), 2));
            std::printf("[%s/%s] done\n", prepared.scene.name().c_str(),
                        gpusim::warpSchedulerPolicyName(policy));
        }
        // row currently: scene, gto_cycles, gto_eff, lrr_cycles, lrr_eff
        table.addRow({row[0], row[1], row[3], row[2], row[4], maes[0],
                      maes[1]});
    }

    std::printf("\n%s", table.toString().c_str());
    std::printf("\nShape to check: the policies differ modestly in cycles "
                "(GTO favours locality, LRR fairness),\nand Zatel's "
                "prediction error is essentially unchanged - the "
                "methodology inherits whatever the\nunderlying simulator "
                "models, with no Zatel-side changes (paper Section I, "
                "contribution 2).\n");
    return 0;
}
