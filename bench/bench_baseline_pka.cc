/**
 * @file
 * Baseline comparison - Zatel vs a PKA/PKP-style early-termination
 * predictor (paper Section IV-B).
 *
 * The paper argues Principal Kernel Projection would "stop the
 * simulation too early, outputting a value with high error" on
 * workloads with highly divergent rays (reflective scenes). This bench
 * runs both predictors against the oracle on every scene and reports
 * MAE and speedup side by side. Shapes to check: PKP's error spikes on
 * the divergent multi-bounce scenes (PARK, BATH, WKND) where the warp
 * mix keeps shifting after the IPC first looks stable, while Zatel's
 * heatmap-driven sampling stays consistent.
 */

#include <cstdio>

#include "bench_common.hh"
#include "util/table.hh"
#include "zatel/baseline_pkp.hh"

int
main()
{
    using namespace zatel;
    using namespace zatel::bench;

    BenchOptions options = benchOptions();
    printHeader("Baseline: Zatel vs PKA-style projection (Section IV-B)",
                options);

    gpusim::GpuConfig config = gpusim::GpuConfig::mobileSoc();
    AsciiTable table({"Scene", "Zatel MAE", "PKP MAE", "Zatel cycles err",
                      "PKP cycles err", "Zatel speedup", "PKP speedup",
                      "PKP work simulated"});

    for (rt::SceneId id : benchScenes(options)) {
        PreparedScene prepared(id);
        core::ZatelParams params = defaultParams(options);
        // One render serves all three: Zatel's heatmap, and the frame
        // ray record that the oracle and PKP slice, so neither of them
        // times a trace of the frame.
        SceneRender render = renderScene(prepared, params);
        core::ZatelPredictor predictor(prepared.scene, prepared.bvh,
                                       config, params);
        predictor.setPrebuiltHeatmap(render.map, render.rays);
        core::ZatelResult zatel = predictor.predict();
        std::printf("[%s] oracle...\n", prepared.scene.name().c_str());
        core::OracleResult oracle = predictor.runOracle();
        auto zatel_rows =
            core::compareToOracle(zatel.predicted, oracle.stats);

        rt::TracerParams tracer_params;
        tracer_params.samplesPerPixel = options.samplesPerPixel;
        rt::Tracer tracer(prepared.scene, prepared.bvh, tracer_params);
        core::PkpParams pkp_params;
        pkp_params.width = options.resolution;
        pkp_params.height = options.resolution;
        pkp_params.samplesPerPixel = options.samplesPerPixel;
        core::PkpResult pkp =
            core::runPkpBaseline(config, tracer, pkp_params, render.rays);
        auto pkp_rows = core::compareToOracle(pkp.predicted, oracle.stats);

        table.addRow(
            {prepared.scene.name(), AsciiTable::pct(core::maeOf(zatel_rows)),
             AsciiTable::pct(core::maeOf(pkp_rows)),
             AsciiTable::pct(core::errorOf(zatel_rows,
                                           gpusim::Metric::SimCycles)),
             AsciiTable::pct(core::errorOf(pkp_rows,
                                           gpusim::Metric::SimCycles)),
             AsciiTable::num(oracle.cpuSeconds /
                                 (zatel.maxGroupCpuSeconds + 1e-9),
                             1) +
                 "x",
             AsciiTable::num(oracle.cpuSeconds / (pkp.cpuSeconds + 1e-9),
                             1) +
                 "x",
             AsciiTable::pct(pkp.workFractionCompleted * 100.0, 0)});
        std::printf("[%s] done (PKP simulated %.0f%% of the work)\n",
                    prepared.scene.name().c_str(),
                    pkp.workFractionCompleted * 100.0);
    }

    std::printf("\n%s", table.toString().c_str());
    std::printf("\nPaper reference (qualitative, Section IV-B): PKP's "
                "stability detector fires before divergent\nscenes settle, "
                "so its error exceeds Zatel's on the reflective/path-traced "
                "workloads while its\nspeedup is capped by running the "
                "full-size GPU serially. GCoM (not implementable here - a\n"
                "full analytical model) reports 26.7%% MAE at 7.6x on "
                "general GPGPU workloads.\n");
    return 0;
}
