// Acceptance-ratio study (extension experiment A8 in DESIGN.md): the
// schedulability-region view of the interface selection. For random
// systems at each total utilization, reports the fraction whose
// whole-tree selection is feasible, against the U <= 1 bound an ideal
// centralized EDF scheduler would accept. The gap is the price of
// hierarchical composition plus integer (Pi, Theta) quantization.
//
// A second sweep trades a bandwidth tolerance in the selection for
// larger server periods at 64 clients, recovering schedulable region.
//
//   $ ./bench/acceptance_ratio [--trials N] [--threads N]
#include <cstdio>

#include "analysis/tree_analysis.hpp"
#include "harness/bench_cli.hpp"
#include "harness/traffic_trial.hpp"
#include "stats/table.hpp"

using namespace bluescale;
using namespace bluescale::harness;

namespace {

/// Fraction of trials whose whole-tree selection is feasible for
/// `n_clients` at total `utilization` (Fig. 6's task shape: four tasks
/// per client, periods of 40-600 units); `mean_root_bw` gets the accepted
/// trials' mean root bandwidth.
double acceptance(const sweep_options& sweep, std::uint32_t n_clients,
                  double utilization, double* mean_root_bw,
                  double bandwidth_tolerance = 0.0) {
    const traffic_scenario sc = {
        .n_clients = n_clients,
        .util_lo = utilization,
        .util_hi = utilization,
    };
    const sweep_result r = run_sweep(sweep, "", [&](trial_record& rec) {
        rng gen(9000 + rec.index() * 131 + n_clients);
        analysis::analysis_context ctx;
        ctx.bandwidth_tolerance = bandwidth_tolerance;
        const auto sel = analysis::select_tree_interfaces(
            rt_view(draw_tasksets(sc, gen, n_clients)), ctx);
        if (!sel.feasible) return;
        rec.counter("accepted").inc();
        rec.sample("root_bw").add(sel.root_bandwidth);
    });
    const std::uint64_t accepted = r.totals.get("accepted").count;
    *mean_root_bw = accepted ? r.totals.get("root_bw").samples.sum() /
                                   static_cast<double>(accepted)
                             : 0.0;
    return static_cast<double>(accepted) / sweep.trials;
}

} // namespace

int main(int argc, char** argv) {
    bench_options defaults;
    defaults.trials = 20;
    const auto opts = parse_bench_cli(
        argc, argv, defaults,
        "Acceptance ratio of the whole-tree interface selection");
    const sweep_options sweep = sweep_from(opts);

    std::printf("Acceptance ratio of the whole-tree interface selection "
                "(vs the centralized-EDF U<=1 bound)\n\n");

    stats::table t({"total U", "16 clients", "root bw (16)", "64 clients",
                    "root bw (64)", "centralized EDF"});
    for (double u = 0.5; u <= 0.95 + 1e-9; u += 0.1) {
        double bw16 = 0, bw64 = 0;
        const double a16 = acceptance(sweep, 16, u, &bw16);
        const double a64 = acceptance(sweep, 64, u, &bw64);
        t.add_row({stats::table::num(u, 2), stats::table::pct(a16, 0),
                   stats::table::num(bw16, 3), stats::table::pct(a64, 0),
                   stats::table::num(bw64, 3),
                   u <= 1.0 ? "100%" : "0%"});
    }
    t.print();

    std::printf("\nSelection-strategy extension at 64 clients: strict "
                "minimum-bandwidth selection (the paper's algorithm)\n"
                "prefers tiny periods, whose server tasks force each "
                "parent level to overprovision (~7-10%%/level).\n"
                "Trading a small bandwidth tolerance for larger periods "
                "recovers schedulable region:\n");
    stats::table q({"bw tolerance", "accept @U=0.70", "accept @U=0.80",
                    "root bw @U=0.70"});
    for (double tol : {0.0, 0.05, 0.10, 0.25}) {
        double bw70 = 0, unused = 0;
        const double a70 = acceptance(sweep, 64, 0.70, &bw70, tol);
        const double a80 = acceptance(sweep, 64, 0.80, &unused, tol);
        q.add_row({stats::table::pct(tol, 0), stats::table::pct(a70, 0),
                   stats::table::pct(a80, 0),
                   stats::table::num(bw70, 3)});
    }
    q.print();
    return 0;
}
