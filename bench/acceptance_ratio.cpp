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
//
// Trial t of a cell draws its task sets from seed 9000 + 131 t + the
// client count, so --seed does not apply. The trials build no testbench,
// so there is nothing for --metrics, --trace or --profile to export.
#include <cstdio>
#include <vector>

#include "analysis/tree_analysis.hpp"
#include "harness/bench_cli.hpp"
#include "harness/traffic_trial.hpp"
#include "stats/table.hpp"

using namespace bluescale;
using namespace bluescale::harness;

namespace {

/// The trials of `n_clients` at total `utilization` (Fig. 6's task
/// shape: four tasks per client, periods of 40-600 units), counting those
/// whose whole-tree selection is feasible.
sweep_cell acceptance_cell(std::uint32_t n_clients, double utilization,
                           double bandwidth_tolerance = 0.0) {
    const traffic_scenario sc = {
        .n_clients = n_clients,
        .util_lo = utilization,
        .util_hi = utilization,
    };
    return {"", [sc, bandwidth_tolerance](trial_record& rec) {
        rng gen(9000 + rec.index() * 131 + sc.n_clients);
        analysis::analysis_context ctx;
        ctx.bandwidth_tolerance = bandwidth_tolerance;
        const auto sel = analysis::select_tree_interfaces(
            rt_view(draw_tasksets(sc, gen, sc.n_clients)), ctx);
        if (!sel.feasible) return;
        rec.counter("accepted").inc();
        rec.sample("root_bw").add(sel.root_bandwidth);
    }};
}

/// Fraction of a cell's `trials` whose selection is feasible;
/// `mean_root_bw` gets the accepted trials' mean root bandwidth.
double acceptance(const sweep_result& r, std::uint32_t trials,
                  double* mean_root_bw) {
    const std::uint64_t accepted = r.totals.get("accepted").count;
    *mean_root_bw = accepted ? r.totals.get("root_bw").samples.sum() /
                                   static_cast<double>(accepted)
                             : 0.0;
    return static_cast<double>(accepted) / trials;
}

} // namespace

int main(int argc, char** argv) {
    bench_options defaults;
    defaults.trials = 20;
    const auto opts = parse_bench_cli(
        argc, argv, defaults,
        "Acceptance ratio of the whole-tree interface selection",
        flag_trials | flag_threads);
    std::printf("Acceptance ratio of the whole-tree interface selection "
                "(vs the centralized-EDF U<=1 bound)\n\n");

    // Both tables' cells on one grid: per total U, 16 then 64 clients;
    // then per tolerance, U 0.70 then 0.80 at 64 clients.
    std::vector<double> utils;
    for (double u = 0.5; u <= 0.95 + 1e-9; u += 0.1) utils.push_back(u);
    constexpr double k_tolerances[] = {0.0, 0.05, 0.10, 0.25};
    std::vector<sweep_cell> cells;
    for (double u : utils) {
        cells.push_back(acceptance_cell(16, u));
        cells.push_back(acceptance_cell(64, u));
    }
    for (double tol : k_tolerances) {
        cells.push_back(acceptance_cell(64, 0.70, tol));
        cells.push_back(acceptance_cell(64, 0.80, tol));
    }
    const auto results =
        run_sweep({.trials = opts.trials, .threads = opts.threads}, cells);
    const sweep_result* next = results.data();

    stats::table t({"total U", "16 clients", "root bw (16)", "64 clients",
                    "root bw (64)", "centralized EDF"});
    for (double u : utils) {
        double bw16 = 0, bw64 = 0;
        const double a16 = acceptance(*next++, opts.trials, &bw16);
        const double a64 = acceptance(*next++, opts.trials, &bw64);
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
    for (double tol : k_tolerances) {
        double bw70 = 0, unused = 0;
        const double a70 = acceptance(*next++, opts.trials, &bw70);
        const double a80 = acceptance(*next++, opts.trials, &unused);
        q.add_row({stats::table::pct(tol, 0), stats::table::pct(a70, 0),
                   stats::table::pct(a80, 0),
                   stats::table::num(bw70, 3)});
    }
    q.print();
    return 0;
}
