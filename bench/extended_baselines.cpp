// Extended baseline comparison (beyond the paper's six): adds
// AXI-HyperConnect [15] -- fair round-robin with per-client outstanding
// caps -- to the Fig. 6 synthetic-workload experiment, locating it
// between the heuristic trees and the deadline-aware designs.
//
//   $ ./bench/extended_baselines [--trials N] [--cycles N] [--threads N]
//                                [--seed N] [--csv out.csv]
//                                [--metrics out.csv] [--trace out.json]
//                                [--profile] [--lockstep]
//
// --csv dumps one row per design; --metrics and --trace export the last
// design (AXI-HyperConnect).
#include <cstdio>

#include "harness/bench_cli.hpp"
#include "harness/fig6_experiment.hpp"

using namespace bluescale;
using namespace bluescale::harness;

int main(int argc, char** argv) {
    bench_options defaults;
    defaults.trials = 8;
    defaults.measure_cycles = 60'000;
    const auto opts = parse_bench_cli(
        argc, argv, defaults,
        "Extended baselines: the paper's six plus AXI-HyperConnect");

    std::printf("Extended baselines: the paper's six plus "
                "AXI-HyperConnect [15] (16 clients, utilization "
                "70-90%%)\n\n");

    fig6_config cfg;
    cfg.scenario.measure_cycles = opts.measure_cycles;
    report_section s{"", {"design"}, k_fig6_columns, {}};
    for (ic_kind kind : k_extended_kinds) {
        s.rows.push_back({fig6_cell(kind, cfg), {kind_name(kind)}});
    }
    run_report(opts, {.sections = {std::move(s)}});
    return 0;
}
