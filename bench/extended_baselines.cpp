// Extended baseline comparison (beyond the paper's six): adds
// AXI-HyperConnect [15] -- fair round-robin with per-client outstanding
// caps -- to the Fig. 6 synthetic-workload experiment, locating it
// between the heuristic trees and the deadline-aware designs.
//
//   $ ./bench/extended_baselines [--trials N] [--cycles N] [--threads N]
#include <cstdio>
#include <vector>

#include "harness/bench_cli.hpp"
#include "harness/fig6_experiment.hpp"
#include "stats/table.hpp"

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
    std::vector<sweep_cell> cells;
    for (ic_kind kind : k_extended_kinds) {
        cells.push_back(fig6_cell(kind, cfg));
    }
    const auto results = run_sweep(sweep_from(opts), cells);

    stats::table t({"design", "blocking lat (us)", "worst (us)",
                    "miss ratio"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const sweep_result& r = results[i];
        t.add_row({kind_name(k_extended_kinds[i]),
                   stats::table::num(fig6_mean(r, "blocking_us"), 3),
                   stats::table::num(fig6_mean(r, "worst_blocking_us"), 2),
                   stats::table::pct(fig6_mean(r, "miss_ratio"), 2)});
    }
    t.print();
    return 0;
}
