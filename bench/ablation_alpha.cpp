// Ablation A1 (DESIGN.md): BlueTree's blocking factor alpha. The paper
// fixes alpha = 2 at hardware-development time (Sec. 2.2) -- this sweep
// shows how the heuristic's one-knob priority trades the two subtree
// halves off against each other, and that no alpha setting reaches
// BlueScale's deadline-aware behaviour.
//
//   $ ./bench/ablation_alpha [--trials N] [--cycles N] [--threads N]
#include <cstdio>

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
        "Ablation A1: BlueTree blocking factor alpha");

    std::printf("Ablation A1: BlueTree blocking factor alpha "
                "(16 clients, utilization 70-90%%)\n\n");

    stats::table t({"config", "blocking lat (us)", "worst (us)",
                    "miss ratio"});
    for (std::uint32_t alpha : {1u, 2u, 4u, 8u}) {
        fig6_config cfg;
        cfg.scenario.sweep = sweep_from(opts);
        cfg.scenario.measure_cycles = opts.measure_cycles;
        cfg.bluetree_alpha = alpha;
        const auto r = run_fig6(ic_kind::bluetree, cfg);
        t.add_row({"BlueTree alpha=" + std::to_string(alpha),
                   stats::table::num(fig6_mean(r, "blocking_us"), 3),
                   stats::table::num(fig6_mean(r, "worst_blocking_us"), 2),
                   stats::table::pct(fig6_mean(r, "miss_ratio"), 2)});
    }
    {
        fig6_config cfg;
        cfg.scenario.sweep = sweep_from(opts);
        cfg.scenario.measure_cycles = opts.measure_cycles;
        const auto r = run_fig6(ic_kind::bluescale, cfg);
        t.add_row({"BlueScale (reference)",
                   stats::table::num(fig6_mean(r, "blocking_us"), 3),
                   stats::table::num(fig6_mean(r, "worst_blocking_us"), 2),
                   stats::table::pct(fig6_mean(r, "miss_ratio"), 2)});
    }
    t.print();
    return 0;
}
