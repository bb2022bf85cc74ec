// Ablation A1 (DESIGN.md): BlueTree's blocking factor alpha. The paper
// fixes alpha = 2 at hardware-development time (Sec. 2.2) -- this sweep
// shows how the heuristic's one-knob priority trades the two subtree
// halves off against each other, and that no alpha setting reaches
// BlueScale's deadline-aware behaviour.
//
//   $ ./bench/ablation_alpha [--trials N] [--cycles N] [--threads N]
//                            [--seed N] [--csv out.csv]
//                            [--metrics out.csv] [--trace out.json]
//                            [--profile] [--lockstep]
//
// --csv dumps one row per config; --metrics and --trace export the
// BlueScale reference (the last cell).
#include <cstdio>
#include <string>

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
        "Ablation A1: BlueTree blocking factor alpha");

    std::printf("Ablation A1: BlueTree blocking factor alpha "
                "(16 clients, utilization 70-90%%)\n\n");

    fig6_config base;
    base.scenario.measure_cycles = opts.measure_cycles;
    report_section s{"", {"config"}, k_fig6_columns, {}};
    for (std::uint32_t alpha : {1u, 2u, 4u, 8u}) {
        fig6_config cfg = base;
        cfg.bluetree_alpha = alpha;
        s.rows.push_back({fig6_cell(ic_kind::bluetree, cfg),
                          {"BlueTree alpha=" + std::to_string(alpha)}});
    }
    s.rows.push_back(
        {fig6_cell(ic_kind::bluescale, base), {"BlueScale (reference)"}});
    run_report(opts, {.sections = {std::move(s)}});
    return 0;
}
