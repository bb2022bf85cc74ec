// Ablation A1 (DESIGN.md): BlueTree's blocking factor alpha. The paper
// fixes alpha = 2 at hardware-development time (Sec. 2.2) -- this sweep
// shows how the heuristic's one-knob priority trades the two subtree
// halves off against each other, and that no alpha setting reaches
// BlueScale's deadline-aware behaviour.
//
//   $ ./bench/ablation_alpha [--trials N] [--cycles N] [--threads N]
#include <cstdio>
#include <string>
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
        "Ablation A1: BlueTree blocking factor alpha");

    std::printf("Ablation A1: BlueTree blocking factor alpha "
                "(16 clients, utilization 70-90%%)\n\n");

    constexpr std::uint32_t k_alphas[] = {1, 2, 4, 8};
    fig6_config base;
    base.scenario.measure_cycles = opts.measure_cycles;
    std::vector<sweep_cell> cells;
    std::vector<std::string> labels;
    for (std::uint32_t alpha : k_alphas) {
        fig6_config cfg = base;
        cfg.bluetree_alpha = alpha;
        cells.push_back(fig6_cell(ic_kind::bluetree, cfg));
        labels.push_back("BlueTree alpha=" + std::to_string(alpha));
    }
    cells.push_back(fig6_cell(ic_kind::bluescale, base));
    labels.emplace_back("BlueScale (reference)");
    const auto results = run_sweep(sweep_from(opts), cells);

    stats::table t({"config", "blocking lat (us)", "worst (us)",
                    "miss ratio"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const sweep_result& r = results[i];
        t.add_row({labels[i],
                   stats::table::num(fig6_mean(r, "blocking_us"), 3),
                   stats::table::num(fig6_mean(r, "worst_blocking_us"), 2),
                   stats::table::pct(fig6_mean(r, "miss_ratio"), 2)});
    }
    t.print();
    return 0;
}
