// Ablation A2 (DESIGN.md): depth of the SE's random access buffers. The
// paper's register-chain buffer is a real silicon cost (Table 1's LUT
// delta over BlueTree); this sweep measures what the depth buys in
// blocking latency and deadline misses.
//
//   $ ./bench/ablation_buffer_depth [--trials N] [--cycles N] [--threads N]
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
        "Ablation A2: BlueScale random-access-buffer depth");

    std::printf("Ablation A2: BlueScale random-access-buffer depth "
                "(16 clients, utilization 70-90%%)\n\n");

    constexpr std::size_t k_depths[] = {2, 4, 8, 16, 32};
    std::vector<sweep_cell> cells;
    for (std::size_t depth : k_depths) {
        fig6_config cfg;
        cfg.scenario.measure_cycles = opts.measure_cycles;
        core::se_params se;
        se.buffer_depth = depth;
        cfg.bluescale_se = se;
        cells.push_back(fig6_cell(ic_kind::bluescale, cfg));
    }
    const auto results = run_sweep(sweep_from(opts), cells);

    stats::table t({"buffer depth", "blocking lat (us)", "worst (us)",
                    "miss ratio"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const sweep_result& r = results[i];
        t.add_row({std::to_string(k_depths[i]),
                   stats::table::num(fig6_mean(r, "blocking_us"), 3),
                   stats::table::num(fig6_mean(r, "worst_blocking_us"), 2),
                   stats::table::pct(fig6_mean(r, "miss_ratio"), 2)});
    }
    t.print();
    return 0;
}
