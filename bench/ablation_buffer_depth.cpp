// Ablation A2 (DESIGN.md): depth of the SE's random access buffers. The
// paper's register-chain buffer is a real silicon cost (Table 1's LUT
// delta over BlueTree); this sweep measures what the depth buys in
// blocking latency and deadline misses.
//
//   $ ./bench/ablation_buffer_depth [--trials N] [--cycles N] [--threads N]
//                                   [--seed N] [--csv out.csv]
//                                   [--metrics out.csv] [--trace out.json]
//                                   [--profile] [--lockstep]
//
// --csv dumps one row per depth; --metrics and --trace export the
// deepest buffer (the last cell).
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
        "Ablation A2: BlueScale random-access-buffer depth");

    std::printf("Ablation A2: BlueScale random-access-buffer depth "
                "(16 clients, utilization 70-90%%)\n\n");

    report_section s{"", {"buffer depth"}, k_fig6_columns, {}};
    for (std::size_t depth : {2u, 4u, 8u, 16u, 32u}) {
        fig6_config cfg;
        cfg.scenario.measure_cycles = opts.measure_cycles;
        core::se_params se;
        se.buffer_depth = depth;
        cfg.bluescale_se = se;
        s.rows.push_back(
            {fig6_cell(ic_kind::bluescale, cfg), {std::to_string(depth)}});
    }
    run_report(opts, {.sections = {std::move(s)}});
    return 0;
}
