// Theory validation (extension experiment A6 in DESIGN.md): the paper's
// compositional analysis promises that a *feasible* interface selection
// makes every memory transaction meet its implicit deadline. This bench
// drives configured BlueScale fabrics hard and checks that promise
// directly (zero misses over every feasible trial), and reports the
// structural backlog-drain bound (analysis/wcrt.hpp) next to the observed
// maximum latency as a pessimism diagnostic. The cell is
// harness::wcrt_validation_cell.
//
// It also surfaces a real quantization effect: with integer (Pi, Theta)
// at 1-unit granularity, each port's minimum bandwidth overshoots its
// clients' utilization, so at 64+ clients and high load the selection is
// often infeasible even though the raw utilization fits -- the trials
// column records this.
//
//   $ ./bench/wcrt_validation [--trials N] [--cycles N] [--threads N]
//                             [--seed N] [--csv out.csv]
//                             [--metrics out.csv] [--trace out.json]
//                             [--profile] [--lockstep]
//
// Trial t runs at seed + t (default seed 7000). --csv dumps one row per
// scale; --metrics and --trace export the 64-client scale (the last
// cell).
#include <cstdio>
#include <string>

#include "harness/bench_cli.hpp"
#include "harness/wcrt_experiment.hpp"

using namespace bluescale;
using namespace bluescale::harness;

int main(int argc, char** argv) {
    bench_options defaults;
    defaults.trials = 10;
    defaults.measure_cycles = 80'000;
    defaults.seed = 7000;
    const auto opts = parse_bench_cli(
        argc, argv, defaults,
        "Analysis validation: feasible selection => zero misses");

    std::printf("Analysis validation: feasible interface selection => "
                "zero deadline misses (BlueScale)\n\n");

    struct scale {
        std::uint32_t clients;
        double util_lo, util_hi;
    };
    // 64 clients run at lower utilization: integer (Pi, Theta)
    // quantization makes 70-90%% selections mostly infeasible there.
    const scale scales[] = {{16, 0.70, 0.90}, {64, 0.50, 0.70}};

    // Four tasks per client with periods of 100-2000 units.
    report_section s{"", {"clients", "utilization"}, k_wcrt_columns, {}};
    for (const auto& sc : scales) {
        s.rows.push_back(
            {wcrt_validation_cell({
                 .n_clients = sc.clients,
                 .measure_cycles = opts.measure_cycles,
                 .util_lo = sc.util_lo,
                 .util_hi = sc.util_hi,
                 .taskset = {.min_period_units = 100,
                             .max_period_units = 2000},
             }),
             {std::to_string(sc.clients),
              formatted("%.2f-%.2f", sc.util_lo, sc.util_hi)}});
    }
    run_report(opts, {.sections = {std::move(s)}});
    std::printf("\nThe compositional guarantee covers transaction "
                "scheduling on the unit-rate memory abstraction;\n"
                "'beyond margin' counts misses after granting the "
                "constant memory/response overhead that abstraction\n"
                "omits -- it must be 0. The drain bound's gap to the "
                "worst latency is analysis pessimism.\n");
    return 0;
}
