// Theory validation (extension experiment A6 in DESIGN.md): the paper's
// compositional analysis promises that a *feasible* interface selection
// makes every memory transaction meet its implicit deadline. This bench
// drives configured BlueScale fabrics hard and checks that promise
// directly (zero misses over every feasible trial), and reports the
// structural backlog-drain bound (analysis/wcrt.hpp) next to the observed
// maximum latency as a pessimism diagnostic. The trial is
// harness::run_wcrt_validation.
//
// It also surfaces a real quantization effect: with integer (Pi, Theta)
// at 1-unit granularity, each port's minimum bandwidth overshoots its
// clients' utilization, so at 64+ clients and high load the selection is
// often infeasible even though the raw utilization fits -- the trials
// column records this.
//
//   $ ./bench/wcrt_validation [--trials N] [--cycles N] [--threads N]
#include <cstdio>
#include <string>
#include <vector>

#include "harness/bench_cli.hpp"
#include "harness/wcrt_experiment.hpp"
#include "stats/table.hpp"

using namespace bluescale;
using namespace bluescale::harness;

int main(int argc, char** argv) {
    bench_options defaults;
    defaults.trials = 10;
    defaults.measure_cycles = 80'000;
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

    // Four tasks per client with periods of 100-2000 units; trial t runs
    // at seed 7000 + t.
    std::vector<sweep_cell> cells;
    for (const auto& s : scales) {
        cells.push_back(wcrt_validation_cell({
            .n_clients = s.clients,
            .measure_cycles = opts.measure_cycles,
            .util_lo = s.util_lo,
            .util_hi = s.util_hi,
            .taskset = {.min_period_units = 100, .max_period_units = 2000},
        }));
    }
    sweep_options grid = sweep_from(opts);
    grid.seed = 7000;
    const auto results = run_sweep(grid, cells);

    stats::table t({"clients", "utilization", "feasible trials",
                    "missed/completed", "beyond margin",
                    "worst latency (cyc)", "drain bound (cyc)"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const scale& s = scales[i];
        const sweep_result& r = results[i];
        const auto total = [&r](const char* name) {
            return std::to_string(
                r.totals.get(std::string("wcrt/") + name).count);
        };
        const auto max = [&r](const char* name) {
            return r.totals.get(std::string("wcrt/") + name).samples.max();
        };
        t.add_row({std::to_string(s.clients),
                   stats::table::num(s.util_lo, 2) + "-" +
                       stats::table::num(s.util_hi, 2),
                   total("feasible_trials") + "/" +
                       std::to_string(opts.trials),
                   total("missed") + "/" + total("completed"),
                   total("missed_beyond_margin"),
                   stats::table::num(max("worst_latency_cycles"), 0),
                   std::to_string(static_cast<std::uint64_t>(
                       max("drain_bound_cycles")))});
    }
    t.print();
    std::printf("\nThe compositional guarantee covers transaction "
                "scheduling on the unit-rate memory abstraction;\n"
                "'beyond margin' counts misses after granting the "
                "constant memory/response overhead that abstraction\n"
                "omits -- it must be 0. The drain bound's gap to the "
                "worst latency is analysis pessimism.\n");
    return 0;
}
