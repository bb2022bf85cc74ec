// Ablation A4 (DESIGN.md): memory-controller transaction policy under
// each interconnect. FR-FCFS trades a bounded amount of reordering for
// bank-level parallelism; FCFS is strictly in-order.
//
//   $ ./bench/ablation_memctrl [--trials N] [--cycles N] [--threads N]
#include <cstdio>

#include "harness/bench_cli.hpp"
#include "harness/fig6_experiment.hpp"
#include "stats/table.hpp"

using namespace bluescale;
using namespace bluescale::harness;

int main(int argc, char** argv) {
    bench_options defaults;
    defaults.trials = 6;
    defaults.measure_cycles = 60'000;
    const auto opts = parse_bench_cli(
        argc, argv, defaults,
        "Ablation A4: memory controller policy x interconnect");

    std::printf("Ablation A4: memory controller policy x interconnect "
                "(16 clients, utilization 70-90%%)\n\n");

    stats::table t({"design", "policy", "blocking lat (us)",
                    "miss ratio"});
    for (ic_kind kind : {ic_kind::bluescale, ic_kind::axi_icrt,
                         ic_kind::bluetree, ic_kind::gsmtree_tdm}) {
        for (memctrl_policy policy :
             {memctrl_policy::fr_fcfs, memctrl_policy::fcfs}) {
            fig6_config cfg;
            cfg.scenario.sweep = sweep_from(opts);
            cfg.scenario.measure_cycles = opts.measure_cycles;
            cfg.scenario.memctrl.policy = policy;
            const auto r = run_fig6(kind, cfg);
            t.add_row({kind_name(kind),
                       policy == memctrl_policy::fcfs ? "FCFS" : "FR-FCFS",
                       stats::table::num(fig6_mean(r, "blocking_us"), 3),
                       stats::table::pct(fig6_mean(r, "miss_ratio"), 2)});
        }
    }
    t.print();

    // DRAM refresh: a fixed-cadence disturbance that steals ~3% of the
    // device time and closes every row. Predictable designs must absorb
    // it; the table shows the worst-case/miss impact per design.
    std::printf("\nDRAM refresh disturbance (tREFI=1560, tRFC=44 cycles, "
                "~2.8%% duty):\n");
    stats::table rt({"design", "refresh", "worst (us)", "miss ratio"});
    for (ic_kind kind : {ic_kind::bluescale, ic_kind::axi_icrt,
                         ic_kind::bluetree}) {
        for (bool refresh : {false, true}) {
            fig6_config cfg;
            cfg.scenario.sweep = sweep_from(opts);
            cfg.scenario.measure_cycles = opts.measure_cycles;
            if (refresh) {
                cfg.scenario.memctrl.timing.t_refi = 1560;
                cfg.scenario.memctrl.timing.t_rfc = 44;
            }
            const auto r = run_fig6(kind, cfg);
            rt.add_row({kind_name(kind), refresh ? "on" : "off",
                        stats::table::num(fig6_mean(r, "worst_blocking_us"), 2),
                        stats::table::pct(fig6_mean(r, "miss_ratio"), 2)});
        }
    }
    rt.print();
    return 0;
}
