// Ablation A4 (DESIGN.md): memory-controller transaction policy under
// each interconnect. FR-FCFS trades a bounded amount of reordering for
// bank-level parallelism; FCFS is strictly in-order.
//
//   $ ./bench/ablation_memctrl [--trials N] [--cycles N] [--threads N]
#include <cstdio>
#include <vector>

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

    // Both tables' cells on one grid: design x policy, then design x
    // refresh.
    constexpr ic_kind k_policy_kinds[] = {ic_kind::bluescale,
                                          ic_kind::axi_icrt,
                                          ic_kind::bluetree,
                                          ic_kind::gsmtree_tdm};
    constexpr memctrl_policy k_policies[] = {memctrl_policy::fr_fcfs,
                                             memctrl_policy::fcfs};
    constexpr ic_kind k_refresh_kinds[] = {
        ic_kind::bluescale, ic_kind::axi_icrt, ic_kind::bluetree};
    fig6_config base;
    base.scenario.measure_cycles = opts.measure_cycles;
    std::vector<sweep_cell> cells;
    for (ic_kind kind : k_policy_kinds) {
        for (memctrl_policy policy : k_policies) {
            fig6_config cfg = base;
            cfg.scenario.memctrl.policy = policy;
            cells.push_back(fig6_cell(kind, cfg));
        }
    }
    for (ic_kind kind : k_refresh_kinds) {
        for (bool refresh : {false, true}) {
            fig6_config cfg = base;
            if (refresh) {
                cfg.scenario.memctrl.timing.t_refi = 1560;
                cfg.scenario.memctrl.timing.t_rfc = 44;
            }
            cells.push_back(fig6_cell(kind, cfg));
        }
    }
    const auto results = run_sweep(sweep_from(opts), cells);
    const sweep_result* next = results.data();

    stats::table t({"design", "policy", "blocking lat (us)",
                    "miss ratio"});
    for (ic_kind kind : k_policy_kinds) {
        for (memctrl_policy policy : k_policies) {
            const sweep_result& r = *next++;
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
    for (ic_kind kind : k_refresh_kinds) {
        for (bool refresh : {false, true}) {
            const sweep_result& r = *next++;
            rt.add_row({kind_name(kind), refresh ? "on" : "off",
                        stats::table::num(fig6_mean(r, "worst_blocking_us"), 2),
                        stats::table::pct(fig6_mean(r, "miss_ratio"), 2)});
        }
    }
    rt.print();
    return 0;
}
