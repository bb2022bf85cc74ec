// Ablation A4 (DESIGN.md): memory-controller transaction policy under
// each interconnect. FR-FCFS trades a bounded amount of reordering for
// bank-level parallelism; FCFS is strictly in-order.
//
//   $ ./bench/ablation_memctrl [--trials N] [--cycles N] [--threads N]
//                              [--seed N] [--csv out.csv]
//                              [--metrics out.csv] [--trace out.json]
//                              [--profile] [--lockstep]
//
// --csv dumps one row per cell of both tables (keys design, policy,
// refresh); --metrics and --trace export the last cell (BlueTree with
// refresh on).
#include <cstddef>
#include <cstdio>

#include "harness/bench_cli.hpp"
#include "harness/fig6_experiment.hpp"

using namespace bluescale;
using namespace bluescale::harness;

namespace {

// The policy table leaves the worst case out and the refresh table the
// mean; the CSV has all three.
constexpr report_column k_policy_columns[] = {
    k_fig6_columns[0],
    {"", "worst_us", "worst_blocking_us"},
    k_fig6_columns[2],
};
constexpr report_column k_refresh_columns[] = {
    {"", "blocking_us"},
    k_fig6_columns[1],
    k_fig6_columns[2],
};

} // namespace

int main(int argc, char** argv) {
    bench_options defaults;
    defaults.trials = 6;
    defaults.measure_cycles = 60'000;
    const auto opts = parse_bench_cli(
        argc, argv, defaults,
        "Ablation A4: memory controller policy x interconnect");

    std::printf("Ablation A4: memory controller policy x interconnect "
                "(16 clients, utilization 70-90%%)\n\n");

    fig6_config base;
    base.scenario.measure_cycles = opts.measure_cycles;
    report_section policies{"", {"design", "policy"}, k_policy_columns, {}};
    for (ic_kind kind : {ic_kind::bluescale, ic_kind::axi_icrt,
                         ic_kind::bluetree, ic_kind::gsmtree_tdm}) {
        for (memctrl_policy policy :
             {memctrl_policy::fr_fcfs, memctrl_policy::fcfs}) {
            const char* name =
                policy == memctrl_policy::fcfs ? "FCFS" : "FR-FCFS";
            fig6_config cfg = base;
            cfg.scenario.memctrl.policy = policy;
            policies.rows.push_back({fig6_cell(kind, cfg),
                                     {kind_name(kind), name},
                                     {kind_name(kind), name, "off"}});
        }
    }

    // DRAM refresh: a fixed-cadence disturbance that steals ~3% of the
    // device time and closes every row. Predictable designs must absorb
    // it; the table shows the worst-case/miss impact per design. A
    // design's refresh-off row is its FR-FCFS policy row (rows 0, 2 and
    // 4), so that cell runs once.
    report_section refresh{"\nDRAM refresh disturbance (tREFI=1560, "
                           "tRFC=44 cycles, ~2.8% duty):\n",
                           {"design", "refresh"}, k_refresh_columns, {}};
    std::size_t fr_fcfs_row = 0;
    for (ic_kind kind :
         {ic_kind::bluescale, ic_kind::axi_icrt, ic_kind::bluetree}) {
        refresh.rows.push_back({.cell = policies.rows[fr_fcfs_row].cell,
                                .labels = {kind_name(kind), "off"},
                                .keys = {kind_name(kind), "FR-FCFS", "off"},
                                .same_as = fr_fcfs_row});
        fig6_config cfg = base;
        cfg.scenario.memctrl.timing.t_refi = 1560;
        cfg.scenario.memctrl.timing.t_rfc = 44;
        refresh.rows.push_back({fig6_cell(kind, cfg),
                                {kind_name(kind), "on"},
                                {kind_name(kind), "FR-FCFS", "on"}});
        fr_fcfs_row += 2;
    }
    run_report(opts, {.csv_keys = {"design", "policy", "refresh"},
                      .sections = {std::move(policies), std::move(refresh)}});
    return 0;
}
