// Ablation A5 (DESIGN.md): the SE's upper-level queue policy. The paper
// schedules server tasks GEDF (Algorithm 1); this sweep compares GEDF
// against fixed-priority servers, and shows what the work-conserving
// slack-reclamation fallback contributes.
//
//   $ ./bench/ablation_server_policy [--trials N] [--cycles N] [--threads N]
#include <cstdio>
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
        "Ablation A5: SE server-task policy");

    std::printf("Ablation A5: SE server-task policy "
                "(16 clients, utilization 70-90%%)\n\n");

    struct variant {
        const char* name;
        core::server_policy policy;
        bool work_conserving;
    };
    const variant variants[] = {
        {"GEDF + work-conserving (paper)", core::server_policy::gedf, true},
        {"GEDF, strict budgets", core::server_policy::gedf, false},
        {"fixed-priority + work-conserving",
         core::server_policy::fixed_priority, true},
        {"fixed-priority, strict budgets",
         core::server_policy::fixed_priority, false},
    };

    std::vector<sweep_cell> cells;
    for (const auto& v : variants) {
        fig6_config cfg;
        cfg.scenario.measure_cycles = opts.measure_cycles;
        core::se_params se;
        se.policy = v.policy;
        se.work_conserving = v.work_conserving;
        cfg.bluescale_se = se;
        cells.push_back(fig6_cell(ic_kind::bluescale, cfg));
    }
    const auto results = run_sweep(sweep_from(opts), cells);

    stats::table t({"variant", "blocking lat (us)", "worst (us)",
                    "miss ratio"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const sweep_result& r = results[i];
        t.add_row({variants[i].name,
                   stats::table::num(fig6_mean(r, "blocking_us"), 3),
                   stats::table::num(fig6_mean(r, "worst_blocking_us"), 2),
                   stats::table::pct(fig6_mean(r, "miss_ratio"), 2)});
    }
    t.print();
    return 0;
}
