// Ablation A5 (DESIGN.md): the SE's upper-level queue policy. The paper
// schedules server tasks GEDF (Algorithm 1); this sweep compares GEDF
// against fixed-priority servers, and shows what the work-conserving
// slack-reclamation fallback contributes.
//
//   $ ./bench/ablation_server_policy [--trials N] [--cycles N] [--threads N]
//                                    [--seed N] [--csv out.csv]
//                                    [--metrics out.csv] [--trace out.json]
//                                    [--profile] [--lockstep]
//
// --csv dumps one row per variant; --metrics and --trace export the
// last variant (fixed-priority, strict budgets).
#include <cstdio>

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

    report_section s{"", {"variant"}, k_fig6_columns, {}};
    for (const auto& v : variants) {
        fig6_config cfg;
        cfg.scenario.measure_cycles = opts.measure_cycles;
        core::se_params se;
        se.policy = v.policy;
        se.work_conserving = v.work_conserving;
        cfg.bluescale_se = se;
        s.rows.push_back({fig6_cell(ic_kind::bluescale, cfg), {v.name}});
    }
    run_report(opts, {.sections = {std::move(s)}});
    return 0;
}
