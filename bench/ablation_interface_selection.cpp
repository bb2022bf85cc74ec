// Ablation A3 (DESIGN.md): interface-selection cost and quality. Sweeps
// the per-client task count and reports the selected root bandwidth, the
// algorithm's work (schedulability tests / dbf points), the estimated
// FSM runtime of the paper's hardware interface selector (Sec. 4.3), and
// the size of the incremental update when one client's tasks change
// (Sec. 3.2's distributed-refresh property).
//
//   $ ./bench/ablation_interface_selection [--trials N] [--threads N]
//                                          [--csv out.csv]
//
// Trial t draws its task sets from seed 1000 + t. --csv dumps one row
// per task count. The trials build no testbench, so there is nothing for
// --metrics, --trace or --profile to export.
#include <cstdio>
#include <string>

#include "analysis/tree_analysis.hpp"
#include "core/parameter_path.hpp"
#include "harness/bench_cli.hpp"
#include "harness/traffic_trial.hpp"

using namespace bluescale;
using namespace bluescale::harness;

namespace {

/// One trial of `n_tasks` tasks per client: the whole-tree selection's
/// quality and work, then the incremental refresh when client 0's tasks
/// change (evaluated const-ly, then applied -- the service-style two-step
/// shape).
void selection_trial(trial_record& rec, const traffic_scenario& sc) {
    rng gen(1000 + rec.index());
    auto rt = rt_view(draw_tasksets(sc, gen, sc.n_clients));
    analysis::sched_test_stats work;
    analysis::analysis_context ctx;
    ctx.sched.stats = &work;
    auto sel = analysis::select_tree_interfaces(rt, ctx);
    rec.counter("feasible").inc(sel.feasible);
    rec.sample("root_bw").add(sel.root_bandwidth);
    rec.sample("tests").add(static_cast<double>(work.tests_run));
    rec.sample("points").add(static_cast<double>(work.points_checked));
    rec.sample("fsm_cycles")
        .add(static_cast<double>(core::reconfig_costs{}.fsm_cycles(work)));

    rng rand2(5000 + rec.index());
    auto new_tasks =
        workload::to_rt_tasks(workload::make_taskset(rand2, sc.taskset));
    auto update =
        analysis::evaluate_client_update(sel, rt, 0, new_tasks, ctx);
    rec.sample("ses_updated").add(static_cast<double>(update.ses_changed));
    analysis::apply_client_update(std::move(update), sel, rt);
}

constexpr report_column k_columns[] = {
    {"feasible", "feasible_trials", "feasible", shown::per_trial},
    {"root bandwidth", "root_bw", "root_bw", shown::num, 3},
    {"sched tests", "sched_tests", "tests", shown::num, 0},
    {"dbf points", "dbf_points", "points", shown::num, 0},
    {"est. FSM cycles", "fsm_cycles", "fsm_cycles", shown::num, 0},
    {"SEs updated on 1-client change", "ses_updated", "ses_updated",
     shown::num, 1},
};

} // namespace

int main(int argc, char** argv) {
    bench_options defaults;
    defaults.trials = 10;
    const auto opts = parse_bench_cli(
        argc, argv, defaults,
        "Ablation A3: interface selection cost/quality",
        flag_trials | flag_threads | flag_csv);

    std::printf("Ablation A3: interface selection cost/quality "
                "(16 clients, utilization 80%%)\n\n");

    report_section s{"", {"tasks/client"}, k_columns, {}};
    for (std::uint32_t n_tasks : {1u, 2u, 4u, 8u, 16u}) {
        // Periods of 100-2000 units.
        const traffic_scenario sc = {
            .util_lo = 0.8,
            .util_hi = 0.8,
            .taskset = {.n_tasks = n_tasks,
                        .min_period_units = 100,
                        .max_period_units = 2000},
        };
        s.rows.push_back(
            {{"", [sc](trial_record& rec) { selection_trial(rec, sc); }},
             {std::to_string(n_tasks)}});
    }
    run_report(opts, {.sections = {std::move(s)}});
    std::printf("\nNote: a 1-client change touches at most leaf_level+1 "
                "SEs (the request path), never the whole tree.\n");
    return 0;
}
