// Ablation A3 (DESIGN.md): interface-selection cost and quality. Sweeps
// the per-client task count and reports the selected root bandwidth, the
// algorithm's work (schedulability tests / dbf points), the estimated
// FSM runtime of the paper's hardware interface selector (Sec. 4.3), and
// the size of the incremental update when one client's tasks change
// (Sec. 3.2's distributed-refresh property).
//
//   $ ./bench/ablation_interface_selection [--trials N] [--threads N]
#include <cstdio>

#include "analysis/tree_analysis.hpp"
#include "core/parameter_path.hpp"
#include "harness/bench_cli.hpp"
#include "sim/rng.hpp"
#include "sim/trial_runner.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "workload/taskset_gen.hpp"

using namespace bluescale;

namespace {

struct selection_trial {
    bool feasible = false;
    double root_bandwidth = 0.0;
    analysis::sched_test_stats work;
    std::uint64_t ses_updated = 0;
};

selection_trial run_trial(std::uint32_t n_tasks, std::uint32_t trial) {
    rng gen(1000 + trial);
    workload::taskset_params params;
    params.n_tasks = n_tasks;
    auto sets = workload::make_client_tasksets(gen, 16, 0.8, 0.8, params);
    std::vector<analysis::task_set> rt;
    for (const auto& s : sets) {
        rt.push_back(workload::to_rt_tasks(s));
    }

    analysis::sched_test_stats work;
    analysis::analysis_context ctx;
    ctx.sched.stats = &work;
    auto sel = analysis::select_tree_interfaces(rt, ctx);

    selection_trial out;
    out.feasible = sel.feasible;
    out.root_bandwidth = sel.root_bandwidth;
    out.work = work;

    // Incremental refresh: change client 0's tasks (evaluated const-ly,
    // then applied -- the service-style two-step shape).
    rng rand2(5000 + trial);
    auto new_tasks =
        workload::to_rt_tasks(workload::make_taskset(rand2, params));
    auto update =
        analysis::evaluate_client_update(sel, rt, 0, new_tasks, ctx);
    out.ses_updated = update.ses_changed;
    analysis::apply_client_update(std::move(update), sel, rt);
    return out;
}

} // namespace

int main(int argc, char** argv) {
    harness::bench_options defaults;
    defaults.trials = 10;
    const auto opts = harness::parse_bench_cli(
        argc, argv, defaults,
        "Ablation A3: interface selection cost/quality");
    const sim::trial_runner runner(opts.threads);

    std::printf("Ablation A3: interface selection cost/quality "
                "(16 clients, utilization 80%%)\n\n");

    stats::table t({"tasks/client", "feasible", "root bandwidth",
                    "sched tests", "dbf points", "est. FSM cycles",
                    "SEs updated on 1-client change"});

    for (std::uint32_t n_tasks : {1u, 2u, 4u, 8u, 16u}) {
        const auto results =
            runner.run(opts.trials, [n_tasks](std::uint32_t trial) {
                return run_trial(n_tasks, trial);
            });

        stats::running_summary root_bw, tests, points, fsm, updated;
        std::uint32_t feasible = 0;
        for (const auto& r : results) {
            if (r.feasible) ++feasible;
            root_bw.add(r.root_bandwidth);
            tests.add(static_cast<double>(r.work.tests_run));
            points.add(static_cast<double>(r.work.points_checked));
            fsm.add(static_cast<double>(
                core::reconfig_costs{}.fsm_cycles(r.work)));
            updated.add(static_cast<double>(r.ses_updated));
        }
        t.add_row({std::to_string(n_tasks),
                   std::to_string(feasible) + "/" +
                       std::to_string(opts.trials),
                   stats::table::num(root_bw.mean(), 3),
                   stats::table::num(tests.mean(), 0),
                   stats::table::num(points.mean(), 0),
                   stats::table::num(fsm.mean(), 0),
                   stats::table::num(updated.mean(), 1)});
    }
    t.print();
    std::printf("\nNote: a 1-client change touches at most leaf_level+1 "
                "SEs (the request path), never the whole tree.\n");
    return 0;
}
