// Parameter-path timing model (paper Fig. 2(b)'s third path and Sec. 4.3).
//
// When task parameters change, interface selectors recompute (Pi, Theta)
// bottom-up: every SE loads its local clients' parameters into the task
// parameter table, runs the Sec. 5 algorithm on its FSM, and delivers the
// selected interfaces to its parent's selector. SEs at the same level run
// in parallel (the paper's distributed-refresh property), so the total
// reconfiguration latency is the critical path:
//
//   finish(SE) = max over children(finish(child)) + transfer + compute
//
// This layer only prices a walk: the selection itself, and the work it
// counts per SE, come from analysis::select_tree_interfaces (whole tree)
// and analysis::evaluate_client_update (one request path). Compute is
// reconfig_costs::fsm_cycles of that work; transfer is the number of
// 74-bit table entries the selector loads -- client tasks at the leaves,
// engaged child servers above them -- times cycles_per_entry.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/interface_selection.hpp"
#include "analysis/tree_analysis.hpp"

namespace bluescale::core {

struct reconfig_costs {
    /// Cycles to deliver one 74-bit task-parameter entry to the next SE.
    std::uint64_t cycles_per_entry = 2;
    /// FSM cycles per schedulability test setup (beta computation,
    /// counters initialization).
    std::uint64_t cycles_per_test = 8;
    /// FSM cycles per dbf/sbf comparison: table fetch, two ALU
    /// evaluations, one compare-and-branch.
    std::uint64_t cycles_per_point = 4;

    /// FSM cycles a selector spends performing `work`.
    [[nodiscard]] constexpr std::uint64_t
    fsm_cycles(const analysis::sched_test_stats& work) const {
        return work.tests_run * cycles_per_test +
               work.points_checked * cycles_per_point;
    }
};

struct reconfig_report {
    /// Latency until the root selector has delivered its result.
    std::uint64_t total_cycles = 0;
    /// Cycle at which each level's selectors finish (index 0 = root).
    std::vector<std::uint64_t> level_finish_cycles;
    /// SEs that recomputed (whole tree for a full reconfiguration; the
    /// request path only for a single-client update).
    std::uint32_t ses_involved = 0;
    bool feasible = false;
    analysis::tree_selection selection;
};

/// Models a full system reconfiguration: every SE reselects
/// (select_tree_interfaces), priced along the critical path.
[[nodiscard]] reconfig_report
model_full_reconfiguration(const std::vector<analysis::task_set>& clients,
                           const analysis::analysis_context& ctx = {},
                           const reconfig_costs& costs = {});

/// Models the paper's incremental case: one client's tasks change, only
/// the SEs on its request path recompute (evaluate_client_update),
/// priced as a serial wave from leaf to root. Const-correct and
/// re-entrant: the committed state is only read, so concurrent
/// evaluators -- the analysis service's worker pool -- may share one
/// committed state.
[[nodiscard]] reconfig_report
model_client_update(const analysis::tree_selection& selection,
                    const std::vector<analysis::task_set>& clients,
                    std::uint32_t client, analysis::task_set new_tasks,
                    const analysis::analysis_context& ctx = {},
                    const reconfig_costs& costs = {});

} // namespace bluescale::core
