#include "core/parameter_path.hpp"

#include <algorithm>
#include <utility>

namespace bluescale::core {

namespace {

using analysis::quadtree_shape;
using analysis::task_set;

/// Table entries a parent selector loads from one child SE: one per
/// engaged server task.
std::uint64_t server_entries(const analysis::se_interfaces& child) {
    std::uint64_t n = 0;
    for (const auto& port : child.ports) {
        if (port && port->budget > 0) ++n;
    }
    return n;
}

} // namespace

reconfig_report
model_full_reconfiguration(const std::vector<task_set>& clients,
                           const analysis::analysis_context& ctx,
                           const reconfig_costs& costs) {
    reconfig_report report;
    analysis::tree_work work;
    report.selection = analysis::select_tree_interfaces(clients, ctx, &work);
    const analysis::tree_selection& sel = report.selection;
    const std::uint32_t depth = sel.shape.leaf_level;
    report.level_finish_cycles.assign(depth + 1, 0);

    // finish[y] = cycle SE(l, y)'s selector delivers its result; `below`
    // holds the level under it. A leaf SE loads its clients' task
    // parameters; an inner SE waits for its children and loads their
    // server tasks.
    std::vector<std::uint64_t> below;
    std::vector<std::uint64_t> finish;
    for (std::uint32_t l = depth + 1; l-- > 0;) {
        finish.assign(sel.levels[l].size(), 0);
        for (std::uint32_t y = 0; y < finish.size(); ++y) {
            std::uint64_t start = 0;
            std::uint64_t entries = 0;
            for (std::uint32_t p = 0; p < analysis::k_se_fanin; ++p) {
                const std::uint32_t child = quadtree_shape::child_order(y, p);
                if (l == depth) {
                    if (child < clients.size()) {
                        entries += clients[child].size();
                    }
                } else {
                    start = std::max(start, below[child]);
                    entries += server_entries(sel.levels[l + 1][child]);
                }
            }
            finish[y] = start + entries * costs.cycles_per_entry +
                        costs.fsm_cycles(work[l][y]);
            report.level_finish_cycles[l] =
                std::max(report.level_finish_cycles[l], finish[y]);
        }
        report.ses_involved += static_cast<std::uint32_t>(finish.size());
        below.swap(finish);
    }
    report.total_cycles = report.level_finish_cycles[0];
    report.feasible = sel.feasible;
    return report;
}

reconfig_report
model_client_update(const analysis::tree_selection& committed,
                    const std::vector<task_set>& committed_clients,
                    std::uint32_t client, task_set new_tasks,
                    const analysis::analysis_context& ctx,
                    const reconfig_costs& costs) {
    // evaluate_client_update works on copies: the committed inputs stay
    // untouched (re-entrancy for concurrent evaluators, and the rejection
    // path's zero-perturbation property for the reconfig manager).
    analysis::client_update update = analysis::evaluate_client_update(
        committed, committed_clients, client, std::move(new_tasks), ctx);
    const analysis::tree_selection& sel = update.selection;
    const std::uint32_t depth = sel.shape.leaf_level;
    reconfig_report report;
    report.level_finish_cycles.assign(depth + 1, 0);

    // Serial wave up the request path: each selector reloads the changed
    // entries, recomputes the single affected port, and forwards.
    std::uint64_t wave_cycles = 0;
    std::uint64_t entries = update.client_tasks[client].size();
    std::uint32_t order = sel.shape.leaf_se_of_client(client);
    for (std::uint32_t l = depth + 1; l-- > 0;) {
        wave_cycles += entries * costs.cycles_per_entry +
                       costs.fsm_cycles(update.path_work[depth - l]);
        report.level_finish_cycles[l] = wave_cycles;
        entries = server_entries(sel.levels[l][order]);
        order = quadtree_shape::parent_order(order);
    }

    report.total_cycles = wave_cycles;
    report.ses_involved = depth + 1;
    report.feasible = sel.feasible;
    report.selection = std::move(update.selection);
    return report;
}

} // namespace bluescale::core
