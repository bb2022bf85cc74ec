#include "analysis/tree_analysis.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <utility>

#include "analysis/parallel_for.hpp"

namespace bluescale::analysis {

std::string selection_failure::to_string() const {
    switch (reason) {
    case selection_failure_reason::none:
        return "";
    case selection_failure_reason::port_infeasible:
        return "no feasible interface for SE(" + std::to_string(level) +
               "," + std::to_string(order) + ") port " +
               std::to_string(port);
    case selection_failure_reason::root_overutilized:
        return "root resource over-utilized: total level-1 server "
               "bandwidth exceeds 1";
    }
    return "";
}

namespace {

/// The task set a non-leaf SE port sees: the child SE's engaged server
/// tasks, each treated as the task (T = Pi, C = Theta). Unused child
/// ports (engaged {0,0}) and failed child ports (nullopt) both vanish
/// from the parent's task set; the failure scan reports the latter, so
/// the parent-level numbers are only reported, never trusted, on that
/// path.
task_set child_server_tasks(const se_interfaces& child) {
    task_set tasks;
    for (const auto& port : child.ports) {
        if (port && port->budget > 0) {
            tasks.push_back(rt_task{port->period, port->budget});
        }
    }
    return tasks;
}

/// Total selected bandwidth across a level (the next level's U_{l+2}).
double level_bandwidth(const std::vector<se_interfaces>& level) {
    double bw = 0.0;
    for (const auto& se : level) bw += se.total_bandwidth();
    return bw;
}

task_set tasks_of_client(const std::vector<task_set>& client_tasks,
                         std::uint32_t client) {
    if (client < client_tasks.size()) return client_tasks[client];
    return {};
}

/// The first failed port, scanning levels leaf-to-root and SEs and ports
/// in ascending order; reason none when every port has an interface.
selection_failure first_failed_port(const tree_selection& sel) {
    for (std::uint32_t l = sel.shape.leaf_level + 1; l-- > 0;) {
        const auto& level = sel.levels[l];
        for (std::uint32_t y = 0; y < level.size(); ++y) {
            for (std::uint32_t p = 0; p < k_se_fanin; ++p) {
                if (!level[y].ports[p]) {
                    return {selection_failure_reason::port_infeasible, l, y,
                            p};
                }
            }
        }
    }
    return {};
}

/// The one feasibility verdict of a fully populated selection, shared by
/// the whole-tree and the request-path walks.
void finalize(tree_selection& sel) {
    sel.failure = first_failed_port(sel);
    sel.root_bandwidth = sel.levels[0][0].total_bandwidth();
    if (sel.failure.empty() && sel.root_bandwidth > 1.0 + 1e-9) {
        sel.failure.reason = selection_failure_reason::root_overutilized;
    }
    sel.feasible = sel.failure.empty();
}

/// Resolves one level's selections: each SE's four ports serially, SEs in
/// parallel. Per-SE work counters land in index-addressed slots (`slots`,
/// or a private vector when only ctx.sched.stats wants them) and merge in
/// ascending order -- identical to the serial scan.
void select_level(tree_selection& sel, std::uint32_t l, double u_level,
                  const analysis_context& ctx,
                  std::vector<sched_test_stats>* slots,
                  const std::function<task_set(std::uint32_t, std::uint32_t)>&
                      port_tasks) {
    const auto n = static_cast<std::uint32_t>(sel.levels[l].size());
    std::vector<sched_test_stats> own;
    if (slots == nullptr && ctx.sched.stats != nullptr) slots = &own;
    if (slots != nullptr) slots->assign(n, {});

    parallel_for(n, ctx.threads, [&](std::uint32_t y) {
        analysis_context local = ctx;
        local.sched.stats = slots != nullptr ? &(*slots)[y] : nullptr;
        for (std::uint32_t p = 0; p < k_se_fanin; ++p) {
            sel.levels[l][y].ports[p] =
                select_interface(port_tasks(y, p), u_level, local);
        }
    });

    if (ctx.sched.stats != nullptr) {
        for (const auto& work : *slots) *ctx.sched.stats += work;
    }
}

} // namespace

tree_selection
select_tree_interfaces(const std::vector<task_set>& client_tasks,
                       const analysis_context& ctx, tree_work* se_work) {
    tree_selection sel;
    sel.shape = make_quadtree_shape(
        static_cast<std::uint32_t>(std::max<std::size_t>(client_tasks.size(), 1)));
    const std::uint32_t depth = sel.shape.leaf_level;
    sel.levels.resize(depth + 1);
    for (std::uint32_t l = 0; l <= depth; ++l) {
        sel.levels[l].resize(sel.shape.ses_at_level(l));
    }
    if (se_work != nullptr) se_work->assign(depth + 1, {});
    const auto level_work = [&](std::uint32_t l) {
        return se_work != nullptr ? &(*se_work)[l] : nullptr;
    };

    // Level L: VEs are system clients; tasks are the Local Tasks.
    double u_level = 0.0;
    for (const auto& tasks : client_tasks) u_level += utilization(tasks);

    select_level(sel, depth, u_level, ctx, level_work(depth),
                 [&](std::uint32_t y, std::uint32_t p) {
                     const std::uint32_t client =
                         quadtree_shape::child_order(y, p);
                     return tasks_of_client(client_tasks, client);
                 });

    // Levels L-1 .. 0: VEs are child SEs; tasks are their server tasks.
    // Levels stay serial with respect to each other (level l reads level
    // l+1's results); only the SEs within a level run in parallel.
    for (std::uint32_t l = depth; l-- > 0;) {
        const double u_children = level_bandwidth(sel.levels[l + 1]);
        select_level(sel, l, u_children, ctx, level_work(l),
                     [&](std::uint32_t y, std::uint32_t p) {
                         const std::uint32_t child =
                             quadtree_shape::child_order(y, p);
                         return child_server_tasks(sel.levels[l + 1][child]);
                     });
    }

    finalize(sel);
    return sel;
}

client_update
evaluate_client_update(const tree_selection& selection,
                       const std::vector<task_set>& client_tasks,
                       std::uint32_t client, task_set new_tasks,
                       const analysis_context& ctx) {
    assert(client < selection.shape.padded_clients);
    client_update out;
    out.selection = selection;
    out.client_tasks = client_tasks;
    if (client >= out.client_tasks.size()) {
        out.client_tasks.resize(client + 1);
    }
    out.client_tasks[client] = std::move(new_tasks);

    tree_selection& sel = out.selection;
    const std::uint32_t depth = sel.shape.leaf_level;
    out.path_work.assign(depth + 1, {});

    // Reselects the single affected port of SE(l, order), counting its
    // work into the path slot of level l.
    const auto reselect = [&](std::uint32_t l, std::uint32_t order,
                              std::uint32_t port, const task_set& tasks,
                              double u_level) {
        sched_test_stats& work = out.path_work[depth - l];
        analysis_context local = ctx;
        local.sched.stats = &work;
        auto iface = select_interface(tasks, u_level, local);
        if (ctx.sched.stats != nullptr) *ctx.sched.stats += work;
        if (sel.levels[l][order].ports[port] != iface) {
            sel.levels[l][order].ports[port] = iface;
            ++out.ses_changed;
        }
    };

    // Leaf level: only this client's port is reselected.
    double u_level = 0.0;
    for (const auto& tasks : out.client_tasks) u_level += utilization(tasks);
    std::uint32_t order = sel.shape.leaf_se_of_client(client);
    reselect(depth, order, sel.shape.leaf_port_of_client(client),
             out.client_tasks[client], u_level);

    // Walk the request path to the root, reselecting the single affected
    // port at each level. All SEs off the path keep their parameters.
    for (std::uint32_t l = depth; l-- > 0;) {
        const std::uint32_t child = order;
        order = quadtree_shape::parent_order(child);
        reselect(l, order, quadtree_shape::parent_port(child),
                 child_server_tasks(sel.levels[l + 1][child]),
                 level_bandwidth(sel.levels[l + 1]));
    }

    finalize(sel);
    return out;
}

void apply_client_update(client_update&& update, tree_selection& selection,
                         std::vector<task_set>& client_tasks) {
    selection = std::move(update.selection);
    client_tasks = std::move(update.client_tasks);
}

} // namespace bluescale::analysis
