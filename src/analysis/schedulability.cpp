#include "analysis/schedulability.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

namespace bluescale::analysis {

double theorem1_beta(const resource_interface& iface,
                     double task_utilization) {
    const double bw = iface.bandwidth();
    if (bw <= task_utilization) return 0.0;
    const double gap =
        static_cast<double>(iface.period) - static_cast<double>(iface.budget);
    return 2.0 * bw * gap / (bw - task_utilization);
}

sched_result is_schedulable_sufficient(const task_set& tasks,
                                       const resource_interface& iface,
                                       const sched_test_config& cfg) {
    if (cfg.stats != nullptr) ++cfg.stats->tests_run;
    if (tasks.empty()) return sched_result::schedulable;
    if (iface.period == 0 || iface.budget == 0) {
        return sched_result::unschedulable;
    }

    const double u = utilization(tasks);
    const maintenance_model& maint = cfg.maintenance;
    const double mu = maint.utilization();
    const double bw = iface.bandwidth();
    if (bw * (1.0 - mu) <= u) return sched_result::unschedulable;

    // Necessary blackout filter, shared with the exact test: a first job
    // that cannot fit before its deadline is a proof of unschedulability.
    const std::uint64_t blackout = 2 * (iface.period - iface.budget);
    for (const auto& task : tasks) {
        if (task.wcet > 0 && task.period < blackout + task.wcet) {
            if (maintenance_sbf(task.period, iface, maint) < task.wcet) {
                return sched_result::unschedulable;
            }
        }
    }

    // Horizon collapse: Theorem 1 confines violations to t <= beta, and
    // dbf steps only at period multiples, so a minimum period beyond beta
    // leaves nothing to check.
    const double beta = maintenance_beta(iface, u, maint);
    std::uint64_t min_period = 0;
    std::vector<std::pair<std::uint64_t, double>> steps;
    steps.reserve(tasks.size());
    for (const auto& task : tasks) {
        if (task.wcet == 0 || task.period == 0) continue;
        if (min_period == 0 || task.period < min_period) {
            min_period = task.period;
        }
        steps.emplace_back(task.period,
                           static_cast<double>(task.wcet) /
                               static_cast<double>(task.period));
    }
    if (min_period == 0 || static_cast<double>(min_period) > beta) {
        return sched_result::schedulable;
    }

    // Linear demand vs. linear supply. dbf(t) <= sum_{T_i <= t} U_i * t
    // (floor(t/T_i)*C_i <= U_i*t, and a task contributes nothing before
    // its first period). The supply obeys
    //   sbf_m(t) >= bw*((1 - mu)*t - burst - 2*(Pi - Theta))
    // (see maintenance_beta). Between distinct periods the demand bound's
    // slope is at most u < bw*(1 - mu), so the supply-demand margin only
    // shrinks at the period breakpoints -- checking each one covers all t.
    std::sort(steps.begin(), steps.end());
    const double offset = static_cast<double>(maint.burst()) +
                          static_cast<double>(blackout);
    double u_acc = 0.0;
    bool proven = true;
    for (std::size_t i = 0; i < steps.size(); ++i) {
        u_acc += steps[i].second;
        // Only evaluate at the last task sharing this period (u_acc must
        // include every task activated by t = p).
        if (i + 1 < steps.size() && steps[i + 1].first == steps[i].first) {
            continue;
        }
        if (cfg.stats != nullptr) ++cfg.stats->points_checked;
        const auto p = static_cast<double>(steps[i].first);
        if (u_acc * p > bw * ((1.0 - mu) * p - offset)) {
            proven = false;
            break;
        }
    }
    if (proven) return sched_result::schedulable;
    return sched_result::aborted; // undecided: no proof either way
}

sched_result is_schedulable(const task_set& tasks,
                            const resource_interface& iface,
                            const sched_test_config& cfg) {
    if (cfg.sufficient_only) {
        return is_schedulable_sufficient(tasks, iface, cfg);
    }
    if (cfg.stats != nullptr) ++cfg.stats->tests_run;
    if (tasks.empty()) return sched_result::schedulable;
    if (iface.period == 0 || iface.budget == 0) {
        return sched_result::unschedulable;
    }

    const double u = utilization(tasks);
    const maintenance_model& maint = cfg.maintenance;
    if (iface.bandwidth() * (1.0 - maint.utilization()) <= u) {
        return sched_result::unschedulable;
    }

    // No task may have a period shorter than the worst-case supply delay
    // (sbf is 0 up to 2(Pi - Theta)), otherwise its first job can miss.
    const std::uint64_t blackout = 2 * (iface.period - iface.budget);
    for (const auto& task : tasks) {
        if (task.wcet > 0 && task.period < blackout + task.wcet) {
            // sbf(period) < wcet is guaranteed: cheap necessary filter.
            if (maintenance_sbf(task.period, iface, maint) < task.wcet) {
                return sched_result::unschedulable;
            }
        }
    }

    const std::optional<std::uint64_t> bounded =
        test_horizon(maintenance_beta(iface, u, maint));
    if (!bounded) return sched_result::aborted;
    const std::uint64_t horizon = *bounded;

    // Bound the work before enumerating.
    std::uint64_t point_estimate = 0;
    for (const auto& task : tasks) {
        if (task.period == 0 || task.wcet == 0) continue;
        point_estimate += horizon / task.period;
        if (point_estimate > k_max_test_points) return sched_result::aborted;
    }

    for (const std::uint64_t t : dbf_step_points(tasks, horizon)) {
        if (cfg.stats != nullptr) ++cfg.stats->points_checked;
        if (dbf(t, tasks) > maintenance_sbf(t, iface, maint)) {
            return sched_result::unschedulable;
        }
    }
    return sched_result::schedulable;
}

} // namespace bluescale::analysis
