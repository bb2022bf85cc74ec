// Runtime-reconfiguration experiment (robustness extension, not a paper
// figure): the Fig. 6 synthetic workload plus a seed-driven
// sim::reconfig_schedule of client task-set changes (scale-ups/downs,
// joins, leaves) submitted mid-simulation. BlueScale routes every change
// through core::reconfig_manager -- the Sec. 5 admission test online,
// transactional staging over the parameter-path latency, rollback on
// hazards -- while a core::supply_watchdog polices delivered supply and
// sheds best-effort clients under sustained overload. The BlueTree
// baseline applies every change unconditionally with zero latency (no
// admission control to refuse an infeasible one). The manager, watchdog
// and health monitor run their default configurations, and the last
// k_best_effort_clients client ids are the sheddable best-effort ones.
//
// Metrics: admission ratio by outcome, modeled reconfiguration latency,
// deadline misses during transitions, shed/restore counts and per-class
// miss totals, per design.
#pragma once

#include "harness/factory.hpp"
#include "harness/traffic_trial.hpp"

namespace bluescale::harness {

/// Requests are scheduled after this many cycles (lets the initial
/// selection settle before churn starts).
inline constexpr cycle_t k_reconfig_warmup = 5'000;

struct reconfig_exp_config {
    traffic_scenario scenario = {};

    /// Expected reconfiguration requests per 1000 cycles. The schedule
    /// seed is a substream of the trial seed, so every design sees the
    /// identical request sequence at the same trial.
    double events_per_kcycle = 0.2;

    /// Optional concurrent fault campaign (0 = healthy run), to exercise
    /// hazard rollbacks; same substream convention as the resilience
    /// experiment.
    double fault_intensity = 0.0;
};

/// The trials of one design under the same per-trial workloads and
/// reconfiguration schedules (both pure functions of the trial seed, so
/// designs are compared on identical request sequences).
///
/// totals ("reconfig_exp/"), admission control (BlueScale; zero for
/// baselines): counters submitted, admitted (passed the admission test),
/// committed, rolled_back, rejected_infeasible, rejected_overutilized,
/// rejected_path_hazard, transition_misses (deadline misses between a
/// request's submission and its resolution), the real admission_ratio
/// (admitted / submitted), and the sample latency_cycles (modeled
/// parameter-path latency of admitted requests); applied_unchecked
/// (unconditional zero-latency applications, baselines only), and the
/// real requests (submitted + applied_unchecked). Watchdog:
/// windows_checked, violating_windows, supply_shortfall_alarms,
/// shed_events, restore_events, shed_client_cycles. Per class: the
/// per-trial sample miss_ratio (all clients), hard_misses,
/// best_effort_misses, shed_deferrals, live_reconfigurations (task-set
/// swaps applied) and feasible_trials.
[[nodiscard]] sweep_cell reconfig_cell(ic_kind kind,
                                      const reconfig_exp_config& cfg);

} // namespace bluescale::harness
