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

#include "harness/bench_cli.hpp"
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
/// totals ("reconfig_exp/"): the counters rejected_infeasible,
/// rejected_overutilized and rejected_path_hazard and the sample
/// latency_cycles (modeled parameter-path latency of resolved admitted
/// requests), off the manager's records (BlueScale; zero for baselines);
/// transition_misses (deadline misses between a request's submission and
/// its resolution); applied_unchecked (unconditional zero-latency
/// applications, baselines only); per class, the per-trial sample
/// miss_ratio (all clients), hard_misses and best_effort_misses;
/// feasible_trials; the adopted client/, reconfig/ and watchdog/ metrics
/// (trial_record::adopt); and the reals admission_ratio
/// (reconfig/admitted over reconfig/submitted) and requests
/// (reconfig/submitted + applied_unchecked).
[[nodiscard]] sweep_cell reconfig_cell(ic_kind kind,
                                      const reconfig_exp_config& cfg);

/// The reconfig tables' and CSV's columns.
inline constexpr report_column k_reconfig_columns[] = {
    {"submitted", "", "requests", shown::num, 0},
    {"admit%", "", "admission_ratio", shown::pct, 1},
    {"", "submitted", "reconfig/submitted"}, {"", "applied_unchecked"},
    {"", "admitted", "reconfig/admitted"},
    {"commit", "committed", "reconfig/committed", shown::count},
    {"rollbk", "rolled_back", "reconfig/rolled_back", shown::count},
    {"rej inf/over/haz", "",
     "rejected_infeasible,rejected_overutilized,rejected_path_hazard",
     shown::count},
    {"", "rejected_infeasible"}, {"", "rejected_overutilized"},
    {"", "rejected_path_hazard"}, {"", "admission_ratio"},
    {"lat (cyc)", "mean_latency_cycles", "latency_cycles", shown::num, 0},
    {"", "max_latency_cycles", "latency_cycles:max"},
    {"trans miss", "transition_misses", "transition_misses", shown::count},
    {"miss ratio", "miss_ratio", "miss_ratio", shown::pct, 2},
    {"", "miss_sd", "miss_ratio:sd"},
    {"hard miss", "hard_misses", "hard_misses", shown::count},
    {"BE miss", "best_effort_misses", "best_effort_misses", shown::count},
    {"", "live_reconfigurations", "client/reconfigurations"},
    {"", "windows_checked", "watchdog/windows_checked"},
    {"", "violating_windows", "watchdog/violating_windows"},
    {"", "supply_shortfall_alarms", "watchdog/supply_shortfall_alarms"},
    {"", "shed_events", "watchdog/shed_events"},
    {"", "restore_events", "watchdog/restore_events"},
    {"shed/rest", "", "watchdog/shed_events,watchdog/restore_events",
     shown::count},
    {"", "shed_client_cycles", "watchdog/shed_client_cycles"},
    {"", "shed_deferrals", "client/shed_deferrals"},
    {"", "feasible_trials"},
};

} // namespace bluescale::harness
