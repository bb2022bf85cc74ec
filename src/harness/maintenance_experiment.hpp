// DRAM-maintenance robustness experiment (robustness extension, not a
// paper figure; BlueScale only). The synthetic workload runs on a
// memory controller with refresh/scrub/RowHammer maintenance enabled,
// optionally under an injected maintenance-STORM campaign (excess
// scrubbing the analysis does not budget for). The experiment's central
// toggle is `maintenance_aware`: when true, both interface selection and
// the supply watchdog use the maintenance-corrected SBF
// (analysis::maintenance_sbf via mem::to_maintenance_model); when false
// they use the raw sbf -- the paper's assumption of an always-available
// device. The acceptance claim: aware admission keeps hard clients at
// zero misses through storms (the watchdog sheds best-effort traffic),
// while unaware admission under-provisions and hard clients miss.
#pragma once

#include <cstdint>

#include "harness/bench_cli.hpp"
#include "harness/traffic_trial.hpp"

namespace bluescale::harness {

/// Maintenance-storm window length, uniform in [min, max] cycles.
inline constexpr cycle_t k_storm_min_duration = 64;
inline constexpr cycle_t k_storm_max_duration = 256;

/// Selection bandwidth tolerance (applied in BOTH modes so the
/// aware/unaware comparison is apples-to-apples). Nonzero matters under
/// maintenance: the strict-minimum selection picks tiny server periods,
/// and a server task whose period is comparable to the maintenance burst
/// makes the corrected test infeasible at the level above -- trading a
/// little bandwidth for larger periods lets every level amortize the
/// stolen-time shift.
inline constexpr double k_maintenance_bandwidth_tolerance = 0.10;

struct maintenance_exp_config {
    /// Task periods sit well above the maintenance burst (a refresh
    /// blackout is ~16 analysis units): real task periods dwarf t_RFC,
    /// and a wcet-sized demand inside a burst-sized deadline would force
    /// the corrected analysis to provision nearly the whole device per
    /// client. scenario.memctrl carries the maintenance mechanisms under
    /// study (timing.t_refi/t_rfc, maintenance.scrub_*,
    /// maintenance.hammer_*).
    traffic_scenario scenario = {
        .measure_cycles = 60'000,
        .util_lo = 0.40,
        .util_hi = 0.60,
        .taskset = {
            .n_tasks = 3,
            .total_utilization = 0.05, // overridden per client
            .min_period_units = 300,
            .max_period_units = 1500,
            .write_fraction = 0.3,
        },
    };
    /// Provision (Pi, Theta) and police supply with the
    /// maintenance-corrected SBF (true) or the raw one (false).
    bool maintenance_aware = true;
    /// Expected maintenance-storm events per 1000 cycles (0 = none).
    /// The campaign carries ONLY maintenance storms, so every trial's
    /// interference is exactly the maintenance story under test.
    double storm_intensity = 0.0;
};

/// The BlueScale trials of one maintenance configuration; the last
/// k_best_effort_clients client ids are best-effort (sheddable), the
/// rest hard real-time. Workload and
/// storm schedule are pure functions of the trial seed, so aware/unaware
/// runs at the same seed face the identical scenario. A trial whose admission
/// analysis is infeasible is NOT simulated: it contributes zero samples
/// and the trials-minus-feasible_trials gap (admission control refused
/// the workload; there is no admitted system to measure).
///
/// totals ("maintenance/"): per-trial samples hard_miss_ratio,
/// best_effort_miss_ratio and p99_latency_cycles; counters hard_misses,
/// best_effort_misses, injected_storms and feasible_trials; and the
/// adopted mem/ and watchdog/ metrics (trial_record::adopt) of the
/// admitted trials.
[[nodiscard]] sweep_cell maintenance_cell(const maintenance_exp_config& cfg);

/// The maintenance tables' and CSV's columns.
inline constexpr report_column k_maintenance_columns[] = {
    {"hard miss", "hard_miss_ratio", "hard_miss_ratio", shown::pct, 2},
    {"", "hard_miss_sd", "hard_miss_ratio:sd"},
    {"BE miss", "be_miss_ratio", "best_effort_miss_ratio", shown::pct, 2},
    {"p99 (cyc)", "p99_cycles", "p99_latency_cycles", shown::num, 1},
    {"", "hard_misses"}, {"", "best_effort_misses"},
    {"", "refreshes", "mem/refreshes"}, {"", "scrubs", "mem/scrubs"},
    {"", "hammer_mitigations", "mem/hammer_mitigations"},
    {"stolen (cyc)", "stolen_cycles", "mem/maintenance_stolen_cycles",
     shown::count},
    {"", "storm_cycles", "mem/maintenance_storm_cycles"},
    {"", "injected_storms"},
    {"", "windows_checked", "watchdog/windows_checked"},
    {"shortfalls", "supply_shortfall_alarms",
     "watchdog/supply_shortfall_alarms", shown::count},
    {"dl alarms", "deadline_alarms", "watchdog/deadline_alarms",
     shown::count},
    {"", "shed_events", "watchdog/shed_events"},
    {"", "restore_events", "watchdog/restore_events"},
    {"shed/rest", "", "watchdog/shed_events,watchdog/restore_events",
     shown::count},
    {"", "shed_client_cycles", "watchdog/shed_client_cycles"},
    {"feas", "feasible_trials", "feasible_trials", shown::count},
};

} // namespace bluescale::harness
