// Fault-injection resilience experiment (robustness extension, not a
// paper figure): the Fig. 6 synthetic workload under a seed-driven
// sim::fault_campaign of SE stalls, link drops, DRAM transient errors and
// controller backpressure storms. Clients recover with bounded
// retry/timeout reissue; the BlueScale fabric additionally degrades
// unhealthy elements to work-conserving mode under a core::health_monitor
// (always on; baselines have no elements to degrade).
// Metrics: deadline-miss ratio, p99 / worst latency inflation, recovery
// counter totals, and mean time-to-recover, per design and fault
// intensity.
#pragma once

#include <span>
#include <vector>

#include "harness/bench_cli.hpp"
#include "harness/factory.hpp"
#include "harness/traffic_trial.hpp"

namespace bluescale::harness {

struct resilience_config {
    traffic_scenario scenario = {};
    /// Expected injected fault events per 1000 cycles (0 = healthy run;
    /// the campaign seed is a substream of the trial seed, so every
    /// design sees the identical fault schedule at the same trial).
    double fault_intensity = 0.5;
};

/// The trials of one design at cfg.fault_intensity. Every design sees
/// identical per-trial workloads AND fault schedules (both are pure
/// functions of the trial seed).
///
/// totals ("resilience/"): per-trial samples miss_ratio (in [0, 1]),
/// p99_latency_cycles, worst_latency_cycles and time_to_recover_cycles
/// (mean span, trials with a recovery only); counters injected_events,
/// stall_windows, link_drops and feasible_trials; and the adopted
/// client/, se/, mem/ and health/ metrics (trial_record::adopt).
[[nodiscard]] sweep_cell resilience_cell(ic_kind kind,
                                        const resilience_config& cfg);

/// One design's cells at each of `intensities`, the first one (normally
/// 0) the healthy reference. Each cell's finish step adds the reals
/// p99_inflation and worst_inflation: its mean p99_latency_cycles and
/// worst_latency_cycles over the first cell's (0 while that is 0).
/// run_sweep runs finish steps in cell order, so the cells must keep
/// their order within one grid.
[[nodiscard]] std::vector<sweep_cell>
resilience_cells(ic_kind kind, resilience_config cfg,
                 std::span<const double> intensities);

/// The resilience tables' and CSV's columns. The table shows ecc and
/// drops after the retry counters, the CSV before.
inline constexpr report_column k_resilience_columns[] = {
    {"miss ratio", "miss_ratio", "miss_ratio", shown::pct, 2},
    {"", "miss_sd", "miss_ratio:sd"},
    {"p99 (cyc)", "p99_cycles", "p99_latency_cycles", shown::num, 1},
    {"p99 infl", "p99_inflation", "p99_inflation", shown::num, 2},
    {"worst (cyc)", "worst_cycles", "worst_latency_cycles", shown::num, 1},
    {"", "worst_inflation"}, {"", "injected_events"}, {"", "stall_windows"},
    {"", "se_stall_cycles", "se/fault_stall_cycles"}, {"", "link_drops"},
    {"", "ecc_retries", "mem/ecc_retries"},
    {"", "uncorrected_errors", "mem/uncorrected_errors"},
    {"", "storm_cycles", "mem/storm_cycles"},
    {"retries", "retries", "client/retries", shown::count},
    {"timeouts", "timeouts", "client/timeouts", shown::count},
    {"ecc", "", "mem/ecc_retries", shown::count},
    {"drops", "", "link_drops", shown::count},
    {"", "retry_exhausted", "client/retry_exhausted"},
    {"", "stale_responses", "client/stale_responses"},
    {"", "failed_responses", "client/failed_responses"},
    {"degr/recov", "", "health/degrade_events,health/recovery_events",
     shown::count},
    {"", "degrade_events", "health/degrade_events"},
    {"", "recovery_events", "health/recovery_events"},
    {"", "degraded_se_cycles", "se/degraded_cycles"},
    {"mean TTR", "mean_time_to_recover", "time_to_recover_cycles",
     shown::num, 0},
    {"", "feasible_trials"},
};

} // namespace bluescale::harness
