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
/// stall_windows, se_stall_cycles, link_drops, ecc_retries,
/// uncorrected_errors, storm_cycles, retries, timeouts, retry_exhausted,
/// stale_responses, failed_responses, degrade_events, recovery_events,
/// degraded_se_cycles and feasible_trials.
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

} // namespace bluescale::harness
