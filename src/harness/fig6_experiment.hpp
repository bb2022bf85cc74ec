// Interconnect-level real-time performance experiment (paper Sec. 6.3 /
// Fig. 6): traffic generators with random GEDF-prioritized workloads at
// 70-90% interconnect utilization; metrics are blocking latency and
// deadline miss ratio per design.
#pragma once

#include <cstdint>
#include <optional>

#include "core/scale_element.hpp"
#include "harness/bench_cli.hpp"
#include "harness/factory.hpp"
#include "harness/traffic_trial.hpp"

namespace bluescale::harness {

struct fig6_config {
    traffic_scenario scenario = {};
    std::uint32_t bluetree_alpha = 2;
    /// Optional SE parameter override for BlueScale (ablations: buffer
    /// depth, server policy, work conservation). unit_cycles is forced to
    /// the memory controller's initiation interval.
    std::optional<core::se_params> bluescale_se = std::nullopt;
};

/// The trials of one design. Every design sees identical per-trial
/// workloads (the trial seed drives the generator), matching the paper's
/// "data input ... identical in each execution".
///
/// totals ("fig6/"): per-trial samples blocking_us (mean blocking
/// latency, microseconds of wall-clock at the design's achievable system
/// frequency), worst_blocking_us and miss_ratio (in [0, 1]); the counter
/// feasible_trials (BlueScale interface selection feasible); and the
/// real system_clock_mhz.
[[nodiscard]] sweep_cell fig6_cell(ic_kind kind, const fig6_config& cfg);

/// The fig6-family tables' columns: the cross-trial means of blocking_us,
/// worst_blocking_us and miss_ratio.
inline constexpr report_column k_fig6_columns[] = {
    {"blocking lat (us)", "blocking_us", "blocking_us", shown::num, 3},
    {"worst (us)", "worst_us", "worst_blocking_us", shown::num, 2},
    {"miss ratio", "miss_ratio", "miss_ratio", shown::pct, 2},
};

} // namespace bluescale::harness
