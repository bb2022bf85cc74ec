// Theory validation (extension experiment A6): the compositional
// analysis promises that a feasible interface selection makes every
// memory transaction meet its implicit deadline. Each trial drives a
// configured BlueScale fabric with the scenario's traffic and counts the
// misses, raw and beyond the constant memory/response-path allowance the
// unit-rate abstraction omits, next to the structural backlog-drain bound
// (analysis/wcrt.hpp) as a pessimism diagnostic.
#pragma once

#include "harness/bench_cli.hpp"
#include "harness/traffic_trial.hpp"

namespace bluescale::harness {

/// BlueScale trials of `s`; client c of a trial is seeded trial seed + c.
/// A trial whose selection is infeasible is not simulated and records
/// nothing.
///
/// totals ("wcrt/"): the counter feasible_trials; per-trial samples
/// worst_latency_cycles (the largest observed latency) and
/// drain_bound_cycles (the largest bounded client's drain bound); and the
/// adopted client/ counters (trial_record::adopt), among them missed,
/// missed_beyond_margin and completed.
[[nodiscard]] sweep_cell wcrt_validation_cell(const traffic_scenario& s);

/// The wcrt_validation table's and CSV's columns.
inline constexpr report_column k_wcrt_columns[] = {
    {"feasible trials", "feasible_trials", "feasible_trials",
     shown::per_trial},
    {"missed/completed", "", "client/missed,client/completed", shown::count},
    {"", "missed", "client/missed"}, {"", "completed", "client/completed"},
    {"beyond margin", "missed_beyond_margin", "client/missed_beyond_margin",
     shown::count},
    {"worst latency (cyc)", "worst_latency_cycles", "worst_latency_cycles:max",
     shown::num, 0},
    {"drain bound (cyc)", "drain_bound_cycles", "drain_bound_cycles:max",
     shown::num, 0},
};

} // namespace bluescale::harness
