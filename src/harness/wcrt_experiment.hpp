// Theory validation (extension experiment A6): the compositional
// analysis promises that a feasible interface selection makes every
// memory transaction meet its implicit deadline. Each trial drives a
// configured BlueScale fabric with the scenario's traffic and counts the
// misses, raw and beyond the constant memory/response-path allowance the
// unit-rate abstraction omits, next to the structural backlog-drain bound
// (analysis/wcrt.hpp) as a pessimism diagnostic.
#pragma once

#include "harness/traffic_trial.hpp"

namespace bluescale::harness {

/// BlueScale trials of `s`; client c of a trial is seeded trial seed + c. A trial whose selection is infeasible is not
/// simulated and records nothing.
///
/// totals ("wcrt/"): counters feasible_trials, missed,
/// missed_beyond_margin and completed; per-trial samples
/// worst_latency_cycles (the largest observed latency) and
/// drain_bound_cycles (the largest bounded client's drain bound).
[[nodiscard]] sweep_cell wcrt_validation_cell(const traffic_scenario& s);

} // namespace bluescale::harness
