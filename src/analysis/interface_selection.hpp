// Interface selection algorithm (paper Sec. 5): for one Virtual Element,
// find the (Pi, Theta) pair with minimum bandwidth Theta/Pi such that the
// VE's task set stays EDF-schedulable on the periodic supply.
#pragma once

#include <cstdint>
#include <optional>

#include "analysis/analysis_context.hpp"
#include "analysis/periodic_resource.hpp"
#include "analysis/rt_task.hpp"
#include "analysis/schedulability.hpp"

namespace bluescale::analysis {

/// Theorem 2's necessary upper bound on Pi_X:
///   Pi_X <= min_{tau_i in T_X} T_i / (2 (U_level - U_X))
/// where U_level is the total utilization of *all* tasks at this level
/// (across sibling VEs) and U_X that of T_X alone. When U_level == U_X the
/// bound is vacuous and min period is returned (a larger Pi cannot reduce
/// bandwidth below what some Pi <= min T_i achieves, since the supply
/// blackout 2(Pi - Theta) must stay under the smallest period).
[[nodiscard]] std::uint64_t theorem2_max_period(const task_set& tasks,
                                                double level_utilization);

/// Minimum schedulable budget for a fixed period, found by binary search
/// (schedulability is monotone in Theta): Theta = Pi first, then the
/// midpoints of [floor, Pi). Returns nullopt when even Theta == Pi is
/// unschedulable. Uses ctx.sched only.
///
/// Two paths, one per test mode:
///  - the exact test (the default): a budget kernel answers each probe
///    of the binary search from tables -- the blackout filter inverted
///    once per Pi, and per dbf step point t the minimal budget
///    min_budget_for_supply(t - stolen(t), Pi, dbf(t)) with its prefix
///    max -- instead of a full is_schedulable call. It replays the
///    search's probe schedule, so the result and every sched_test_stats
///    counter (tests_run, points_checked) equal what the search over
///    is_schedulable would produce.
///  - ctx.sched.sufficient_only (the circuit breaker's degraded mode):
///    the probes' verdicts come from the sufficient portfolio, which the
///    kernel does not model, so the search calls is_schedulable probe by
///    probe.
[[nodiscard]] std::optional<std::uint64_t>
min_budget_for_period(const task_set& tasks, std::uint64_t period,
                      const analysis_context& ctx = {});

/// Full interface selection for one VE: scan the feasible periods
/// (1 .. Theorem-2 bound) and return the minimum-bandwidth interface
/// (ties broken toward smaller Pi, which minimizes supply jitter; with a
/// bandwidth tolerance, the largest Pi within it). Returns nullopt when no
/// feasible pair exists.
///
/// The scan is bounded by the best bandwidth found so far: on each Pi the
/// budget search covers [floor, cap] instead of [floor, Pi], where cap is
/// the largest Theta whose Theta/Pi the final pick's own comparison would
/// still keep (best * (1 + tol) + 1e-12). It probes cap first -- a
/// failure drops the period after one probe -- and a period is skipped
/// without a probe when cap lies below Theorem 1's floor or, on the exact
/// path, below the blackout floor. Since the best bandwidth only falls, a
/// pruned period could only have produced a candidate the final pick
/// discards, so the selection is the full scan's; the work counted
/// (tests_run, points_checked, and so core::reconfig_costs::fsm_cycles)
/// is that of the bounded scan, which the modeled selector FSM runs too.
/// One budget kernel serves every period of the call on the exact path.
///
/// An empty task set yields the null interface {0, 0} (bandwidth 0).
///
/// With ctx.cache set, the result (and the sched_test_stats work the
/// computation performed, replayed into ctx.sched.stats on a hit) is
/// memoized on the full inputs -- see selection_cache.hpp for why no
/// invalidation is needed and why the result is bit-identical either way.
[[nodiscard]] std::optional<resource_interface>
select_interface(const task_set& tasks, double level_utilization,
                 const analysis_context& ctx = {});

} // namespace bluescale::analysis
