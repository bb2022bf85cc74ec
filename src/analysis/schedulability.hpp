// Compositional EDF schedulability test on a periodic resource
// (paper Sec. 5, Theorem 1).
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>

#include "analysis/demand_bound.hpp"
#include "analysis/maintenance.hpp"
#include "analysis/periodic_resource.hpp"
#include "analysis/rt_task.hpp"

namespace bluescale::analysis {

/// Outcome of a schedulability test, distinguishing "provably schedulable"
/// from both "provably not" and "test aborted" (bound too large to check
/// exhaustively -- treated as unschedulable, which is conservative).
enum class sched_result : std::uint8_t {
    schedulable,
    unschedulable,
    aborted,
};

/// Work counters for estimating the hardware interface selector's FSM
/// runtime (core::reconfig_costs::fsm_cycles) and for test assertions.
struct sched_test_stats {
    std::uint64_t tests_run = 0;      ///< schedulability tests invoked
    std::uint64_t points_checked = 0; ///< dbf/sbf comparisons performed
    /// Always 0: no test path advances it. Kept only because the
    /// end-to-end benchmark (perfbench) exports it as
    /// analysis.exact_fallbacks; remove it together with that export.
    std::uint64_t ladder_exact_fallbacks = 0;
    /// Selection-cache outcomes (analysis::selection_cache). A hit replays
    /// the cached entry's tests_run/points_checked counters into
    /// this struct, so the work totals are identical with the cache on or
    /// off; only these two counters reveal the cache.
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;

    sched_test_stats& operator+=(const sched_test_stats& other) {
        tests_run += other.tests_run;
        points_checked += other.points_checked;
        ladder_exact_fallbacks += other.ladder_exact_fallbacks;
        cache_hits += other.cache_hits;
        cache_misses += other.cache_misses;
        return *this;
    }

    friend bool operator==(const sched_test_stats&,
                           const sched_test_stats&) = default;
};

/// Upper limit on the number of dbf step points inspected before the
/// test conservatively aborts. Theorem 1's bound beta explodes as the
/// interface bandwidth approaches the task-set utilization; aborting
/// keeps the interface-selection search total.
inline constexpr std::uint64_t k_max_test_points = 1u << 20;

struct sched_test_config {
    /// Optional work counters, accumulated across calls when set.
    sched_test_stats* stats = nullptr;
    /// Device maintenance charged against the supply. The test compares
    /// dbf against the maintenance-corrected sbf and uses the corrected
    /// Theorem 1 bound; an empty model (the default) reproduces the
    /// uncorrected test bit-for-bit.
    maintenance_model maintenance = {};
    /// Degraded-precision mode (the analysis service's circuit breaker):
    /// is_schedulable() answers with the linear-time sufficient-test
    /// portfolio only and never enumerates dbf points. Sound -- a
    /// `schedulable` verdict is still a proof -- but incomplete: task sets
    /// the portfolio cannot decide come back `aborted` (conservatively
    /// treated as unschedulable by every caller). Default false reproduces
    /// the pseudo-polynomial exact test bit-for-bit.
    bool sufficient_only = false;
};

/// Theorem 1 test bound:
///   beta = 2*(Theta/Pi)*(Pi - Theta) / (Theta/Pi - U)
/// Only defined when bandwidth > U; returns 0 otherwise.
[[nodiscard]] double theorem1_beta(const resource_interface& iface,
                                   double task_utilization);

/// The exact test's enumeration horizon for a candidate that passed the
/// bandwidth filter: ceil(beta) + 1 for beta = maintenance_beta (testing
/// slightly beyond beta is sound, so the horizon rounds up). Saturating:
/// returns nullopt when beta does not fit in 64 bits, and the test then
/// aborts with no point checked -- as it already does for any horizon
/// whose point estimate exceeds the work cap. Shared by is_schedulable and
/// interface selection's budget kernel, so both enumerate the same points.
[[nodiscard]] inline std::optional<std::uint64_t> test_horizon(double beta) {
    // Below 2^64 a double's ceiling is at most 2^64 - 2048, so the cast
    // and the +1 are both defined. NaN fails the comparison too.
    if (!(beta < 18446744073709551616.0)) return std::nullopt;
    return static_cast<std::uint64_t>(std::ceil(beta)) + 1;
}

/// Checks dbf(t, tasks) <= sbf(t, iface) for all t < beta (sufficient by
/// Theorem 1 for all t). Requires iface.bandwidth() > utilization(tasks)
/// as a necessary precondition; returns unschedulable when violated.
/// With cfg.sufficient_only set, delegates to is_schedulable_sufficient.
[[nodiscard]] sched_result is_schedulable(const task_set& tasks,
                                          const resource_interface& iface,
                                          const sched_test_config& cfg = {});

/// Linear-time sufficient-test portfolio (the circuit breaker's degraded
/// mode, sched_test_config::sufficient_only):
///
///  1. necessary filters shared with the exact test: effective bandwidth
///     above utilization, and the first-job blackout check -- a failure
///     here is a proof of unschedulability;
///  2. horizon collapse: when every task period exceeds the Theorem 1
///     bound beta, no dbf step point exists inside the test horizon and
///     the set is schedulable outright;
///  3. linear demand vs. linear supply: dbf(t) <= (sum of utilizations of
///     tasks with T_i <= t) * t, checked against the linear supply lower
///     bound bw*((1 - mu)*t - burst - 2*(Pi - Theta)) at each distinct
///     period (the only points where the demand bound's slope jumps; in
///     between, supply grows strictly faster than demand).
///
/// Sound in both directions but incomplete: returns `aborted` when no
/// test decides (callers treat that as unschedulable, conservatively).
/// Work is O(n log n) in the task count with no dependence on beta.
[[nodiscard]] sched_result
is_schedulable_sufficient(const task_set& tasks,
                          const resource_interface& iface,
                          const sched_test_config& cfg = {});

} // namespace bluescale::analysis
