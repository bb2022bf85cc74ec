// The budget kernel behind select_interface's exact-test path, checked
// against a probe-by-probe binary search over is_schedulable: the sbf
// inversion exhaustively, and whole selections on seeded random task sets
// down to every sched_test_stats counter. Selections are also checked
// against a full period scan, which the bounded scan must reproduce.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/interface_selection.hpp"
#include "analysis/maintenance.hpp"
#include "analysis/periodic_resource.hpp"
#include "analysis/schedulability.hpp"
#include "sim/rng.hpp"

namespace bluescale::analysis {
namespace {

// --- min_budget_for_supply vs. a linear scan of sbf -----------------------

/// Checks every period <= 64, window t <= 5*Pi + 3 and demand <= t + 1:
/// the inversion must equal the first budget a linear scan of
/// maintenance_sbf reaches, and for every lower bound lo the first budget
/// >= lo that reaches the demand must be max(lo, inversion) -- the
/// monotonicity the kernel's "Theta < theta_t fails" relies on.
void check_inversion_exhaustively(const maintenance_model& m) {
    std::vector<std::uint64_t> supply;
    std::vector<std::uint64_t> first_from; // first budget >= index reaching
    for (std::uint64_t pi = 1; pi <= 64; ++pi) {
        supply.assign(pi + 1, 0);
        first_from.assign(pi + 2, pi + 1);
        for (std::uint64_t t = 0; t <= 5 * pi + 3; ++t) {
            for (std::uint64_t theta = 0; theta <= pi; ++theta) {
                supply[theta] = maintenance_sbf(t, {pi, theta}, m);
            }
            const std::uint64_t theft = m.stolen(t);
            const std::uint64_t shifted = t > theft ? t - theft : 0;
            for (std::uint64_t demand = 0; demand <= t + 1; ++demand) {
                for (std::uint64_t lo = pi + 1; lo-- > 0;) {
                    first_from[lo] =
                        supply[lo] >= demand ? lo : first_from[lo + 1];
                }
                const std::uint64_t got =
                    min_budget_for_supply(shifted, pi, demand);
                if (got != first_from[0]) {
                    FAIL() << "Pi=" << pi << " t=" << t
                           << " demand=" << demand << ": inversion " << got
                           << ", linear scan " << first_from[0];
                }
                for (std::uint64_t lo = 0; lo <= pi + 1; ++lo) {
                    if (std::max(lo, got) != first_from[lo]) {
                        FAIL() << "Pi=" << pi << " t=" << t
                               << " demand=" << demand << " lo=" << lo
                               << ": max(lo, inversion) "
                               << std::max(lo, got) << ", linear scan "
                               << first_from[lo];
                    }
                }
            }
        }
    }
}

TEST(min_budget_for_supply, matches_linear_scan_exhaustively) {
    check_inversion_exhaustively({});
}

TEST(min_budget_for_supply, matches_linear_scan_under_maintenance_shift) {
    check_inversion_exhaustively({{{7, 1}, {23, 3}}});
}

TEST(min_budget_for_supply, degenerate_inputs) {
    EXPECT_EQ(min_budget_for_supply(100, 10, 0), 0u);
    EXPECT_EQ(min_budget_for_supply(100, 0, 1), 1u);
    // sbf(t) <= t, so a demand above the window is out of reach.
    EXPECT_EQ(min_budget_for_supply(20, 10, 21), 11u);
    EXPECT_EQ(min_budget_for_supply(20, 10, 20), 10u);
}

// --- the probe-by-probe reference -----------------------------------------

/// Theorem 1's smallest budget worth probing on period Pi.
std::uint64_t reference_floor(double u, std::uint64_t period) {
    return static_cast<std::uint64_t>(
               std::floor(u * static_cast<double>(period))) +
           1;
}

/// The reference budget search over [lo, cap]: Theta = cap first, then a
/// binary search of full is_schedulable calls. The kernel must reproduce
/// its answer and its work exactly.
std::optional<std::uint64_t> reference_search(const task_set& tasks,
                                              std::uint64_t period,
                                              std::uint64_t lo,
                                              std::uint64_t cap,
                                              const analysis_context& ctx) {
    if (is_schedulable(tasks, {period, cap}, ctx.sched) !=
        sched_result::schedulable) {
        return std::nullopt;
    }
    std::uint64_t hi = cap;
    while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (is_schedulable(tasks, {period, mid}, ctx.sched) ==
            sched_result::schedulable) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    return hi;
}

std::optional<std::uint64_t> reference_min_budget(const task_set& tasks,
                                                  std::uint64_t period,
                                                  const analysis_context& ctx) {
    if (period == 0) return std::nullopt;
    if (tasks.empty()) return 0;
    const std::uint64_t lo = reference_floor(utilization(tasks), period);
    if (lo > period) return std::nullopt;
    return reference_search(tasks, period, lo, period, ctx);
}

/// The largest Theta <= Pi with Theta/Pi <= limit, by bisection over that
/// comparison (Theta = 0 always fits a positive limit).
std::uint64_t reference_cap(std::uint64_t period, double limit) {
    std::uint64_t lo = 0;
    std::uint64_t hi = period;
    while (lo < hi) {
        const std::uint64_t mid = hi - (hi - lo) / 2;
        if (static_cast<double>(mid) / static_cast<double>(period) <= limit) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    return lo;
}

/// Theta fails is_schedulable's first-job blackout clause on period Pi.
bool fails_blackout(const task_set& tasks, std::uint64_t period,
                    std::uint64_t theta, const maintenance_model& m) {
    for (const auto& task : tasks) {
        if (task.wcet > 0 && task.period < 2 * (period - theta) + task.wcet &&
            maintenance_sbf(task.period, {period, theta}, m) < task.wcet) {
            return true;
        }
    }
    return false;
}

/// How the reference scans the periods:
///  - full: every period's budget search covers [lo, Pi]; a period is
///    skipped only when its floor budget already lies beyond the final
///    filter's limit, so it could only yield a discarded candidate. The
///    oracle for what select_interface selects.
///  - bounded: select_interface's scan -- the search covers [lo, cap],
///    cap the largest budget the final filter would still keep, and on
///    the exact path a cap that fails the blackout clause drops the period
///    without a probe. The oracle for the work it counts.
enum class scan : std::uint8_t { full, bounded };

struct reference_scan {
    std::vector<resource_interface> candidates;
    double best_bw = 2.0;
};

reference_scan reference_candidates(const task_set& tasks,
                                    double level_utilization,
                                    const analysis_context& ctx, scan mode) {
    reference_scan out;
    const std::uint64_t pi_max = std::min(
        theorem2_max_period(tasks, level_utilization), ctx.max_period);
    const double u = utilization(tasks);
    const double tol = std::max(0.0, ctx.bandwidth_tolerance);
    for (std::uint64_t pi = 1; pi <= pi_max; ++pi) {
        const std::uint64_t lo = reference_floor(u, pi);
        if (lo > pi) continue;
        const double limit = out.best_bw * (1.0 + tol) + 1e-12;
        std::uint64_t cap = pi;
        if (mode == scan::full) {
            if (static_cast<double>(lo) / static_cast<double>(pi) > limit) {
                continue;
            }
        } else {
            cap = reference_cap(pi, limit);
            if (cap < lo) continue;
            if (!ctx.sched.sufficient_only &&
                fails_blackout(tasks, pi, cap, ctx.sched.maintenance)) {
                continue;
            }
        }
        const auto theta = reference_search(tasks, pi, lo, cap, ctx);
        if (!theta) continue;
        out.candidates.push_back({pi, *theta});
        out.best_bw = std::min(out.best_bw, out.candidates.back().bandwidth());
    }
    return out;
}

/// select_interface's final filter and tie-break.
std::optional<resource_interface> reference_pick(const reference_scan& scanned,
                                                 double tolerance) {
    const double tol = std::max(0.0, tolerance);
    std::optional<resource_interface> best;
    for (const auto& c : scanned.candidates) {
        const double bw = c.bandwidth();
        if (bw > scanned.best_bw * (1.0 + tol) + 1e-12) continue;
        if (!best || (tol > 0.0 ? c.period > best->period
                                : bw < best->bandwidth() - 1e-12)) {
            best = c;
        }
    }
    return best;
}

std::optional<resource_interface>
reference_select(const task_set& tasks, double level_utilization,
                 const analysis_context& ctx, scan mode = scan::full) {
    if (tasks.empty()) return resource_interface{0, 0};
    return reference_pick(
        reference_candidates(tasks, level_utilization, ctx, mode),
        ctx.bandwidth_tolerance);
}

// --- seeded property: kernel vs. reference --------------------------------

struct selection_draw {
    task_set tasks;
    double level_utilization = 0.0;
    analysis_context ctx;
};

/// Random task sets of 1-16 tasks (zero-wcet and C = T tasks included),
/// level utilizations at or above the set's, maintenance models, small
/// work caps (the abort path), tolerances and period caps.
selection_draw random_draw(std::uint64_t seed) {
    rng r(seed);
    selection_draw d;
    const std::uint64_t n = 1 + r.pick(16);
    const std::uint64_t scale = r.pick(4) == 0 ? 1500 : 150;
    const double target = r.uniform_real(0.05, 0.95);
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t period = 2 + r.uniform_u64(0, scale);
        std::uint64_t wcet = 0;
        const std::size_t kind = r.pick(16);
        if (kind == 0) {
            wcet = 0;
        } else if (kind == 1) {
            wcet = period;
        } else {
            const double share = target / static_cast<double>(n) *
                                 r.uniform_real(0.3, 1.7);
            wcet = std::clamp<std::uint64_t>(
                static_cast<std::uint64_t>(
                    std::llround(share * static_cast<double>(period))),
                1, period);
        }
        d.tasks.push_back({period, wcet});
    }
    d.level_utilization = utilization(d.tasks);
    if (r.pick(3) != 0) d.level_utilization += r.uniform_real(0.0, 0.6);

    if (r.pick(3) == 0) {
        const std::uint64_t ops = 1 + r.pick(2);
        for (std::uint64_t i = 0; i < ops; ++i) {
            const std::uint64_t period = 10 + r.uniform_u64(0, 490);
            d.ctx.sched.maintenance.ops.push_back(
                {period, 1 + r.uniform_u64(0, period / 25)});
        }
    }
    if (r.pick(3) == 0) d.ctx.bandwidth_tolerance = r.uniform_real(0.0, 0.1);
    if (r.pick(4) == 0) d.ctx.max_period = 1 + r.uniform_u64(0, 40);
    return d;
}

std::string describe(std::uint64_t seed, const selection_draw& d) {
    std::ostringstream os;
    os << "seed " << seed << ", tasks {";
    for (const auto& t : d.tasks) {
        os << " (" << t.period << "," << t.wcet << ")";
    }
    os << " }, U_level " << d.level_utilization << ", maintenance {";
    for (const auto& op : d.ctx.sched.maintenance.ops) {
        os << " (" << op.period << "," << op.cost << ")";
    }
    os << " }, tolerance " << d.ctx.bandwidth_tolerance << ", max_period "
       << d.ctx.max_period;
    return os.str();
}

std::string describe(const std::optional<resource_interface>& iface) {
    std::ostringstream os;
    if (iface) {
        os << "(" << iface->period << ", " << iface->budget << ")";
    } else {
        os << "none";
    }
    return os.str();
}

std::string describe(const std::optional<std::uint64_t>& budget) {
    std::ostringstream os;
    if (budget) {
        os << *budget;
    } else {
        os << "none";
    }
    return os.str();
}

std::string describe(const sched_test_stats& st) {
    std::ostringstream os;
    os << "tests_run " << st.tests_run << ", points_checked "
       << st.points_checked;
    return os.str();
}

constexpr std::uint64_t k_property_seeds = 400;

/// select_interface on one draw, checked against both references: it must
/// select what the full scan selects and count exactly the bounded scan's
/// work. `error` describes a mismatch (empty when there is none).
struct checked_selection {
    std::optional<resource_interface> selected;
    sched_test_stats work;
    std::string error;
};

checked_selection check_selection(std::uint64_t seed, selection_draw d) {
    checked_selection out;
    d.ctx.sched.stats = nullptr;
    const auto want = reference_select(d.tasks, d.level_utilization, d.ctx);
    sched_test_stats want_work;
    d.ctx.sched.stats = &want_work;
    const auto bounded = reference_select(d.tasks, d.level_utilization,
                                          d.ctx, scan::bounded);
    d.ctx.sched.stats = &out.work;
    out.selected = select_interface(d.tasks, d.level_utilization, d.ctx);
    if (out.selected != want || bounded != want || out.work != want_work) {
        std::ostringstream os;
        os << describe(seed, d) << "\n  kernel " << describe(out.selected)
           << ", " << describe(out.work) << "\n  full scan "
           << describe(want) << "\n  bounded scan " << describe(bounded)
           << ", " << describe(want_work);
        out.error = os.str();
    }
    return out;
}

TEST(budget_kernel_property, select_interface_matches_reference) {
    std::uint64_t with_points = 0;
    std::uint64_t with_failures = 0;
    for (std::uint64_t seed = 1; seed <= k_property_seeds; ++seed) {
        const auto checked = check_selection(seed, random_draw(seed));
        if (!checked.error.empty()) FAIL() << checked.error;
        with_points += checked.work.points_checked > 0 ? 1 : 0;
        with_failures += checked.selected ? 0 : 1;
    }
    // The draws must reach dbf points and infeasible sets, not only the
    // filters.
    EXPECT_GT(with_points, k_property_seeds / 4);
    EXPECT_GT(with_failures, 0u);
}

TEST(budget_kernel_property, min_budget_for_period_matches_reference) {
    std::uint64_t found = 0;
    for (std::uint64_t seed = 1; seed <= k_property_seeds; ++seed) {
        selection_draw d = random_draw(1'000'000 + seed);
        const std::uint64_t last =
            std::min<std::uint64_t>(min_period(d.tasks) + 2, 48);
        for (std::uint64_t pi = 0; pi <= last; ++pi) {
            sched_test_stats want_work;
            sched_test_stats got_work;
            d.ctx.sched.stats = &want_work;
            const auto want = reference_min_budget(d.tasks, pi, d.ctx);
            d.ctx.sched.stats = &got_work;
            const auto got = min_budget_for_period(d.tasks, pi, d.ctx);
            if (got != want || got_work != want_work) {
                FAIL() << describe(1'000'000 + seed, d) << ", Pi " << pi
                       << "\n  kernel " << describe(got) << ", "
                       << describe(got_work) << "\n  reference "
                       << describe(want) << ", " << describe(want_work);
            }
            found += want ? 1 : 0;
        }
    }
    EXPECT_GT(found, 0u);
}

TEST(budget_kernel_property, ladder_paths_keep_the_probe_search) {
    // sufficient_only answers probes from the sufficient portfolio,
    // which the kernel does not model: it must still match the
    // probe-by-probe search under the same configuration.
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        selection_draw d = random_draw(2'000'000 + seed);
        d.ctx.sched.sufficient_only = true;
        const auto checked = check_selection(2'000'000 + seed, d);
        ASSERT_TRUE(checked.error.empty()) << checked.error;
    }
}

// --- seeded property: bounded scan vs. full scan --------------------------

/// Sets the draw's tolerance so that the final filter's limit
/// best * (1 + tol) + 1e-12 equals, bit for bit, the bandwidth of the
/// full scan's last candidate: the candidate then sits exactly on its
/// period's cap, which the bounded scan must keep. Returns that bandwidth,
/// or nullopt (tolerance unchanged) when the last candidate is the best
/// one or no tolerance near the estimate hits it exactly.
std::optional<double> force_tie(selection_draw& d) {
    const auto scanned = reference_candidates(d.tasks, d.level_utilization,
                                              d.ctx, scan::full);
    if (scanned.candidates.empty()) return std::nullopt;
    const double target = scanned.candidates.back().bandwidth();
    const double best = scanned.best_bw;
    if (target <= best + 2e-12) return std::nullopt;
    // Step the factor 1 + tol one ulp at a time around its estimate; the
    // tolerance is then the factor minus one, exactly.
    double factor = (target - 1e-12) / best;
    for (int i = 0; i < 32; ++i) factor = std::nextafter(factor, 0.0);
    for (int i = 0; i < 64; ++i) {
        if (best * factor + 1e-12 == target) {
            d.ctx.bandwidth_tolerance = factor - 1.0;
            return target;
        }
        factor = std::nextafter(factor, 4.0);
    }
    return std::nullopt;
}

TEST(bounded_scan, selects_what_the_full_scan_selects) {
    // Every draw mixes in tolerances, Pi caps, maintenance models and
    // (one in four) the sufficient-only mode; one in three tries to put a
    // candidate exactly on its cap.
    std::uint64_t tolerant = 0;
    std::uint64_t capped = 0;
    std::uint64_t maintained = 0;
    std::uint64_t sufficient = 0;
    std::uint64_t ties = 0;
    for (std::uint64_t seed = 1; seed <= k_property_seeds; ++seed) {
        selection_draw d = random_draw(3'000'000 + seed);
        d.ctx.sched.sufficient_only = seed % 4 == 0;
        const auto tie = seed % 3 == 0 ? force_tie(d) : std::nullopt;
        const auto checked = check_selection(3'000'000 + seed, d);
        if (!checked.error.empty()) FAIL() << checked.error;
        tolerant += d.ctx.bandwidth_tolerance > 0.0 ? 1 : 0;
        capped += d.ctx.max_period < analysis_context{}.max_period ? 1 : 0;
        maintained += d.ctx.sched.maintenance.ops.empty() ? 0 : 1;
        sufficient += d.ctx.sched.sufficient_only ? 1 : 0;
        ties += tie && checked.selected &&
                        checked.selected->bandwidth() == *tie
                    ? 1
                    : 0;
    }
    EXPECT_GT(tolerant, 0u);
    EXPECT_GT(capped, 0u);
    EXPECT_GT(maintained, 0u);
    EXPECT_GT(sufficient, 0u);
    // Some selections must sit exactly on the limit, where `<=` and `<`
    // part ways.
    EXPECT_GT(ties, 0u);
}

} // namespace
} // namespace bluescale::analysis
