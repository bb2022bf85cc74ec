#include "analysis/interface_selection.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "analysis/selection_cache.hpp"

namespace bluescale::analysis {

std::uint64_t theorem2_max_period(const task_set& tasks,
                                  double level_utilization) {
    const std::uint64_t t_min = min_period(tasks);
    if (t_min == 0) return 0;
    const double slack = level_utilization - utilization(tasks);
    if (slack <= 0.0) return t_min;
    const double bound = static_cast<double>(t_min) / (2.0 * slack);
    if (bound >= static_cast<double>(t_min)) return t_min;
    return static_cast<std::uint64_t>(std::floor(bound));
}

namespace {

/// The smallest budget worth probing on period Pi: Theta/Pi > U is
/// necessary (Theorem 1's precondition).
std::uint64_t budget_floor(double u, std::uint64_t period) {
    return static_cast<std::uint64_t>(
               std::floor(u * static_cast<double>(period))) +
           1;
}

/// The largest budget Theta <= Pi whose bandwidth Theta/Pi is still <=
/// `limit` (> 0), in that exact floating-point comparison. The floor of
/// limit * Pi lands within one of it; the comparison then settles it.
std::uint64_t budget_cap(std::uint64_t period, double limit) {
    const auto fits = [&](std::uint64_t theta) {
        return static_cast<double>(theta) / static_cast<double>(period) <=
               limit;
    };
    if (fits(period)) return period;
    auto cap = std::min(
        static_cast<std::uint64_t>(
            std::floor(limit * static_cast<double>(period))),
        period - 1);
    while (cap + 1 < period && fits(cap + 1)) ++cap;
    while (cap > 0 && !fits(cap)) --cap;
    return cap;
}

/// The budget search's probe schedule, shared by both paths: Theta = cap
/// first (nullopt when even that fails), then a binary search over
/// [lo, cap) (schedulability is monotone in Theta). A lone period
/// searches with cap = Pi; the period scan passes the cap that would
/// still beat the best bandwidth found so far.
template <typename Probe>
std::optional<std::uint64_t> search_budget(std::uint64_t lo,
                                           std::uint64_t cap,
                                           Probe&& probe) {
    if (!probe(cap)) return std::nullopt;
    std::uint64_t hi = cap;
    while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (probe(mid)) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    return hi;
}

/// The probe-by-probe budget search: each probe is a full is_schedulable
/// call. Serves the sufficient-only mode, whose verdicts come from the
/// sufficient portfolio rather than from dbf points.
std::optional<std::uint64_t> min_budget_by_probes(const task_set& tasks,
                                                  std::uint64_t period,
                                                  std::uint64_t lo,
                                                  std::uint64_t cap,
                                                  const analysis_context& ctx) {
    return search_budget(lo, cap, [&](std::uint64_t theta) {
        return is_schedulable(tasks, {period, theta}, ctx.sched) ==
               sched_result::schedulable;
    });
}

/// The default exact-test path: one kernel per task set answers every
/// probe of min_budget_by_probes's binary search from precomputed tables
/// instead of a full is_schedulable call, with the same verdict and the
/// same sched_test_stats work. A probe Theta on period Pi:
///
///  - fails with 0 points when Theta < blackout_floor_ (the blackout
///    filter, inverted once per Pi), when it fails the bandwidth filter,
///    or when test_horizon or the point estimate aborts;
///  - passes with 0 points when its horizon H(Theta) lies below the first
///    dbf step point (most probes);
///  - otherwise walks the dbf step points up to H(Theta): it fails at the
///    first point t whose minimal budget
///    theta_t = min_budget_for_supply(t - stolen(t), Pi, dbf(t)) exceeds
///    Theta, else passes having checked every point up to H(Theta). The
///    prefix max of theta_t turns the walk over points already priced
///    into one binary search.
///
/// The demand table (step points with their dbf) is shared by every Pi;
/// the prefix-max table is rebuilt per Pi into reused storage. Both grow
/// lazily, only as far as a probe's walk reaches.
class budget_kernel {
public:
    budget_kernel(const task_set& tasks, const sched_test_config& cfg)
        : u_(utilization(tasks)), mu_(cfg.maintenance.utilization()),
          burst_(static_cast<double>(cfg.maintenance.burst())), cfg_(cfg) {
        for (const auto& task : tasks) {
            if (task.wcet == 0) continue;
            wcet_tasks_.push_back({task, supply_window(task.period)});
            if (task.period == 0) continue;
            step_tasks_.push_back({task, task.period});
            first_point_ = std::min(first_point_, task.period);
        }
    }

    /// min_budget_by_probes for one period (> 0) with lo <= cap <= Pi,
    /// counting its work. A cap below the blackout floor fails every
    /// probe, so the period is dropped without one.
    std::optional<std::uint64_t> min_budget(std::uint64_t period,
                                            std::uint64_t lo,
                                            std::uint64_t cap,
                                            sched_test_stats& work) {
        start_period(period, lo);
        if (cap < blackout_floor_) return std::nullopt;
        return search_budget(lo, cap, [&](std::uint64_t theta) {
            return probe(theta, work);
        });
    }

private:
    struct wcet_task {
        rt_task task;
        std::uint64_t supply_t; ///< supply_window(period)
    };
    struct step_task {
        rt_task task;
        std::uint64_t next; ///< first multiple not yet in points_
    };
    struct step_point {
        std::uint64_t t;
        std::uint64_t supply_t; ///< supply_window(t)
        std::uint64_t demand;   ///< dbf(t)
    };

    /// The window maintenance_sbf hands to sbf: t - stolen(t), floored.
    [[nodiscard]] std::uint64_t supply_window(std::uint64_t t) const {
        const std::uint64_t theft = cfg_.maintenance.stolen(t);
        return t > theft ? t - theft : 0;
    }

    /// Every probe of one min_budget call is >= lo, so a task whose
    /// blackout clause clears by lo cannot fail one and is skipped.
    void start_period(std::uint64_t period, std::uint64_t lo) {
        period_ = period;
        prefix_max_.clear();
        // A task fails the blackout filter iff T < 2(Pi - Theta) + C and
        // sbf_m(T) < C, i.e. iff Theta < min(clear, theta_T).
        blackout_floor_ = lo;
        for (const auto& w : wcet_tasks_) {
            const std::uint64_t reach = 2 * period + w.task.wcet;
            if (w.task.period >= reach) continue;
            const std::uint64_t clear = (reach - w.task.period + 1) / 2;
            if (clear <= blackout_floor_) continue;
            blackout_floor_ = std::max(
                blackout_floor_,
                std::min(clear, min_budget_for_supply(w.supply_t, period,
                                                      w.task.wcet)));
        }
    }

    bool probe(std::uint64_t theta, sched_test_stats& work) {
        ++work.tests_run;
        if (theta < blackout_floor_) return false;
        // The bandwidth filter and the horizon, in is_schedulable's exact
        // floating-point operations.
        const double bw =
            static_cast<double>(theta) / static_cast<double>(period_);
        if (bw * (1.0 - mu_) <= u_) return false;
        const auto horizon = test_horizon(maintenance_beta(
            bw,
            static_cast<double>(period_) - static_cast<double>(theta), u_,
            mu_, burst_));
        if (!horizon) return false;
        if (*horizon < first_point_) return true;
        if (aborts(*horizon)) return false;
        return walk(theta, *horizon, work);
    }

    /// The exact test's point estimate sum_i floor(H / T_i) exceeds the
    /// cap, in is_schedulable's order of summation.
    bool aborts(std::uint64_t horizon) const {
        std::uint64_t estimate = 0;
        for (const auto& s : step_tasks_) {
            estimate += horizon / s.task.period;
            if (estimate > k_max_test_points) return true;
        }
        return false;
    }

    /// The dbf walk over (0, horizon] for a probe that reached it: it
    /// fails at the first point whose minimal budget exceeds theta.
    bool walk(std::uint64_t theta, std::uint64_t horizon,
              sched_test_stats& work) {
        auto short_at = static_cast<std::size_t>(
            std::upper_bound(prefix_max_.begin(), prefix_max_.end(), theta) -
            prefix_max_.begin());
        if (short_at == prefix_max_.size()) {
            short_at = price_until_short(theta, horizon);
        }
        if (short_at < prefix_max_.size() && points_[short_at].t <= horizon) {
            work.points_checked += short_at + 1;
            return false;
        }
        // Passed: every point up to the horizon lies before short_at.
        work.points_checked += static_cast<std::size_t>(
            std::upper_bound(
                points_.begin(),
                points_.begin() + static_cast<std::ptrdiff_t>(short_at),
                horizon,
                [](std::uint64_t h, const step_point& p) { return h < p.t; }) -
            points_.begin());
        return true;
    }

    /// Prices further points for this period, up to the horizon, and
    /// returns the index of the first one short of theta, or the number
    /// priced when none is.
    std::size_t price_until_short(std::uint64_t theta, std::uint64_t horizon) {
        for (;;) {
            const std::size_t i = prefix_max_.size();
            while (i == points_.size() && covered_ < horizon) grow(horizon);
            if (i == points_.size() || points_[i].t > horizon) return i;
            const step_point& p = points_[i];
            prefix_max_.push_back(std::max(
                i == 0 ? 0 : prefix_max_.back(),
                min_budget_for_supply(p.supply_t, period_, p.demand)));
            if (prefix_max_.back() > theta) return i;
        }
    }

    /// Appends every step point in (covered_, target], merged across tasks
    /// and accumulated into dbf. The target doubles the table's reach
    /// (capped at the horizon), so a long walk extends it a logarithmic
    /// number of times.
    void grow(std::uint64_t horizon) {
        const std::uint64_t reach = std::max(covered_, first_point_);
        const std::uint64_t target = reach >= horizon / 2 ? horizon : 2 * reach;
        fresh_.clear();
        for (auto& s : step_tasks_) {
            for (; s.next <= target; s.next += s.task.period) {
                fresh_.push_back({s.next, s.task.wcet});
            }
        }
        std::sort(fresh_.begin(), fresh_.end());
        std::uint64_t demand = points_.empty() ? 0 : points_.back().demand;
        for (std::size_t i = 0; i < fresh_.size(); ++i) {
            demand += fresh_[i].second;
            const std::uint64_t t = fresh_[i].first;
            if (i + 1 < fresh_.size() && fresh_[i + 1].first == t) continue;
            points_.push_back({t, supply_window(t), demand});
        }
        covered_ = target;
    }

    double u_;
    double mu_;
    double burst_;
    const sched_test_config& cfg_;
    std::vector<wcet_task> wcet_tasks_; ///< blackout-filter candidates
    std::vector<step_task> step_tasks_; ///< tasks with dbf steps
    std::uint64_t first_point_ = UINT64_MAX;
    std::vector<step_point> points_;
    std::uint64_t covered_ = 0; ///< points_ holds every step point <= this
    std::vector<std::pair<std::uint64_t, std::uint64_t>> fresh_;
    std::uint64_t period_ = 0;
    std::uint64_t blackout_floor_ = 0;
    std::vector<std::uint64_t> prefix_max_; ///< max theta_t, per point
};

/// Which budget search serves ctx: the kernel replays the exact test, so
/// it stands in unless the degraded sufficient-only mode is on.
bool uses_kernel(const analysis_context& ctx) {
    return !ctx.sched.sufficient_only;
}

} // namespace

std::optional<std::uint64_t>
min_budget_for_period(const task_set& tasks, std::uint64_t period,
                      const analysis_context& ctx) {
    if (period == 0) return std::nullopt;
    if (tasks.empty()) return 0;
    const std::uint64_t lo = budget_floor(utilization(tasks), period);
    if (lo > period) return std::nullopt;
    if (!uses_kernel(ctx)) {
        return min_budget_by_probes(tasks, period, lo, period, ctx);
    }

    sched_test_stats work;
    const auto theta =
        budget_kernel(tasks, ctx.sched).min_budget(period, lo, period, work);
    if (ctx.sched.stats != nullptr) *ctx.sched.stats += work;
    return theta;
}

namespace {

std::optional<resource_interface>
select_interface_uncached(const task_set& tasks, double level_utilization,
                          const analysis_context& ctx) {
    if (tasks.empty()) return resource_interface{0, 0};

    const std::uint64_t pi_max =
        std::min(theorem2_max_period(tasks, level_utilization),
                 ctx.max_period);
    if (pi_max == 0) return std::nullopt;

    const double u = utilization(tasks);
    const double tol = std::max(0.0, ctx.bandwidth_tolerance);
    std::optional<budget_kernel> kernel;
    if (uses_kernel(ctx)) kernel.emplace(tasks, ctx.sched);
    sched_test_stats work;
    std::vector<resource_interface> candidates;
    double best_bw = 2.0; // anything beats this
    // The largest bandwidth the final pick keeps, within tolerance of the
    // best found so far.
    const auto kept_limit = [&] { return best_bw * (1.0 + tol) + 1e-12; };

    for (std::uint64_t pi = 1; pi <= pi_max; ++pi) {
        // best_bw only falls, so a budget above the cap could only yield
        // a candidate the final pick discards: the search starts at the
        // cap, and a period whose cap is below Theorem 1's floor is
        // skipped.
        const std::uint64_t lo = budget_floor(u, pi);
        if (lo > pi) continue;
        const std::uint64_t cap = budget_cap(pi, kept_limit());
        if (cap < lo) continue;

        const auto theta =
            kernel ? kernel->min_budget(pi, lo, cap, work)
                   : min_budget_by_probes(tasks, pi, lo, cap, ctx);
        if (!theta) continue;
        const resource_interface candidate{pi, *theta};
        candidates.push_back(candidate);
        best_bw = std::min(best_bw, candidate.bandwidth());
    }
    if (ctx.sched.stats != nullptr) *ctx.sched.stats += work;
    if (candidates.empty()) return std::nullopt;

    // Paper-faithful: strict minimum bandwidth, ties toward smaller Pi
    // (the enumeration order). With a tolerance, prefer the largest
    // period within (1 + tol) of the minimum: the resulting server task
    // is a friendlier task for the parent level (larger T relaxes the
    // sbf-blackout and Theorem-2 constraints up the tree).
    std::optional<resource_interface> best;
    for (const auto& c : candidates) {
        const double bw = c.bandwidth();
        if (bw > kept_limit()) continue;
        if (!best) {
            best = c;
        } else if (tol > 0.0 ? c.period > best->period
                             : bw < best->bandwidth() - 1e-12) {
            best = c;
        }
    }
    return best;
}

} // namespace

std::optional<resource_interface>
select_interface(const task_set& tasks, double level_utilization,
                 const analysis_context& ctx) {
    if (ctx.cache == nullptr) {
        return select_interface_uncached(tasks, level_utilization, ctx);
    }

    const selection_key key = make_selection_key(tasks, level_utilization, ctx);
    if (auto hit = ctx.cache->lookup(key)) {
        if (ctx.sched.stats != nullptr) {
            ++ctx.sched.stats->cache_hits;
            *ctx.sched.stats += hit->work; // replay the original work
        }
        return hit->iface;
    }

    // Compute with a private stats sink so the entry can replay the exact
    // work on later hits, keeping totals identical with the cache on/off.
    sched_test_stats work;
    analysis_context local = ctx;
    local.cache = nullptr;
    local.sched.stats = &work;
    const auto iface = select_interface_uncached(tasks, level_utilization,
                                                 local);
    ctx.cache->insert(key, selection_entry{iface, work});
    if (ctx.sched.stats != nullptr) {
        ++ctx.sched.stats->cache_misses;
        *ctx.sched.stats += work;
    }
    return iface;
}

} // namespace bluescale::analysis
