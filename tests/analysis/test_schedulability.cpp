#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "analysis/interface_selection.hpp"
#include "analysis/schedulability.hpp"
#include "sim/rng.hpp"

namespace bluescale::analysis {
namespace {

/// Brute-force EDF simulation on the worst-case periodic supply pattern:
/// the first period delivers its budget as EARLY as possible and every
/// later period as LATE as possible, which realizes the maximal blackout
/// 2(Pi - Theta) that sbf models. All tasks release synchronously at 0.
/// Returns true when no deadline is missed within the horizon.
bool edf_simulation_meets_deadlines(const task_set& tasks,
                                    const resource_interface& iface,
                                    std::uint64_t horizon) {
    struct job {
        std::uint64_t deadline;
        std::uint64_t remaining;
    };
    std::vector<std::deque<job>> queues(tasks.size());

    for (std::uint64_t t = 0; t < horizon; ++t) {
        // Releases.
        for (std::size_t i = 0; i < tasks.size(); ++i) {
            if (tasks[i].period != 0 && t % tasks[i].period == 0 &&
                tasks[i].wcet > 0) {
                queues[i].push_back({t + tasks[i].period, tasks[i].wcet});
            }
        }
        // Supply in this slot?
        const std::uint64_t phase = t % iface.period;
        const bool supplied =
            t < iface.period
                ? phase < iface.budget                  // first period: early
                : phase >= iface.period - iface.budget; // later: late
        if (supplied) {
            // EDF pick.
            int best = -1;
            std::uint64_t best_deadline = ~0ull;
            for (std::size_t i = 0; i < queues.size(); ++i) {
                if (!queues[i].empty() &&
                    queues[i].front().deadline < best_deadline) {
                    best_deadline = queues[i].front().deadline;
                    best = static_cast<int>(i);
                }
            }
            if (best >= 0) {
                auto& q = queues[static_cast<std::size_t>(best)];
                if (--q.front().remaining == 0) q.pop_front();
            }
        }
        // Deadline checks (a job due at t+1 must be done by end of slot t).
        for (auto& q : queues) {
            if (!q.empty() && q.front().deadline <= t + 1 &&
                q.front().remaining > 0) {
                return false;
            }
        }
    }
    return true;
}

TEST(theorem1_beta, undefined_when_bandwidth_at_most_utilization) {
    EXPECT_EQ(theorem1_beta({10, 2}, 0.2), 0.0);
    EXPECT_EQ(theorem1_beta({10, 2}, 0.5), 0.0);
}

TEST(theorem1_beta, matches_formula) {
    // bw=0.5, gap=5, U=0.25 -> beta = 2*0.5*5/0.25 = 20.
    EXPECT_DOUBLE_EQ(theorem1_beta({10, 5}, 0.25), 20.0);
}

TEST(theorem1_beta, dedicated_resource_has_zero_bound) {
    EXPECT_DOUBLE_EQ(theorem1_beta({10, 10}, 0.5), 0.0);
}

TEST(is_schedulable, empty_set_always_schedulable) {
    EXPECT_EQ(is_schedulable({}, {10, 1}), sched_result::schedulable);
}

TEST(is_schedulable, null_interface_never_schedulable) {
    EXPECT_EQ(is_schedulable({{10, 1}}, {0, 0}),
              sched_result::unschedulable);
    EXPECT_EQ(is_schedulable({{10, 1}}, {10, 0}),
              sched_result::unschedulable);
}

TEST(is_schedulable, utilization_precondition) {
    // U = 0.5, bandwidth = 0.5: strict inequality required.
    EXPECT_EQ(is_schedulable({{10, 5}}, {10, 5}),
              sched_result::unschedulable);
}

TEST(is_schedulable, dedicated_resource_low_utilization) {
    EXPECT_EQ(is_schedulable({{10, 5}}, {1, 1}), sched_result::schedulable);
}

TEST(is_schedulable, blackout_longer_than_period_fails) {
    // Pi=10, Theta=1 -> blackout 18 > period 5: first job must miss.
    EXPECT_EQ(is_schedulable({{5, 1}}, {10, 1}),
              sched_result::unschedulable);
}

TEST(is_schedulable, textbook_feasible_case) {
    // Task (100, 20) on (10, 3): bw 0.3 > U 0.2; sbf(100) >= 20.
    EXPECT_EQ(is_schedulable({{100, 20}}, {10, 3}),
              sched_result::schedulable);
}

TEST(is_schedulable, multiple_tasks) {
    const task_set s{{50, 5}, {100, 10}, {200, 20}};
    // U = 0.1 + 0.1 + 0.1 = 0.3.
    EXPECT_EQ(is_schedulable(s, {10, 4}), sched_result::schedulable);
    EXPECT_EQ(is_schedulable(s, {10, 3}), sched_result::unschedulable);
}

TEST(is_schedulable, counters_accumulate) {
    sched_test_stats st;
    sched_test_config cfg;
    cfg.stats = &st;
    // Task (5, 1) on (4, 2): beta = 2*0.5*2/0.3 ~= 6.7, so the step point
    // t = 5 is actually inspected.
    (void)is_schedulable({{5, 1}}, {4, 2}, cfg);
    EXPECT_EQ(st.tests_run, 1u);
    EXPECT_GT(st.points_checked, 0u);
    (void)is_schedulable({{5, 1}}, {4, 2}, cfg);
    EXPECT_EQ(st.tests_run, 2u);
}

TEST(is_schedulable, aborts_when_bound_explodes) {
    static_assert(k_max_test_points == 1u << 20);
    // Bandwidth (0.5) barely above U (0.4999999) with a tiny supply gap:
    // beta ~= 2e7 and the short-period task generates ~2.5M step points,
    // beyond the 2^20 cap -> the test must abort, not hang.
    const task_set s{{8, 2}, {10'000'000, 2'499'999}};
    EXPECT_EQ(is_schedulable(s, {4, 2}), sched_result::aborted);
    // Ten times the gap: ~250k points, under the cap -> a verdict.
    const task_set t{{8, 2}, {1'000'000, 249'999}};
    EXPECT_NE(is_schedulable(t, {4, 2}), sched_result::aborted);
}

TEST(is_schedulable, beta_beyond_64_bits_aborts) {
    // U = 1/2 + 1/3 + 1/8 = 0.958333...; the bandwidth 28750/30000 lands
    // one ulp above it, so beta ~= 2.16e19 does not fit in 64 bits. The
    // set is unschedulable (dbf(240000) = 230000 > sbf = 228750), so the
    // test must not prove it; like any horizon past the work cap, it
    // aborts with no point checked.
    const task_set s{{20000, 10000}, {30000, 10000}, {80000, 10000}};
    const resource_interface iface{30000, 28750};
    ASSERT_GT(iface.bandwidth(), utilization(s));
    EXPECT_GT(dbf(240000, s), sbf(240000, iface));
    EXPECT_EQ(test_horizon(maintenance_beta(iface, utilization(s), {})),
              std::nullopt);

    sched_test_stats st;
    sched_test_config cfg;
    cfg.stats = &st;
    EXPECT_EQ(is_schedulable(s, iface, cfg), sched_result::aborted);
    EXPECT_EQ(st.tests_run, 1u);
    EXPECT_EQ(st.points_checked, 0u);
}

struct sched_case {
    task_set tasks;
    resource_interface iface;
};

class schedulability_soundness
    : public ::testing::TestWithParam<sched_case> {};

TEST_P(schedulability_soundness,
       analytic_schedulable_implies_simulation_meets_deadlines) {
    const auto& p = GetParam();
    const auto verdict = is_schedulable(p.tasks, p.iface);
    if (verdict == sched_result::schedulable) {
        std::uint64_t horizon = 10 * p.iface.period;
        for (const auto& t : p.tasks) horizon = std::max(horizon, 10 * t.period);
        EXPECT_TRUE(
            edf_simulation_meets_deadlines(p.tasks, p.iface, horizon))
            << "analysis claimed schedulable but worst-case supply "
               "simulation missed a deadline";
    }
}

INSTANTIATE_TEST_SUITE_P(
    cases, schedulability_soundness,
    ::testing::Values(
        sched_case{{{100, 20}}, {10, 3}},
        sched_case{{{50, 5}, {100, 10}, {200, 20}}, {10, 4}},
        sched_case{{{20, 2}, {40, 4}}, {5, 2}},
        sched_case{{{30, 3}}, {7, 2}},
        sched_case{{{10, 1}, {20, 1}, {40, 1}, {80, 1}}, {8, 2}},
        sched_case{{{16, 4}}, {4, 2}},
        sched_case{{{12, 6}}, {2, 2}},
        sched_case{{{9, 1}, {27, 3}}, {6, 2}}));

class schedulability_random_oracle : public ::testing::TestWithParam<int> {
};

TEST_P(schedulability_random_oracle, never_accepts_what_simulation_rejects) {
    // Randomized soundness sweep: whenever the analytic test says
    // schedulable, a brute-force EDF simulation on the worst-case supply
    // pattern must meet every deadline. (The converse need not hold --
    // the test is sufficient, not exact.)
    rng rnd(100 + GetParam());
    int accepted = 0;
    for (int trial = 0; trial < 60; ++trial) {
        task_set tasks;
        const int n = 1 + static_cast<int>(rnd.pick(4));
        for (int i = 0; i < n; ++i) {
            const std::uint64_t period = 4 + rnd.uniform_u64(0, 60);
            tasks.push_back(
                {period, 1 + rnd.uniform_u64(0, period / 2)});
        }
        const std::uint64_t pi = 2 + rnd.uniform_u64(0, 14);
        const resource_interface iface{pi, 1 + rnd.uniform_u64(0, pi - 1)};
        if (is_schedulable(tasks, iface) != sched_result::schedulable) {
            continue;
        }
        ++accepted;
        std::uint64_t horizon = 20 * pi;
        for (const auto& t : tasks) {
            horizon = std::max(horizon, 20 * t.period);
        }
        ASSERT_TRUE(edf_simulation_meets_deadlines(tasks, iface, horizon))
            << "trial " << trial << ": accepted an unschedulable system";
    }
    // The sweep must exercise the accepting path, not vacuously pass.
    EXPECT_GT(accepted, 0);
}

INSTANTIATE_TEST_SUITE_P(seeds, schedulability_random_oracle,
                         ::testing::Range(0, 10));

TEST(sufficient_portfolio, schedulable_verdicts_are_a_subset_of_exact) {
    // The degraded-precision mode (the analysis service's circuit-breaker
    // fallback) must stay SOUND: whenever the linear-time portfolio
    // proves schedulability, the pseudo-polynomial exact test agrees.
    // The converse need not hold -- `aborted` (undecided) is expected.
    rng rnd(424);
    int proved = 0;
    int undecided = 0;
    for (int trial = 0; trial < 200; ++trial) {
        task_set tasks;
        const int n = 1 + static_cast<int>(rnd.pick(4));
        for (int i = 0; i < n; ++i) {
            const std::uint64_t period = 4 + rnd.uniform_u64(0, 120);
            tasks.push_back(
                {period, 1 + rnd.uniform_u64(0, period / 3)});
        }
        const std::uint64_t pi = 2 + rnd.uniform_u64(0, 14);
        const resource_interface iface{pi, 1 + rnd.uniform_u64(0, pi - 1)};
        const auto cheap = is_schedulable_sufficient(tasks, iface);
        if (cheap == sched_result::schedulable) {
            ++proved;
            EXPECT_EQ(is_schedulable(tasks, iface),
                      sched_result::schedulable)
                << "trial " << trial
                << ": sufficient portfolio accepted a system the exact "
                   "test rejects (unsound degraded mode)";
        } else if (cheap == sched_result::aborted) {
            ++undecided;
        } else {
            // An unschedulable verdict is a proof in this direction too.
            EXPECT_NE(is_schedulable(tasks, iface),
                      sched_result::schedulable)
                << "trial " << trial;
        }
    }
    // The sweep must exercise both the proving and the undecided paths.
    EXPECT_GT(proved, 0);
    EXPECT_GT(undecided, 0);
}

TEST(sufficient_portfolio, config_flag_delegates_to_the_portfolio) {
    // sched_test_config::sufficient_only answers through the portfolio
    // bit-for-bit -- the service's breaker swaps tests, not semantics.
    rng rnd(99);
    sched_test_config degraded;
    degraded.sufficient_only = true;
    for (int trial = 0; trial < 60; ++trial) {
        task_set tasks;
        const int n = 1 + static_cast<int>(rnd.pick(3));
        for (int i = 0; i < n; ++i) {
            const std::uint64_t period = 4 + rnd.uniform_u64(0, 60);
            tasks.push_back(
                {period, 1 + rnd.uniform_u64(0, period / 2)});
        }
        const std::uint64_t pi = 2 + rnd.uniform_u64(0, 14);
        const resource_interface iface{pi, 1 + rnd.uniform_u64(0, pi - 1)};
        EXPECT_EQ(is_schedulable(tasks, iface, degraded),
                  is_schedulable_sufficient(tasks, iface))
            << "trial " << trial;
    }
}

TEST(schedulability_oracle, selection_results_survive_simulation) {
    // The end of the pipeline: interfaces chosen by select_interface must
    // pass the brute-force oracle too.
    rng rnd(55);
    for (int trial = 0; trial < 30; ++trial) {
        task_set tasks;
        const int n = 1 + static_cast<int>(rnd.pick(3));
        for (int i = 0; i < n; ++i) {
            const std::uint64_t period = 10 + rnd.uniform_u64(0, 90);
            tasks.push_back(
                {period, 1 + rnd.uniform_u64(0, period / 6)});
        }
        const auto iface =
            select_interface(tasks, utilization(tasks) + 0.25);
        if (!iface || iface->budget == 0) continue;
        std::uint64_t horizon = 20 * iface->period;
        for (const auto& t : tasks) {
            horizon = std::max(horizon, 20 * t.period);
        }
        EXPECT_TRUE(
            edf_simulation_meets_deadlines(tasks, *iface, horizon))
            << "trial " << trial;
    }
}

} // namespace
} // namespace bluescale::analysis
