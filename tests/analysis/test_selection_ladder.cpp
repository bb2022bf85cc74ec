#include <gtest/gtest.h>

#include "analysis/interface_selection.hpp"
#include "analysis/schedulability.hpp"
#include "sim/rng.hpp"

namespace bluescale::analysis {
namespace {

task_set random_tasks(rng& r, int max_tasks = 5) {
    task_set tasks;
    const int n = 1 + static_cast<int>(r.pick(max_tasks));
    for (int i = 0; i < n; ++i) {
        const std::uint64_t period = 10 + r.uniform_u64(0, 490);
        const std::uint64_t wcet =
            1 + r.uniform_u64(0, std::max<std::uint64_t>(1, period / 6));
        tasks.push_back({period, wcet});
    }
    return tasks;
}

resource_interface random_interface(rng& r) {
    const std::uint64_t pi = 1 + r.uniform_u64(0, 99);
    const std::uint64_t theta = 1 + r.uniform_u64(0, pi - 1);
    return {pi, theta};
}

// The soundness contract behind the sufficient-only degraded mode (the
// analysis service's circuit breaker): whenever the sufficient
// portfolio decides, the exact test agrees. A disagreement here would
// let the degraded mode admit what the exact test rejects.
class ladder_agreement : public ::testing::TestWithParam<int> {};

TEST_P(ladder_agreement, sufficient_verdicts_match_exact) {
    rng r(100 + GetParam());
    for (int i = 0; i < 200; ++i) {
        const auto tasks = random_tasks(r);
        const auto iface = random_interface(r);
        const auto quick = is_schedulable_sufficient(tasks, iface);
        if (quick == sched_result::aborted) continue; // undecided is fine
        const auto exact = is_schedulable(tasks, iface);
        ASSERT_NE(exact, sched_result::aborted);
        EXPECT_EQ(quick, exact)
            << "portfolio flipped the verdict for Pi=" << iface.period
            << " Theta=" << iface.budget << " (" << tasks.size()
            << " tasks)";
    }
}

TEST_P(ladder_agreement, laddered_test_never_flips_a_decided_verdict) {
    // The same contract through is_schedulable's sufficient_only switch,
    // against the exact test at its default work cap.
    rng r(900 + GetParam());
    for (int i = 0; i < 200; ++i) {
        const auto tasks = random_tasks(r);
        const auto iface = random_interface(r);
        const auto exact = is_schedulable(tasks, iface);
        sched_test_config degraded;
        degraded.sufficient_only = true;
        const auto quick = is_schedulable(tasks, iface, degraded);
        if (quick == sched_result::aborted) continue; // undecided is fine
        if (exact == sched_result::aborted) {
            // The capped exact test gave up after the necessary filters
            // the portfolio shares, so only a proof can come back.
            EXPECT_EQ(quick, sched_result::schedulable);
        } else {
            EXPECT_EQ(quick, exact)
                << "sufficient_only flipped the verdict for Pi="
                << iface.period << " Theta=" << iface.budget;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, ladder_agreement, ::testing::Range(1, 9));

TEST(ladder_agreement, selection_identical_with_and_without_ladder) {
    // Seeded property: the degraded mode's selection never beats the
    // exact one. Every sufficient_only interface is exact-schedulable,
    // so the exact selector -- whose work cap is high enough that it
    // never aborts on these draws -- finds one of no more bandwidth, and
    // is feasible wherever the degraded mode is.
    const analysis_context exact_ctx;
    analysis_context degraded_ctx = exact_ctx;
    degraded_ctx.sched.sufficient_only = true;
    std::uint32_t compared = 0;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        rng r(5'000 + seed);
        const auto tasks = random_tasks(r, 4);
        const double level_u =
            utilization(tasks) + 0.05 * static_cast<double>(r.pick(6));
        const auto exact = select_interface(tasks, level_u, exact_ctx);
        const auto degraded = select_interface(tasks, level_u, degraded_ctx);
        if (!degraded) continue;
        ASSERT_TRUE(exact) << "seed " << seed << ": sufficient_only found "
                           << degraded->period << "/" << degraded->budget
                           << ", exact found nothing";
        ASSERT_EQ(is_schedulable(tasks, *degraded, exact_ctx.sched),
                  sched_result::schedulable)
            << "seed " << seed;
        // Theta_e / Pi_e <= Theta_s / Pi_s, compared exactly.
        EXPECT_LE(exact->budget * degraded->period,
                  degraded->budget * exact->period)
            << "seed " << seed << ": exact " << exact->period << "/"
            << exact->budget << " vs sufficient_only " << degraded->period
            << "/" << degraded->budget;
        ++compared;
    }
    EXPECT_GT(compared, 100u);
}

TEST(ladder_stats, cheap_decisions_and_fallbacks_are_counted) {
    // The exact path counts one test per call and one point per dbf
    // comparison; ladder_exact_fallbacks has no path left that moves it.
    sched_test_stats stats;
    sched_test_config cfg;
    cfg.stats = &stats;
    // Horizon below the first dbf step: schedulable with no point walked.
    EXPECT_EQ(is_schedulable(task_set{{1000, 1}}, {10, 9}, cfg),
              sched_result::schedulable);
    EXPECT_EQ(stats.tests_run, 1u);
    EXPECT_EQ(stats.points_checked, 0u);

    // A necessary-filter failure also counts as a test.
    EXPECT_EQ(is_schedulable(task_set{{10, 9}}, {10, 1}, cfg),
              sched_result::unschedulable);
    EXPECT_EQ(stats.tests_run, 2u);
    EXPECT_EQ(stats.points_checked, 0u);

    // A pair the exact test decides by walking dbf step points.
    EXPECT_EQ(is_schedulable(task_set{{50, 5}, {80, 8}}, {20, 7}, cfg),
              sched_result::schedulable);
    EXPECT_EQ(stats.tests_run, 3u);
    EXPECT_GT(stats.points_checked, 0u);
    EXPECT_EQ(stats.ladder_exact_fallbacks, 0u);
}

TEST(ladder_stats, sufficient_only_wins_over_cheap_first) {
    // sufficient_only is the circuit breaker's degraded mode: a set the
    // portfolio cannot decide comes back `aborted`, and no exact dbf
    // point is walked behind it -- although the exact test proves it.
    const task_set tasks{{20, 2}, {30, 3}};
    const resource_interface iface{10, 3};
    sched_test_stats portfolio_stats;
    sched_test_config portfolio;
    portfolio.stats = &portfolio_stats;
    EXPECT_EQ(is_schedulable_sufficient(tasks, iface, portfolio),
              sched_result::aborted);

    sched_test_stats degraded_stats;
    sched_test_config degraded;
    degraded.sufficient_only = true;
    degraded.stats = &degraded_stats;
    EXPECT_EQ(is_schedulable(tasks, iface, degraded), sched_result::aborted);

    sched_test_stats exact_stats;
    sched_test_config exact;
    exact.stats = &exact_stats;
    EXPECT_EQ(is_schedulable(tasks, iface, exact), sched_result::schedulable);
    EXPECT_GT(exact_stats.points_checked, 0u);
    // The degraded call did the portfolio's work and nothing more.
    EXPECT_EQ(degraded_stats, portfolio_stats);
}

} // namespace
} // namespace bluescale::analysis
