// Reconfiguration schedules are pure data: the same config must yield
// the same chronologically sorted, bounds-respecting event list on every
// run (the determinism contract reconfiguration experiments inherit).
#include <gtest/gtest.h>

#include <algorithm>

#include "sim/reconfig_schedule.hpp"

namespace bluescale::sim {
namespace {

reconfig_schedule_config busy_config() {
    reconfig_schedule_config cfg;
    cfg.seed = 7;
    cfg.horizon = 50'000;
    cfg.warmup = 5'000;
    cfg.events_per_kcycle = 0.5;
    cfg.n_clients = 16;
    return cfg;
}

TEST(reconfig_schedule, deterministic_for_same_config) {
    const reconfig_schedule a(busy_config());
    const reconfig_schedule b(busy_config());
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a.events(), b.events());
}

TEST(reconfig_schedule, different_seeds_differ) {
    auto cfg = busy_config();
    const reconfig_schedule a(cfg);
    cfg.seed = 8;
    const reconfig_schedule b(cfg);
    EXPECT_NE(a.events(), b.events());
}

TEST(reconfig_schedule, zero_rate_is_empty) {
    auto cfg = busy_config();
    cfg.events_per_kcycle = 0.0;
    const reconfig_schedule s(cfg);
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.size(), 0u);
}

TEST(reconfig_schedule, events_sorted_and_inside_bounds) {
    const auto cfg = busy_config();
    const reconfig_schedule s(cfg);
    ASSERT_FALSE(s.empty());
    cycle_t prev = 0;
    for (const auto& ev : s.events()) {
        EXPECT_GE(ev.at, cfg.warmup);
        EXPECT_LT(ev.at, cfg.horizon);
        EXPECT_GE(ev.at, prev);
        prev = ev.at;
        EXPECT_LT(ev.client, cfg.n_clients);
    }
}

TEST(reconfig_schedule, magnitudes_respect_action_ranges) {
    auto cfg = busy_config();
    cfg.events_per_kcycle = 2.0;
    const reconfig_schedule s(cfg);
    ASSERT_FALSE(s.empty());
    for (const auto& ev : s.events()) {
        switch (ev.action) {
        case reconfig_action::scale_up:
            EXPECT_GE(ev.magnitude, 1.0 + k_magnitude_lo);
            EXPECT_LE(ev.magnitude, 1.0 + k_magnitude_hi);
            break;
        case reconfig_action::scale_down:
            EXPECT_GE(ev.magnitude, 1.0 - k_magnitude_hi);
            EXPECT_LE(ev.magnitude, 1.0 - k_magnitude_lo);
            break;
        case reconfig_action::join:
            EXPECT_GE(ev.magnitude, k_magnitude_lo);
            EXPECT_LE(ev.magnitude, k_magnitude_hi);
            break;
        case reconfig_action::leave:
            EXPECT_EQ(ev.magnitude, 0.0);
            break;
        }
    }
}

TEST(reconfig_schedule, actions_follow_the_fixed_weights) {
    // Weights 1 : 1 : 0.5 : 0.5, so joins and leaves are a third of the
    // events between them.
    auto cfg = busy_config();
    cfg.events_per_kcycle = 2.0;
    const reconfig_schedule s(cfg);
    ASSERT_EQ(s.size(), 90u);
    for (std::size_t a = 0; a < k_reconfig_actions; ++a) {
        EXPECT_GT(s.count(static_cast<reconfig_action>(a)), 0u);
    }
    const double churn = static_cast<double>(
        s.count(reconfig_action::join) + s.count(reconfig_action::leave));
    EXPECT_NEAR(churn / static_cast<double>(s.size()), 1.0 / 3.0, 0.1);
}

TEST(reconfig_schedule, scripted_events_are_sorted) {
    const reconfig_schedule s(std::vector<reconfig_event>{
        {900, 2, reconfig_action::leave, 0.0},
        {100, 1, reconfig_action::scale_up, 1.5},
        {500, 0, reconfig_action::join, 0.3},
    });
    ASSERT_EQ(s.size(), 3u);
    EXPECT_TRUE(std::is_sorted(
        s.events().begin(), s.events().end(),
        [](const auto& a, const auto& b) { return a.at < b.at; }));
    EXPECT_EQ(s.events().front().at, 100u);
    EXPECT_EQ(s.events().back().at, 900u);
}

} // namespace
} // namespace bluescale::sim
