// Fault campaign generation and window semantics: campaigns are pure
// functions of their config (the determinism contract parallel trial
// sweeps rely on), and fault_window is a forward-only cursor that merges
// overlapping events and resets cleanly between trials.
#include <gtest/gtest.h>

#include "sim/fault.hpp"

namespace bluescale::sim {
namespace {

fault_campaign_config config(std::uint64_t seed, double intensity = 1.0) {
    fault_campaign_config cfg;
    cfg.seed = seed;
    cfg.horizon = 50'000;
    cfg.events_per_kcycle = intensity;
    cfg.n_elements = 5;
    return cfg;
}

TEST(fault_campaign, same_seed_same_schedule) {
    const fault_campaign a(config(42));
    const fault_campaign b(config(42));
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.events(), b.events());
}

TEST(fault_campaign, different_seeds_differ) {
    const fault_campaign a(config(1));
    const fault_campaign b(config(2));
    EXPECT_NE(a.events(), b.events());
}

TEST(fault_campaign, intensity_scales_event_count) {
    EXPECT_EQ(fault_campaign(config(7, 0.0)).size(), 0u);
    // events_per_kcycle * horizon / 1000, independent of the seed.
    EXPECT_EQ(fault_campaign(config(7, 1.0)).size(), 50u);
    EXPECT_EQ(fault_campaign(config(8, 2.0)).size(), 100u);
}

TEST(fault_campaign, events_sorted_and_in_bounds) {
    const auto cfg = config(99);
    const fault_campaign c(cfg);
    cycle_t prev = 0;
    for (const auto& e : c.events()) {
        EXPECT_GE(e.start, prev);
        prev = e.start;
        EXPECT_LT(e.start, cfg.horizon);
        EXPECT_GE(e.duration, cfg.min_duration);
        EXPECT_LE(e.duration, cfg.max_duration);
        if (e.kind == fault_kind::se_stall ||
            e.kind == fault_kind::link_drop) {
            EXPECT_LT(e.target, cfg.n_elements);
        } else {
            EXPECT_EQ(e.target, 0u);
        }
    }
}

TEST(fault_campaign, slice_partitions_by_kind_and_target) {
    const fault_campaign c(config(5));
    std::size_t total = 0;
    for (std::uint32_t t = 0; t < 5; ++t) {
        total += c.slice(fault_kind::se_stall, t).size();
    }
    EXPECT_EQ(total, c.count(fault_kind::se_stall));
    EXPECT_EQ(c.slice_all(fault_kind::dram_error).size(),
              c.count(fault_kind::dram_error));
}

TEST(fault_campaign, worker_kinds_are_opt_in) {
    // The analysis-service kinds carry zero default weight: campaigns
    // seeded before the taxonomy grew stay bit-identical, and a default
    // config never schedules worker faults.
    const fault_campaign c(config(42));
    EXPECT_EQ(c.count(fault_kind::worker_crash), 0u);
    EXPECT_EQ(c.count(fault_kind::worker_stall), 0u);

    auto wcfg = config(42);
    wcfg.worker_crash_weight = 0.0;
    wcfg.worker_stall_weight = 0.0;
    EXPECT_EQ(fault_campaign(wcfg).events(), c.events());
}

TEST(fault_campaign, worker_targets_index_worker_slots) {
    auto cfg = config(13, 2.0);
    cfg.worker_crash_weight = 1.0;
    cfg.worker_stall_weight = 1.0;
    cfg.n_workers = 3;
    const fault_campaign c(cfg);
    std::size_t worker_events = 0;
    for (const auto& e : c.events()) {
        if (e.kind != fault_kind::worker_crash &&
            e.kind != fault_kind::worker_stall) {
            continue;
        }
        ++worker_events;
        EXPECT_LT(e.target, cfg.n_workers);
    }
    EXPECT_GT(worker_events, 0u);
    // Slices partition the worker kinds by slot, like every other kind.
    std::size_t sliced = 0;
    for (std::uint32_t w = 0; w < cfg.n_workers; ++w) {
        sliced += c.slice(fault_kind::worker_crash, w).size();
        sliced += c.slice(fault_kind::worker_stall, w).size();
    }
    EXPECT_EQ(sliced, worker_events);
}

TEST(fault_campaign, worker_only_campaign_touches_no_fabric_kind) {
    // The storm harness runs a second campaign with every fabric weight
    // zeroed so worker faults draw from an independent substream.
    auto cfg = config(21, 1.0);
    cfg.se_stall_weight = 0.0;
    cfg.link_drop_weight = 0.0;
    cfg.dram_error_weight = 0.0;
    cfg.backpressure_weight = 0.0;
    cfg.worker_crash_weight = 1.0;
    cfg.worker_stall_weight = 1.0;
    cfg.n_workers = 2;
    const fault_campaign c(cfg);
    ASSERT_FALSE(c.empty());
    for (const auto& e : c.events()) {
        EXPECT_TRUE(e.kind == fault_kind::worker_crash ||
                    e.kind == fault_kind::worker_stall)
            << fault_kind_name(e.kind);
    }
}

TEST(fault_window, activates_over_event_span_only) {
    fault_window w({{fault_kind::se_stall, 0, /*start=*/10,
                     /*duration=*/5}});
    for (cycle_t t = 0; t < 10; ++t) EXPECT_FALSE(w.active(t)) << t;
    for (cycle_t t = 10; t < 15; ++t) EXPECT_TRUE(w.active(t)) << t;
    for (cycle_t t = 15; t < 20; ++t) EXPECT_FALSE(w.active(t)) << t;
    EXPECT_EQ(w.activations(), 1u);
}

TEST(fault_window, overlapping_events_merge_into_one_activation) {
    fault_window w({{fault_kind::se_stall, 0, 10, 10},
                    {fault_kind::se_stall, 0, 15, 20}});
    for (cycle_t t = 10; t < 35; ++t) EXPECT_TRUE(w.active(t)) << t;
    EXPECT_FALSE(w.active(35));
    EXPECT_EQ(w.activations(), 1u);
}

TEST(fault_window, disjoint_events_count_separately) {
    fault_window w({{fault_kind::se_stall, 0, 10, 5},
                    {fault_kind::se_stall, 0, 100, 5}});
    EXPECT_TRUE(w.active(12));
    EXPECT_FALSE(w.active(50));
    EXPECT_TRUE(w.active(101));
    EXPECT_EQ(w.activations(), 2u);
}

TEST(fault_window, empty_window_never_active) {
    fault_window w;
    EXPECT_TRUE(w.empty());
    EXPECT_FALSE(w.active(0));
    EXPECT_FALSE(w.active(1'000'000));
    EXPECT_EQ(w.activations(), 0u);
}

} // namespace
} // namespace bluescale::sim
