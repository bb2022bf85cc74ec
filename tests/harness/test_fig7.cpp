#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "../test_util.hpp"
#include "harness/fig7_experiment.hpp"

namespace bluescale::harness {
namespace {

fig7_config small_config() {
    fig7_config cfg;
    cfg.n_processors = 16;
    cfg.measure_cycles = 15'000;
    cfg.util_lo = 0.3;
    cfg.util_hi = 0.5;
    cfg.util_step = 0.2;
    return cfg;
}

/// One design's points, each a cell of one grid.
std::vector<sweep_result> run_fig7(ic_kind kind, const fig7_config& cfg,
                                   sweep_options grid = {.trials = 2,
                                                         .seed = 7}) {
    return run_sweep(grid, fig7_cells(kind, cfg));
}

double value(const sweep_result& point, const char* name) {
    return point.totals.get(name).value;
}

TEST(fig7, sweep_covers_requested_points) {
    const auto r = run_fig7(ic_kind::bluescale, small_config());
    ASSERT_EQ(r.size(), 2u);
    EXPECT_DOUBLE_EQ(value(r[0], "fig7/target_utilization"), 0.3);
    EXPECT_DOUBLE_EQ(value(r[1], "fig7/target_utilization"), 0.5);
    for (const auto& p : r) {
        EXPECT_EQ(p.totals.get("fig7/app_miss_ratio").samples.count(), 2u);
    }
}

TEST(fig7, success_ratio_in_unit_range) {
    for (ic_kind kind : {ic_kind::bluescale, ic_kind::bluetree}) {
        for (const auto& p : run_fig7(kind, small_config())) {
            EXPECT_GE(value(p, "fig7/success_ratio"), 0.0);
            EXPECT_LE(value(p, "fig7/success_ratio"), 1.0);
            EXPECT_GE(value(p, "fig7/mean_app_miss_ratio"), 0.0);
            EXPECT_LE(value(p, "fig7/mean_app_miss_ratio"), 1.0);
        }
    }
}

TEST(fig7, all_designs_succeed_at_low_utilization) {
    auto cfg = small_config();
    cfg.util_lo = cfg.util_hi = 0.3;
    for (ic_kind kind : k_all_kinds) {
        const auto r = run_fig7(kind, cfg);
        ASSERT_EQ(r.size(), 1u);
        EXPECT_EQ(value(r[0], "fig7/success_ratio"), 1.0) << kind_name(kind);
        EXPECT_EQ(r[0].totals.get("fig7/successful_trials").count, 2u)
            << kind_name(kind);
    }
}

TEST(fig7, trial_deterministic_given_seed) {
    auto cfg = small_config();
    cfg.util_lo = cfg.util_hi = 0.4;
    const sweep_options grid = {.trials = 1, .seed = 99};
    const auto a = run_fig7(ic_kind::bluetree, cfg, grid);
    const auto b = run_fig7(ic_kind::bluetree, cfg, grid);
    ASSERT_EQ(a.size(), 1u);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_TRUE(testing::same_snapshot(a[0].totals, b[0].totals));
}

TEST(fig7, run_all_covers_six_designs) {
    auto cfg = small_config();
    cfg.util_lo = cfg.util_hi = 0.4;
    std::size_t designs = 0;
    for (ic_kind kind : k_all_kinds) {
        const auto r = run_fig7(kind, cfg, {.trials = 1, .seed = 7});
        ASSERT_EQ(r.size(), 1u) << kind_name(kind);
        EXPECT_EQ(r[0].totals.get("fig7/app_miss_ratio").samples.count(),
                  1u)
            << kind_name(kind);
        ++designs;
    }
    EXPECT_EQ(designs, 6u);
}

TEST(fig7, parallel_sweep_bit_identical_to_serial) {
    const auto serial = run_fig7(ic_kind::bluescale, small_config(),
                                 {.trials = 3, .seed = 7, .threads = 1});
    const auto parallel = run_fig7(ic_kind::bluescale, small_config(),
                                   {.trials = 3, .seed = 7, .threads = 4});

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_TRUE(
            testing::same_snapshot(serial[i].totals, parallel[i].totals))
            << "point " << i;
    }
}

TEST(fig7, sixty_four_core_configuration_runs) {
    auto cfg = small_config();
    cfg.n_processors = 64;
    cfg.util_lo = cfg.util_hi = 0.3;
    const auto r = run_fig7(ic_kind::bluescale, cfg, {.trials = 1, .seed = 7});
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r[0].totals.get("fig7/app_miss_ratio").samples.count(), 1u);
}

TEST(fig7_golden, matches_the_parent_values) {
    // Recorded from the hand-rolled (utilization, trial) grid that ran
    // fig7 before it moved onto run_sweep: seed 7, 2 trials of 10,000
    // cycles per point. The 16-processor system succeeds everywhere at
    // this length; the 64-processor one misses, so its miss ratios pin
    // the per-trial values and their trial-order sum.
    struct golden_point {
        double utilization;
        double success_ratio;
        double mean_app_miss_ratio;
    };
    struct golden_case {
        std::uint32_t n_processors;
        double util_step;
        ic_kind kind;
        std::vector<golden_point> points;
    };
    const std::vector<golden_case> cases = {
        {16, 0.4, ic_kind::bluescale,
         {{0x1.3333333333333p-2, 0x1p+0, 0x0p+0},
          {0x1.6666666666666p-1, 0x1p+0, 0x0p+0}}},
        {16, 0.4, ic_kind::bluetree,
         {{0x1.3333333333333p-2, 0x1p+0, 0x0p+0},
          {0x1.6666666666666p-1, 0x1p+0, 0x0p+0}}},
        {64, 0.2, ic_kind::bluescale,
         {{0x1.3333333333333p-2, 0x1p+0, 0x0p+0},
          {0x1p-1, 0x1p-1, 0x1p-5},
          {0x1.6666666666666p-1, 0x0p+0, 0x1.38e38e38e38e3p-3}}},
        {64, 0.2, ic_kind::bluetree,
         {{0x1.3333333333333p-2, 0x1p+0, 0x0p+0},
          {0x1p-1, 0x0p+0, 0x1.ccccccccccccdp-5},
          {0x1.6666666666666p-1, 0x0p+0, 0x1.8118118118118p-4}}},
    };
    for (const auto& gc : cases) {
        fig7_config cfg;
        cfg.n_processors = gc.n_processors;
        cfg.measure_cycles = 10'000;
        cfg.util_lo = 0.3;
        cfg.util_hi = 0.7;
        cfg.util_step = gc.util_step;
        const auto r = run_fig7(gc.kind, cfg, {.trials = 2, .seed = 7});
        ASSERT_EQ(r.size(), gc.points.size());
        for (std::size_t i = 0; i < r.size(); ++i) {
            SCOPED_TRACE(::testing::Message()
                         << kind_name(gc.kind) << ' ' << gc.n_processors
                         << " processors, point " << i);
            EXPECT_EQ(value(r[i], "fig7/target_utilization"),
                      gc.points[i].utilization);
            EXPECT_EQ(value(r[i], "fig7/success_ratio"),
                      gc.points[i].success_ratio);
            EXPECT_EQ(value(r[i], "fig7/mean_app_miss_ratio"),
                      gc.points[i].mean_app_miss_ratio);
        }
    }
}

} // namespace
} // namespace bluescale::harness
