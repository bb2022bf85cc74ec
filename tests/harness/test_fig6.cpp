#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../test_util.hpp"
#include "harness/factory.hpp"
#include "harness/fig6_experiment.hpp"

namespace bluescale::harness {
namespace {

constexpr sweep_options k_small_grid = {.trials = 2, .seed = 99};

fig6_config small_config() {
    fig6_config cfg;
    cfg.scenario.n_clients = 16;
    cfg.scenario.measure_cycles = 8'000;
    return cfg;
}

sweep_result run_fig6(ic_kind kind, const fig6_config& cfg,
                      const sweep_options& grid = k_small_grid) {
    return testing::run_cell(grid, fig6_cell(kind, cfg));
}

const stats::sample_set& samples(const sweep_result& r, const char* name) {
    return r.totals.get(std::string("fig6/") + name).samples;
}

TEST(fig6, produces_per_trial_samples) {
    const auto r = run_fig6(ic_kind::bluescale, small_config());
    EXPECT_EQ(samples(r, "blocking_us").count(), 2u);
    EXPECT_EQ(samples(r, "miss_ratio").count(), 2u);
    EXPECT_GT(r.totals.get("fig6/system_clock_mhz").value, 0.0);
}

TEST(fig6, bluescale_selection_feasible_at_paper_utilizations) {
    const auto r = run_fig6(ic_kind::bluescale, small_config());
    EXPECT_EQ(r.totals.get("fig6/feasible_trials").count, 2u);
}

TEST(fig6, metrics_within_sane_ranges) {
    for (ic_kind kind :
         {ic_kind::bluescale, ic_kind::bluetree, ic_kind::gsmtree_tdm}) {
        const auto r = run_fig6(kind, small_config());
        EXPECT_GE(samples(r, "miss_ratio").min(), 0.0) << kind_name(kind);
        EXPECT_LE(samples(r, "miss_ratio").max(), 1.0) << kind_name(kind);
        EXPECT_GE(samples(r, "blocking_us").min(), 0.0) << kind_name(kind);
        EXPECT_LE(samples(r, "blocking_us").mean(),
                  samples(r, "worst_blocking_us").max())
            << kind_name(kind);
    }
}

TEST(fig6, deterministic_given_seed) {
    const auto a = run_fig6(ic_kind::bluetree, small_config());
    const auto b = run_fig6(ic_kind::bluetree, small_config());
    EXPECT_TRUE(testing::same_snapshot(a.totals, b.totals));
}

TEST(fig6, different_seeds_differ) {
    const auto cfg = small_config();
    const auto a = run_fig6(ic_kind::bluetree, cfg);
    auto grid = k_small_grid;
    grid.seed = 12345;
    const auto b = run_fig6(ic_kind::bluetree, cfg, grid);
    EXPECT_NE(samples(a, "blocking_us").mean(),
              samples(b, "blocking_us").mean());
}

TEST(fig6, run_all_covers_six_designs) {
    std::vector<sweep_cell> cells;
    for (ic_kind kind : k_all_kinds) {
        cells.push_back(fig6_cell(kind, small_config()));
    }
    const auto all = run_sweep({.trials = 1, .seed = 99}, cells);
    ASSERT_EQ(all.size(), 6u);
    for (std::size_t i = 0; i < all.size(); ++i) {
        // In k_all_kinds order: each design ran at its own clock.
        EXPECT_EQ(samples(all[i], "blocking_us").count(), 1u);
        EXPECT_EQ(all[i].totals.get("fig6/system_clock_mhz").value,
                  hwcost::system_clock_mhz(to_design(k_all_kinds[i]), 16));
    }
}

TEST(fig6, extended_kind_runs_through_harness) {
    const auto r = run_fig6(ic_kind::axi_hyperconnect, small_config());
    EXPECT_EQ(samples(r, "blocking_us").count(), 2u);
    EXPECT_GE(samples(r, "miss_ratio").min(), 0.0);
    EXPECT_LE(samples(r, "miss_ratio").max(), 1.0);
}

TEST(fig6, parallel_trials_bit_identical_to_serial) {
    // The execution-layer contract: aggregates are exactly equal (not
    // just close) for any thread count, because per-trial results are
    // merged in trial order.
    auto grid = k_small_grid;
    grid.trials = 6;
    for (ic_kind kind : {ic_kind::bluescale, ic_kind::bluetree}) {
        grid.threads = 1;
        const auto serial = run_fig6(kind, small_config(), grid);
        grid.threads = 4;
        const auto parallel = run_fig6(kind, small_config(), grid);
        EXPECT_EQ(samples(serial, "blocking_us").count(), 6u);
        EXPECT_TRUE(testing::same_snapshot(serial.totals, parallel.totals))
            << kind_name(kind);
    }
}

TEST(fig6, se_override_applies) {
    auto cfg = small_config();
    core::se_params se;
    se.buffer_depth = 4;
    se.policy = core::server_policy::fixed_priority;
    cfg.bluescale_se = se;
    const auto r =
        run_fig6(ic_kind::bluescale, cfg, {.trials = 1, .seed = 99});
    EXPECT_EQ(samples(r, "blocking_us").count(), 1u); // just runs through
}

} // namespace
} // namespace bluescale::harness
