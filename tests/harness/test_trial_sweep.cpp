// run_sweep's contract: every cell x trial pair of a grid runs exactly
// once on one pool, each cell's results merge in trial order, so a grid
// is byte-identical for any thread count and to running each cell alone;
// the exported cell keeps the trace of its lowest-index trial that
// captured one.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "../test_util.hpp"
#include "harness/testbench.hpp"
#include "harness/trial_sweep.hpp"
#include "sim/rng.hpp"

namespace bluescale::harness {
namespace {

/// A cell whose trial t samples its index and `draws` uniform draws from
/// substream(trial seed, 7), and counts itself; its finish step derives a
/// mean from the merged totals.
sweep_cell draw_cell(const std::string& prefix, int draws) {
    return {prefix,
            [draws](trial_record& rec) {
                rng r(substream(rec.seed(), 7));
                double acc = 0.0;
                for (int i = 0; i < draws; ++i) acc += r.uniform_unit();
                rec.sample("index").add(rec.index());
                rec.sample("draw").add(acc);
                rec.counter("trials").inc();
            },
            [prefix](sweep_result& r) {
                const double sum = r.totals.get(prefix + "draw").samples.sum();
                const auto n = r.totals.get(prefix + "trials").count;
                set_real(r.totals, prefix + "mean_draw",
                         sum / static_cast<double>(n));
            }};
}

std::vector<double> indices(const sweep_result& r, const char* prefix) {
    return r.totals.get(std::string(prefix) + "index").samples.samples();
}

TEST(trial_sweep, results_come_back_in_trial_order) {
    const auto r = testing::run_cell({.trials = 64, .threads = 4},
                                     draw_cell("x/", 10));
    const auto idx = indices(r, "x/");
    ASSERT_EQ(idx.size(), 64u);
    for (std::uint32_t t = 0; t < 64; ++t) EXPECT_EQ(idx[t], t);
}

TEST(trial_sweep, parallel_results_identical_to_serial) {
    const auto serial = testing::run_cell({.trials = 40, .seed = 42},
                                          draw_cell("x/", 100));
    const auto parallel = testing::run_cell(
        {.trials = 40, .seed = 42, .threads = 4}, draw_cell("x/", 100));
    EXPECT_TRUE(testing::same_snapshot(serial.totals, parallel.totals));
}

TEST(trial_sweep, every_trial_runs_exactly_once) {
    constexpr std::uint32_t trials = 100;
    std::vector<std::atomic<int>> visits(2 * trials);
    std::vector<sweep_cell> cells;
    for (std::uint32_t c = 0; c < 2; ++c) {
        cells.push_back({"", [&visits, c](trial_record& rec) {
            visits[c * trials + rec.index()].fetch_add(
                1, std::memory_order_relaxed);
        }});
    }
    (void)run_sweep({.trials = trials, .threads = 8}, cells);
    for (std::uint32_t i = 0; i < 2 * trials; ++i) {
        EXPECT_EQ(visits[i].load(), 1) << "pair " << i;
    }
}

TEST(trial_sweep, serial_sweep_runs_in_trial_order) {
    // One thread runs the grid inline: cell by cell, trial by trial.
    std::vector<std::uint32_t> order;
    std::vector<sweep_cell> cells;
    for (std::uint32_t c = 0; c < 2; ++c) {
        cells.push_back({"", [&order, c](trial_record& rec) {
            order.push_back(c * 10 + rec.index());
        }});
    }
    (void)run_sweep({.trials = 3, .threads = 1}, cells);
    EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2, 10, 11, 12}));
}

TEST(trial_sweep, zero_trials_is_a_noop) {
    bool ran = false;
    const auto out = run_sweep(
        {.trials = 0, .threads = 4},
        {{"a/", [&ran](trial_record&) { ran = true; }},
         {"b/", [&ran](trial_record&) { ran = true; }}});
    EXPECT_FALSE(ran);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_TRUE(out[0].totals.entries().empty());
    EXPECT_TRUE(run_sweep({.threads = 4}, {}).empty());
}

TEST(trial_sweep, more_threads_than_trials) {
    const auto r =
        testing::run_cell({.trials = 3, .threads = 16}, draw_cell("x/", 1));
    EXPECT_EQ(indices(r, "x/"), (std::vector<double>{0, 1, 2}));
}

TEST(trial_sweep, zero_threads_means_all_hardware_threads) {
    const auto all = testing::run_cell({.trials = 12, .threads = 0},
                                       draw_cell("x/", 10));
    const auto one = testing::run_cell({.trials = 12, .threads = 1},
                                       draw_cell("x/", 10));
    EXPECT_TRUE(testing::same_snapshot(all.totals, one.totals));
}

TEST(trial_sweep, first_exception_propagates_to_caller) {
    const auto throwing = [](trial_record& rec) {
        if (rec.index() == 3) throw std::runtime_error("trial 3");
        if (rec.index() == 5) throw std::runtime_error("trial 5");
    };
    EXPECT_THROW((void)run_sweep({.trials = 32, .threads = 4},
                                 {{"", throwing}}),
                 std::runtime_error);
    // Inline, the lower trial throws first.
    try {
        (void)run_sweep({.trials = 32, .threads = 1}, {{"", throwing}});
        FAIL() << "no exception";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "trial 3");
    }
}

TEST(trial_sweep, grid_matches_each_cell_alone) {
    // Cells of different cost interleave on the pool; each must merge to
    // exactly what it gives as a grid of its own.
    const std::vector<sweep_cell> cells = {
        draw_cell("a/", 2000), draw_cell("b/", 10), draw_cell("c/", 500),
        draw_cell("d/", 1)};
    std::vector<sweep_result> alone;
    for (const auto& cell : cells) {
        alone.push_back(testing::run_cell({.trials = 9, .seed = 5}, cell));
    }
    for (unsigned threads : {1u, 4u}) {
        const auto grid =
            run_sweep({.trials = 9, .seed = 5, .threads = threads}, cells);
        ASSERT_EQ(grid.size(), cells.size());
        for (std::size_t c = 0; c < cells.size(); ++c) {
            EXPECT_TRUE(
                testing::same_snapshot(grid[c].totals, alone[c].totals))
                << "cell " << c << ", " << threads << " threads";
        }
    }
}

#if BLUESCALE_TRACE_ENABLED
/// A testbench whose trace holds one component named after trial t.
void trace_trial(trial_record& rec, testbench_options opts) {
    opts.n_clients = 4;
    testbench tb(ic_kind::bluetree, opts);
    const std::string name = "trial" + std::to_string(rec.index());
    tb.trace()
        .register_component(name)
        .emit(obs::trace_event_kind::fault_inject, rec.index());
    rec.capture(tb);
}

/// The names of a trace's components that start with "trial".
std::vector<std::string> trial_components(const obs::trace_export& trace) {
    std::vector<std::string> out;
    for (const auto& c : trace.components) {
        if (c.rfind("trial", 0) == 0) out.push_back(c);
    }
    return out;
}

TEST(trial_sweep, keeps_the_lowest_capturing_trials_trace) {
    // Trial 0 does not capture; trial 2 captures and finishes while trial
    // 1 is still running; trial 1 then captures and must replace it.
    std::atomic<bool> trial2_done{false};
    const sweep_cell exported = {"", [&](trial_record& rec) {
        if (rec.index() == 0) return;
        if (rec.index() == 1) {
            // Bounded (10 s) so a broken pool fails instead of hanging.
            for (int ms = 0; ms < 10'000 && !trial2_done.load(); ++ms) {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
        }
        trace_trial(rec, {});
        if (rec.index() == 2) trial2_done.store(true);
    }};
    const sweep_cell other = {"", [](trial_record& rec) {
        trace_trial(rec, {});
    }};
    const auto out = run_sweep(
        {.trials = 3, .threads = 3, .metrics_cell = 1, .trace_cell = 1},
        {other, exported});
    EXPECT_TRUE(trial2_done.load());
    EXPECT_EQ(trial_components(out[1].trace),
              (std::vector<std::string>{"trial1"}));
    EXPECT_FALSE(out[1].metrics.empty());
    // Only the exported cell collects.
    EXPECT_TRUE(out[0].trace.components.empty());
    EXPECT_TRUE(out[0].metrics.empty());

    // Inline, trial 0 captures first and every later trial skips its
    // export.
    const auto serial =
        run_sweep({.trials = 3, .threads = 1, .trace_cell = 0}, {other});
    EXPECT_EQ(trial_components(serial[0].trace),
              (std::vector<std::string>{"trial0"}));
}
#endif // BLUESCALE_TRACE_ENABLED

} // namespace
} // namespace bluescale::harness
