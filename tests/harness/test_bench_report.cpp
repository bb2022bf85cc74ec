// The bench report renderer: one column list gives both a section's
// table and its CSV row off a cell's merged totals, with the missing-is-
// zero rule in both.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "harness/bench_cli.hpp"
#include "obs/registry.hpp"

namespace bluescale::harness {
namespace {

constexpr report_column k_columns[] = {
    {"lat", "lat", "lat", shown::num, 2},
    {"+/- sd", "lat_sd", "lat:sd", shown::num, 3},
    {"worst", "", "lat:max", shown::num, 0},
    {"share", "share", "share", shown::pct, 1},
    {"hits/misses", "", "hits,misses", shown::count},
    {"feasible", "feasible", "hits", shown::per_trial},
    {"gone", "gone", "absent", shown::num, 1},
    {"", "misses", "misses"},
};

/// Totals under "p/": a sample {1, 3}, a real 0.25 and a counter 3; no
/// "misses" or "absent".
sweep_result totals() {
    obs::registry reg;
    auto lat = reg.make_sample("p/lat");
    lat.add(1.0);
    lat.add(3.0);
    reg.make_real("p/share").set(0.25);
    reg.make_counter("p/hits").inc(3);
    sweep_result r;
    r.totals = reg.take_snapshot();
    return r;
}

TEST(bench_report, one_column_list_renders_table_and_csv_row) {
    const std::vector<sweep_result> results = {totals()};
    report_section s{"", {"design"}, k_columns, {}};
    s.rows.push_back({{"p/", {}}, {"X"}});

    EXPECT_EQ(render_table(s, results, 4),
              "| design | lat  | +/- sd | worst | share | hits/misses "
              "| feasible | gone |\n"
              "|--------|------|--------|-------|-------|-------------"
              "|----------|------|\n"
              "| X      | 2.00 | 1.414  | 3     | 25.0% | 3/0         "
              "| 3/4      | 0.0  |\n");
    EXPECT_EQ(csv_row(k_columns, {"X"}, results[0].totals, "p/"),
              (std::vector<std::string>{"X", "2.000000", "1.414214",
                                        "0.250000", "3", "0", "0"}));
}

TEST(bench_report, csv_only_columns_render_no_table) {
    const std::vector<sweep_result> results = {totals()};
    report_section s{"", {"design"}, std::span(k_columns).last(1), {}};
    s.rows.push_back({{"p/", {}}, {"X"}});
    EXPECT_EQ(render_table(s, results, 4), "");
}

TEST(bench_report, a_repeated_row_runs_its_cell_once) {
    // Row 2 (the second section's first) repeats row 0: two cells run,
    // and row 2 shows row 0's result.
    int runs = 0;
    const auto cell = [&runs](std::string prefix, std::uint64_t n) {
        return sweep_cell{prefix, [&runs, n](trial_record& rec) {
                              ++runs;
                              rec.counter("n").inc(n);
                          }};
    };
    constexpr report_column k_n[] = {{"n", "n", "n", shown::count}};
    report_section first{"", {"row"}, k_n, {}};
    first.rows.push_back({cell("a/", 1), {"a"}});
    first.rows.push_back({cell("b/", 10), {"b"}});
    report_section second{"", {"row"}, k_n, {}};
    second.rows.push_back({.cell = first.rows[0].cell,
                           .labels = {"a again"},
                           .same_as = 0});
    bench_options opts;
    opts.trials = 3;
    const auto results =
        run_report(opts, {.sections = {std::move(first), std::move(second)}});
    EXPECT_EQ(runs, 2 * 3);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].totals.get("a/n").count, 3u);
    EXPECT_EQ(results[1].totals.get("b/n").count, 30u);
    EXPECT_EQ(results[2].totals.get("a/n").count, 3u);
}

} // namespace
} // namespace bluescale::harness
