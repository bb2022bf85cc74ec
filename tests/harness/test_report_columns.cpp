// Every name a driver's report columns read must exist in its cell's
// totals: a renamed component metric would otherwise render silently as
// "0" in its table and CSV column (obs::metric_cells' missing-is-zero
// rule). One short BlueScale trial of each cell, which registers every
// metric it can report.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "harness/analysis_service_experiment.hpp"
#include "harness/fig6_experiment.hpp"
#include "harness/maintenance_experiment.hpp"
#include "harness/reconfig_experiment.hpp"
#include "harness/resilience_experiment.hpp"
#include "harness/wcrt_experiment.hpp"

namespace bluescale::harness {
namespace {

/// The metrics `columns` read that `r`'s totals lack under `prefix`: a
/// count column's ','-joined names one by one, a ":stat" suffix dropped.
std::vector<std::string> missing(std::span<const report_column> columns,
                                 const sweep_result& r,
                                 std::string_view prefix) {
    std::vector<std::string> out;
    for (const report_column& c : columns) {
        std::string_view rest = c.metric.empty() ? c.csv : c.metric;
        for (;;) {
            const auto comma = rest.find(',');
            std::string name(prefix);
            name += rest.substr(0, std::min(comma, rest.find(':')));
            if (r.totals.find(name) == nullptr) out.push_back(name);
            if (comma == std::string_view::npos) break;
            rest.remove_prefix(comma + 1);
        }
    }
    return out;
}

/// One trial of each of `cells`, seed 1.
std::vector<sweep_result> one_trial(const std::vector<sweep_cell>& cells) {
    return run_sweep({.trials = 1, .seed = 1}, cells);
}

TEST(report_columns, resilience_metrics_exist) {
    constexpr double intensities[] = {0.0, 1.0};
    const auto cells = resilience_cells(
        ic_kind::bluescale, {.scenario = {.measure_cycles = 5'000}},
        intensities);
    for (const sweep_result& r : one_trial(cells)) {
        EXPECT_EQ(missing(k_resilience_columns, r, "resilience/"),
                  std::vector<std::string>{});
    }
}

TEST(report_columns, maintenance_metrics_exist) {
    maintenance_exp_config cfg;
    cfg.scenario.measure_cycles = 5'000;
    cfg.storm_intensity = 0.5;
    const auto r = one_trial({maintenance_cell(cfg)}).front();
    ASSERT_EQ(r.totals.get("maintenance/feasible_trials").count, 1u);
    EXPECT_EQ(missing(k_maintenance_columns, r, "maintenance/"),
              std::vector<std::string>{});
}

TEST(report_columns, reconfig_metrics_exist) {
    const reconfig_exp_config cfg = {
        .scenario = {.measure_cycles = 8'000}, .events_per_kcycle = 0.5};
    const auto r = one_trial({reconfig_cell(ic_kind::bluescale, cfg)}).front();
    EXPECT_EQ(missing(k_reconfig_columns, r, "reconfig_exp/"),
              std::vector<std::string>{});
}

TEST(report_columns, svc_storm_metrics_exist) {
    svc_storm_config cfg;
    cfg.scenario.measure_cycles = 5'000;
    const auto r = one_trial({svc_storm_cell(cfg)}).front();
    EXPECT_EQ(missing(k_svc_storm_columns, r, "svc_exp/"),
              std::vector<std::string>{});
}

TEST(report_columns, wcrt_metrics_exist) {
    const auto r = one_trial({wcrt_validation_cell({
                                 .measure_cycles = 5'000,
                                 .taskset = {.min_period_units = 100,
                                             .max_period_units = 2000},
                             })})
                       .front();
    ASSERT_EQ(r.totals.get("wcrt/feasible_trials").count, 1u);
    EXPECT_EQ(missing(k_wcrt_columns, r, "wcrt/"),
              std::vector<std::string>{});
}

TEST(report_columns, fig6_metrics_exist) {
    const auto r = one_trial({fig6_cell(ic_kind::bluescale,
                                        {.scenario = {.measure_cycles =
                                                          5'000}})})
                       .front();
    EXPECT_EQ(missing(k_fig6_columns, r, "fig6/"),
              std::vector<std::string>{});
}

} // namespace
} // namespace bluescale::harness
