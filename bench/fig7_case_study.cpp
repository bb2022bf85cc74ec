// Reproduces Fig. 7: system-level case study. 16/64 processors + 2 DNN
// HAs execute 10 automotive safety tasks + 10 automotive function tasks
// with interference tasks raising each processor to a target utilization;
// reports the success ratio (trials without any app deadline miss) per
// design across the utilization sweep.
//
//   $ ./bench/fig7_case_study [--trials N] [--cycles N] [--threads N]
//                             [--seed N] [--csv out.csv]
//                             [--metrics out.csv] [--trace out.json]
//                             [--profile] [--lockstep]
//
// --metrics dumps the BlueScale design's merged per-trial obs::registry
// snapshot and --trace the event trace of its lowest-index trial that
// captured one, both of the 16-processor system at the highest
// utilization point. --profile prints each cell's simulator throughput
// before the tables.
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "harness/bench_cli.hpp"
#include "harness/fig7_experiment.hpp"
#include "stats/table.hpp"

using namespace bluescale;
using namespace bluescale::harness;

namespace {

constexpr report_column k_columns[] = {
    {"", "target_utilization"},
    {"", "success_ratio"},
    {"", "app_miss_ratio", "mean_app_miss_ratio"},
};

constexpr std::uint32_t k_scales[] = {16, 64};

/// One scale's pivot table: `next` walks its designs' results, in
/// k_all_kinds order, `n_points` utilization points each.
void print_scale(std::uint32_t n_processors, const bench_options& opts,
                 const sweep_result*& next, std::size_t n_points) {
    std::printf("\n=== Fig. 7(%c): %u-core system + %u DNN HAs, %u trials "
                "x %llu cycles per point ===\n",
                n_processors == 16 ? 'a' : 'b', n_processors,
                k_fig7_accelerators, opts.trials,
                static_cast<unsigned long long>(opts.measure_cycles));

    std::vector<std::string> headers{"design"};
    for (std::size_t p = 0; p < n_points; ++p) {
        headers.push_back(stats::table::num(
            next[p].totals.get("fig7/target_utilization").value, 2));
    }
    stats::table t(std::move(headers));
    for (ic_kind kind : k_all_kinds) {
        std::vector<std::string> row{kind_name(kind)};
        for (std::size_t i = 0; i < n_points; ++i) {
            row.push_back(stats::table::num(
                (next++)->totals.get("fig7/success_ratio").value, 2));
        }
        t.add_row(std::move(row));
    }
    std::printf("success ratio vs target utilization:\n");
    t.print();
}

} // namespace

int main(int argc, char** argv) {
    bench_options defaults;
    defaults.trials = 8;
    defaults.measure_cycles = 60'000;
    const auto opts = parse_bench_cli(
        argc, argv, defaults,
        "Fig. 7 reproduction: case-study success ratio");

    std::printf("Fig. 7 reproduction: case-study success ratio, "
                "six interconnects\n");

    // Every scale x design x utilization point on one grid; the pivot
    // tables are printed from the results. Obs exports cover BlueScale's
    // 16-processor system at its highest utilization point (the last of
    // its cells).
    report_section points{"", {"processors", "design"}, k_columns, {}};
    for (std::uint32_t n_processors : k_scales) {
        const fig7_config cfg = {.n_processors = n_processors,
                                 .measure_cycles = opts.measure_cycles};
        for (ic_kind kind : k_all_kinds) {
            auto cells = fig7_cells(kind, cfg);
            for (std::size_t i = 0; i < cells.size(); ++i) {
                points.rows.push_back(
                    {std::move(cells[i]),
                     {std::to_string(n_processors), kind_name(kind)},
                     {},
                     n_processors == 16 && kind == ic_kind::bluescale &&
                         i + 1 == cells.size()});
            }
        }
    }
    // Every scale and design has the same utilization points.
    const std::size_t n_points =
        points.rows.size() / (std::size(k_scales) * std::size(k_all_kinds));
    const auto results = run_report(opts, {.sections = {std::move(points)}});

    const sweep_result* next = results.data();
    for (std::uint32_t n_processors : k_scales) {
        print_scale(n_processors, opts, next, n_points);
    }
    return 0;
}
