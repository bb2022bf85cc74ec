// Reproduces Fig. 7: system-level case study. 16/64 processors + 2 DNN
// HAs execute 10 automotive safety tasks + 10 automotive function tasks
// with interference tasks raising each processor to a target utilization;
// reports the success ratio (trials without any app deadline miss) per
// design across the utilization sweep.
//
//   $ ./bench/fig7_case_study [--trials N] [--cycles N] [--threads N]
//                             [--seed N] [--csv out.csv]
//                             [--metrics out.csv] [--trace out.json]
//
// --metrics dumps the BlueScale design's merged per-trial obs::registry
// snapshot and --trace the event trace of its lowest-index trial that
// captured one, both of the 16-processor system at the highest
// utilization point.
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

constexpr csv_column k_columns[] = {
    {"target_utilization", "target_utilization"},
    {"success_ratio", "success_ratio"},
    {"app_miss_ratio", "mean_app_miss_ratio"},
};

constexpr std::uint32_t k_scales[] = {16, 64};

/// One scale's table: `next` walks its designs' results, in k_all_kinds
/// order, `n_points` utilization points each.
void print_scale(std::uint32_t n_processors, const bench_options& opts,
                 const sweep_result*& next, std::size_t n_points,
                 stats::csv_writer* csv) {
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
        const char* design = kind_name(kind);
        std::vector<std::string> row{design};
        for (std::size_t i = 0; i < n_points; ++i) {
            const sweep_result& p = *next++;
            row.push_back(stats::table::num(
                p.totals.get("fig7/success_ratio").value, 2));
            add_csv_row(csv, {std::to_string(n_processors), design},
                        p.totals, "fig7/", k_columns);
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

    const auto csv = open_bench_csv(opts, {"processors", "design"}, k_columns);

    std::printf("Fig. 7 reproduction: case-study success ratio, "
                "six interconnects\n");

    // Every scale x design x utilization point on one grid. Obs exports
    // cover BlueScale's 16-processor system at its highest utilization
    // point (the last of its cells).
    std::vector<sweep_cell> cells;
    std::size_t exported = 0;
    for (std::uint32_t n_processors : k_scales) {
        const fig7_config cfg = {.n_processors = n_processors,
                                 .measure_cycles = opts.measure_cycles};
        for (ic_kind kind : k_all_kinds) {
            for (auto& point : fig7_cells(kind, cfg)) {
                cells.push_back(std::move(point));
            }
            if (n_processors == 16 && kind == ic_kind::bluescale) {
                exported = cells.size() - 1;
            }
        }
    }
    const auto results = run_sweep(sweep_from(opts, exported), cells);
    write_bench_exports(opts, results[exported]);

    // Every scale and design has the same utilization points.
    const std::size_t n_points =
        cells.size() / (std::size(k_scales) * std::size(k_all_kinds));
    const sweep_result* next = results.data();
    for (std::uint32_t n_processors : k_scales) {
        print_scale(n_processors, opts, next, n_points, csv.get());
    }
    return 0;
}
