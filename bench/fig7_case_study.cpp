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
// snapshot and --trace its trial-0 event trace, both of the 16-processor
// system at the highest utilization point.
#include <cstdio>

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

void run_scale(std::uint32_t n_processors, const bench_options& opts,
               stats::csv_writer* csv) {
    fig7_config cfg;
    cfg.n_processors = n_processors;
    cfg.measure_cycles = opts.measure_cycles;

    std::printf("\n=== Fig. 7(%c): %u-core system + %u DNN HAs, %u trials "
                "x %llu cycles per point ===\n",
                n_processors == 16 ? 'a' : 'b', n_processors,
                k_fig7_accelerators, opts.trials,
                static_cast<unsigned long long>(cfg.measure_cycles));

    std::vector<std::vector<sweep_result>> all;
    for (ic_kind kind : k_all_kinds) {
        // Obs exports cover BlueScale's 16-processor system at its
        // highest utilization point (the last one run_fig7 returns).
        cfg.sweep = sweep_from(
            opts, n_processors == 16 && kind == ic_kind::bluescale);
        all.push_back(run_fig7(kind, cfg));
        write_bench_exports(opts, cfg.sweep, all.back().back());
    }

    std::vector<std::string> headers{"design"};
    for (const auto& p : all.front()) {
        headers.push_back(stats::table::num(
            p.totals.get("fig7/target_utilization").value, 2));
    }
    stats::table t(std::move(headers));
    for (std::size_t k = 0; k < all.size(); ++k) {
        const char* design = kind_name(k_all_kinds[k]);
        std::vector<std::string> row{design};
        for (const auto& p : all[k]) {
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
    run_scale(16, opts, csv.get());
    run_scale(64, opts, csv.get());
    return 0;
}
