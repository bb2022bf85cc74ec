// Resilience under fault injection (robustness extension, not a paper
// figure): sweeps a seed-driven fault campaign's intensity over the Fig. 6
// synthetic workload and reports, per design, the deadline-miss ratio,
// p99 and worst-case latency inflation relative to the healthy run,
// recovery counter totals, and the mean time-to-recover of degraded
// BlueScale elements.
//
//   $ ./bench/resilience [--trials N] [--cycles N] [--threads N]
//                        [--seed N] [--csv out.csv]
//                        [--metrics out.csv] [--trace out.json]
//                        [--profile] [--lockstep]
//
// --csv dumps one row per (design, intensity) with the raw aggregates
// (cells rendered through obs::metric_cells off the experiment's metric
// snapshot); the file is byte-identical for any --threads setting.
// --metrics dumps the BlueScale design's merged per-trial obs::registry
// snapshot and --trace the event trace of its lowest-index trial that
// captured one, both at the highest fault intensity (the last cell); the
// metrics file is likewise byte-identical for any --threads setting.
#include <cstdio>
#include <string>

#include "harness/bench_cli.hpp"
#include "harness/resilience_experiment.hpp"

using namespace bluescale;
using namespace bluescale::harness;

namespace {

constexpr double k_intensities[] = {0.0, 0.2, 0.5, 1.0};

} // namespace

int main(int argc, char** argv) {
    bench_options defaults;
    defaults.trials = 10;
    defaults.measure_cycles = 100'000;
    const auto opts = parse_bench_cli(
        argc, argv, defaults,
        "Resilience: deadline misses and latency inflation under "
        "fault-injection campaigns");

    std::printf("Resilience under fault injection: retry/timeout recovery "
                "and graceful degradation\n");

    // Every design x intensity on one grid, one table per design.
    bench_report report{.csv_keys = {"design", "intensity"}};
    for (ic_kind kind : {ic_kind::bluetree, ic_kind::bluetree_smooth,
                         ic_kind::bluescale}) {
        report_section& s = report.sections.emplace_back(report_section{
            formatted("\n=== %s: fault-intensity sweep, %u trials, %llu "
                      "cycles/trial ===\n",
                      kind_name(kind), opts.trials,
                      static_cast<unsigned long long>(opts.measure_cycles)),
            {"intensity"}, k_resilience_columns, {}});
        auto cells = resilience_cells(
            kind, {.scenario = {.measure_cycles = opts.measure_cycles}},
            k_intensities);
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const double intensity = k_intensities[i];
            s.rows.push_back({std::move(cells[i]),
                              {formatted("%.1f", intensity)},
                              {kind_name(kind), std::to_string(intensity)}});
        }
    }
    run_report(opts, report);
    return 0;
}
