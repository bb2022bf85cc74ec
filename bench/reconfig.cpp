// Runtime admission control and transactional reconfiguration
// (robustness extension, not a paper figure): sweeps the request rate of
// a seed-driven reconfiguration schedule (client task-set scale-ups and
// -downs, joins, leaves) over the Fig. 6 synthetic workload and reports,
// per design, the admission ratio by outcome, the modeled
// reconfiguration latency, deadline misses during transitions, and
// overload shed/restore activity. BlueScale routes every request through
// the online Sec. 5 admission test with transactional commit; the
// BlueTree baseline applies every change unconditionally with zero
// latency.
//
//   $ ./bench/reconfig [--trials N] [--cycles N] [--threads N]
//                      [--seed N] [--csv out.csv]
//                      [--metrics out.csv] [--trace out.json]
//                      [--profile] [--lockstep]
//
// --csv dumps one row per (design, rate) with the raw aggregates (cells
// rendered through obs::metric_cells off the experiment's metric
// snapshot); the file is byte-identical for any --threads setting.
// --metrics dumps the BlueScale design's merged per-trial obs::registry
// snapshot and --trace the event trace of its lowest-index trial that
// captured one, both at the highest request rate; the metrics file is
// likewise byte-identical for any --threads setting.
#include <cstdio>
#include <string>

#include "harness/bench_cli.hpp"
#include "harness/reconfig_experiment.hpp"

using namespace bluescale;
using namespace bluescale::harness;

int main(int argc, char** argv) {
    bench_options defaults;
    defaults.trials = 10;
    defaults.measure_cycles = 100'000;
    const auto opts = parse_bench_cli(
        argc, argv, defaults,
        "Reconfig: online admission control, transactional (Pi, Theta) "
        "reconfiguration and overload shedding");

    std::printf("Runtime admission control and transactional "
                "reconfiguration under churn\n");

    // Every design x rate on one grid, one table per design. Obs exports
    // cover the last cell: the BlueScale design at the highest request
    // rate (the most eventful run on a timeline).
    bench_report report{.csv_keys = {"design", "rate"}};
    for (ic_kind kind : {ic_kind::bluetree, ic_kind::bluescale}) {
        report_section& s = report.sections.emplace_back(report_section{
            formatted("\n=== %s: request-rate sweep, %u trials, %llu "
                      "cycles/trial ===\n",
                      kind_name(kind), opts.trials,
                      static_cast<unsigned long long>(opts.measure_cycles)),
            {"rate"}, k_reconfig_columns, {}});
        // Reconfiguration requests per 1000 cycles.
        for (double rate : {0.05, 0.2, 0.5}) {
            const reconfig_exp_config cfg = {
                .scenario = {.measure_cycles = opts.measure_cycles},
                .events_per_kcycle = rate};
            s.rows.push_back({reconfig_cell(kind, cfg),
                              {formatted("%.2f", rate)},
                              {kind_name(kind), std::to_string(rate)}});
        }
    }
    run_report(opts, report);
    return 0;
}
