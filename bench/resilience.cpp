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
//
// --csv dumps one row per (design, intensity) with the raw aggregates
// (cells rendered through obs::metric_cells off the experiment's metric
// snapshot); the file is byte-identical for any --threads setting.
// --metrics dumps the BlueScale design's merged per-trial obs::registry
// snapshot and --trace the event trace of its lowest-index trial that
// captured one, both at the highest fault intensity; the metrics file is
// likewise byte-identical for any --threads setting.
#include <cstdio>
#include <string>
#include <vector>

#include "harness/bench_cli.hpp"
#include "harness/resilience_experiment.hpp"
#include "stats/table.hpp"

using namespace bluescale;
using namespace bluescale::harness;

namespace {

constexpr double k_intensities[] = {0.0, 0.2, 0.5, 1.0};
constexpr ic_kind k_designs[] = {ic_kind::bluetree,
                                 ic_kind::bluetree_smooth,
                                 ic_kind::bluescale};

// The two inflation columns are ratios to the healthy run, which the
// driver sets as reals on the totals.
constexpr csv_column k_columns[] = {
    {"miss_ratio", "miss_ratio"}, {"miss_sd", "miss_ratio:sd"},
    {"p99_cycles", "p99_latency_cycles"}, {"p99_inflation", "p99_inflation"},
    {"worst_cycles", "worst_latency_cycles"},
    {"worst_inflation", "worst_inflation"},
    {"injected_events", "injected_events"}, {"stall_windows", "stall_windows"},
    {"se_stall_cycles", "se_stall_cycles"}, {"link_drops", "link_drops"},
    {"ecc_retries", "ecc_retries"},
    {"uncorrected_errors", "uncorrected_errors"},
    {"storm_cycles", "storm_cycles"}, {"retries", "retries"},
    {"timeouts", "timeouts"}, {"retry_exhausted", "retry_exhausted"},
    {"stale_responses", "stale_responses"},
    {"failed_responses", "failed_responses"},
    {"degrade_events", "degrade_events"},
    {"recovery_events", "recovery_events"},
    {"degraded_se_cycles", "degraded_se_cycles"},
    {"mean_time_to_recover", "time_to_recover_cycles"},
    {"feasible_trials", "feasible_trials"},
};

/// One design's table: `next` walks its cells' results, in
/// k_intensities order.
void print_design(ic_kind kind, const bench_options& opts,
                  sweep_result*& next, stats::csv_writer* csv) {
    std::printf("\n=== %s: fault-intensity sweep, %u trials, %llu "
                "cycles/trial ===\n",
                kind_name(kind), opts.trials,
                static_cast<unsigned long long>(opts.measure_cycles));

    stats::table t({"intensity", "miss ratio", "p99 (cyc)", "p99 infl",
                    "worst (cyc)", "retries", "timeouts", "ecc", "drops",
                    "degr/recov", "mean TTR"});
    double healthy_p99 = 0.0;
    double healthy_worst = 0.0;
    for (double intensity : k_intensities) {
        sweep_result& r = *next++;
        const auto mean = [&r](const char* name) {
            return r.totals.get(std::string("resilience/") + name)
                .samples.mean();
        };
        const auto total = [&r](const char* name) {
            return std::to_string(
                r.totals.get(std::string("resilience/") + name).count);
        };
        if (intensity == 0.0) {
            healthy_p99 = mean("p99_latency_cycles");
            healthy_worst = mean("worst_latency_cycles");
        }
        const double p99_inflation =
            healthy_p99 == 0.0 ? 0.0 : mean("p99_latency_cycles") / healthy_p99;
        const double worst_inflation =
            healthy_worst == 0.0
                ? 0.0
                : mean("worst_latency_cycles") / healthy_worst;

        t.add_row({stats::table::num(intensity, 1),
                   stats::table::pct(mean("miss_ratio"), 2),
                   stats::table::num(mean("p99_latency_cycles"), 1),
                   stats::table::num(p99_inflation, 2),
                   stats::table::num(mean("worst_latency_cycles"), 1),
                   total("retries"), total("timeouts"), total("ecc_retries"),
                   total("link_drops"),
                   total("degrade_events") + "/" + total("recovery_events"),
                   stats::table::num(mean("time_to_recover_cycles"), 0)});
        set_real(r.totals, "resilience/p99_inflation", p99_inflation);
        set_real(r.totals, "resilience/worst_inflation", worst_inflation);
        add_csv_row(csv, {kind_name(kind), std::to_string(intensity)},
                    r.totals, "resilience/", k_columns);
    }
    t.print();
}

} // namespace

int main(int argc, char** argv) {
    bench_options defaults;
    defaults.trials = 10;
    defaults.measure_cycles = 100'000;
    const auto opts = parse_bench_cli(
        argc, argv, defaults,
        "Resilience: deadline misses and latency inflation under "
        "fault-injection campaigns");

    const auto csv = open_bench_csv(opts, {"design", "intensity"}, k_columns);

    std::printf("Resilience under fault injection: retry/timeout recovery "
                "and graceful degradation\n");

    // Every design x intensity on one grid.
    std::vector<sweep_cell> cells;
    for (ic_kind kind : k_designs) {
        for (double intensity : k_intensities) {
            cells.push_back(resilience_cell(
                kind, {.scenario = {.measure_cycles = opts.measure_cycles},
                       .fault_intensity = intensity}));
        }
    }
    // Obs exports cover the last cell: the BlueScale design at the
    // highest intensity (the most eventful run on a timeline).
    const std::size_t exported = cells.size() - 1;
    auto results = run_sweep(sweep_from(opts, exported), cells);
    write_bench_exports(opts, results[exported]);

    sweep_result* next = results.data();
    for (ic_kind kind : k_designs) print_design(kind, opts, next, csv.get());
    return 0;
}
