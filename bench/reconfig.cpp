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
#include <vector>

#include "harness/bench_cli.hpp"
#include "harness/reconfig_experiment.hpp"
#include "stats/table.hpp"

using namespace bluescale;
using namespace bluescale::harness;

namespace {

/// Reconfiguration requests per 1000 cycles.
constexpr double k_rates[] = {0.05, 0.2, 0.5};
constexpr ic_kind k_designs[] = {ic_kind::bluetree, ic_kind::bluescale};

constexpr csv_column k_columns[] = {
    {"submitted", "submitted"}, {"applied_unchecked", "applied_unchecked"},
    {"admitted", "admitted"}, {"committed", "committed"},
    {"rolled_back", "rolled_back"},
    {"rejected_infeasible", "rejected_infeasible"},
    {"rejected_overutilized", "rejected_overutilized"},
    {"rejected_path_hazard", "rejected_path_hazard"},
    {"admission_ratio", "admission_ratio"},
    {"mean_latency_cycles", "latency_cycles"},
    {"max_latency_cycles", "latency_cycles:max"},
    {"transition_misses", "transition_misses"}, {"miss_ratio", "miss_ratio"},
    {"miss_sd", "miss_ratio:sd"}, {"hard_misses", "hard_misses"},
    {"best_effort_misses", "best_effort_misses"},
    {"live_reconfigurations", "live_reconfigurations"},
    {"windows_checked", "windows_checked"},
    {"violating_windows", "violating_windows"},
    {"supply_shortfall_alarms", "supply_shortfall_alarms"},
    {"shed_events", "shed_events"}, {"restore_events", "restore_events"},
    {"shed_client_cycles", "shed_client_cycles"},
    {"shed_deferrals", "shed_deferrals"},
    {"feasible_trials", "feasible_trials"},
};

/// One design's table: `next` walks its cells' results, in k_rates
/// order.
void print_design(ic_kind kind, const bench_options& opts,
                  const sweep_result*& next, stats::csv_writer* csv) {
    std::printf("\n=== %s: request-rate sweep, %u trials, %llu "
                "cycles/trial ===\n",
                kind_name(kind), opts.trials,
                static_cast<unsigned long long>(opts.measure_cycles));

    stats::table t({"rate", "submitted", "admit%", "commit", "rollbk",
                    "rej inf/over/haz", "lat (cyc)", "trans miss",
                    "miss ratio", "hard miss", "BE miss", "shed/rest"});
    for (double rate : k_rates) {
        const sweep_result& r = *next++;
        const auto get = [&r](const char* name) -> const obs::metric_value& {
            return r.totals.get(std::string("reconfig_exp/") + name);
        };
        const auto total = [&get](const char* name) {
            return std::to_string(get(name).count);
        };
        t.add_row({stats::table::num(rate, 2),
                   std::to_string(get("submitted").count +
                                  get("applied_unchecked").count),
                   stats::table::pct(get("admission_ratio").value, 1),
                   total("committed"), total("rolled_back"),
                   total("rejected_infeasible") + "/" +
                       total("rejected_overutilized") + "/" +
                       total("rejected_path_hazard"),
                   stats::table::num(get("latency_cycles").samples.mean(), 0),
                   total("transition_misses"),
                   stats::table::pct(get("miss_ratio").samples.mean(), 2),
                   total("hard_misses"), total("best_effort_misses"),
                   total("shed_events") + "/" + total("restore_events")});
        add_csv_row(csv, {kind_name(kind), std::to_string(rate)}, r.totals,
                    "reconfig_exp/", k_columns);
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
        "Reconfig: online admission control, transactional (Pi, Theta) "
        "reconfiguration and overload shedding");

    const auto csv = open_bench_csv(opts, {"design", "rate"}, k_columns);

    std::printf("Runtime admission control and transactional "
                "reconfiguration under churn\n");

    // Every design x rate on one grid.
    std::vector<sweep_cell> cells;
    for (ic_kind kind : k_designs) {
        for (double rate : k_rates) {
            cells.push_back(reconfig_cell(
                kind, {.scenario = {.measure_cycles = opts.measure_cycles},
                       .events_per_kcycle = rate}));
        }
    }
    // Obs exports cover the last cell: the BlueScale design at the
    // highest request rate (the most eventful run on a timeline).
    const std::size_t exported = cells.size() - 1;
    const auto results = run_sweep(sweep_from(opts, exported), cells);
    write_bench_exports(opts, results[exported]);

    const sweep_result* next = results.data();
    for (ic_kind kind : k_designs) print_design(kind, opts, next, csv.get());
    return 0;
}
