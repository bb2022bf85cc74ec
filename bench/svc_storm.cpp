// Hardened analysis-as-a-service under admission storms (robustness
// extension, not a paper figure): sweeps the request rate of a
// seed-driven storm of client task-change requests fired at
// svc::analysis_service -- the bounded-queue, multi-worker admission
// server fronting core::reconfig_manager -- while worker crash/stall
// faults and fabric path hazards run concurrently. Reports, per rate,
// the outcome mix (committed / rejected / expired / shed), retry and
// crash-requeue activity, result-cache hit rate, circuit-breaker trips
// with degraded-precision answers, and the conservation + hard-client
// acceptance checks.
//
//   $ ./bench/svc_storm [--trials N] [--cycles N] [--threads N]
//                       [--seed N] [--csv out.csv]
//                       [--metrics out.csv] [--trace out.json]
//
// --csv dumps one row per rate with the raw aggregates (cells rendered
// through obs::metric_cells off the experiment's metric snapshot); the
// file is byte-identical for any --threads setting and for the event vs
// lockstep engines. --metrics dumps the merged per-trial obs::registry
// snapshot and --trace the event trace of the lowest-index trial that
// captured one, both at the highest rate.
#include <cstdio>
#include <string>
#include <vector>

#include "harness/analysis_service_experiment.hpp"
#include "harness/bench_cli.hpp"
#include "stats/table.hpp"

using namespace bluescale;
using namespace bluescale::harness;

namespace {

/// Service requests per 1000 cycles (the storm intensity).
constexpr double k_rates[] = {0.5, 2.0, 8.0};

constexpr csv_column k_columns[] = {
    {"submitted", "submitted"}, {"shed", "shed"}, {"expired", "expired"},
    {"committed", "committed"}, {"rejected", "rejected"},
    {"rejected_infeasible", "rejected_infeasible"},
    {"rejected_overutilized", "rejected_overutilized"},
    {"rejected_path_hazard", "rejected_path_hazard"},
    {"rolled_back", "rolled_back"}, {"retries", "retries"},
    {"requeues", "requeues"}, {"worker_crashes", "worker_crashes"},
    {"worker_stall_cycles", "worker_stall_cycles"},
    {"cache_hits", "cache_hits"}, {"cache_misses", "cache_misses"},
    {"cache_hit_ratio", "cache_hit_ratio"},
    {"cache_invalidations", "cache_invalidations"},
    {"degraded_evals", "degraded_evals"},
    {"degraded_requests", "degraded_requests"},
    {"breaker_trips", "breaker_trips"}, {"stale_reevals", "stale_reevals"},
    {"mean_latency_cycles", "latency_cycles"},
    {"max_latency_cycles", "latency_cycles:max"},
    {"mean_eval_cycles", "eval_cycles"}, {"miss_ratio", "miss_ratio"},
    {"hard_misses", "hard_misses"},
    {"best_effort_misses", "best_effort_misses"},
    {"live_reconfigurations", "live_reconfigurations"},
    {"feasible_trials", "feasible_trials"},
    {"drained_trials", "drained_trials"},
    {"conserved_trials", "conserved_trials"},
};

} // namespace

int main(int argc, char** argv) {
    bench_options defaults;
    defaults.trials = 8;
    defaults.measure_cycles = 60'000;
    const auto opts = parse_bench_cli(
        argc, argv, defaults,
        "Svc storm: bounded-queue multi-worker admission service under "
        "overload, worker faults and path hazards");

    const auto csv = open_bench_csv(opts, {"rate"}, k_columns);

    std::printf("Hardened analysis service under admission storms, "
                "worker faults and path hazards\n");
    std::printf("\n=== request-rate sweep, %u trials, %llu cycles/trial "
                "===\n",
                opts.trials,
                static_cast<unsigned long long>(opts.measure_cycles));

    std::vector<sweep_cell> cells;
    for (double rate : k_rates) {
        svc_storm_config cfg;
        cfg.scenario.measure_cycles = opts.measure_cycles;
        cfg.requests_per_kcycle = rate;
        cfg.service.default_deadline = 20'000;
        cfg.worker_fault_intensity = 0.05;
        cfg.path_fault_intensity = 0.05;
        cells.push_back(svc_storm_cell(cfg));
    }
    // Obs exports cover the highest rate.
    const std::size_t exported = cells.size() - 1;
    const auto results = run_sweep(sweep_from(opts, exported), cells);
    write_bench_exports(opts, results[exported]);

    stats::table t({"rate", "submitted", "shed", "expired", "commit",
                    "reject", "retry/requeue", "cache hit%", "degraded",
                    "breaker", "lat (cyc)", "hard miss", "conserved"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const double rate = k_rates[i];
        const sweep_result& r = results[i];
        const auto get = [&r](const char* name) -> const obs::metric_value& {
            return r.totals.get(std::string("svc_exp/") + name);
        };
        const auto total = [&get](const char* name) {
            return std::to_string(get(name).count);
        };
        t.add_row({stats::table::num(rate, 1), total("submitted"),
                   total("shed"), total("expired"), total("committed"),
                   total("rejected"),
                   total("retries") + "/" + total("requeues"),
                   stats::table::pct(get("cache_hit_ratio").value, 1),
                   total("degraded_requests"), total("breaker_trips"),
                   stats::table::num(get("latency_cycles").samples.mean(), 0),
                   total("hard_misses"),
                   total("conserved_trials") + "/" +
                       std::to_string(opts.trials)});
        add_csv_row(csv.get(), {std::to_string(rate)}, r.totals, "svc_exp/",
                    k_columns);
    }
    t.print();
    return 0;
}
