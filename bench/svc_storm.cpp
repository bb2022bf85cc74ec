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
// snapshot and --trace the trial-0 event trace, both at the highest
// rate.
#include <cstdio>
#include <string>
#include <vector>

#include "harness/analysis_service_experiment.hpp"
#include "harness/bench_cli.hpp"
#include "obs/registry.hpp"
#include "stats/table.hpp"

using namespace bluescale;
using namespace bluescale::harness;

namespace {

/// Service requests per 1000 cycles (the storm intensity).
constexpr double k_rates[] = {0.5, 2.0, 8.0};

} // namespace

int main(int argc, char** argv) {
    bench_options defaults;
    defaults.trials = 8;
    defaults.measure_cycles = 60'000;
    const auto opts = parse_bench_cli(
        argc, argv, defaults,
        "Svc storm: bounded-queue multi-worker admission service under "
        "overload, worker faults and path hazards");

    const auto csv = open_bench_csv(
        opts,
        {"rate", "submitted", "shed", "expired", "committed", "rejected",
         "rejected_infeasible", "rejected_overutilized",
         "rejected_path_hazard", "rolled_back", "retries", "requeues",
         "worker_crashes", "worker_stall_cycles", "cache_hits",
         "cache_misses", "cache_hit_ratio", "cache_invalidations",
         "degraded_evals", "degraded_requests", "breaker_trips",
         "stale_reevals", "mean_latency_cycles", "max_latency_cycles",
         "mean_eval_cycles", "miss_ratio", "hard_misses",
         "best_effort_misses", "live_reconfigurations", "feasible_trials",
         "drained_trials", "conserved_trials"});

    std::printf("Hardened analysis service under admission storms, "
                "worker faults and path hazards\n");
    std::printf("\n=== request-rate sweep, %u trials, %llu cycles/trial "
                "===\n",
                opts.trials,
                static_cast<unsigned long long>(opts.measure_cycles));

    stats::table t({"rate", "submitted", "shed", "expired", "commit",
                    "reject", "retry/requeue", "cache hit%", "degraded",
                    "breaker", "lat (cyc)", "hard miss", "conserved"});
    for (double rate : k_rates) {
        svc_storm_config cfg;
        cfg.scenario.sweep = sweep_from(opts, rate == k_rates[2]);
        cfg.scenario.measure_cycles = opts.measure_cycles;
        cfg.requests_per_kcycle = rate;
        cfg.service.default_deadline = 20'000;
        cfg.worker_fault_intensity = 0.05;
        cfg.path_fault_intensity = 0.05;

        const sweep_result r = run_svc_storm(cfg);
        write_bench_exports(opts, cfg.scenario.sweep, r);
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
                       std::to_string(cfg.scenario.sweep.trials)});
        if (csv != nullptr) {
            std::vector<std::string> row{std::to_string(rate)};
            for (auto& cell : obs::metric_cells(
                     r.totals,
                     {"svc_exp/submitted", "svc_exp/shed",
                      "svc_exp/expired", "svc_exp/committed",
                      "svc_exp/rejected", "svc_exp/rejected_infeasible",
                      "svc_exp/rejected_overutilized",
                      "svc_exp/rejected_path_hazard",
                      "svc_exp/rolled_back", "svc_exp/retries",
                      "svc_exp/requeues", "svc_exp/worker_crashes",
                      "svc_exp/worker_stall_cycles", "svc_exp/cache_hits",
                      "svc_exp/cache_misses", "svc_exp/cache_hit_ratio",
                      "svc_exp/cache_invalidations",
                      "svc_exp/degraded_evals",
                      "svc_exp/degraded_requests",
                      "svc_exp/breaker_trips", "svc_exp/stale_reevals",
                      "svc_exp/latency_cycles",
                      "svc_exp/latency_cycles:max",
                      "svc_exp/eval_cycles", "svc_exp/miss_ratio",
                      "svc_exp/hard_misses",
                      "svc_exp/best_effort_misses",
                      "svc_exp/live_reconfigurations",
                      "svc_exp/feasible_trials", "svc_exp/drained_trials",
                      "svc_exp/conserved_trials"})) {
                row.push_back(std::move(cell));
            }
            csv->add_row(row);
        }
    }
    t.print();
    return 0;
}
