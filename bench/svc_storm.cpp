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
//                       [--profile] [--lockstep]
//
// --csv dumps one row per rate with the raw aggregates (cells rendered
// through obs::metric_cells off the experiment's metric snapshot); the
// file is byte-identical for any --threads setting and for the event vs
// lockstep engines. --metrics dumps the merged per-trial obs::registry
// snapshot and --trace the event trace of the lowest-index trial that
// captured one, both at the highest rate.
#include <cstdio>
#include <string>

#include "harness/analysis_service_experiment.hpp"
#include "harness/bench_cli.hpp"

using namespace bluescale;
using namespace bluescale::harness;

int main(int argc, char** argv) {
    bench_options defaults;
    defaults.trials = 8;
    defaults.measure_cycles = 60'000;
    const auto opts = parse_bench_cli(
        argc, argv, defaults,
        "Svc storm: bounded-queue multi-worker admission service under "
        "overload, worker faults and path hazards");

    std::printf("Hardened analysis service under admission storms, "
                "worker faults and path hazards\n");

    report_section s{
        formatted("\n=== request-rate sweep, %u trials, %llu cycles/trial "
                  "===\n",
                  opts.trials,
                  static_cast<unsigned long long>(opts.measure_cycles)),
        {"rate"}, k_svc_storm_columns, {}};
    // Service requests per 1000 cycles (the storm intensity).
    for (double rate : {0.5, 2.0, 8.0}) {
        svc_storm_config cfg;
        cfg.scenario.measure_cycles = opts.measure_cycles;
        cfg.requests_per_kcycle = rate;
        cfg.service.default_deadline = 20'000;
        cfg.worker_fault_intensity = 0.05;
        cfg.path_fault_intensity = 0.05;
        s.rows.push_back({svc_storm_cell(cfg),
                          {formatted("%.1f", rate)},
                          {std::to_string(rate)}});
    }
    // Obs exports cover the highest rate (the last cell).
    run_report(opts, {.sections = {std::move(s)}});
    return 0;
}
