// Admission-storm experiment for the hardened analysis service
// (robustness extension, not a paper figure): a seed-driven storm of
// client task-change requests is fired at svc::analysis_service -- the
// bounded-queue, multi-worker admission server in front of
// core::reconfig_manager -- while a worker-fault campaign crashes and
// stalls its workers and (optionally) a fabric fault campaign forces
// path-hazard retries. The driver measures the service's overload
// behavior: shedding with hysteresis, deadline expiry, retry/backoff,
// circuit-breaker degraded-precision fallback, result-cache hit rates,
// and exactly-once crash re-queues -- and checks the conservation
// invariant (every request ends in exactly one of committed / rejected /
// expired / shed).
//
// Determinism: the storm schedule, worker faults, and retry jitter are
// all substreams of the trial seed; runs are bit-identical for any
// --threads setting and for the event vs lockstep engines.
#pragma once

#include "harness/bench_cli.hpp"
#include "harness/traffic_trial.hpp"
#include "svc/analysis_service.hpp"

namespace bluescale::harness {

struct svc_storm_config {
    traffic_scenario scenario = {.measure_cycles = 60'000};

    /// Expected service requests per 1000 cycles (storm intensity).
    double requests_per_kcycle = 2.0;

    /// Service policy under test (workers, queue bound, deadlines,
    /// retry/backoff, breaker, cache). The service seed is re-derived per
    /// trial.
    svc::service_config service = {};

    /// Worker-fault campaign intensity (crash + stall events per 1000
    /// cycles, equally likely; 0 = reliable workers).
    double worker_fault_intensity = 0.0;
    /// Fabric fault campaign intensity (SE stalls etc.), to force
    /// path-hazard rejections and exercise the retry path.
    double path_fault_intensity = 0.0;
};

/// Independent storm trials (BlueScale only -- the service fronts the
/// BlueScale reconfiguration manager, which runs its default
/// configuration). Requests start after a
/// 2,000-cycle warmup; the last k_best_effort_clients client ids are
/// best-effort, the rest hard real-time (their deadline misses are the
/// acceptance criterion); after the storm the service and manager get
/// 50,000 cycles to drain.
///
/// totals ("svc_exp/"), off the service's records: the counters
/// rejected_infeasible, rejected_overutilized, rejected_path_hazard,
/// rolled_back and degraded_requests (requests answered degraded) and the
/// sample latency_cycles (submit -> terminal outcome, shed requests
/// excluded). Clients: the per-trial sample miss_ratio, hard_misses and
/// best_effort_misses. Trials: feasible_trials, drained_trials (service
/// and manager fully drained inside the budget) and conserved_trials
/// (submitted == shed + expired + rejected + committed and every record
/// carries a terminal outcome). The adopted svc/, reconfig/ and client/
/// metrics (trial_record::adopt), and the real cache_hit_ratio.
[[nodiscard]] sweep_cell svc_storm_cell(const svc_storm_config& cfg);

/// The svc_storm table's and CSV's columns.
inline constexpr report_column k_svc_storm_columns[] = {
    {"submitted", "submitted", "svc/submitted", shown::count},
    {"shed", "shed", "svc/shed", shown::count},
    {"expired", "expired", "svc/expired", shown::count},
    {"commit", "committed", "svc/committed", shown::count},
    {"reject", "rejected", "svc/rejected", shown::count},
    {"", "rejected_infeasible"}, {"", "rejected_overutilized"},
    {"", "rejected_path_hazard"}, {"", "rolled_back"},
    {"", "retries", "svc/retries"}, {"", "requeues", "svc/requeues"},
    {"retry/requeue", "", "svc/retries,svc/requeues", shown::count},
    {"", "worker_crashes", "svc/worker_crashes"},
    {"", "worker_stall_cycles", "svc/worker_stall_cycles"},
    {"", "cache_hits", "svc/cache_hits"},
    {"", "cache_misses", "svc/cache_misses"},
    {"cache hit%", "cache_hit_ratio", "cache_hit_ratio", shown::pct, 1},
    {"", "cache_invalidations", "svc/cache_invalidations"},
    {"", "degraded_evals", "svc/degraded_evals"},
    {"degraded", "degraded_requests", "degraded_requests", shown::count},
    {"breaker", "breaker_trips", "svc/breaker_trips", shown::count},
    {"", "stale_reevals", "reconfig/stale_reevals"},
    {"lat (cyc)", "mean_latency_cycles", "latency_cycles", shown::num, 0},
    {"", "max_latency_cycles", "latency_cycles:max"},
    {"", "mean_eval_cycles", "svc/eval_cycles"}, {"", "miss_ratio"},
    {"hard miss", "hard_misses", "hard_misses", shown::count},
    {"", "best_effort_misses"},
    {"", "live_reconfigurations", "client/reconfigurations"},
    {"", "feasible_trials"}, {"", "drained_trials"},
    {"conserved", "conserved_trials", "conserved_trials", shown::per_trial},
};

} // namespace bluescale::harness
