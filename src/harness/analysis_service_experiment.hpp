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
/// totals ("svc_exp/"), service outcomes: counters submitted, accepted,
/// shed, expired, committed, rejected, rejected_infeasible,
/// rejected_overutilized, rejected_path_hazard, rolled_back. Robustness
/// machinery: retries, requeues, worker_crashes, worker_stall_cycles,
/// cache_hits, cache_misses, cache_invalidations, the real
/// cache_hit_ratio, degraded_evals, degraded_requests (requests answered
/// degraded), breaker_trips, stale_reevals (manager-side transparent
/// re-runs), and the samples latency_cycles (submit -> terminal outcome)
/// and eval_cycles (modeled worker busy time). Clients: the per-trial
/// sample miss_ratio, hard_misses, best_effort_misses,
/// live_reconfigurations. Trials: feasible_trials, drained_trials
/// (service and manager fully drained inside the budget) and
/// conserved_trials (submitted == shed + expired + rejected + committed
/// and every record carries a terminal outcome).
[[nodiscard]] sweep_cell svc_storm_cell(const svc_storm_config& cfg);

} // namespace bluescale::harness
