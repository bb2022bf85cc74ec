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

#include <cstdint>

#include "core/reconfig_manager.hpp"
#include "harness/factory.hpp"
#include "harness/trial_sweep.hpp"
#include "mem/memory_controller.hpp"
#include "svc/analysis_service.hpp"
#include "workload/taskset_gen.hpp"

namespace bluescale::harness {

struct svc_storm_config {
    std::uint32_t n_clients = 16;
    sweep_options sweep = {.trials = 8};
    cycle_t measure_cycles = 60'000;
    double util_lo = 0.70;
    double util_hi = 0.90;
    workload::taskset_params taskset = {
        .n_tasks = 4,
        .total_utilization = 0.05, // overridden per trial by util_lo/hi
        .min_period_units = 40,
        .max_period_units = 600,
        .write_fraction = 0.3,
    };
    memctrl_config memctrl = {};

    /// Expected service requests per 1000 cycles (storm intensity).
    double requests_per_kcycle = 2.0;
    cycle_t warmup = 2'000;

    /// Service policy under test (workers, queue bound, deadlines,
    /// retry/backoff, breaker, cache). The service seed is re-derived per
    /// trial.
    svc::service_config service = {};
    core::reconfig_config reconfig = {};

    /// Worker-fault campaign intensity (crash + stall events per 1000
    /// cycles, equally likely; 0 = reliable workers).
    double worker_fault_intensity = 0.0;
    /// Fabric fault campaign intensity (SE stalls etc.), to force
    /// path-hazard rejections and exercise the retry path.
    double path_fault_intensity = 0.0;

    /// The LAST this-many client ids are best-effort; the rest are hard
    /// real-time (their deadline misses are the acceptance criterion).
    std::uint32_t best_effort_clients = 4;
    cycle_t retry_timeout_cycles = 2048;
    std::uint32_t max_retries = 3;

    /// Budget for draining the service + manager after the storm ends.
    cycle_t drain_cycles = 50'000;
};

/// Runs cfg.sweep.trials independent storm trials (BlueScale only -- the
/// service fronts the BlueScale reconfiguration manager).
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
[[nodiscard]] sweep_result run_svc_storm(const svc_storm_config& cfg);

} // namespace bluescale::harness
