// Analysis-as-a-service (DESIGN.md Sec. 15): a long-running, multi-worker
// admission/reselection server in front of core::reconfig_manager.
//
// Clients submit task-change requests; k_workers logical slots drain a
// BOUNDED request queue, run the const re-entrant admission evaluation
// (reconfig_manager::evaluate), and feed feasible results through the
// manager's transactional apply_evaluated() path -- a commit can never
// apply a selection computed against superseded state (stale evaluations
// are transparently re-run by the manager).
//
// Robustness machinery, all deterministic in virtual time:
//
//   * Backpressure with hysteresis: a full queue sheds new submissions
//     (structured `shed` outcome) and keeps shedding until the depth
//     drains to a low watermark, so an overload burst cannot flap the
//     admission path open and closed every cycle.
//   * Per-request deadlines with cancellation: an expired request is
//     dropped before any work runs. Deadlines are virtual-time cycles.
//   * Seeded retry with exponential backoff + jitter for transient
//     path-hazard rejections: the jitter stream is derived per (seed,
//     request, attempt) via substream(), so storm runs stay bit-identical
//     for any trial-sweep thread count.
//   * A circuit breaker around the pseudo-polynomial exact admission test:
//     consecutive over-budget evaluations trip it open and evaluations
//     fall back to the cheap sufficient-test portfolio (degraded
//     precision -- sound, may reject feasible requests; reported in the
//     response record and the obs metrics). After a cooldown the breaker
//     half-opens and probes with full precision before closing.
//   * A result cache keyed on the full request (client, precision, task
//     set), compared in full, and cleared whenever the manager commits a
//     reconfiguration -- the only event that changes the committed state
//     an evaluation reads.
//   * Seed-driven worker faults (sim::fault_campaign worker_crash /
//     worker_stall slices): a crash re-queues the in-flight request
//     exactly once at the queue front; a stall defers completion cycle
//     for cycle. Neither can lose or duplicate a request.
//
// Every request ends in exactly one of {committed, rejected(reason),
// expired, shed}; the obs counters conserve (submitted == shed + expired
// + rejected + committed once the service is idle).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/reconfig_manager.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/component.hpp"
#include "sim/fault.hpp"

namespace bluescale::svc {

/// Terminal disposition of one service request.
enum class request_outcome : std::uint8_t {
    pending,   ///< not yet resolved
    committed, ///< admitted and committed by the reconfig manager
    rejected,  ///< structured rejection (see reject_reason)
    expired,   ///< deadline passed before the request could commit
    shed,      ///< refused at submission: queue full (backpressure)
};

[[nodiscard]] const char* request_outcome_name(request_outcome o);

/// Circuit-breaker state around the full-precision admission test.
enum class breaker_state : std::uint8_t {
    closed,    ///< full precision
    open,      ///< degraded precision (sufficient-test portfolio)
    half_open, ///< probing full precision after the cooldown
};

[[nodiscard]] const char* breaker_state_name(breaker_state s);

/// Modeled worker busy time of a result-cache hit.
inline constexpr std::uint64_t k_cache_hit_cycles = 2;
/// Result-cache capacity, FIFO eviction.
inline constexpr std::size_t k_cache_capacity = 64;

/// Logical worker slots draining the queue (virtual-time concurrency;
/// the trial-sweep --threads knob is orthogonal and never changes
/// service behavior).
inline constexpr std::uint32_t k_workers = 2;
/// Bound on the request queue; a submit against a full queue is shed.
inline constexpr std::size_t k_max_queue = 16;
/// Hysteresis low watermark: once shedding starts it continues until the
/// queue drains to this depth.
inline constexpr std::size_t k_resume_depth = k_max_queue / 2;
/// Retry budget for transient path-hazard rejections.
inline constexpr std::uint32_t k_max_retries = 3;
/// Exponential backoff: delay = min(cap, base << attempt) + jitter,
/// jitter uniform in [0, base) from substream(seed, request, attempt).
inline constexpr cycle_t k_backoff_base = 64;
inline constexpr cycle_t k_backoff_cap = 4096;
/// Breaker: trip open after k_breaker_trip_after consecutive evaluations
/// whose modeled cost exceeds k_breaker_slow_cycles; half-open after the
/// cooldown; close again after k_breaker_close_after fast full-precision
/// probes.
inline constexpr std::uint32_t k_breaker_trip_after = 3;
inline constexpr std::uint64_t k_breaker_slow_cycles = 50'000;
inline constexpr cycle_t k_breaker_cooldown = 8192;
inline constexpr std::uint32_t k_breaker_close_after = 2;
/// Modeled worker busy time: max(k_min_eval_cycles, the evaluation's
/// parameter-path cycles); a cache hit costs k_cache_hit_cycles.
inline constexpr std::uint64_t k_min_eval_cycles = 8;

struct service_config {
    /// Default per-request deadline, relative cycles from submission
    /// (0 = none). Virtual-time clock; deterministic.
    cycle_t default_deadline = 0;
    /// Root of the retry-jitter streams.
    std::uint64_t seed = 1;
};

/// Full audit record of one service request.
struct request_record {
    std::uint64_t id = 0;
    std::uint32_t client = 0;
    request_outcome outcome = request_outcome::pending;
    /// Structured reason when outcome == rejected (or expired via the
    /// manager's deadline gate).
    core::admission_outcome reject_reason = core::admission_outcome::pending;
    /// Evaluated under the degraded (sufficient-only) portfolio.
    bool degraded = false;
    bool cache_hit = false;
    std::uint32_t retries = 0;
    /// Crash-driven exactly-once re-queues this request survived.
    std::uint32_t requeues = 0;
    cycle_t submitted_at = 0;
    cycle_t finished_at = 0;
    std::string detail;
};

/// Counter snapshot (values read out of obs handles).
struct service_stats {
    std::uint64_t submitted = 0;
    std::uint64_t accepted = 0; ///< entered the queue (not shed)
    std::uint64_t shed = 0;
    std::uint64_t expired = 0;
    std::uint64_t committed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t retries = 0;
    std::uint64_t requeues = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t cache_invalidations = 0;
    std::uint64_t degraded_evals = 0;
    std::uint64_t breaker_trips = 0;
    std::uint64_t worker_crashes = 0;
    std::uint64_t worker_stall_cycles = 0;
};

class analysis_service : public component {
public:
    /// Fired when a request reaches its terminal outcome; `tasks` is the
    /// request's task set. The storm harness swaps the client's live
    /// workload on the committed notifications.
    using complete_hook = std::function<void(
        const request_record&, const analysis::task_set& tasks)>;

    analysis_service(core::reconfig_manager& mgr, service_config cfg = {});

    void set_complete_hook(complete_hook h) { on_complete_ = std::move(h); }

    /// Submits a task-change request for `client` at virtual cycle `at`
    /// (pass the simulator's current time; the service cannot infer it --
    /// an idle service is not ticked by the event engine, so its latched
    /// clock may lag). `deadline` is the absolute virtual cycle by which
    /// the request must have committed (k_cycle_never =
    /// cfg.default_deadline relative, or none). Returns the request id;
    /// the terminal outcome lands in record(id).
    std::uint64_t submit(std::uint32_t client, analysis::task_set tasks,
                         cycle_t at, cycle_t deadline = k_cycle_never);

    /// Installs the worker_crash / worker_stall slices of a campaign,
    /// one pair of windows per worker slot.
    void install_faults(const sim::fault_campaign& campaign);

    void tick(cycle_t now) override;
    [[nodiscard]] cycle_t next_event(cycle_t now) const override;

    /// True when no request is queued, in flight, awaiting retry, or
    /// outstanding with the manager -- the storm drivers drain on this.
    [[nodiscard]] bool idle() const;

    [[nodiscard]] breaker_state breaker() const { return breaker_; }
    [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
    [[nodiscard]] bool shedding() const { return shedding_; }

    [[nodiscard]] const std::vector<request_record>& records() const {
        return records_;
    }
    [[nodiscard]] const request_record& record(std::uint64_t id) const {
        return records_[id];
    }
    [[nodiscard]] service_stats stats() const;

    /// Re-homes the service counters into `reg` under "svc/..." and
    /// attaches the trace stream; call before the trial starts.
    void bind_observability(obs::metric_store& reg, obs::tracer tracer);

private:
    /// Per-request working state, parallel to records_.
    struct request_state {
        analysis::task_set tasks;
        cycle_t deadline = k_cycle_never; ///< absolute virtual cycle
        core::admission_evaluation eval;
        bool has_eval = false;
        bool eval_degraded = false;
        std::uint64_t mgr_id = 0;
        cycle_t retry_at = k_cycle_never;
    };

    struct worker {
        sim::fault_window crash;
        sim::fault_window stall;
        bool crashed = false; ///< crash-window level (edge detection)
        bool busy = false;
        std::uint64_t req = 0;
        cycle_t done_at = 0;
    };

    /// Everything an evaluation depends on besides the committed state
    /// (which the cache is cleared on), compared in full.
    struct cache_key {
        std::uint32_t client = 0;
        bool degraded = false;
        analysis::task_set tasks;
        friend auto operator<=>(const cache_key&, const cache_key&) = default;
    };
    struct cache_entry {
        core::admission_evaluation eval;
        bool degraded = false;
    };
    using result_cache = std::map<cache_key, cache_entry>;

    [[nodiscard]] bool expired_now(const request_state& st,
                                   cycle_t now) const;
    void finish(std::uint64_t id, cycle_t now, request_outcome outcome,
                core::admission_outcome reason, std::string detail);
    void sweep_expired_queue(cycle_t now);
    void service_retries(cycle_t now);
    void step_workers(cycle_t now);
    void complete(std::uint64_t id, cycle_t now);
    void poll_manager(cycle_t now);
    void handle_manager_outcome(std::uint64_t id,
                                const core::admission_record& rec,
                                cycle_t now);
    void dispatch(cycle_t now);
    void run_evaluation(std::uint64_t id, worker& w, cycle_t now);
    void set_breaker(breaker_state s, cycle_t now);
    void note_eval_cost(std::uint64_t work, bool degraded, cycle_t now);
    [[nodiscard]] cycle_t backoff_delay(std::uint64_t id,
                                        std::uint32_t attempt) const;

    core::reconfig_manager& mgr_;
    service_config cfg_;

    cycle_t now_ = 0; ///< latched at tick()/submit() (monotonic)
    std::deque<std::uint64_t> queue_;
    bool shedding_ = false;
    std::vector<std::uint64_t> retry_ids_;
    std::vector<std::uint64_t> outstanding_; ///< awaiting manager outcome
    std::array<worker, k_workers> workers_;

    breaker_state breaker_ = breaker_state::closed;
    std::uint32_t consecutive_slow_ = 0;
    std::uint32_t probe_successes_ = 0;
    cycle_t breaker_reopen_at_ = 0;

    std::uint64_t cache_version_ = 0; ///< manager version the cache is for
    result_cache cache_;
    /// Insertion order (FIFO eviction).
    std::deque<result_cache::iterator> cache_fifo_;

    std::vector<request_record> records_;
    std::vector<request_state> states_;
    complete_hook on_complete_;

    /// Metrics bind_observability registers (own_'s capacity), and how
    /// many of them are sample metrics.
    static constexpr std::size_t k_metric_count = 17;
    static constexpr std::size_t k_sample_count = 2;
    /// Unnamed storage while unbound (bind_observability re-homes the
    /// handles).
    obs::value_block own_{k_metric_count, k_sample_count};
    obs::counter submitted_;
    obs::counter accepted_;
    obs::counter shed_;
    obs::counter expired_;
    obs::counter committed_;
    obs::counter rejected_;
    obs::counter retries_;
    obs::counter requeues_;
    obs::counter cache_hits_;
    obs::counter cache_misses_;
    obs::counter cache_invalidations_;
    obs::counter degraded_evals_;
    obs::counter breaker_trips_;
    obs::counter worker_crashes_;
    obs::counter worker_stall_cycles_;
    obs::sample eval_cycles_;
    obs::sample latency_cycles_;
    obs::tracer trace_;
};

} // namespace bluescale::svc
