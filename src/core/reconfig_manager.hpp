// Runtime admission control and transactional (Pi, Theta) reconfiguration
// (paper Sec. 3.2, third property, promoted from an offline model to a
// guarded runtime subsystem).
//
// The manager accepts client join/leave/task-change requests mid-
// simulation and runs the Sec. 5 admission test online, reusing the
// incremental request-path reselection (core::model_client_update): only
// the SEs between the changed client and the root recompute. An
// infeasible request is REJECTED with a structured reason and zero
// perturbation of the running system -- the committed selection, the
// fabric's programmed servers, and every other client are untouched, so a
// rejected run is bit-identical to one where the request never arrived.
//
// A feasible request is applied TRANSACTIONALLY:
//
//   idle -> staging -> committed
//                 \-> rolled_back
//
// The new (Pi, Theta) set is staged and takes effect only after the
// parameter-path-modeled propagation latency has elapsed in simulated
// time (the distributed selector FSMs are recomputing during the staging
// window; traffic keeps flowing on the old parameters). If a mid-flight
// hazard fires -- the health monitor flips a request-path SE into
// degraded mode, or an injected fault window overlaps the commit instant
// -- the transaction rolls back: the fabric is reprogrammed with the
// previous committed selection everywhere and the request is reported
// rolled_back. Requests queue FIFO; one transaction is in flight at a
// time.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "analysis/tree_analysis.hpp"
#include "core/parameter_path.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/component.hpp"
#include "stats/summary.hpp"

namespace bluescale::core {

class bluescale_ic;

/// Lifecycle of one admission request, also the structured reject reason.
enum class admission_outcome : std::uint8_t {
    /// Queued; the admission test has not run yet.
    pending,
    /// Rejected: some request-path SE port has no feasible interface for
    /// the new demand.
    rejected_infeasible,
    /// Rejected: the new selection would over-utilize the root resource.
    rejected_overutilized,
    /// Rejected: a request-path SE was degraded or stalled when the
    /// admission test ran.
    rejected_path_hazard,
    /// Rejected at submission: the analysis service's bounded request
    /// queue was full. The admission test never ran, so the running
    /// system is untouched (zero perturbation).
    rejected_queue_full,
    /// Rejected: the request's deadline passed before the admission test
    /// could run. The test never ran (zero perturbation).
    rejected_deadline_expired,
    /// Admitted; the new selection is propagating (commit pending).
    staged,
    /// The new (Pi, Theta) set is live.
    committed,
    /// A hazard fired during staging or at commit; the previous committed
    /// selection was restored everywhere.
    rolled_back,
};

[[nodiscard]] const char* admission_outcome_name(admission_outcome o);

struct reconfig_config {
    /// Unified analysis knobs (selection bounds, sched test mode, shared
    /// selection cache, parallelism) threaded into every admission test.
    analysis::analysis_context selection = {};
    reconfig_costs costs = {};
};

/// Full audit record of one request, kept for every submission.
struct admission_record {
    std::uint64_t id = 0;
    std::uint32_t client = 0;
    admission_outcome outcome = admission_outcome::pending;
    /// Failure/hazard reason for rejected or rolled-back requests.
    std::string detail;
    cycle_t submitted_at = 0;
    /// Absolute cycle by which the request must resolve (k_cycle_never =
    /// none). Expiry is enforced while queued AND while staged: a
    /// transaction whose deadline passes mid-staging is abandoned before
    /// the fabric is touched (the commit instant, when reached first,
    /// wins).
    cycle_t deadline = k_cycle_never;
    /// Cycle the admission test ran.
    cycle_t decided_at = 0;
    /// Cycle the transaction left the staging state (commit or rollback).
    cycle_t resolved_at = 0;
    /// Modeled parameter-path propagation latency (staging duration).
    std::uint64_t latency_cycles = 0;
    /// SEs on the recomputed request path.
    std::uint32_t ses_involved = 0;
    /// Root bandwidth of the candidate selection.
    double root_bandwidth = 0.0;
};

/// Counter snapshot of the manager's lifetime activity (values read out
/// of obs handles; a result type, not mutable storage).
struct reconfig_manager_stats {
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;   ///< passed the admission test (staged)
    std::uint64_t rejected = 0;
    std::uint64_t committed = 0;
    std::uint64_t rolled_back = 0;
    std::uint64_t rejected_deadline_expired = 0;
    /// apply_evaluated() submissions whose evaluation was stale (the
    /// committed version moved) and had to be re-run fresh.
    std::uint64_t stale_reevals = 0;
    /// Modeled propagation latency of admitted requests, in cycles.
    stats::sample_set reconfig_latency;
};

/// Result of a detached admission evaluation (reconfig_manager::evaluate).
struct admission_evaluation {
    bool feasible = false;
    /// rejected_infeasible or rejected_overutilized when not feasible.
    admission_outcome reject_reason = admission_outcome::pending;
    std::string detail;
    /// committed_version() at evaluation time. apply_evaluated() stages
    /// the precomputed selection only while the version still matches;
    /// a stale evaluation is transparently re-run, so a commit can never
    /// apply a selection computed against superseded state.
    std::uint64_t version = 0;
    reconfig_report report;
};

class reconfig_manager : public component {
public:
    /// Fired when a request resolves (committed, rejected or rolled
    /// back); the harness uses the commit notification to swap the
    /// client's live workload at exactly the commit instant.
    using resolve_hook =
        std::function<void(const admission_record&,
                           const analysis::task_set& tasks)>;

    reconfig_manager(bluescale_ic& fabric,
                     analysis::tree_selection committed,
                     std::vector<analysis::task_set> client_tasks,
                     reconfig_config cfg = {});

    /// Queues a task-change request for `client` (empty set = leave; a
    /// previously empty client = join). Returns the request id; the
    /// admission test runs at the manager's next tick. `deadline` is the
    /// absolute cycle by which the test must start (k_cycle_never =
    /// none); a request still queued past it is rejected
    /// deadline_expired without running the test or touching the fabric.
    /// The queue is unbounded: the analysis service in front of the
    /// manager owns the one bounded queue. Thread-safety: the manager is
    /// trial-local, like every other component.
    std::uint64_t submit(std::uint32_t client, analysis::task_set tasks,
                         cycle_t deadline = k_cycle_never);

    /// Const, re-entrant admission evaluation against the current
    /// committed state: runs the Sec. 5 incremental test without queuing,
    /// staging, or touching any manager state. The analysis service's
    /// workers call this concurrently (it only reads committed state) and
    /// feed feasible results back through apply_evaluated().
    /// `sufficient_only` swaps the pseudo-polynomial exact test for the
    /// cheap sufficient portfolio (degraded precision: sound, may reject
    /// feasible requests) -- the service's circuit breaker trips to it.
    [[nodiscard]] admission_evaluation
    evaluate(std::uint32_t client, const analysis::task_set& tasks,
             bool sufficient_only = false) const;

    /// Queues a request carrying a precomputed evaluation. While the
    /// committed version still matches eval.version at admission time the
    /// expensive test is skipped and the evaluated selection stages
    /// directly; a stale evaluation (any commit in between) is re-run
    /// fresh -- a half-applied commit is impossible either way. The
    /// queue bound, deadline, and hazard gates all still apply.
    std::uint64_t apply_evaluated(std::uint32_t client,
                                  analysis::task_set tasks,
                                  admission_evaluation eval,
                                  cycle_t deadline = k_cycle_never);

    /// Monotone commit counter: bumped once per committed transaction.
    /// Evaluations and result caches key their validity on it.
    [[nodiscard]] std::uint64_t committed_version() const {
        return version_;
    }

    void tick(cycle_t now) override;

    /// Event-engine horizon: per-cycle while a transaction is staged
    /// (hazard watch) or requests are queued; otherwise fully quiescent
    /// -- submit() wakes the manager.
    [[nodiscard]] cycle_t next_event(cycle_t now) const override {
        return staging_ || !queue_.empty() ? now + 1 : k_cycle_never;
    }

    void set_resolve_hook(resolve_hook h) { on_resolve_ = std::move(h); }

    /// Overload-shedding budget donation: disables the client's leaf
    /// server (Pi, Theta) -> (0, 0) so its slack flows to the admitted
    /// clients; the shed client's requests ride work-conserving slack
    /// only. The committed selection is NOT changed -- restore reprograms
    /// the port from it.
    void donate_client_budget(std::uint32_t client);
    void restore_client_budget(std::uint32_t client);

    /// True while a transaction is staged (commit pending).
    [[nodiscard]] bool staging() const { return staging_; }
    /// Requests submitted but not yet resolved (queued + staged).
    [[nodiscard]] std::size_t backlog() const {
        return queue_.size() + (staging_ ? 1 : 0);
    }

    [[nodiscard]] const analysis::tree_selection& committed() const {
        return committed_;
    }
    [[nodiscard]] const std::vector<analysis::task_set>& client_tasks()
        const {
        return client_tasks_;
    }
    [[nodiscard]] reconfig_manager_stats stats() const {
        return {submitted_.value(),        admitted_.value(),
                rejected_.value(),         committed_count_.value(),
                rolled_back_.value(),      deadline_expired_.value(),
                stale_reevals_.value(),    reconfig_latency_.values()};
    }

    /// Re-homes the admission counters into `reg` under "reconfig/..."
    /// and attaches the trace stream; call before the trial starts.
    void bind_observability(obs::metric_store& reg, obs::tracer tracer);
    [[nodiscard]] const std::vector<admission_record>& records() const {
        return records_;
    }
    [[nodiscard]] const admission_record& record(std::uint64_t id) const {
        return records_[id];
    }

private:
    struct queued_request {
        std::uint64_t id = 0;
        std::uint32_t client = 0;
        analysis::task_set tasks;
        cycle_t deadline = k_cycle_never;
        /// Precomputed evaluation (apply_evaluated); valid while
        /// eval_version matches the committed version.
        bool has_eval = false;
        std::uint64_t eval_version = 0;
        reconfig_report eval_report;
    };

    /// (level, order) of every SE on `client`'s request path, leaf first.
    [[nodiscard]] std::vector<std::pair<std::uint32_t, std::uint32_t>>
    request_path(std::uint32_t client) const;
    /// A path SE is degraded or inside an injected stall window.
    [[nodiscard]] bool path_hazard(std::uint32_t client,
                                   std::string* why) const;

    std::uint64_t enqueue(queued_request req);
    void start_admission(queued_request req, cycle_t now);
    void commit(cycle_t now);
    void roll_back(cycle_t now, std::string why, bool fabric_touched);
    void resolve(admission_record& rec, const analysis::task_set& tasks);

    bluescale_ic& fabric_;
    reconfig_config cfg_;
    analysis::tree_selection committed_;
    std::vector<analysis::task_set> client_tasks_;

    /// Clock latched at tick() so submit() can stamp submission times.
    cycle_t now_ = 0;
    std::deque<queued_request> queue_;
    bool staging_ = false;
    std::uint64_t staging_id_ = 0;
    cycle_t commit_at_ = 0;
    analysis::tree_selection staged_selection_;
    std::vector<analysis::task_set> staged_tasks_;

    /// Metrics bind_observability registers (own_'s capacity), and how
    /// many of them are sample metrics.
    static constexpr std::size_t k_metric_count = 8;
    static constexpr std::size_t k_sample_count = 1;
    /// Unnamed storage while unbound (bind_observability re-homes the
    /// handles).
    obs::value_block own_{k_metric_count, k_sample_count};
    std::uint64_t version_ = 0;
    obs::counter submitted_;
    obs::counter admitted_;
    obs::counter rejected_;
    obs::counter committed_count_;
    obs::counter rolled_back_;
    obs::counter deadline_expired_;
    obs::counter stale_reevals_;
    obs::sample reconfig_latency_;
    obs::tracer trace_;
    std::vector<admission_record> records_;
    resolve_hook on_resolve_;
};

} // namespace bluescale::core
