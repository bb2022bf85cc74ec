// Processor client for the system-level case study (paper Sec. 6.4): an
// in-order core running periodic compute tasks under non-preemptive EDF.
// Jobs interleave compute cycles with memory accesses; each access stalls
// the core until the response returns (blocking cache-miss semantics).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "interconnect/interconnect.hpp"
#include "obs/registry.hpp"
#include "sim/component.hpp"
#include "sim/rng.hpp"
#include "workload/compute_task.hpp"

namespace bluescale::workload {

/// Per-category job outcome snapshot (values read out of obs handles; a
/// result type, not mutable storage).
struct job_stats {
    std::uint64_t completed = 0;
    std::uint64_t missed = 0;

    [[nodiscard]] double miss_ratio() const {
        return completed == 0 ? 0.0
                              : static_cast<double>(missed) /
                                    static_cast<double>(completed);
    }
};

class processor_client : public component {
public:
    processor_client(client_id_t id, compute_task_set tasks,
                     interconnect& net, std::uint64_t seed);

    void tick(cycle_t now) override;

    /// Event-engine horizon: per-cycle while computing or while a push
    /// is blocked on a full port (no wake signal exists for port space);
    /// a stalled core sleeps until its response arrives, an idle one
    /// until the next task release. Response delivery wakes the client
    /// (see on_response).
    [[nodiscard]] cycle_t next_event(cycle_t now) const override;

    void on_response(mem_request&& r);

    /// Accounts jobs that are running late (or queued past their
    /// deadline) at trial end.
    void finalize(cycle_t end_cycle);

    /// Re-homes this client's counters into `reg` (metric names
    /// "client.<id>/..."); call before the trial starts.
    void bind_observability(obs::metric_store& reg);

    [[nodiscard]] client_id_t id() const { return id_; }
    [[nodiscard]] job_stats stats(task_category c) const {
        const auto i = static_cast<std::size_t>(c);
        return {jobs_completed_[i].value(), jobs_missed_[i].value()};
    }
    /// True if any safety or function job missed its deadline (the
    /// paper's per-trial success criterion ignores interference tasks).
    [[nodiscard]] bool app_deadline_missed() const {
        return stats(task_category::safety).missed > 0 ||
               stats(task_category::function).missed > 0;
    }
    [[nodiscard]] std::uint64_t mem_requests_issued() const {
        return requests_issued_.value();
    }

private:
    struct job {
        std::size_t task_index;
        cycle_t release;
        cycle_t deadline;
        std::uint32_t compute_left;
        std::uint32_t requests_left;
        std::uint32_t compute_per_request; ///< spacing of accesses
        std::uint32_t compute_since_request = 0;
    };

    void release_jobs(cycle_t now);
    void start_next_job(cycle_t now);
    void finish_job(cycle_t now);
    void issue_request(cycle_t now);
    /// Pushes pending_req_ once the port accepts.
    void push_pending(cycle_t now);

    client_id_t id_;
    compute_task_set tasks_;
    interconnect& net_;
    rng rng_;
    std::vector<cycle_t> next_release_;
    std::deque<job> ready_;           ///< released, not started (EDF order)
    std::optional<job> running_;
    bool stalled_ = false;            ///< waiting for a memory response
    bool request_pending_issue_ = false;
    mem_request pending_req_;         ///< the access the core waits on
    /// Metrics bind_observability registers (own_'s capacity).
    static constexpr std::size_t k_metric_count = 8;
    /// Unnamed storage while unbound (bind_observability re-homes the
    /// handles).
    obs::value_block own_{k_metric_count};
    obs::counter failed_responses_;
    std::array<obs::counter, 3> jobs_completed_;
    std::array<obs::counter, 3> jobs_missed_;
    obs::counter requests_issued_;
    request_id_t next_request_id_;
};

} // namespace bluescale::workload
