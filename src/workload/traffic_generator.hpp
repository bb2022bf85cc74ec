// Traffic generator client (paper Sec. 6.3, after Wang et al. [20]):
// issues memory requests according to a periodic task set, without
// processing any data. Requests are prioritized locally by GEDF.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "interconnect/interconnect.hpp"
#include "mem/request.hpp"
#include "sim/component.hpp"
#include "sim/rng.hpp"
#include "workload/client_stats.hpp"
#include "workload/memory_task.hpp"

namespace bluescale::workload {

/// Private address region per task, for locality-realistic traffic.
inline constexpr std::uint64_t k_task_region_bytes = 1u << 20;
inline constexpr std::uint64_t k_cache_line_bytes = 64;
/// Maximum requests in flight before the generator throttles (models
/// finite MSHRs; the port buffer also exerts backpressure).
inline constexpr std::uint32_t k_max_outstanding = 16;
/// Retry timeout window multiplier per attempt (exponential backoff keeps
/// retry storms from amplifying congestion-induced slowness).
inline constexpr std::uint32_t k_retry_backoff_mult = 2;

struct traffic_gen_config {
    std::uint32_t unit_cycles = k_unit_cycles;
    /// Allowance for client_stats::missed_beyond_margin (see there).
    cycle_t validation_margin_cycles = 0;

    // --- retry/timeout recovery (fault campaigns) ----------------------
    /// When non-zero, a request unanswered for this many cycles is
    /// reissued under a fresh id; the superseded response, if it ever
    /// arrives, is dropped as stale. 0 disables recovery (a lost request
    /// stays outstanding until finalize() abandons it).
    cycle_t retry_timeout_cycles = 0;
    /// Reissue budget per request; past it the request is given up
    /// (counted retry_exhausted + abandoned).
    std::uint32_t max_retries = 0;
};

class traffic_generator : public component {
public:
    traffic_generator(client_id_t id, memory_task_set tasks,
                      interconnect& net, std::uint64_t seed,
                      traffic_gen_config cfg = {});

    void tick(cycle_t now) override;

    /// Event-engine horizon: per-cycle while jobs are pending below the
    /// outstanding cap and the port accepts (the issue slot is contested
    /// every cycle); at the cap, port-blocked, or idle, the earliest task
    /// release or retry timeout. Responses need no horizon --
    /// on_response() wakes the client -- and a blocked port re-arms the
    /// client through the fabric's drain hook (bind_client_drain); with a
    /// fabric that cannot provide that signal the client keeps polling.
    [[nodiscard]] cycle_t next_event(cycle_t now) const override;

    /// Harness routes interconnect responses for this client here.
    void on_response(mem_request&& r);

    /// Call once at trial end: requests still unfinished whose deadline has
    /// passed are counted as missed.
    void finalize(cycle_t end_cycle);

    /// Stops releasing and issuing (drain phase of a trial): in-flight
    /// requests still complete normally.
    void stop() { stopped_ = true; }

    /// Overload-shedding throttle (core::supply_watchdog): while shed,
    /// jobs keep releasing (and keep their deadlines -- a shed best-effort
    /// client absorbs the misses) but no new requests are issued. Retry
    /// reissues of in-flight requests still go out, so recovery of work
    /// already in the fabric is not orphaned.
    void set_shed(bool on) {
        if (on != shed_) wake(); // shed accounting is per-cycle
        shed_ = on;
    }
    [[nodiscard]] bool shed() const { return shed_; }

    /// Live workload change at a reconfiguration commit: swaps the task
    /// set, restarts release schedules at `now`, and drops released-but-
    /// unissued jobs of the old set (they were never issued, so the
    /// issued == completed + abandoned invariant is unaffected).
    /// In-flight requests complete under the old accounting.
    void reconfigure_tasks(memory_task_set tasks, cycle_t now);

    /// Re-homes this client's counters into `reg` (metric names
    /// "client.<id>/..."); call before the trial starts.
    void bind_observability(obs::registry& reg) {
        stats_.bind(reg, "client." + std::to_string(id_));
    }

    [[nodiscard]] const client_stats& stats() const { return stats_; }
    [[nodiscard]] client_id_t id() const { return id_; }
    [[nodiscard]] const memory_task_set& tasks() const { return tasks_; }
    /// Released but not yet issued requests.
    [[nodiscard]] std::uint64_t backlog() const;
    [[nodiscard]] std::uint32_t outstanding() const {
        return static_cast<std::uint32_t>(outstanding_.size());
    }

private:
    struct pending_job {
        cycle_t release = 0;
        cycle_t deadline = 0;
        std::uint32_t remaining = 0; ///< requests not yet issued
        std::uint64_t base_addr = 0;
        std::uint32_t issued = 0; ///< requests already issued (addr offset)
        std::uint32_t job_seq = 0;
    };
    /// Released jobs in release order: a vector consumed from head_.
    /// Allocates nothing until the first release; pop_front is O(1), and
    /// the consumed prefix is dropped once it outweighs the live jobs, so
    /// a queue that never drains stays within twice its backlog.
    class job_queue {
    public:
        [[nodiscard]] bool empty() const { return head_ == jobs_.size(); }
        [[nodiscard]] pending_job& front() { return jobs_[head_]; }
        [[nodiscard]] const pending_job& front() const {
            return jobs_[head_];
        }
        void push_back(const pending_job& job) {
            // detlint:allow(hotpath-alloc): client-model job bookkeeping
            jobs_.push_back(job);
        }
        void pop_front() {
            if (++head_ * 2 >= jobs_.size()) {
                jobs_.erase(jobs_.begin(),
                            jobs_.begin() +
                                static_cast<std::ptrdiff_t>(head_));
                head_ = 0;
            }
        }
        [[nodiscard]] auto begin() const {
            return jobs_.begin() + static_cast<std::ptrdiff_t>(head_);
        }
        [[nodiscard]] auto end() const { return jobs_.end(); }

    private:
        std::vector<pending_job> jobs_;
        std::size_t head_ = 0;
    };
    struct task_state {
        cycle_t next_release = 0;
        std::uint32_t jobs_released = 0;
        job_queue jobs;
    };

    /// One in-flight transaction: what a reissue rebuilds its request
    /// from (the fabric holds the request itself).
    struct in_flight {
        request_id_t id = 0;
        std::uint64_t addr = 0;
        cycle_t issue_cycle = 0; ///< the first attempt's
        cycle_t deadline = 0;
        cycle_t timeout_at = k_cycle_never;
        std::uint32_t job = 0;
        std::uint32_t attempts = 0; ///< reissues so far
        task_id_t task = 0;
        mem_op op = mem_op::read;
        bool exhausted = false; ///< retry budget spent; await or abandon
    };

    void release_jobs(cycle_t now);
    /// Index of the task whose head job has the earliest deadline;
    /// -1 when nothing is pending.
    [[nodiscard]] int pick_edf_task() const;
    /// Reissues the oldest timed-out request, if any. Returns true when
    /// the cycle's issue slot was consumed.
    bool try_reissue(cycle_t now);
    [[nodiscard]] cycle_t backoff_window(std::uint32_t attempts) const;
    /// Puts `f` in flight: appends it to the table (ids only grow, so the
    /// table stays in id order) and pushes its request at `now`.
    void send(const in_flight& f, cycle_t now);

    client_id_t id_;
    memory_task_set tasks_;
    interconnect& net_;
    rng rng_;
    traffic_gen_config cfg_;
    std::vector<task_state> state_;
    /// In-flight transactions in id order; ids are monotonic per client,
    /// so this is issue order (deterministic timeout scanning) and
    /// on_response finds its entry by binary search. At most
    /// k_max_outstanding entries.
    std::vector<in_flight> outstanding_;
    client_stats stats_;
    request_id_t next_request_id_;
    bool stopped_ = false;
    bool shed_ = false;
    /// The fabric fires our wake when a pop frees the (previously full)
    /// ingress port, so next_event() may sleep while backpressured.
    bool port_drain_wake_ = false;
};

} // namespace bluescale::workload
