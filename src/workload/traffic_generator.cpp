#include "workload/traffic_generator.hpp"

#include <algorithm>
#include <cassert>

namespace bluescale::workload {

traffic_generator::traffic_generator(client_id_t id, memory_task_set tasks,
                                     interconnect& net, std::uint64_t seed,
                                     traffic_gen_config cfg)
    : component("traffic_gen_" + std::to_string(id)), id_(id),
      tasks_(std::move(tasks)), net_(net), rng_(seed), cfg_(cfg),
      state_(tasks_.size()),
      // Partition the request-id space by client so ids never collide.
      next_request_id_(static_cast<request_id_t>(id) << 40) {
    port_drain_wake_ = net_.bind_client_drain(id_, sim::wake_of(*this));
}

void traffic_generator::release_jobs(cycle_t now) {
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
        const memory_task& task = tasks_[i];
        task_state& ts = state_[i];
        const cycle_t period = task.period_cycles(cfg_.unit_cycles);
        while (ts.next_release <= now) {
            pending_job job;
            job.release = ts.next_release;
            job.deadline = ts.next_release + period; // implicit deadline
            job.remaining = task.requests_per_job;
            job.job_seq = ts.jobs_released;
            // Jobs stream lines from a random offset inside the task's
            // private region (sequential within a job -> row locality).
            const std::uint64_t task_base =
                (static_cast<std::uint64_t>(id_) * 64 + task.id) *
                k_task_region_bytes;
            const std::uint64_t lines =
                k_task_region_bytes / k_cache_line_bytes;
            job.base_addr = task_base + rng_.uniform_u64(0, lines - 1) *
                                            k_cache_line_bytes;
            // Software workload model, not modeled hardware: per-task job
            // backlog mirrors what a generator thread would queue.
            // detlint:allow(hotpath-alloc): client-model job bookkeeping
            ts.jobs.push_back(job);
            ts.next_release += period;
            ++ts.jobs_released;
        }
    }
}

int traffic_generator::pick_edf_task() const {
    int best = -1;
    cycle_t best_deadline = k_cycle_never;
    for (std::size_t i = 0; i < state_.size(); ++i) {
        const auto& jobs = state_[i].jobs;
        if (jobs.empty()) continue;
        if (jobs.front().deadline < best_deadline) {
            best_deadline = jobs.front().deadline;
            best = static_cast<int>(i);
        }
    }
    return best;
}

cycle_t traffic_generator::backoff_window(std::uint32_t attempts) const {
    cycle_t window = cfg_.retry_timeout_cycles;
    for (std::uint32_t a = 0; a < attempts; ++a) {
        window *= k_retry_backoff_mult;
    }
    return window;
}

void traffic_generator::send(const in_flight& f, cycle_t now) {
    assert(outstanding_.size() < k_max_outstanding);
    // The table never holds more than k_max_outstanding entries (a new
    // request waits below the cap; a reissue replaces its entry), so it
    // stops growing once its capacity reaches that bound.
    // detlint:allow(hotpath-alloc): bounded by k_max_outstanding
    outstanding_.push_back(f);
    mem_request r;
    r.id = f.id;
    r.client = id_;
    r.task = f.task;
    r.job = f.job;
    r.addr = f.addr;
    r.op = f.op;
    r.issue_cycle = f.issue_cycle;
    r.hop_arrival = now;
    r.abs_deadline = f.deadline;
    r.level_deadline = f.deadline; // leaf-level arbitration priority
    r.attempt =
        static_cast<std::uint8_t>(std::min<std::uint32_t>(f.attempts, 255));
    net_.client_push(id_, std::move(r));
}

bool traffic_generator::try_reissue(cycle_t now) {
    for (auto it = outstanding_.begin(); it != outstanding_.end(); ++it) {
        in_flight& o = *it;
        if (o.exhausted || o.timeout_at > now) continue;
        stats_.record_timeout();
        if (o.attempts >= cfg_.max_retries) {
            // Budget spent: stop reissuing, but keep the entry -- the
            // response may merely be slow, and finalize() abandons it
            // otherwise.
            o.exhausted = true;
            o.timeout_at = k_cycle_never;
            stats_.record_retry_exhausted();
            continue;
        }
        // Reissue under a fresh id; the old id is forgotten, so its
        // response (if the request was slow rather than lost) is stale.
        in_flight fresh = o;
        outstanding_.erase(it);
        ++fresh.attempts;
        fresh.id = next_request_id_++;
        fresh.timeout_at = now + backoff_window(fresh.attempts);
        stats_.record_retry();
        send(fresh, now);
        return true;
    }
    return false;
}

void traffic_generator::tick(cycle_t now) {
    if (stopped_) return;
    release_jobs(now);

    // Overload shedding: the client goes fully quiet -- no new work, no
    // recovery reissues -- so the fabric drains. Released jobs still age
    // toward their deadlines and are charged to this client.
    if (shed_) {
        stats_.record_shed_cycle(backlog() > 0);
        return;
    }

    // Issue at most one request per cycle (client port width). Recovery
    // reissues go first: a timed-out request is already late, so it
    // outranks new work for the slot.
    if (!net_.client_can_accept(id_)) return;
    if (cfg_.retry_timeout_cycles != 0 && try_reissue(now)) return;
    if (outstanding() >= k_max_outstanding) return;
    const int which = pick_edf_task();
    if (which < 0) return;

    task_state& ts = state_[static_cast<std::size_t>(which)];
    pending_job& job = ts.jobs.front();

    const memory_task& task = tasks_[static_cast<std::size_t>(which)];
    in_flight f;
    f.id = next_request_id_++;
    f.addr = job.base_addr +
             static_cast<std::uint64_t>(job.issued) * k_cache_line_bytes;
    f.issue_cycle = now;
    f.deadline = job.deadline;
    if (cfg_.retry_timeout_cycles != 0) {
        f.timeout_at = now + cfg_.retry_timeout_cycles;
    }
    f.job = job.job_seq;
    f.task = task.id;
    f.op = task.writes ? mem_op::write : mem_op::read;
    stats_.record_issue();
    send(f, now);

    ++job.issued;
    if (--job.remaining == 0) ts.jobs.pop_front();
}

void traffic_generator::on_response(mem_request&& r) {
    assert(r.client == id_);
    // Response delivery is the one signal a quiescent client cannot
    // predict: re-arm so the next tick reacts exactly when lockstep
    // would (the issue slot, retry bookkeeping, burst progress).
    wake();
    const auto it = std::lower_bound(
        outstanding_.begin(), outstanding_.end(), r.id,
        [](const in_flight& f, request_id_t id) { return f.id < id; });
    if (it == outstanding_.end() || it->id != r.id) {
        // A reissue superseded this attempt before its response landed.
        stats_.record_stale_response();
        return;
    }
    if (r.failed) {
        // Uncorrected DRAM error: the payload is unusable. With recovery
        // configured and budget left, expire the timeout so the next
        // tick's reissue path retries immediately; otherwise give up.
        stats_.record_failed_response();
        if (cfg_.retry_timeout_cycles != 0 && !it->exhausted &&
            it->attempts < cfg_.max_retries) {
            it->timeout_at = r.complete_cycle;
            return;
        }
        if (cfg_.retry_timeout_cycles != 0 && !it->exhausted) {
            stats_.record_retry_exhausted();
        }
        stats_.record_abandoned(1, 1);
        outstanding_.erase(it);
        return;
    }
    outstanding_.erase(it);
    stats_.record_completion(
        static_cast<double>(r.total_latency()),
        static_cast<double>(r.blocked_cycles), !r.met_deadline(),
        r.complete_cycle > r.abs_deadline + cfg_.validation_margin_cycles);
}

void traffic_generator::reconfigure_tasks(memory_task_set tasks,
                                          cycle_t now) {
    tasks_ = std::move(tasks);
    state_.assign(tasks_.size(), task_state{});
    for (auto& ts : state_) ts.next_release = now;
    stats_.record_reconfiguration();
    wake(); // the new set's releases start immediately
}

cycle_t traffic_generator::next_event(cycle_t now) const {
    if (stopped_) return k_cycle_never;
    if (shed_) return now + 1;
    // At the MSHR cap nothing can issue until a response retires an
    // entry, and on_response() wakes us for exactly that edge; at a full
    // port nothing can issue until a pop frees a slot, and the fabric's
    // drain hook wakes us for exactly that edge (when the fabric cannot
    // provide it, port_drain_wake_ keeps the per-cycle poll). So pending
    // jobs only force the per-cycle cadence when a request could actually
    // go out. Release boundaries stay in the horizon even when throttled
    // or blocked: waking at every task's next_release keeps
    // release_jobs()'s rng draw order identical to lockstep's
    // cycle-by-cycle interleaving across tasks. An expired retry timeout
    // holds the horizon at now + 1 until its reissue lands, covering a
    // backpressured reissue slot.
    const bool throttled = outstanding() >= k_max_outstanding;
    const bool blocked = port_drain_wake_ && !net_.client_can_accept(id_);
    cycle_t due = k_cycle_never;
    for (const auto& ts : state_) {
        if (!ts.jobs.empty() && !throttled && !blocked) return now + 1;
        due = std::min(due, ts.next_release);
    }
    if (cfg_.retry_timeout_cycles != 0) {
        for (const in_flight& o : outstanding_) {
            if (!o.exhausted) due = std::min(due, o.timeout_at);
        }
    }
    return std::max(now + 1, due);
}

std::uint64_t traffic_generator::backlog() const {
    std::uint64_t total = 0;
    for (const auto& ts : state_) {
        for (const auto& job : ts.jobs) total += job.remaining;
    }
    return total;
}

void traffic_generator::finalize(cycle_t end_cycle) {
    // In-flight requests that can no longer meet their deadline.
    for (const in_flight& o : outstanding_) {
        const cycle_t deadline = o.deadline;
        if (deadline < end_cycle) {
            const bool beyond =
                deadline + cfg_.validation_margin_cycles < end_cycle;
            stats_.record_abandoned(1, beyond ? 1 : 0);
        }
    }
    // Released but never issued requests past their deadline.
    for (const auto& ts : state_) {
        for (const auto& job : ts.jobs) {
            if (job.deadline < end_cycle) {
                const bool beyond =
                    job.deadline + cfg_.validation_margin_cycles <
                    end_cycle;
                stats_.record_abandoned(job.remaining,
                                        beyond ? job.remaining : 0);
            }
        }
    }
}

} // namespace bluescale::workload
