#include "workload/processor_client.hpp"

#include <algorithm>
#include <cassert>

namespace bluescale::workload {

processor_client::processor_client(client_id_t id, compute_task_set tasks,
                                   interconnect& net, std::uint64_t seed)
    : component("processor_" + std::to_string(id)), id_(id),
      tasks_(std::move(tasks)), net_(net), rng_(seed),
      next_release_(tasks_.size(), 0),
      next_request_id_((static_cast<request_id_t>(id) << 40) | 1u) {
    bind_observability(own_);
}

void processor_client::bind_observability(obs::metric_store& reg) {
    const std::string prefix = "client." + std::to_string(id_);
    failed_responses_ = reg.make_counter({prefix, "/failed_responses"});
    static constexpr const char* k_categories[] = {"safety", "function",
                                                   "interference"};
    for (std::size_t i = 0; i < 3; ++i) {
        jobs_completed_[i] = reg.make_counter(
            {prefix, "/jobs.", k_categories[i], "/completed"});
        jobs_missed_[i] =
            reg.make_counter({prefix, "/jobs.", k_categories[i], "/missed"});
    }
    requests_issued_ = reg.make_counter({prefix, "/requests_issued"});
}

void processor_client::release_jobs(cycle_t now) {
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
        const compute_task& t = tasks_[i];
        if (t.period == 0) continue;
        while (next_release_[i] <= now) {
            job j;
            j.task_index = i;
            j.release = next_release_[i];
            j.deadline = next_release_[i] + t.period;
            j.compute_left = t.compute_cycles;
            j.requests_left = t.mem_requests;
            j.compute_per_request = std::max<std::uint32_t>(
                1, t.compute_cycles / (t.mem_requests + 1));
            // Software workload model, not modeled hardware: the ready
            // queue tracks released-but-incomplete jobs, exactly the
            // backlog a real RTOS scheduler keeps on its own heap.
            // detlint:allow(hotpath-alloc): client-model job bookkeeping
            ready_.push_back(j);
            next_release_[i] += t.period;
        }
    }
}

void processor_client::start_next_job(cycle_t) {
    if (ready_.empty()) return;
    auto best = ready_.begin();
    for (auto it = ready_.begin(); it != ready_.end(); ++it) {
        if (it->deadline < best->deadline) best = it;
    }
    running_ = *best;
    ready_.erase(best);
}

void processor_client::finish_job(cycle_t now) {
    const compute_task& t = tasks_[running_->task_index];
    const auto cat = static_cast<std::size_t>(t.category);
    jobs_completed_[cat].inc();
    // detlint:allow(cycle-step): completion edge (end of cycle `now`)
    if (now + 1 > running_->deadline) jobs_missed_[cat].inc();
    running_.reset();
}

void processor_client::issue_request(cycle_t now) {
    const compute_task& t = tasks_[running_->task_index];
    mem_request r;
    r.id = next_request_id_++;
    r.client = id_;
    r.task = t.id;
    // Streams within a per-task region; occasional jumps model data-set
    // strides.
    const std::uint64_t region =
        (static_cast<std::uint64_t>(id_) * 256 + t.id) * (1u << 20);
    r.addr = region + (rng_.uniform_u64(0, 16'000) * 64);
    r.op = rng_.uniform_unit() < 0.3 ? mem_op::write : mem_op::read;
    r.issue_cycle = now;
    r.hop_arrival = now;
    r.abs_deadline = running_->deadline;
    r.level_deadline = running_->deadline;
    pending_req_ = std::move(r);
    stalled_ = true;
    push_pending(now);
}

void processor_client::push_pending(cycle_t now) {
    if (!net_.client_can_accept(id_)) {
        request_pending_issue_ = true;
        return;
    }
    request_pending_issue_ = false;
    // An access that waited on a full port starts its latency clock at
    // the actual push.
    pending_req_.issue_cycle = now;
    pending_req_.hop_arrival = now;
    requests_issued_.inc();
    mem_request out = pending_req_;
    net_.client_push(id_, std::move(out));
}

void processor_client::tick(cycle_t now) {
    release_jobs(now);

    if (!running_) start_next_job(now);
    if (!running_) return;

    // Preemptive EDF (FreeRTOS-style): an earlier-deadline ready job
    // preempts the running one at compute-cycle granularity. A job
    // stalled on a blocking cache miss cannot be switched out.
    if (!stalled_ && !ready_.empty()) {
        auto best = ready_.begin();
        for (auto it = ready_.begin(); it != ready_.end(); ++it) {
            if (it->deadline < best->deadline) best = it;
        }
        if (best->deadline < running_->deadline) {
            std::swap(*best, *running_);
        }
    }

    if (stalled_) {
        // Either the port was full (retry the push) or we await the
        // response (on_response clears the stall; a lost one blocks the
        // core for good).
        if (request_pending_issue_) push_pending(now);
        return;
    }

    job& j = *running_;
    if (j.compute_left > 0) {
        --j.compute_left;
        ++j.compute_since_request;
    }
    const bool due_by_spacing = j.requests_left > 0 &&
                                j.compute_since_request >=
                                    j.compute_per_request;
    const bool due_by_exhaustion = j.requests_left > 0 &&
                                   j.compute_left == 0;
    if (due_by_spacing || due_by_exhaustion) {
        --j.requests_left;
        j.compute_since_request = 0;
        issue_request(now);
        return;
    }
    if (j.compute_left == 0 && j.requests_left == 0) finish_job(now);
}

cycle_t processor_client::next_event(cycle_t now) const {
    if (stalled_) {
        // Retry the push, or sleep until the response wakes the core.
        return request_pending_issue_ ? now + 1 : k_cycle_never;
    }
    if (running_ || !ready_.empty()) return now + 1; // computing
    cycle_t due = k_cycle_never;
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
        if (tasks_[i].period == 0) continue;
        due = std::min(due, next_release_[i]);
    }
    return std::max(now + 1, due);
}

void processor_client::on_response(mem_request&& r) {
    assert(r.client == id_ && stalled_ && r.id == pending_req_.id);
    wake(); // a stalled core resumes the cycle after delivery, as in lockstep
    // An uncorrected DRAM error unblocks the core like any response (the
    // model never inspects the payload).
    if (r.failed) failed_responses_.inc();
    stalled_ = false;
}

void processor_client::finalize(cycle_t end_cycle) {
    auto account_overdue = [&](const job& j) {
        if (j.deadline < end_cycle) {
            const auto cat = static_cast<std::size_t>(
                tasks_[j.task_index].category);
            jobs_completed_[cat].inc();
            jobs_missed_[cat].inc();
        }
    };
    if (running_) account_overdue(*running_);
    for (const auto& j : ready_) account_overdue(j);
}

} // namespace bluescale::workload
