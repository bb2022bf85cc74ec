#include "svc/analysis_service.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "sim/rng.hpp"

namespace bluescale::svc {

const char* request_outcome_name(request_outcome o) {
    switch (o) {
    case request_outcome::pending: return "pending";
    case request_outcome::committed: return "committed";
    case request_outcome::rejected: return "rejected";
    case request_outcome::expired: return "expired";
    case request_outcome::shed: return "shed";
    }
    return "?";
}

const char* breaker_state_name(breaker_state s) {
    switch (s) {
    case breaker_state::closed: return "closed";
    case breaker_state::open: return "open";
    case breaker_state::half_open: return "half_open";
    }
    return "?";
}

analysis_service::analysis_service(core::reconfig_manager& mgr,
                                   service_config cfg)
    : component("analysis_service"), mgr_(mgr), cfg_(cfg) {
    cache_version_ = mgr_.committed_version();
    bind_observability(own_, obs::tracer{});
}

void analysis_service::bind_observability(obs::metric_store& reg,
                                          obs::tracer tracer) {
    submitted_ = reg.make_counter("svc/submitted");
    accepted_ = reg.make_counter("svc/accepted");
    shed_ = reg.make_counter("svc/shed");
    expired_ = reg.make_counter("svc/expired");
    committed_ = reg.make_counter("svc/committed");
    rejected_ = reg.make_counter("svc/rejected");
    retries_ = reg.make_counter("svc/retries");
    requeues_ = reg.make_counter("svc/requeues");
    cache_hits_ = reg.make_counter("svc/cache_hits");
    cache_misses_ = reg.make_counter("svc/cache_misses");
    cache_invalidations_ = reg.make_counter("svc/cache_invalidations");
    degraded_evals_ = reg.make_counter("svc/degraded_evals");
    breaker_trips_ = reg.make_counter("svc/breaker_trips");
    worker_crashes_ = reg.make_counter("svc/worker_crashes");
    worker_stall_cycles_ = reg.make_counter("svc/worker_stall_cycles");
    eval_cycles_ = reg.make_sample("svc/eval_cycles");
    latency_cycles_ = reg.make_sample("svc/latency_cycles");
    trace_ = tracer;
}

service_stats analysis_service::stats() const {
    service_stats s;
    s.submitted = submitted_.value();
    s.accepted = accepted_.value();
    s.shed = shed_.value();
    s.expired = expired_.value();
    s.committed = committed_.value();
    s.rejected = rejected_.value();
    s.retries = retries_.value();
    s.requeues = requeues_.value();
    s.cache_hits = cache_hits_.value();
    s.cache_misses = cache_misses_.value();
    s.cache_invalidations = cache_invalidations_.value();
    s.degraded_evals = degraded_evals_.value();
    s.breaker_trips = breaker_trips_.value();
    s.worker_crashes = worker_crashes_.value();
    s.worker_stall_cycles = worker_stall_cycles_.value();
    return s;
}

void analysis_service::install_faults(const sim::fault_campaign& campaign) {
    for (std::uint32_t i = 0; i < workers_.size(); ++i) {
        workers_[i].crash = sim::fault_window(
            campaign.slice(sim::fault_kind::worker_crash, i));
        workers_[i].stall = sim::fault_window(
            campaign.slice(sim::fault_kind::worker_stall, i));
        workers_[i].crashed = false;
    }
}

std::uint64_t analysis_service::submit(std::uint32_t client,
                                       analysis::task_set tasks,
                                       cycle_t at, cycle_t deadline) {
    // The caller supplies the submission cycle: the event engine does not
    // tick an idle service, so the latched clock may lag the simulator.
    now_ = std::max(now_, at);
    const std::uint64_t id = records_.size();
    request_record rec;
    rec.id = id;
    rec.client = client;
    rec.submitted_at = now_;
    request_state st;
    st.tasks = std::move(tasks);
    if (deadline == k_cycle_never && cfg_.default_deadline != 0) {
        st.deadline = now_ + cfg_.default_deadline;
    } else {
        st.deadline = deadline;
    }
    records_.push_back(std::move(rec));
    states_.push_back(std::move(st));
    submitted_.inc();

    // Backpressure with hysteresis: a full queue starts shedding, and
    // shedding continues until the depth drains to the low watermark --
    // an overload burst cannot flap admission open/closed every cycle.
    if (shedding_ && queue_.size() <= k_resume_depth) shedding_ = false;
    if (shedding_ || queue_.size() >= k_max_queue) {
        shedding_ = true;
        trace_.emit(obs::trace_event_kind::svc_shed, id);
        finish(id, now_, request_outcome::shed,
               core::admission_outcome::rejected_queue_full,
               "service queue full (" + std::to_string(queue_.size()) + "/" +
                   std::to_string(k_max_queue) + ")");
        return id;
    }
    accepted_.inc();
    trace_.emit(obs::trace_event_kind::svc_accept, id);
    queue_.push_back(id);
    wake();
    return id;
}

bool analysis_service::expired_now(const request_state& st,
                                   cycle_t now) const {
    return st.deadline != k_cycle_never && now > st.deadline;
}

void analysis_service::finish(std::uint64_t id, cycle_t now,
                              request_outcome outcome,
                              core::admission_outcome reason,
                              std::string detail) {
    request_record& rec = records_[id];
    assert(rec.outcome == request_outcome::pending);
    rec.outcome = outcome;
    rec.reject_reason = reason;
    rec.detail = std::move(detail);
    rec.finished_at = now;
    switch (outcome) {
    case request_outcome::committed: committed_.inc(); break;
    case request_outcome::rejected: rejected_.inc(); break;
    case request_outcome::expired: expired_.inc(); break;
    case request_outcome::shed: shed_.inc(); break;
    case request_outcome::pending: break;
    }
    latency_cycles_.add(static_cast<double>(now - rec.submitted_at));
    trace_.emit(obs::trace_event_kind::svc_complete, id,
                static_cast<std::uint64_t>(outcome));
    if (on_complete_) on_complete_(records_[id], states_[id].tasks);
}

void analysis_service::sweep_expired_queue(cycle_t now) {
    // Deadline cancellation: expired requests leave the queue before any
    // work runs on them, freeing their slots for live work.
    for (std::size_t i = 0; i < queue_.size();) {
        const std::uint64_t id = queue_[i];
        if (expired_now(states_[id], now)) {
            finish(id, now, request_outcome::expired,
                   core::admission_outcome::rejected_deadline_expired,
                   "deadline expired in the service queue");
            queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
            ++i;
        }
    }
}

cycle_t analysis_service::backoff_delay(std::uint64_t id,
                                        std::uint32_t attempt) const {
    // Exponential backoff with deterministic jitter: the jitter stream is
    // derived per (seed, request, attempt), so retries perturb nothing
    // else and the schedule is bit-identical for any --threads setting.
    const std::uint32_t shift = std::min<std::uint32_t>(attempt - 1, 20);
    rng jitter(substream(substream(cfg_.seed, id), attempt));
    return std::min<cycle_t>(k_backoff_cap, k_backoff_base << shift) +
           jitter.uniform_u64(0, k_backoff_base - 1);
}

void analysis_service::service_retries(cycle_t now) {
    std::vector<std::uint64_t> kept;
    kept.reserve(retry_ids_.size());
    for (const std::uint64_t id : retry_ids_) {
        request_state& st = states_[id];
        if (st.retry_at > now) {
            kept.push_back(id);
            continue;
        }
        st.retry_at = k_cycle_never;
        if (expired_now(st, now)) {
            finish(id, now, request_outcome::expired,
                   core::admission_outcome::rejected_deadline_expired,
                   "deadline expired during retry backoff");
            continue;
        }
        // Re-entry after backoff bypasses the admission bound: the
        // request was already accepted once and sheds would double-count.
        queue_.push_back(id);
    }
    retry_ids_ = std::move(kept);
}

void analysis_service::step_workers(cycle_t now) {
    for (std::size_t i = 0; i < workers_.size(); ++i) {
        worker& w = workers_[i];
        const bool crash_now = w.crash.active(now);
        const bool stall_now = w.stall.active(now);
        if (crash_now && !w.crashed) {
            worker_crashes_.inc();
            if (w.busy) {
                // The crashed worker's in-flight request is re-queued
                // exactly once, at the FRONT (it already held a slot) and
                // exempt from the bound. Its evaluation dies with the
                // worker; the result cache usually makes the redo cheap.
                request_state& st = states_[w.req];
                st.has_eval = false;
                ++records_[w.req].requeues;
                requeues_.inc();
                trace_.emit(obs::trace_event_kind::svc_requeue, w.req, i);
                queue_.push_front(w.req);
                w.busy = false;
            }
        }
        w.crashed = crash_now;
        if (!w.busy) continue;
        if (expired_now(states_[w.req], now)) {
            // Deadline cancellation extends to in-flight work: an exact
            // evaluation whose modeled cost outruns the request's deadline
            // is abandoned, freeing the worker (the answer would arrive
            // too late to act on either way).
            const std::uint64_t id = w.req;
            w.busy = false;
            states_[id].has_eval = false;
            finish(id, now, request_outcome::expired,
                   core::admission_outcome::rejected_deadline_expired,
                   "deadline expired during evaluation (cancelled)");
            continue;
        }
        if (stall_now) {
            // A stalled worker holds its request: completion slips one
            // cycle per stalled cycle (delayed, never lost).
            ++w.done_at;
            worker_stall_cycles_.inc();
            continue;
        }
        if (now >= w.done_at) {
            const std::uint64_t id = w.req;
            w.busy = false;
            complete(id, now);
        }
    }
}

void analysis_service::complete(std::uint64_t id, cycle_t now) {
    request_state& st = states_[id];
    if (!st.eval.feasible) {
        std::string detail = st.eval.detail;
        if (st.eval_degraded) detail += " (degraded precision)";
        finish(id, now, request_outcome::rejected, st.eval.reject_reason,
               std::move(detail));
        return;
    }
    // Feasible: hand the precomputed evaluation to the manager's
    // transactional path. A commit in between makes it stale and the
    // manager re-runs it fresh -- never half-applied.
    st.mgr_id = mgr_.apply_evaluated(records_[id].client, st.tasks,
                                     std::move(st.eval), st.deadline);
    st.has_eval = false;
    outstanding_.push_back(id);
}

void analysis_service::poll_manager(cycle_t now) {
    std::vector<std::uint64_t> kept;
    kept.reserve(outstanding_.size());
    for (const std::uint64_t id : outstanding_) {
        const core::admission_record& rec =
            mgr_.record(states_[id].mgr_id);
        if (rec.outcome == core::admission_outcome::pending ||
            rec.outcome == core::admission_outcome::staged) {
            kept.push_back(id);
            continue;
        }
        handle_manager_outcome(id, rec, now);
    }
    outstanding_ = std::move(kept);
}

void analysis_service::handle_manager_outcome(
    std::uint64_t id, const core::admission_record& mrec, cycle_t now) {
    switch (mrec.outcome) {
    case core::admission_outcome::committed:
        finish(id, now, request_outcome::committed,
               core::admission_outcome::committed, std::string{});
        return;
    case core::admission_outcome::rejected_deadline_expired:
        finish(id, now, request_outcome::expired, mrec.outcome,
               mrec.detail);
        return;
    case core::admission_outcome::rejected_path_hazard: {
        // Transient: the unhealthy path usually recovers. Retry with
        // exponential backoff until the budget runs out.
        request_record& rec = records_[id];
        if (rec.retries < k_max_retries) {
            ++rec.retries;
            retries_.inc();
            states_[id].retry_at = now + backoff_delay(id, rec.retries);
            retry_ids_.push_back(id);
            trace_.emit(obs::trace_event_kind::svc_retry, id, rec.retries);
            return;
        }
        finish(id, now, request_outcome::rejected, mrec.outcome,
               mrec.detail + " (retries exhausted)");
        return;
    }
    default:
        // rejected_infeasible / rejected_overutilized / rolled_back.
        finish(id, now, request_outcome::rejected, mrec.outcome,
               mrec.detail);
        return;
    }
}

void analysis_service::set_breaker(breaker_state s, cycle_t /*now*/) {
    breaker_ = s;
    trace_.emit(obs::trace_event_kind::svc_breaker,
                static_cast<std::uint64_t>(s));
}

void analysis_service::note_eval_cost(std::uint64_t work, bool degraded,
                                      cycle_t now) {
    if (degraded) {
        degraded_evals_.inc();
        return;
    }
    const bool slow = work > k_breaker_slow_cycles;
    if (breaker_ == breaker_state::closed) {
        consecutive_slow_ = slow ? consecutive_slow_ + 1 : 0;
        if (slow && consecutive_slow_ >= k_breaker_trip_after) {
            breaker_trips_.inc();
            breaker_reopen_at_ = now + k_breaker_cooldown;
            consecutive_slow_ = 0;
            set_breaker(breaker_state::open, now);
        }
    } else if (breaker_ == breaker_state::half_open) {
        if (slow) {
            // Probe failed: re-open and restart the cooldown.
            breaker_trips_.inc();
            breaker_reopen_at_ = now + k_breaker_cooldown;
            probe_successes_ = 0;
            set_breaker(breaker_state::open, now);
        } else if (++probe_successes_ >= k_breaker_close_after) {
            probe_successes_ = 0;
            consecutive_slow_ = 0;
            set_breaker(breaker_state::closed, now);
        }
    }
}

void analysis_service::run_evaluation(std::uint64_t id, worker& w,
                                      cycle_t now) {
    request_state& st = states_[id];
    request_record& rec = records_[id];

    // Breaker gate: open = degraded precision; after the cooldown the
    // next dispatch half-opens and probes with full precision.
    if (breaker_ == breaker_state::open && now >= breaker_reopen_at_) {
        set_breaker(breaker_state::half_open, now);
    }
    const bool degraded = breaker_ == breaker_state::open;

    std::uint64_t busy_cycles = 0;
    cache_key key{rec.client, degraded, st.tasks};
    const auto hit = cache_.find(key);
    if (hit != cache_.end()) {
        st.eval = hit->second.eval;
        st.eval_degraded = hit->second.degraded;
        rec.cache_hit = true;
        cache_hits_.inc();
        busy_cycles = k_cache_hit_cycles;
    } else {
        st.eval = mgr_.evaluate(rec.client, st.tasks, degraded);
        st.eval_degraded = degraded;
        cache_misses_.inc();
        note_eval_cost(st.eval.report.total_cycles, degraded, now);
        busy_cycles = std::max<std::uint64_t>(k_min_eval_cycles,
                                              st.eval.report.total_cycles);
        cache_fifo_.push_back(
            cache_.emplace(std::move(key), cache_entry{st.eval, degraded})
                .first);
        if (cache_.size() > k_cache_capacity) {
            cache_.erase(cache_fifo_.front());
            cache_fifo_.pop_front();
        }
    }
    st.has_eval = true;
    rec.degraded = rec.degraded || st.eval_degraded;
    eval_cycles_.add(static_cast<double>(busy_cycles));

    w.busy = true;
    w.req = id;
    w.done_at = now + busy_cycles;
}

void analysis_service::dispatch(cycle_t now) {
    for (worker& w : workers_) {
        if (w.busy || w.crashed) continue;
        while (!queue_.empty()) {
            const std::uint64_t id = queue_.front();
            queue_.pop_front();
            if (expired_now(states_[id], now)) {
                finish(id, now, request_outcome::expired,
                       core::admission_outcome::rejected_deadline_expired,
                       "deadline expired at dispatch");
                continue;
            }
            run_evaluation(id, w, now);
            break;
        }
    }
}

void analysis_service::tick(cycle_t now) {
    now_ = now;
    // Any committed reconfiguration invalidates the result cache: every
    // cached evaluation was computed against the superseded state.
    if (mgr_.committed_version() != cache_version_) {
        cache_version_ = mgr_.committed_version();
        if (!cache_.empty()) {
            cache_.clear();
            cache_fifo_.clear();
            cache_invalidations_.inc();
        }
    }
    sweep_expired_queue(now);
    service_retries(now);
    step_workers(now);
    poll_manager(now);
    dispatch(now);
}

cycle_t analysis_service::next_event(cycle_t now) const {
    cycle_t h = k_cycle_never;
    // Queued work and manager-outstanding requests keep the per-cycle
    // cadence (deadline sweeps and outcome polling need real ticks).
    if (!queue_.empty() || !outstanding_.empty()) h = now + 1;
    for (const worker& w : workers_) {
        // Crash edges are counted whether or not the worker holds work,
        // so both engines must tick at every crash-window boundary.
        h = std::min(h, w.crash.wake_horizon(now));
        if (w.busy) {
            h = std::min(h, w.done_at);
            h = std::min(h, w.stall.wake_horizon(now));
            // In-flight cancellation fires the cycle AFTER the deadline
            // (expiry is `now > deadline`).
            const cycle_t dl = states_[w.req].deadline;
            if (dl != k_cycle_never) h = std::min(h, dl + 1);
        }
    }
    for (const std::uint64_t id : retry_ids_) {
        h = std::min(h, states_[id].retry_at);
    }
    return h <= now ? now + 1 : h;
}

bool analysis_service::idle() const {
    if (!queue_.empty() || !retry_ids_.empty() || !outstanding_.empty()) {
        return false;
    }
    for (const worker& w : workers_) {
        if (w.busy) return false;
    }
    return true;
}

} // namespace bluescale::svc
