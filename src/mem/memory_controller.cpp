#include "mem/memory_controller.hpp"

#include <algorithm>

namespace bluescale {

memory_controller::memory_controller(memctrl_config cfg)
    : component("memory_controller", /*latches=*/true), cfg_(cfg),
      dram_(cfg.timing), maint_(dram_, cfg.maintenance),
      in_q_(k_request_queue_depth), out_q_(k_response_queue_depth),
      bank_busy_until_(k_dram_banks, 0) {
    bind_observability(own_, obs::tracer{});
    // The interconnect root pushes requests during its own tick; the wake
    // re-arms a sleeping controller for the same cycle (it ticks after
    // the fabric in registration order, exactly as in lockstep).
    in_q_.set_wake_hook(sim::wake_of(*this));
}

void memory_controller::bind_observability(obs::metric_store& reg,
                                           obs::tracer tracer) {
    serviced_ = reg.make_counter("mem/serviced");
    ecc_retries_ = reg.make_counter("mem/ecc_retries");
    uncorrected_errors_ = reg.make_counter("mem/uncorrected_errors");
    storm_cycles_ = reg.make_counter("mem/storm_cycles");
    maint_.bind_observability(reg);
    trace_ = tracer;
}

bool memory_controller::bank_free(const mem_request& r, cycle_t now) const {
    const std::uint32_t bank = dram_.bank_of(r.addr);
    return bank_busy_until_[bank] <= now && !maint_.bank_blocked(bank, now);
}

int memory_controller::choose(cycle_t now) const {
    if (in_q_.empty()) return -1;

    if (cfg_.policy == memctrl_policy::fcfs) {
        // Strict order: the head stalls everyone while its bank is busy.
        return bank_free(in_q_.at(0), now) ? 0 : -1;
    }

    // FR-FCFS. A head bypassed too often is forced next (starvation guard).
    if (head_bypasses_ >= k_fr_fcfs_bypass_cap) {
        return bank_free(in_q_.at(0), now) ? 0 : -1;
    }
    // Oldest ready row hit...
    for (std::size_t i = 0; i < in_q_.size(); ++i) {
        const mem_request& r = in_q_.at(i);
        if (bank_free(r, now) &&
            dram_.classify(r) == row_outcome::hit) {
            return static_cast<int>(i);
        }
    }
    // ...else oldest request with a free bank.
    for (std::size_t i = 0; i < in_q_.size(); ++i) {
        if (bank_free(in_q_.at(i), now)) return static_cast<int>(i);
    }
    return -1;
}

void memory_controller::tick(cycle_t now) {
    // Maintenance first: windows slept over are applied in closed form, so
    // every scheduling decision below sees the post-maintenance row state.
    maint_.advance(now);

    // Injected backpressure storm: refuse new work for the window.
    storm_active_ = storm_faults_.active(now);
    if (storm_active_) storm_cycles_.inc();

    // Retire finished transactions into the response queue. A completion
    // inside an injected DRAM-error window is corrupted: the first hit
    // re-services the transaction transparently (ECC scrub + reissue); a
    // corrupted retry is delivered failed, for the client to recover.
    while (!in_flight_.empty() && in_flight_.top().done <= now &&
           out_q_.can_push()) {
        auto& top = const_cast<completion&>(in_flight_.top());
        const bool corrupted = error_faults_.active(now);
        if (corrupted && !top.ecc_retried) {
            mem_request retry = std::move(top.req);
            in_flight_.pop();
            ecc_retries_.inc();
            const std::uint32_t latency =
                std::max<std::uint32_t>(1, dram_.access(retry));
            const std::uint32_t bank = dram_.bank_of(retry.addr);
            bank_busy_until_[bank] =
                std::max(bank_busy_until_[bank], now + latency);
            maint_.on_activation(bank, now + latency);
            in_flight_.push(
                {now + latency, completion_seq_++, std::move(retry), true});
            continue;
        }
        mem_request r = std::move(top.req);
        in_flight_.pop();
        if (corrupted) {
            r.failed = true;
            uncorrected_errors_.inc();
        }
        r.mem_done = now;
        trace_.emit(obs::trace_event_kind::mem_complete, r.id,
                    r.failed ? 1 : 0);
        out_q_.push(std::move(r));
        serviced_.inc();
    }

    // Start a new transaction at most once per initiation interval.
    if (now < next_start_) return;
    const int pick = choose(now);
    if (pick < 0) return;

    if (pick == 0) {
        head_bypasses_ = 0;
    } else {
        ++head_bypasses_;
    }
    mem_request r = in_q_.extract(static_cast<std::size_t>(pick));
    const std::uint32_t latency = dram_.access(r);
    r.mem_start = now;
    trace_.emit(obs::trace_event_kind::request_dequeue, r.id,
                dram_.bank_of(r.addr));
    // Requests that keep waiting while a later-deadline transaction
    // occupies the start slot are blocked by lower-priority work.
    charge_blocked(in_q_, r.level_deadline, cfg_.initiation_interval);
    const std::uint32_t bank = dram_.bank_of(r.addr);
    bank_busy_until_[bank] = now + latency;
    maint_.on_activation(bank, now + latency);
    in_flight_.push({now + latency, completion_seq_++, std::move(r)});
    next_start_ = now + cfg_.initiation_interval;
}

void memory_controller::commit() {
    in_q_.commit();
    out_q_.commit();
}

cycle_t memory_controller::next_event(cycle_t now) const {
    // An open storm window counts storm_cycles_ per cycle.
    if (storm_active_) return now + 1;
    cycle_t due = storm_faults_.wake_horizon(now);
    if (!in_flight_.empty()) {
        // Earliest retirement; a retirement blocked on a full response
        // queue (done <= now) clamps to per-cycle until the fabric pops.
        due = std::min(due, std::max(now + 1, in_flight_.top().done));
    }
    if (!in_q_.quiet()) {
        // Queued work can only start at the initiation-interval gate;
        // cycles before next_start_ would hit the `now < next_start_`
        // early-out. choose() stalls (next_start_ <= now, pick < 0)
        // degrade to the per-cycle clamp.
        due = std::min(due, std::max(now + 1, next_start_));
    }
    // Maintenance boundaries wake the controller even when idle: the
    // engine's counters and row-state must advance at every window start
    // for snapshots to match lockstep byte-for-byte. Per-cycle inside an
    // injected maintenance storm (per-cycle stolen accounting).
    due = std::min(due, maint_.next_boundary(now));
    return due;
}

void memory_controller::inject_campaign(const sim::fault_campaign& campaign) {
    error_faults_ =
        sim::fault_window(campaign.slice_all(sim::fault_kind::dram_error));
    storm_faults_ = sim::fault_window(
        campaign.slice_all(sim::fault_kind::backpressure_storm));
    maint_.inject_storms(
        campaign.slice_all(sim::fault_kind::maintenance_storm));
    wake(); // the fresh schedules invalidate any cached horizon
}

} // namespace bluescale
