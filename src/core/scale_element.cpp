#include "core/scale_element.hpp"

#include <algorithm>
#include <cassert>
#include <string_view>

namespace bluescale::core {

namespace {
std::array<random_access_buffer, k_se_ports>
make_buffers(std::size_t depth) {
    return {random_access_buffer(depth), random_access_buffer(depth),
            random_access_buffer(depth), random_access_buffer(depth)};
}
} // namespace

scale_element::scale_element(std::string name, se_params params)
    : component(std::move(name), /*latches=*/true), params_(params),
      buffers_(make_buffers(params.buffer_depth)), sched_(params.policy) {
    bind_observability(own_, this->name(), obs::tracer{});
    // A push into any port buffer re-arms this element (and, through the
    // component wake hook, whatever fabric drives it).
    for (auto& buf : buffers_) buf.set_wake_hook(sim::wake_of(*this));
}

void scale_element::bind_sink(sink_ready_fn ready, sink_push_fn push) {
    sink_ready_ = std::move(ready);
    sink_push_ = std::move(push);
}

void scale_element::bind_observability(obs::metric_store& reg,
                                       const std::string& prefix,
                                       obs::tracer tracer) {
    static constexpr std::array<std::string_view, k_se_ports> k_port = {
        "/port0", "/port1", "/port2", "/port3"};
    forwarded_ = reg.make_counter({prefix, "/forwarded"});
    forwarded_budgeted_ = reg.make_counter({prefix, "/forwarded_budgeted"});
    fault_stall_cycles_ = reg.make_counter({prefix, "/fault_stall_cycles"});
    degraded_cycles_ = reg.make_counter({prefix, "/degraded_cycles"});
    wait_stats_ = reg.make_sample({prefix, "/wait_cycles"});
    for (std::uint32_t p = 0; p < k_se_ports; ++p) {
        port_forwarded_[p] =
            reg.make_counter({prefix, k_port[p], "/forwarded"});
        port_backlogged_cycles_[p] =
            reg.make_counter({prefix, k_port[p], "/backlogged_cycles"});
        port_queue_depth_[p] =
            reg.make_gauge({prefix, k_port[p], "/queue_depth"});
    }
    trace_ = tracer;
}

void scale_element::configure_port(std::uint32_t port,
                                   std::uint32_t period_units,
                                   std::uint32_t budget_units) {
    sched_.configure_port(port, period_units, budget_units);
    // The counters restarted: boundaries accumulated while this element
    // slept predate the reprogramming and must not be applied to the
    // fresh values. Resync at the next tick (which the wake guarantees
    // happens on the next cycle).
    pending_resync_ = true;
    wake();
}

std::optional<std::uint32_t> scale_element::pick_fallback() const {
    std::optional<std::uint32_t> best;
    cycle_t best_deadline = k_cycle_never;
    for (std::uint32_t p = 0; p < k_se_ports; ++p) {
        const auto deadline = buffers_[p].min_deadline();
        if (deadline && *deadline < best_deadline) {
            best_deadline = *deadline;
            best = p;
        }
    }
    return best;
}

void scale_element::settle_backlog(cycle_t through) {
    for (std::uint32_t p = 0; p < k_se_ports; ++p) {
        port_backlogged_cycles_[p].inc(owed_backlog(p, through));
    }
    if (refused_at_ != k_cycle_never) {
        refused_at_ = std::max(refused_at_, through);
    }
}

void scale_element::tick(cycle_t now) {
    assert(sink_ready_ && sink_push_);

    // Backpressure sleep: every cycle slept since the refused tick held
    // the same visible buffers (a load or a parent drain would have woken
    // the element), so charge them from the mask recorded then -- not
    // from the buffers now, which may hold the load that woke us.
    if (refused_at_ != k_cycle_never) {
        // detlint:allow(cycle-step): the slept span ends before this tick
        settle_backlog(now - 1);
        refused_at_ = k_cycle_never;
    }

    if (pending_resync_) {
        // configure_port() restarted the counters mid-run: drop any
        // boundary backlog from before the reprogramming. In lockstep
        // (tick every cycle) this recomputes the mark it would have had
        // anyway, so both engines stay identical.
        next_unit_mark_ =
            (now + params_.unit_cycles - 1) / params_.unit_cycles *
            params_.unit_cycles;
        pending_resync_ = false;
    }

    // Engagement gate for the replenish trace: an element with no work
    // and no per-cycle accounting replenishes silently (the event engine
    // sleeps straight over those boundaries; emitting from catch-up would
    // stamp the wrong cycle, so neither engine emits them).
    bool engaged = degraded_ || stalled_now_;
    for (std::uint32_t p = 0; !engaged && p < k_se_ports; ++p) {
        engaged = !buffers_[p].quiet();
    }

    // Time-unit boundaries: the P-counters decrement; expired periods
    // reload budgets before this cycle's scheduling decision. Boundaries
    // slept over by the event engine are applied in closed form (no
    // grants happened, so the wraps are unobservable); a boundary landing
    // on this very cycle runs the per-port path, traced per server so
    // budget starvation is visible on a timeline.
    if (now >= next_unit_mark_) {
        const bool on_boundary = now % params_.unit_cycles == 0;
        const std::uint64_t boundaries =
            (now - next_unit_mark_) / params_.unit_cycles + 1;
        const std::uint64_t slept = boundaries - (on_boundary ? 1 : 0);
        if (slept > 0) sched_.advance_units(slept);
        if (on_boundary) {
            for (std::uint32_t p = 0; p < k_se_ports; ++p) {
                if (sched_.server(p).tick_unit() && engaged) {
                    trace_.emit(obs::trace_event_kind::server_replenish, p,
                                sched_.server(p).budget());
                }
            }
        }
        next_unit_mark_ =
            (now / params_.unit_cycles + 1) * params_.unit_cycles;
    }

    if (degraded_) degraded_cycles_.inc();

    // Per-port demand accounting for the supply-conformance watchdog: a
    // port is backlogged while its buffer holds work, stalled or not --
    // supply lost to a fault is still owed to the backlogged port.
    std::uint8_t backlogged = 0;
    for (std::uint32_t p = 0; p < k_se_ports; ++p) {
        if (!buffers_[p].empty()) {
            port_backlogged_cycles_[p].inc();
            backlogged |= static_cast<std::uint8_t>(1U << p);
        }
        port_queue_depth_[p].set(
            static_cast<std::int64_t>(buffers_[p].size()));
    }

    // Injected campaign stall window: the element forwards nothing
    // (counters keep running: the supply lost to the fault is genuinely
    // lost).
    const bool stalled = stall_faults_.active(now);
    if (stalled != stalled_now_) {
        trace_.emit(stalled ? obs::trace_event_kind::fault_inject
                            : obs::trace_event_kind::fault_recover);
    }
    stalled_now_ = stalled;
    if (stalled_now_) {
        fault_stall_cycles_.inc();
        return;
    }

    if (!sink_ready_()) {
        if (clock_ != nullptr) {
            refused_at_ = now;
            refused_mask_ = backlogged;
        }
        return;
    }

    // Degraded mode suspends the budgeted servers entirely: pure
    // work-conserving nested EDF until the health monitor recovers us.
    bool budgeted = !degraded_;
    std::optional<std::uint32_t> pick;
    if (!degraded_) pick = sched_.pick_budgeted(buffers_);
    if (!pick &&
        (degraded_ || params_.work_conserving || !sched_.configured())) {
        pick = pick_fallback();
        budgeted = false;
    }
    if (!pick) return;

    mem_request granted = buffers_[*pick].fetch_earliest();
    wait_stats_.add(static_cast<double>(now - granted.hop_arrival));
    // The next hop sees the grant one cycle later under both engines: a
    // dataflow timestamp on the request, not a scheduling cadence.
    // detlint:allow(cycle-step): one-cycle grant hop latency
    granted.hop_arrival = now + 1;
    granted.hops.stamp_grant(tree_level_, now);
    trace_.emit(obs::trace_event_kind::request_grant, granted.id, *pick);

    // Blocking-latency measurement: requests queued anywhere in this SE
    // with an earlier deadline than the granted one wait a cycle.
    for (auto& buf : buffers_) {
        buf.charge_blocked(granted.level_deadline);
    }

    if (budgeted && sched_.configured()) {
        server_task& server = sched_.server(*pick);
        server.consume();
        if (!server.has_budget()) {
            trace_.emit(obs::trace_event_kind::server_exhaust, *pick);
        }
        // Iterative compositional scheduling: the request now competes at
        // the next level as the forwarding server job, so it inherits the
        // server's current absolute deadline.
        granted.level_deadline =
            now + static_cast<cycle_t>(server.units_to_deadline()) *
                      params_.unit_cycles;
        forwarded_budgeted_.inc();
    }

    forwarded_.inc();
    port_forwarded_[*pick].inc();
    sink_push_(std::move(granted));
}

void scale_element::commit() {
    for (auto& buf : buffers_) buf.commit();
}

cycle_t scale_element::next_replenish() const {
    cycle_t due = k_cycle_never;
    for (std::uint32_t p = 0; p < k_se_ports; ++p) {
        const server_task& s = sched_.server(p);
        if (s.period() == 0) continue;
        // The P-counter reloads at the units_to_deadline()-th boundary
        // from next_unit_mark_ (a zero value reloads at the first).
        const cycle_t units = std::max<cycle_t>(s.units_to_deadline(), 1);
        due = std::min(due,
                       next_unit_mark_ + (units - 1) * params_.unit_cycles);
    }
    return due;
}

cycle_t scale_element::next_event(cycle_t now) const {
    // Per-cycle work pending: degraded-cycle counting or an open stall
    // window (fault_stall_cycles_ counts per cycle).
    if (degraded_ || stalled_now_) return now + 1;
    bool quiet = true;
    for (const auto& buf : buffers_) {
        if (buf.quiet()) continue;
        // Staged loads change the backlog mask on this edge.
        if (buf.total_size() != buf.size()) return now + 1;
        quiet = false;
    }
    if (!quiet) {
        // Buffered work: arbitrate again next cycle unless this very
        // tick's sink refused (backpressure sleep). A refused tick wrote
        // the depth gauges and granted nothing, so they are current.
        if (refused_at_ != now) return now + 1;
        return std::min(stall_faults_.wake_horizon(now), next_replenish());
    }
    // Cool-down tick: the depth gauges are written at tick start, so the
    // tick whose grant drained the last buffer left them one value
    // behind. One more tick records the drained depth -- exactly the
    // write lockstep makes on the following cycle -- before sleeping.
    for (const auto& g : port_queue_depth_) {
        if (g.value() != 0) return now + 1;
    }
    // Otherwise only the stall schedule can touch this element without a
    // push (which wakes it). Server counters catch up on the next tick.
    return stall_faults_.wake_horizon(now);
}

} // namespace bluescale::core
