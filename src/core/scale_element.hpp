// Scale Element (paper Secs. 3-4, Fig. 2(b)): the isomorphic building
// block of BlueScale. Four local client ports feed random access buffers
// (low-level priority queue); a local scheduler of four server tasks
// (upper-level priority queue) decides, every cycle, which buffered
// request to forward to the local provider port.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "core/local_scheduler.hpp"
#include "core/random_access_buffer.hpp"
#include "mem/request.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/component.hpp"
#include "sim/fault.hpp"
#include "stats/summary.hpp"

namespace bluescale::core {

struct se_params {
    /// Interconnect cycles per analysis time unit (server counters tick
    /// once per unit; one transaction consumes one budget unit).
    std::uint32_t unit_cycles = 4;
    /// Depth of each port's random access buffer.
    std::size_t buffer_depth = 8;
    /// When no budgeted server is ready, forward the earliest-deadline
    /// buffered request anyway (slack reclamation). Also the behaviour of
    /// an SE with no configured interfaces (pure nested EDF).
    bool work_conserving = true;
    server_policy policy = server_policy::gedf;
};

class scale_element : public component {
public:
    /// Can the local provider port take one request this cycle?
    using sink_ready_fn = std::function<bool()>;
    /// Hand one request to the local provider.
    using sink_push_fn = std::function<void(mem_request)>;

    scale_element(std::string name, se_params params = {});

    /// Wires the local provider port (parent SE port or the memory).
    void bind_sink(sink_ready_fn ready, sink_push_fn push);

    /// Lets the element sleep through cycles its sink refuses (backpressure
    /// sleep, event engine). The caller promises to wake() the element
    /// whenever the sink's ready() can flip back to true -- the fabric
    /// binds the parent port's drain hook -- and `tick_clock` reads the cycle
    /// of the caller's latest tick, so backlog reads stay exact mid-sleep.
    /// The root's memory sink has no drain signal, so it never opts in.
    void enable_backpressure_sleep(const cycle_t* tick_clock) {
        clock_ = tick_clock;
    }

    /// Re-homes this element's counters into `reg` under
    /// "<prefix>/..." / "<prefix>/port<p>/..." (e.g. "se.2.1") and
    /// attaches the trace stream; call before the trial starts.
    void bind_observability(obs::metric_store& reg, const std::string& prefix,
                            obs::tracer tracer);

    /// Distance from the tree root (root SE = 0); drives the per-level
    /// grant stamps in mem_request::hops.
    void set_tree_level(std::uint32_t level) { tree_level_ = level; }
    [[nodiscard]] std::uint32_t tree_level() const { return tree_level_; }

    // --- local client ports ---------------------------------------------
    [[nodiscard]] bool port_can_accept(std::uint32_t port) const {
        return buffers_[port].can_load();
    }
    /// Arms `hook` on the port buffer's full -> non-full transition (see
    /// random_access_buffer::set_drain_hook); lets the attached client
    /// sleep while the port is backpressured.
    void set_port_drain_hook(std::uint32_t port, sim::wake_hook hook) {
        buffers_[port].set_drain_hook(hook);
    }
    void port_push(std::uint32_t port, mem_request r) {
        // First fabric hop only: stamp the RAB admission cycle (the
        // client stamped hop_arrival when it issued).
        if (r.hops.rab_admit == k_cycle_never) r.hops.rab_admit = r.hop_arrival;
        trace_.emit(obs::trace_event_kind::request_enqueue, r.id, port);
        buffers_[port].load(std::move(r));
    }

    /// Programs server tau_port = (Pi, Theta) in time units; switches the
    /// SE into budgeted compositional mode.
    void configure_port(std::uint32_t port, std::uint32_t period_units,
                        std::uint32_t budget_units);

    void tick(cycle_t now) override;
    void commit() override;

    /// Event-engine horizon. The element stays on the per-cycle cadence
    /// while it has per-cycle work (degraded-mode or stall counters,
    /// staged loads, requests it could forward). Two states sleep:
    ///  - quiet: only the stall-fault schedule can touch it unprompted;
    ///  - refused (backpressure sleep, see enable_backpressure_sleep):
    ///    work is buffered but the sink refused this tick. Nothing changes
    ///    until the parent port drains or a load arrives (both wake it),
    ///    a stall window opens, or -- configured elements only -- an
    ///    enabled server replenishes (its server_replenish trace event
    ///    must keep its cycle). The backlog of the slept cycles is charged
    ///    in closed form from the mask of the refused tick.
    /// Server counters are caught up in closed form on the next tick (see
    /// next_unit_mark_), so sleeping over unit boundaries is exact.
    [[nodiscard]] cycle_t next_event(cycle_t now) const override;

    /// Campaign-driven stall schedule (fault_kind::se_stall slice for
    /// this element). The only failure-injection path since the legacy
    /// se_params periodic knob was removed: campaigns are reproducible
    /// under parallel trial sweeps and compose with the other fault kinds.
    void set_stall_faults(sim::fault_window w) {
        stall_faults_ = std::move(w);
        wake(); // the fresh schedule invalidates any cached horizon
    }
    /// Was the element inside an injected stall window at its last tick?
    /// Hazard probe for the reconfiguration manager: a (Pi, Theta) commit
    /// that lands on a stalled element is rolled back.
    [[nodiscard]] bool stalled_now() const { return stalled_now_; }

    /// Degraded mode (graceful degradation): the budgeted compositional
    /// servers are bypassed and the SE runs pure work-conserving nested
    /// EDF. Forwarded requests keep their incoming level deadline -- the
    /// (Pi, Theta) guarantee is suspended, but no supply is wasted while
    /// the element is unhealthy. Flipped by core::health_monitor.
    void set_degraded(bool on) {
        if (on != degraded_) {
            trace_.emit(on ? obs::trace_event_kind::se_degrade
                           : obs::trace_event_kind::se_recover);
            wake(); // degraded-cycle accounting is per-cycle
        }
        degraded_ = on;
    }
    [[nodiscard]] bool degraded() const { return degraded_; }
    /// Cycles this element has spent in degraded mode.
    [[nodiscard]] std::uint64_t degraded_cycles() const {
        return degraded_cycles_.value();
    }
    /// Campaign stall windows entered so far (injected-fault counter).
    [[nodiscard]] std::uint64_t stall_windows_entered() const {
        return stall_faults_.activations();
    }

    [[nodiscard]] const local_scheduler& scheduler() const { return sched_; }
    [[nodiscard]] const random_access_buffer& buffer(std::uint32_t p) const {
        return buffers_[p];
    }
    [[nodiscard]] std::uint64_t forwarded() const {
        return forwarded_.value();
    }
    [[nodiscard]] std::uint64_t forwarded_budgeted() const {
        return forwarded_budgeted_.value();
    }
    /// Requests forwarded on behalf of one local client port (budgeted or
    /// slack). The supply watchdog differences this over sliding windows
    /// against the port's sbf(Pi, Theta) guarantee.
    [[nodiscard]] std::uint64_t port_forwarded(std::uint32_t port) const {
        return port_forwarded_[port].value();
    }
    /// Cycles the port's buffer held at least one request (the port was
    /// demanding supply). A window counts toward supply conformance only
    /// when the port was backlogged throughout -- sbf guarantees service
    /// to pending work, not to an idle client.
    /// Exact at any time, including mid-sleep: cycles slept since a
    /// refused tick are added from that tick's mask up to the clock.
    [[nodiscard]] std::uint64_t port_backlogged_cycles(std::uint32_t port)
        const {
        return port_backlogged_cycles_[port].value() +
               (clock_ == nullptr ? 0 : owed_backlog(port, *clock_));
    }
    /// Moves the backlog owed for slept cycles into the registry counters
    /// (registry snapshots read the counters, not the accessor above).
    void settle_backlog() {
        if (clock_ != nullptr) settle_backlog(*clock_);
    }
    [[nodiscard]] const se_params& params() const { return params_; }

    /// Queueing time (arrival at this SE -> grant) of forwarded requests.
    [[nodiscard]] const stats::sample_set& wait_stats() const {
        return wait_stats_.values();
    }

    /// Cycles lost to injected stall faults.
    [[nodiscard]] std::uint64_t fault_stall_cycles() const {
        return fault_stall_cycles_.value();
    }

private:
    /// Work-conserving fallback: port whose buffer holds the earliest
    /// deadline request; nullopt if all buffers are empty.
    [[nodiscard]] std::optional<std::uint32_t> pick_fallback() const;
    /// Backlog cycles port `p` is owed for the cycles slept in
    /// (refused_at_, through].
    [[nodiscard]] std::uint64_t owed_backlog(std::uint32_t p,
                                             cycle_t through) const {
        if (refused_at_ == k_cycle_never || through <= refused_at_ ||
            ((refused_mask_ >> p) & 1U) == 0) {
            return 0;
        }
        return through - refused_at_;
    }
    /// Charges the owed backlog up to `through` into the counters and
    /// moves refused_at_ up to it.
    void settle_backlog(cycle_t through);
    /// Earliest unit boundary at which a server with a period reloads
    /// (tick_unit() returns true); k_cycle_never on an unconfigured
    /// element.
    [[nodiscard]] cycle_t next_replenish() const;

    se_params params_;
    std::array<random_access_buffer, k_se_ports> buffers_;
    local_scheduler sched_;
    /// The next unit boundary this element has not yet accounted for.
    /// tick() catches the server counters up over every boundary in
    /// (previous mark, now] -- slept boundaries in closed form, the
    /// current cycle's boundary (if any) through the traced per-port
    /// path -- so unit accounting is identical whether or not the event
    /// engine let the element sleep.
    cycle_t next_unit_mark_ = 0;
    /// configure_port() during a run wiped the counters; the stale
    /// boundary backlog in next_unit_mark_ must not be applied to them.
    bool pending_resync_ = false;
    sink_ready_fn sink_ready_;
    sink_push_fn sink_push_;
    sim::fault_window stall_faults_;
    bool degraded_ = false;
    bool stalled_now_ = false;
    /// Backpressure sleep: the owner's clock (nullptr = never sleeps on a
    /// refusal), the cycle of the last tick whose sink refused
    /// (k_cycle_never once a later tick ran), and the ports that were
    /// backlogged then. Cycles slept since are charged from this mask.
    const cycle_t* clock_ = nullptr;
    cycle_t refused_at_ = k_cycle_never;
    std::uint8_t refused_mask_ = 0;
    std::uint32_t tree_level_ = 0;
    /// Metrics bind_observability registers (own_'s capacity), and how
    /// many of them are sample metrics.
    static constexpr std::size_t k_metric_count = 5 + 3 * k_se_ports;
    static constexpr std::size_t k_sample_count = 1;
    /// Unnamed storage while unbound (bind_observability re-homes the
    /// handles).
    obs::value_block own_{k_metric_count, k_sample_count};
    obs::counter forwarded_;
    obs::counter forwarded_budgeted_;
    std::array<obs::counter, k_se_ports> port_forwarded_;
    std::array<obs::counter, k_se_ports> port_backlogged_cycles_;
    std::array<obs::gauge, k_se_ports> port_queue_depth_;
    obs::counter fault_stall_cycles_;
    obs::counter degraded_cycles_;
    obs::sample wait_stats_;
    obs::tracer trace_;
};

} // namespace bluescale::core
