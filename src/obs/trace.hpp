// Structured event tracing (DESIGN.md Sec. 11): a per-component
// ring-buffer sink for typed simulator events, exported as CSV or
// Chrome-trace JSON (chrome://tracing / Perfetto).
//
// Emission cost: a tracer handle is one pointer plus a component id; an
// unbound tracer's emit() is a single branch. When the BLUESCALE_TRACE
// CMake option is OFF the whole layer compiles down to empty inline
// stubs, so call sites cost literally nothing (the compiler deletes
// them) while keeping one source-level API.
//
// Determinism: events carry a sink-global sequence number stamped at
// emit time; exports enumerate events in sequence order. Trials never
// share a sink (each testbench owns one), so exports are byte-identical
// across --threads settings whenever the traced trial is.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace bluescale::obs {

/// Event catalog (DESIGN.md Sec. 11 keeps the authoritative table).
enum class trace_event_kind : std::uint8_t {
    request_enqueue,   ///< request admitted into a leaf RAB; a=id, b=port
    request_dequeue,   ///< memory controller starts service; a=id, b=bank
    request_grant,     ///< SE server grant/forward; a=id, b=port
    server_replenish,  ///< (Pi, Theta) period boundary; a=port, b=budget
    server_exhaust,    ///< B-counter hit zero; a=port
    fault_inject,      ///< injected fault window opened; a=detail
    fault_recover,     ///< injected fault window closed; a=detail
    se_degrade,        ///< health monitor degraded this element
    se_recover,        ///< element restored to budgeted mode
    reconfig_commit,   ///< reconfiguration transaction committed; a=txn
    reconfig_rollback, ///< reconfiguration rolled back; a=txn
    mem_complete,      ///< memory controller retired a request; a=id, b=failed
    shed_on,           ///< watchdog began overload shedding
    shed_off,          ///< watchdog restored shed clients
    watchdog_alarm,    ///< typed watchdog alarm; a=watchdog_alarm value
    svc_accept,        ///< analysis service queued a request; a=req
    svc_shed,          ///< service shed a request (queue full); a=req
    svc_retry,         ///< transient rejection, retry scheduled; a=req, b=attempt
    svc_requeue,       ///< worker crash, in-flight request re-queued; a=req, b=worker
    svc_complete,      ///< request reached a terminal outcome; a=req, b=outcome
    svc_breaker,       ///< circuit breaker state change; a=breaker_state
};

[[nodiscard]] const char* trace_event_kind_name(trace_event_kind k);

struct trace_event {
    cycle_t cycle = 0;
    std::uint64_t seq = 0; ///< sink-global emit order (total order)
    std::uint16_t component = 0;
    trace_event_kind kind = trace_event_kind::request_enqueue;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
};

/// Sink-independent export payload: events in seq order plus the
/// component-name table. Movable, so experiments can return the trial-0
/// trace out of a parallel sweep.
struct trace_export {
    std::vector<trace_event> events;
    std::vector<std::string> components;
    /// Events discarded ring-buffer-full, per component index.
    std::vector<std::uint64_t> dropped;

    /// header: cycle,seq,component,event,a,b
    void write_csv(std::ostream& os) const;
    /// Chrome trace-event JSON ("traceEvents" array of instant events;
    /// load via chrome://tracing or ui.perfetto.dev).
    void write_chrome_json(std::ostream& os) const;
};

#if BLUESCALE_TRACE_ENABLED

class trace_sink;

/// Per-component emit handle. Default-constructed == disabled.
class tracer {
public:
    tracer() = default;
    void emit(trace_event_kind kind, std::uint64_t a = 0,
              std::uint64_t b = 0) const;
    [[nodiscard]] bool enabled() const { return sink_ != nullptr; }

private:
    friend class trace_sink;
    tracer(trace_sink* sink, std::uint16_t component)
        : sink_(sink), component_(component) {}
    trace_sink* sink_ = nullptr;
    std::uint16_t component_ = 0;
};

/// Owns one bounded ring buffer per registered component. Overflow policy
/// is drop-oldest: the buffer always holds the newest `capacity` events
/// of its component, and the drop count is reported alongside the export.
class trace_sink {
public:
    /// `capacity`: ring size per component, in events.
    explicit trace_sink(std::size_t capacity = 1u << 14);

    /// Registers a component stream and returns its emit handle. The
    /// same name returns the same stream (idempotent re-binding).
    [[nodiscard]] tracer register_component(const std::string& name);

    /// Trace clock. The simulator drives this once per step; components
    /// without a `now` argument in scope (e.g. server_task counters)
    /// inherit it.
    void set_now(cycle_t now) { now_ = now; }
    [[nodiscard]] cycle_t now() const { return now_; }

    void emit(std::uint16_t component, trace_event_kind kind,
              std::uint64_t a, std::uint64_t b);

    [[nodiscard]] std::size_t capacity() const { return capacity_; }
    [[nodiscard]] std::uint64_t total_events() const { return next_seq_; }
    [[nodiscard]] std::uint64_t total_dropped() const;

    /// Snapshot of all retained events, seq-ordered, with names/drops.
    [[nodiscard]] trace_export export_all() const;

private:
    struct stream {
        std::string name;
        std::vector<trace_event> ring; ///< capacity_-bounded
        std::size_t head = 0;          ///< oldest element when full
        std::uint64_t dropped = 0;
    };

    std::size_t capacity_;
    cycle_t now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::vector<stream> streams_;
};

#else // !BLUESCALE_TRACE_ENABLED

/// Zero-cost stubs: same API, empty inline bodies.
class trace_sink;

class tracer {
public:
    tracer() = default;
    void emit(trace_event_kind, std::uint64_t = 0, std::uint64_t = 0) const {}
    [[nodiscard]] bool enabled() const { return false; }

private:
    friend class trace_sink;
};

class trace_sink {
public:
    explicit trace_sink(std::size_t = 0) {}
    [[nodiscard]] tracer register_component(const std::string&) {
        return tracer{};
    }
    void set_now(cycle_t) {}
    [[nodiscard]] cycle_t now() const { return 0; }
    void emit(std::uint16_t, trace_event_kind, std::uint64_t,
              std::uint64_t) {}
    [[nodiscard]] std::size_t capacity() const { return 0; }
    [[nodiscard]] std::uint64_t total_events() const { return 0; }
    [[nodiscard]] std::uint64_t total_dropped() const { return 0; }
    [[nodiscard]] trace_export export_all() const { return {}; }
};

#endif // BLUESCALE_TRACE_ENABLED

} // namespace bluescale::obs
