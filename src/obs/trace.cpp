#include "obs/trace.hpp"

#include <algorithm>
#include <ostream>

namespace bluescale::obs {

const char* trace_event_kind_name(trace_event_kind k) {
    switch (k) {
    case trace_event_kind::request_enqueue: return "request_enqueue";
    case trace_event_kind::request_dequeue: return "request_dequeue";
    case trace_event_kind::request_grant: return "request_grant";
    case trace_event_kind::server_replenish: return "server_replenish";
    case trace_event_kind::server_exhaust: return "server_exhaust";
    case trace_event_kind::fault_inject: return "fault_inject";
    case trace_event_kind::fault_recover: return "fault_recover";
    case trace_event_kind::se_degrade: return "se_degrade";
    case trace_event_kind::se_recover: return "se_recover";
    case trace_event_kind::reconfig_commit: return "reconfig_commit";
    case trace_event_kind::reconfig_rollback: return "reconfig_rollback";
    case trace_event_kind::mem_complete: return "mem_complete";
    case trace_event_kind::shed_on: return "shed_on";
    case trace_event_kind::shed_off: return "shed_off";
    case trace_event_kind::watchdog_alarm: return "watchdog_alarm";
    case trace_event_kind::svc_accept: return "svc_accept";
    case trace_event_kind::svc_shed: return "svc_shed";
    case trace_event_kind::svc_retry: return "svc_retry";
    case trace_event_kind::svc_requeue: return "svc_requeue";
    case trace_event_kind::svc_complete: return "svc_complete";
    case trace_event_kind::svc_breaker: return "svc_breaker";
    }
    return "?";
}

namespace {
/// Minimal JSON string escaping for component names (which are ASCII
/// identifiers in practice, but stay well-formed regardless).
void write_json_string(std::ostream& os, const std::string& s) {
    os << '"';
    for (char c : s) {
        switch (c) {
        case '"': os << "\\\""; break;
        case '\\': os << "\\\\"; break;
        case '\n': os << "\\n"; break;
        case '\t': os << "\\t"; break;
        default: os << c; break;
        }
    }
    os << '"';
}
} // namespace

void trace_export::write_csv(std::ostream& os) const {
    os << "cycle,seq,component,event,a,b\n";
    for (const trace_event& e : events) {
        os << std::to_string(e.cycle) << ',' << std::to_string(e.seq) << ','
           << components[e.component] << ','
           << trace_event_kind_name(e.kind) << ',' << std::to_string(e.a)
           << ',' << std::to_string(e.b) << '\n';
    }
}

void trace_export::write_chrome_json(std::ostream& os) const {
    // Instant events on one "process" with a thread per component; the
    // simulated cycle doubles as the microsecond timestamp, so a cycle of
    // fabric activity reads as a microsecond on the tracing timeline.
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    for (std::size_t c = 0; c < components.size(); ++c) {
        if (!first) os << ',';
        first = false;
        os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << std::to_string(c)
           << ",\"name\":\"thread_name\",\"args\":{\"name\":";
        write_json_string(os, components[c]);
        os << "}}";
    }
    for (const trace_event& e : events) {
        if (!first) os << ',';
        first = false;
        os << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":"
           << std::to_string(e.component) << ",\"ts\":"
           << std::to_string(e.cycle) << ",\"name\":\""
           << trace_event_kind_name(e.kind) << "\",\"args\":{\"a\":"
           << std::to_string(e.a) << ",\"b\":" << std::to_string(e.b)
           << ",\"seq\":" << std::to_string(e.seq) << "}}";
    }
    os << "]}\n";
}

#if BLUESCALE_TRACE_ENABLED

void tracer::emit(trace_event_kind kind, std::uint64_t a,
                  std::uint64_t b) const {
    if (sink_ != nullptr) sink_->emit(component_, kind, a, b);
}

trace_sink::trace_sink(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {}

tracer trace_sink::register_component(const std::string& name) {
    for (std::size_t i = 0; i < streams_.size(); ++i) {
        if (streams_[i].name == name) {
            return tracer(this, static_cast<std::uint16_t>(i));
        }
    }
    stream s;
    s.name = name;
    s.ring.reserve(std::min<std::size_t>(capacity_, 1024));
    streams_.push_back(std::move(s));
    return tracer(this, static_cast<std::uint16_t>(streams_.size() - 1));
}

void trace_sink::emit(std::uint16_t component, trace_event_kind kind,
                      std::uint64_t a, std::uint64_t b) {
    stream& s = streams_[component];
    trace_event e;
    e.cycle = now_;
    e.seq = next_seq_++;
    e.component = component;
    e.kind = kind;
    e.a = a;
    e.b = b;
    if (s.ring.size() < capacity_) {
        s.ring.push_back(e);
        return;
    }
    // Drop-oldest: overwrite the ring slot holding the oldest event.
    s.ring[s.head] = e;
    s.head = (s.head + 1) % capacity_;
    ++s.dropped;
}

std::uint64_t trace_sink::total_dropped() const {
    std::uint64_t total = 0;
    for (const stream& s : streams_) total += s.dropped;
    return total;
}

trace_export trace_sink::export_all() const {
    trace_export out;
    out.components.reserve(streams_.size());
    out.dropped.reserve(streams_.size());
    std::size_t total = 0;
    for (const stream& s : streams_) {
        out.components.push_back(s.name);
        out.dropped.push_back(s.dropped);
        total += s.ring.size();
    }
    out.events.reserve(total);
    for (const stream& s : streams_) {
        // Oldest-first: [head, end) then [0, head).
        for (std::size_t i = s.head; i < s.ring.size(); ++i) {
            out.events.push_back(s.ring[i]);
        }
        for (std::size_t i = 0; i < s.head; ++i) {
            out.events.push_back(s.ring[i]);
        }
    }
    std::sort(out.events.begin(), out.events.end(),
              [](const trace_event& x, const trace_event& y) {
                  return x.seq < y.seq;
              });
    return out;
}

#endif // BLUESCALE_TRACE_ENABLED

} // namespace bluescale::obs
