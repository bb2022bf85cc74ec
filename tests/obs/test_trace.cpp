#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>

#include "obs/trace.hpp"

namespace bluescale::obs {
namespace {

// Minimal JSON well-formedness scanner: string-aware brace/bracket
// balancing plus a few shape checks (no trailing commas, document is one
// object). Enough to guarantee chrome://tracing / Perfetto can parse the
// export without dragging a JSON library into the tests.
bool json_well_formed(const std::string& text) {
    int depth = 0;
    bool in_string = false;
    bool escaped = false;
    char last_significant = '\0';
    bool seen_any = false;
    for (const char ch : text) {
        if (in_string) {
            if (escaped) {
                escaped = false;
            } else if (ch == '\\') {
                escaped = true;
            } else if (ch == '"') {
                in_string = false;
            } else if (static_cast<unsigned char>(ch) < 0x20) {
                return false; // raw control char inside a string
            }
            continue;
        }
        switch (ch) {
        case '"': in_string = true; break;
        case '{':
        case '[':
            ++depth;
            break;
        case '}':
        case ']':
            if (--depth < 0) return false;
            if (last_significant == ',') return false; // trailing comma
            break;
        default: break;
        }
        if (ch != ' ' && ch != '\n' && ch != '\t' && ch != '\r') {
            if (!seen_any) {
                if (ch != '{') return false; // document must be an object
                seen_any = true;
            }
            last_significant = ch;
        }
    }
    return !in_string && depth == 0 && last_significant == '}';
}

TEST(obs_trace, export_writers_handle_an_empty_trace) {
    const trace_export empty;
    std::ostringstream csv;
    empty.write_csv(csv);
    EXPECT_EQ(csv.str(), "cycle,seq,component,event,a,b\n");
    std::ostringstream json;
    empty.write_chrome_json(json);
    EXPECT_TRUE(json_well_formed(json.str())) << json.str();
    EXPECT_NE(json.str().find("\"traceEvents\""), std::string::npos);
}

#if BLUESCALE_TRACE_ENABLED

TEST(obs_trace, events_carry_clock_operands_and_global_seq) {
    trace_sink sink;
    auto mem = sink.register_component("mem");
    auto se = sink.register_component("se.0.0");
    sink.set_now(10);
    se.emit(trace_event_kind::request_enqueue, 7, 2);
    sink.set_now(11);
    mem.emit(trace_event_kind::mem_complete, 7, 0);

    const trace_export ex = sink.export_all();
    ASSERT_EQ(ex.events.size(), 2u);
    EXPECT_EQ(ex.events[0].seq, 0u);
    EXPECT_EQ(ex.events[1].seq, 1u);
    EXPECT_EQ(ex.events[0].cycle, 10u);
    EXPECT_EQ(ex.events[1].cycle, 11u);
    EXPECT_EQ(ex.events[0].kind, trace_event_kind::request_enqueue);
    EXPECT_EQ(ex.events[0].a, 7u);
    EXPECT_EQ(ex.events[0].b, 2u);
    ASSERT_EQ(ex.components.size(), 2u);
    EXPECT_EQ(ex.components[ex.events[0].component], "se.0.0");
    EXPECT_EQ(ex.components[ex.events[1].component], "mem");
}

TEST(obs_trace, register_component_is_idempotent) {
    trace_sink sink;
    auto a = sink.register_component("mem");
    auto b = sink.register_component("mem");
    a.emit(trace_event_kind::mem_complete, 1, 0);
    b.emit(trace_event_kind::mem_complete, 2, 0);
    const trace_export ex = sink.export_all();
    EXPECT_EQ(ex.components.size(), 1u);
    ASSERT_EQ(ex.events.size(), 2u);
    EXPECT_EQ(ex.events[0].component, ex.events[1].component);
}

TEST(obs_trace, ring_overflow_drops_oldest_and_counts_drops) {
    trace_sink sink(4);
    auto t = sink.register_component("se");
    for (std::uint64_t i = 0; i < 10; ++i) {
        t.emit(trace_event_kind::request_grant, i, 0);
    }
    const trace_export ex = sink.export_all();
    ASSERT_EQ(ex.events.size(), 4u);
    // Drop-oldest: the newest four events survive, in seq order.
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(ex.events[i].seq, 6u + i);
        EXPECT_EQ(ex.events[i].a, 6u + i);
    }
    ASSERT_EQ(ex.dropped.size(), 1u);
    EXPECT_EQ(ex.dropped[0], 6u);
    EXPECT_EQ(sink.total_dropped(), 6u);
    EXPECT_EQ(sink.total_events(), 10u);
}

TEST(obs_trace, overflow_is_per_component) {
    trace_sink sink(2);
    auto busy = sink.register_component("busy");
    auto idle = sink.register_component("idle");
    for (int i = 0; i < 5; ++i) {
        busy.emit(trace_event_kind::request_grant);
    }
    idle.emit(trace_event_kind::server_exhaust);
    const trace_export ex = sink.export_all();
    ASSERT_EQ(ex.dropped.size(), 2u);
    EXPECT_EQ(ex.dropped[0], 3u);
    EXPECT_EQ(ex.dropped[1], 0u);
    // The idle component's lone event survived the busy one's overflow.
    ASSERT_EQ(ex.events.size(), 3u);
    EXPECT_EQ(ex.events.back().kind, trace_event_kind::server_exhaust);
}

TEST(obs_trace, csv_export_rows_match_the_events) {
    trace_sink sink;
    auto t = sink.register_component("se.1.0");
    sink.set_now(42);
    t.emit(trace_event_kind::server_replenish, 3, 8);
    std::ostringstream os;
    sink.export_all().write_csv(os);
    EXPECT_EQ(os.str(),
              "cycle,seq,component,event,a,b\n"
              "42,0,se.1.0,server_replenish,3,8\n");
}

TEST(obs_trace, chrome_json_is_well_formed_and_names_components) {
    trace_sink sink;
    auto se = sink.register_component("se.0.0");
    auto mem = sink.register_component("mem");
    sink.set_now(5);
    se.emit(trace_event_kind::request_enqueue, 1, 0);
    sink.set_now(6);
    mem.emit(trace_event_kind::mem_complete, 1, 0);
    std::ostringstream os;
    sink.export_all().write_chrome_json(os);
    const std::string text = os.str();
    EXPECT_TRUE(json_well_formed(text)) << text;
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("se.0.0"), std::string::npos);
    EXPECT_NE(text.find("request_enqueue"), std::string::npos);
    EXPECT_NE(text.find("mem_complete"), std::string::npos);
}

#else // !BLUESCALE_TRACE_ENABLED

TEST(obs_trace, disabled_build_compiles_to_inert_stubs) {
    trace_sink sink(64);
    auto t = sink.register_component("se");
    t.emit(trace_event_kind::request_grant, 1, 2);
    EXPECT_FALSE(t.enabled());
    EXPECT_EQ(sink.total_events(), 0u);
    EXPECT_TRUE(sink.export_all().events.empty());
}

#endif // BLUESCALE_TRACE_ENABLED

TEST(obs_trace, every_event_kind_has_a_name) {
    for (int k = 0; k <= static_cast<int>(trace_event_kind::watchdog_alarm);
         ++k) {
        const char* name =
            trace_event_kind_name(static_cast<trace_event_kind>(k));
        ASSERT_NE(name, nullptr);
        EXPECT_GT(std::string(name).size(), 0u);
    }
}

} // namespace
} // namespace bluescale::obs
