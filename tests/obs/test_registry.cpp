#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/scale_element.hpp"
#include "mem/request.hpp"
#include "obs/registry.hpp"
#include "workload/client_stats.hpp"

namespace bluescale::obs {
namespace {

TEST(obs_registry, handles_mutate_their_slots) {
    registry reg;
    auto c = reg.make_counter("a/count");
    auto g = reg.make_gauge("a/level");
    auto r = reg.make_real("a/rate");
    auto s = reg.make_sample("a/wait");
    c.inc();
    c.inc(4);
    g.set(-3);
    g.add(1);
    r.set(2.5);
    r.add(0.5);
    s.add(1.0);
    s.add(3.0);
    EXPECT_EQ(c.value(), 5u);
    EXPECT_EQ(g.value(), -2);
    EXPECT_DOUBLE_EQ(r.value(), 3.0);
    EXPECT_EQ(s.count(), 2u);
    EXPECT_DOUBLE_EQ(s.values().mean(), 2.0);
}

TEST(obs_registry, unbound_handles_are_harmless) {
    counter c;
    gauge g;
    real_gauge r;
    sample s;
    c.inc(7);
    g.add(7);
    r.add(7.0);
    s.add(7.0);
    EXPECT_FALSE(c.bound());
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0);
    EXPECT_DOUBLE_EQ(r.value(), 0.0);
    EXPECT_EQ(s.count(), 0u);
    EXPECT_TRUE(s.values().samples().empty());
}

TEST(obs_registry, rebinding_the_same_name_is_idempotent) {
    registry reg;
    auto a = reg.make_counter("x/served");
    auto b = reg.make_counter("x/served");
    a.inc(2);
    b.inc(3);
    EXPECT_EQ(a.value(), 5u);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(obs_registry, snapshot_is_sorted_regardless_of_registration_order) {
    registry fwd;
    registry rev;
    for (const char* name : {"a/one", "b/two", "c/three"}) {
        fwd.make_counter(name).inc();
    }
    for (const char* name : {"c/three", "b/two", "a/one"}) {
        rev.make_counter(name).inc();
    }
    const snapshot sf = fwd.take_snapshot();
    const snapshot sr = rev.take_snapshot();
    ASSERT_EQ(sf.entries().size(), 3u);
    ASSERT_EQ(sr.entries().size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(sf.entries()[i].first, sr.entries()[i].first);
    }
    std::ostringstream a;
    std::ostringstream b;
    sf.write_csv(a);
    sr.write_csv(b);
    EXPECT_EQ(a.str(), b.str());
}

TEST(obs_registry, merge_sums_scalars_and_appends_samples_in_call_order) {
    registry r1;
    registry r2;
    r1.make_counter("n").inc(2);
    r2.make_counter("n").inc(3);
    r1.make_sample("w").add(1.0);
    r2.make_sample("w").add(2.0);
    r2.make_counter("only_second").inc(9);

    snapshot merged = r1.take_snapshot();
    merged.merge(r2.take_snapshot());
    EXPECT_EQ(merged.find("n")->count, 5u);
    EXPECT_EQ(merged.find("only_second")->count, 9u);
    const auto& w = merged.find("w")->samples.samples();
    ASSERT_EQ(w.size(), 2u);
    EXPECT_DOUBLE_EQ(w[0], 1.0); // merge target first: call order
    EXPECT_DOUBLE_EQ(w[1], 2.0);
}

TEST(obs_registry, diff_subtracts_scalars_and_keeps_sample_tail) {
    registry reg;
    auto c = reg.make_counter("n");
    auto s = reg.make_sample("w");
    c.inc(10);
    s.add(1.0);
    const snapshot base = reg.take_snapshot();
    c.inc(7);
    s.add(2.0);
    s.add(3.0);
    const snapshot d = reg.take_snapshot().diff(base);
    EXPECT_EQ(d.find("n")->count, 7u);
    const auto& tail = d.find("w")->samples.samples();
    ASSERT_EQ(tail.size(), 2u);
    EXPECT_DOUBLE_EQ(tail[0], 2.0);
    EXPECT_DOUBLE_EQ(tail[1], 3.0);
}

TEST(obs_registry, profile_metrics_stay_out_of_deterministic_snapshots) {
    registry reg;
    reg.make_counter("sim/ticks").inc(5);
    reg.make_counter("profile/wall_ns", k_metric_profile).inc(123);
    const snapshot det = reg.take_snapshot();
    EXPECT_NE(det.find("sim/ticks"), nullptr);
    EXPECT_EQ(det.find("profile/wall_ns"), nullptr);
    const snapshot full = reg.take_snapshot(true);
    EXPECT_NE(full.find("profile/wall_ns"), nullptr);
    const snapshot prof = full.profile_only();
    ASSERT_EQ(prof.entries().size(), 1u);
    EXPECT_EQ(prof.entries().front().first, "profile/wall_ns");
}

TEST(obs_value_block, handles_write_unnamed_slots) {
    value_block block(4, 1);
    auto c = block.make_counter("a/count");
    auto g = block.make_gauge("a/level");
    auto r = block.make_real("a/rate");
    auto s = block.make_sample("a/wait");
    c.inc(3);
    g.set(-2);
    r.set(1.5);
    s.add(4.0);
    // Moving the block keeps its slots, and so the handles, valid.
    value_block moved = std::move(block);
    c.inc();
    EXPECT_EQ(c.value(), 4u);
    EXPECT_EQ(g.value(), -2);
    EXPECT_DOUBLE_EQ(r.value(), 1.5);
    EXPECT_EQ(s.count(), 1u);
}

// Counters, gauges and reals share one value word; only a sample metric
// carries a sample_set, beside the slots. Each fabric builds one value
// block per SE and client and one mem_request per buffered transaction,
// so growing either is megabytes of heap on a 4,096-client tree.
static_assert(sizeof(detail::slot) == 16, "a scalar slot is 16 B");
static_assert(sizeof(mem_request) <= 136, "mem_request packs to 136 B");

/// One metric of each kind in `store`, written to distinct values.
struct every_kind {
    explicit every_kind(metric_store& store)
        : c(store.make_counter("a/count")), g(store.make_gauge("a/level")),
          r(store.make_real("a/rate")), s(store.make_sample("a/wait")) {
        c.inc(3);
        g.set(-5);
        r.set(2.5);
        s.add(1.0);
        s.add(2.0);
    }
    void expect_values() const {
        EXPECT_EQ(c.value(), 3u);
        EXPECT_EQ(g.value(), -5);
        EXPECT_DOUBLE_EQ(r.value(), 2.5);
        EXPECT_EQ(s.values().samples(), (std::vector<double>{1.0, 2.0}));
    }
    counter c;
    gauge g;
    real_gauge r;
    sample s;
};

TEST(obs_value_block, every_kind_reads_back_its_own_value) {
    value_block block(4, 1);
    const every_kind m(block);
    m.expect_values();
}

TEST(obs_value_block, registering_past_sample_capacity_aborts) {
    EXPECT_DEATH(
        {
            value_block block(2, 1);
            (void)block.make_sample("first");
            (void)block.make_sample("second");
        },
        "registering past its capacity of 1 sample metrics");
}

TEST(obs_registry, re_registering_under_another_kind_aborts) {
    EXPECT_DEATH(
        {
            registry reg;
            (void)reg.make_counter("a/wait");
            (void)reg.make_sample("a/wait");
        },
        "metric a/wait re-registered as a sample \\(was a counter\\)");
}

TEST(obs_registry, every_kind_snapshots_only_its_own_value) {
    registry reg;
    every_kind m(reg);
    m.expect_values();
    // Re-binding finds the same slots; samples keep call order across
    // the handles.
    auto again = reg.make_sample("a/wait");
    again.add(3.0);
    m.s.add(4.0);
    reg.make_gauge("a/level").add(1);

    const snapshot snap = reg.take_snapshot();
    ASSERT_EQ(snap.entries().size(), 4u);
    const metric_value& c = snap.get("a/count");
    EXPECT_EQ(c.kind, metric_kind::counter);
    EXPECT_EQ(c.count, 3u);
    EXPECT_EQ(c.level, 0);
    const metric_value& g = snap.get("a/level");
    EXPECT_EQ(g.kind, metric_kind::gauge);
    EXPECT_EQ(g.level, -4);
    EXPECT_EQ(g.count, 0u);
    EXPECT_DOUBLE_EQ(g.value, 0.0);
    const metric_value& r = snap.get("a/rate");
    EXPECT_EQ(r.kind, metric_kind::real);
    EXPECT_DOUBLE_EQ(r.value, 2.5);
    EXPECT_EQ(r.count, 0u);
    const metric_value& s = snap.get("a/wait");
    EXPECT_EQ(s.kind, metric_kind::sample);
    EXPECT_EQ(s.samples.samples(),
              (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
    EXPECT_EQ(s.count, 0u);
    EXPECT_EQ(s.level, 0);
}

TEST(obs_value_block, registering_past_capacity_aborts) {
    // A slot past the one allocation would corrupt the heap, so the
    // check holds in every build type, not only under assert.
    EXPECT_DEATH(
        {
            value_block block(1);
            (void)block.make_counter("first");
            (void)block.make_counter("second");
        },
        "registering past its capacity of 1 metrics");
}

TEST(obs_value_block, binding_after_construction_yields_zero_metrics) {
    // Values recorded while unbound stay in the fallback: the bound
    // metrics start from zero, and the accessors read them.
    workload::client_stats stats;
    stats.record_issue();
    stats.record_completion(12.0, 3.0, true, false);
    EXPECT_EQ(stats.issued(), 1u);
    registry reg;
    stats.bind(reg, "client.0");
    EXPECT_EQ(stats.issued(), 0u);
    EXPECT_EQ(stats.missed(), 0u);
    EXPECT_EQ(stats.latency_cycles().count(), 0u);
    const snapshot snap = reg.take_snapshot();
    EXPECT_EQ(snap.entries().size(), 15u);
    for (const auto& [name, v] : snap.entries()) {
        EXPECT_EQ(v.count, 0u) << name;
        EXPECT_EQ(v.samples.count(), 0u) << name;
    }

    core::scale_element se("se.0.0", core::se_params{});
    registry se_reg;
    se.bind_observability(se_reg, "se.0.0", tracer{});
    const snapshot se_snap = se_reg.take_snapshot();
    EXPECT_EQ(se_snap.entries().size(), 17u);
    for (const auto& [name, v] : se_snap.entries()) {
        EXPECT_EQ(v.count, 0u) << name;
        EXPECT_EQ(v.level, 0) << name;
        EXPECT_EQ(v.samples.count(), 0u) << name;
    }
}

TEST(obs_registry, bound_names_are_exact) {
    // The exported names of the two owners on every fabric's path,
    // written out in full: registration passes names as pieces, and only
    // the registry joins them.
    core::scale_element se("SE(2,1)", core::se_params{});
    workload::client_stats stats;
    registry reg;
    se.bind_observability(reg, "se.2.1", tracer{});
    stats.bind(reg, "client.7");
    const std::vector<std::string> want = {
        "client.7/abandoned",
        "client.7/blocking_cycles",
        "client.7/completed",
        "client.7/failed_responses",
        "client.7/issued",
        "client.7/latency_cycles",
        "client.7/missed",
        "client.7/missed_beyond_margin",
        "client.7/reconfigurations",
        "client.7/retries",
        "client.7/retry_exhausted",
        "client.7/shed_cycles",
        "client.7/shed_deferrals",
        "client.7/stale_responses",
        "client.7/timeouts",
        "se.2.1/degraded_cycles",
        "se.2.1/fault_stall_cycles",
        "se.2.1/forwarded",
        "se.2.1/forwarded_budgeted",
        "se.2.1/port0/backlogged_cycles",
        "se.2.1/port0/forwarded",
        "se.2.1/port0/queue_depth",
        "se.2.1/port1/backlogged_cycles",
        "se.2.1/port1/forwarded",
        "se.2.1/port1/queue_depth",
        "se.2.1/port2/backlogged_cycles",
        "se.2.1/port2/forwarded",
        "se.2.1/port2/queue_depth",
        "se.2.1/port3/backlogged_cycles",
        "se.2.1/port3/forwarded",
        "se.2.1/port3/queue_depth",
        "se.2.1/wait_cycles",
    };
    const snapshot snap = reg.take_snapshot();
    std::vector<std::string> got;
    for (const auto& [name, v] : snap.entries()) {
        got.push_back(name);
    }
    EXPECT_EQ(got, want);
}

TEST(obs_registry, metric_name_pieces_join_to_one_name) {
    registry reg;
    auto joined = reg.make_counter({"se.0.0", "/port2", "/forwarded"});
    auto whole = reg.make_counter("se.0.0/port2/forwarded");
    joined.inc();
    EXPECT_EQ(whole.value(), 1u);
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_EQ(metric_name("a", "/b", "/c", "/d").joined(), "a/b/c/d");
}

TEST(obs_registry, write_csv_is_deterministic_and_well_formed) {
    registry reg;
    reg.make_counter("b/count").inc(2);
    reg.make_sample("a/wait").add(4.0);
    std::ostringstream os;
    reg.take_snapshot().write_csv(os, "pre/");
    const std::string text = os.str();
    EXPECT_EQ(text.rfind("metric,kind,value,count,mean,min,max,p50,p99\n", 0),
              0u);
    EXPECT_NE(text.find("pre/a/wait,sample,"), std::string::npos);
    EXPECT_NE(text.find("pre/b/count,counter," + std::to_string(2)),
              std::string::npos);
    // Sorted: the sample row precedes the counter row.
    EXPECT_LT(text.find("pre/a/wait"), text.find("pre/b/count"));
}

TEST(obs_registry, metric_cells_render_stats_and_default_missing_to_zero) {
    registry reg;
    auto s = reg.make_sample("w");
    s.add(1.0);
    s.add(3.0);
    reg.make_counter("n").inc(4);
    const snapshot snap = reg.take_snapshot();
    const auto cells = metric_cells(
        snap, {"n", "w", "w:max", "w:count", "absent", "absent:p99"});
    ASSERT_EQ(cells.size(), 6u);
    EXPECT_EQ(cells[0], std::to_string(std::uint64_t{4}));
    EXPECT_EQ(cells[1], std::to_string(2.0)); // default: mean
    EXPECT_EQ(cells[2], std::to_string(3.0));
    EXPECT_EQ(cells[3], std::to_string(std::uint64_t{2}));
    EXPECT_EQ(cells[4], "0");
    EXPECT_EQ(cells[5], "0");
}

} // namespace
} // namespace bluescale::obs
