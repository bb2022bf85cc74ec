// Observability-layer guards on the fig6 exports: the --metrics and
// --trace exports are byte-identical for any --threads setting,
// wall-clock profiling never leaks into the deterministic --metrics
// snapshot, and the trace carries fabric events. Serializes through the
// same obs writers the bench_cli --metrics/--trace flags use. (Every
// other experiment's exports are checked across --threads settings and
// engines by experiments/scenario_determinism.* in
// test_engine_equivalence.cpp.)
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "harness/factory.hpp"
#include "harness/fig6_experiment.hpp"

namespace bluescale::harness {
namespace {

std::string metrics_csv(const obs::snapshot& snap) {
    std::ostringstream os;
    snap.write_csv(os);
    return os.str();
}

std::string trace_csv(const obs::trace_export& trace) {
    std::ostringstream os;
    trace.write_csv(os);
    return os.str();
}

std::string trace_json(const obs::trace_export& trace) {
    std::ostringstream os;
    trace.write_chrome_json(os);
    return os.str();
}

/// The BlueScale fig6 cell of 16 clients, 8,000 cycles, exported from a
/// grid of `trials` trials from seed 7.
sweep_result run_exported(std::uint32_t trials, unsigned threads = 2,
                          bool profile = false) {
    fig6_config cfg;
    cfg.scenario.n_clients = 16;
    cfg.scenario.measure_cycles = 8'000;
    return run_sweep({.trials = trials,
                      .seed = 7,
                      .threads = threads,
                      .profile = profile,
                      .metrics_cell = 0,
                      .trace_cell = 0},
                     {fig6_cell(ic_kind::bluescale, cfg)})
        .front();
}

TEST(export_determinism, fig6_exports_bit_identical_across_threads) {
    const auto serial = run_exported(4, 1);
    const auto parallel = run_exported(4, 4);

    ASSERT_FALSE(serial.metrics.empty());
    EXPECT_EQ(metrics_csv(serial.metrics), metrics_csv(parallel.metrics));
    EXPECT_EQ(trace_csv(serial.trace), trace_csv(parallel.trace));
    EXPECT_EQ(trace_json(serial.trace), trace_json(parallel.trace));
}

TEST(export_determinism, fig6_profile_never_leaks_into_metrics) {
    const auto r = run_exported(2, 2, /*profile=*/true);
    for (const auto& [name, value] : r.metrics.entries()) {
        EXPECT_EQ(value.flags & obs::k_metric_profile, 0u) << name;
        EXPECT_NE(name.rfind("profile/", 0), 0u) << name;
    }
    EXPECT_GT(r.profile.get("profile/sim/cycles").count, 0u);
    // And the deterministic export is unchanged by profiling being on.
    const auto base = run_exported(2);
    EXPECT_EQ(metrics_csv(base.metrics), metrics_csv(r.metrics));
}

#if BLUESCALE_TRACE_ENABLED
TEST(export_determinism, fig6_trace_carries_fabric_events) {
    const auto r = run_exported(4);
    ASSERT_FALSE(r.trace.events.empty());
    bool saw_grant = false;
    for (const auto& e : r.trace.events) {
        if (e.kind == obs::trace_event_kind::request_grant) saw_grant = true;
    }
    EXPECT_TRUE(saw_grant);
}
#endif

} // namespace
} // namespace bluescale::harness
