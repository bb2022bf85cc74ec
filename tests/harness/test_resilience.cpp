// Resilience experiment determinism and plumbing: the fault campaign,
// recovery, and degraded-mode paths must preserve the trial sweep's
// bit-identical-for-any-thread-count contract, and non-zero intensity
// must actually inject (non-zero fault and recovery counters).
#include <gtest/gtest.h>

#include <string>

#include "../test_util.hpp"
#include "harness/resilience_experiment.hpp"

namespace bluescale::harness {
namespace {

/// 3 trials of 30,000 cycles from seed 11 at `intensity`, on `threads`
/// workers.
sweep_result run_resilience(ic_kind kind, unsigned threads,
                            double intensity) {
    resilience_config cfg;
    cfg.scenario.measure_cycles = 30'000;
    cfg.fault_intensity = intensity;
    return testing::run_cell({.trials = 3, .seed = 11, .threads = threads},
                             resilience_cell(kind, cfg));
}

std::uint64_t count(const sweep_result& r, const char* name) {
    return r.totals.get(std::string("resilience/") + name).count;
}

TEST(resilience, parallel_sweep_matches_serial_under_faults) {
    // Bitwise-equal aggregates: any divergence (scheduling, shared rng,
    // float summation order) would show up here.
    const auto serial =
        run_resilience(ic_kind::bluescale, 1, 0.5);
    const auto parallel =
        run_resilience(ic_kind::bluescale, 4, 0.5);
    EXPECT_TRUE(testing::same_snapshot(serial.totals, parallel.totals));
}

TEST(resilience, baseline_parallel_sweep_matches_serial) {
    const auto serial =
        run_resilience(ic_kind::bluetree, 1, 0.5);
    const auto parallel =
        run_resilience(ic_kind::bluetree, 4, 0.5);
    EXPECT_TRUE(testing::same_snapshot(serial.totals, parallel.totals));
}

TEST(resilience, repeated_run_is_reproducible) {
    const auto a = run_resilience(ic_kind::bluescale, 2, 1.0);
    const auto b = run_resilience(ic_kind::bluescale, 2, 1.0);
    EXPECT_TRUE(testing::same_snapshot(a.totals, b.totals));
}

TEST(resilience, nonzero_intensity_injects_and_recovers) {
    const auto r =
        run_resilience(ic_kind::bluescale, 2, 1.0);
    EXPECT_GT(count(r, "injected_events"), 0u);
    EXPECT_GT(count(r, "se/fault_stall_cycles"), 0u);
    EXPECT_GT(count(r, "mem/ecc_retries") + count(r, "mem/uncorrected_errors") +
                  count(r, "link_drops") + count(r, "mem/storm_cycles"),
              0u);
    EXPECT_GT(count(r, "client/retries"), 0u);
    EXPECT_GT(count(r, "client/timeouts"), 0u);
}

TEST(resilience, zero_intensity_is_fault_free) {
    const auto r =
        run_resilience(ic_kind::bluescale, 2, 0.0);
    for (const char* name : {"injected_events", "se/fault_stall_cycles",
                             "link_drops", "mem/ecc_retries", "client/retries",
                             "health/degrade_events"}) {
        EXPECT_EQ(count(r, name), 0u) << name;
    }
}

TEST(resilience, baselines_see_no_se_faults_but_share_the_rest) {
    const auto r =
        run_resilience(ic_kind::bluetree, 2, 1.0);
    // No SE fabric: stall and degraded-mode counters stay zero, while
    // the memory-side faults (and the recovery they trigger) still bite.
    EXPECT_EQ(count(r, "se/fault_stall_cycles"), 0u);
    EXPECT_EQ(count(r, "health/degrade_events"), 0u);
    EXPECT_EQ(count(r, "se/degraded_cycles"), 0u);
    EXPECT_GT(count(r, "mem/ecc_retries") + count(r, "mem/uncorrected_errors"),
              0u);
    EXPECT_GT(count(r, "injected_events"), 0u);
}

} // namespace
} // namespace bluescale::harness
