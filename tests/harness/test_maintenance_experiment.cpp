// Maintenance experiment: the maintenance-aware admission story and the
// trial sweep's bit-identical-for-any-thread-count contract.
//
// The headline assertion (ISSUE acceptance): under identical
// maintenance-storm campaigns, hard clients admitted with the
// maintenance-corrected supply bound miss zero deadlines while the
// watchdog sheds best-effort traffic; admission against the raw sbf
// under-provisions and hard clients miss.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "../test_util.hpp"
#include "harness/maintenance_experiment.hpp"
#include "mem/memory_subsystem.hpp"
#include "obs/trace.hpp"

namespace bluescale::harness {
namespace {

/// Heavy-but-admissible maintenance: hot device (2x DDR3 refresh rate)
/// plus background scrubbing. RowHammer mitigation is deliberately off:
/// its worst-case charge (every activation a hammer) is pessimistic
/// enough to push this near-capacity workload past the corrected
/// admission bound -- the bench sweep and the maintenance-engine unit
/// tests cover the hammer path.
memctrl_config heavy_maintenance_memctrl() {
    memctrl_config mc;
    mc.timing.t_refi = 975;
    mc.timing.t_rfc = 65;
    mc.maintenance.scrub_interval = 2048;
    mc.maintenance.scrub_duration = 32;
    return mc;
}

/// The acceptance scenario: a near-capacity pooled workload (the last
/// k_best_effort_clients clients sheddable), and maintenance storms
/// (unmodeled excess scrubbing) frequent enough to build real backlog
/// across consecutive watchdog windows but short against the hard
/// deadlines.
maintenance_exp_config storm_config(bool aware) {
    maintenance_exp_config cfg;
    cfg.scenario.measure_cycles = 60'000;
    cfg.maintenance_aware = aware;
    cfg.scenario.memctrl = heavy_maintenance_memctrl();
    cfg.scenario.util_lo = 0.45;
    cfg.scenario.util_hi = 0.55;
    cfg.scenario.taskset.min_period_units = 500;
    cfg.storm_intensity = 3.0;
    return cfg;
}

/// The acceptance scenario's grid: 3 trials from seed 1.
constexpr std::uint32_t k_storm_trials = 3;

sweep_result run_storm(const maintenance_exp_config& cfg,
                       unsigned threads = 1) {
    return testing::run_cell({.trials = k_storm_trials, .threads = threads},
                             maintenance_cell(cfg));
}

std::uint64_t count(const sweep_result& r, const char* name) {
    return r.totals.get(std::string("maintenance/") + name).count;
}

TEST(maintenance_experiment, parallel_sweep_matches_serial) {
    // Bitwise-equal aggregates: any divergence (scheduling, shared rng,
    // float summation order) would show up here.
    const auto serial = run_storm(storm_config(true), 1);
    const auto parallel = run_storm(storm_config(true), 4);
    EXPECT_TRUE(testing::same_snapshot(serial.totals, parallel.totals));
}

TEST(maintenance_experiment, repeated_run_is_reproducible) {
    const auto a = run_storm(storm_config(false), 2);
    const auto b = run_storm(storm_config(false), 2);
    EXPECT_TRUE(testing::same_snapshot(a.totals, b.totals));
}

TEST(maintenance_experiment, modeled_maintenance_never_alarms_when_aware) {
    // No storms: every stall the device suffers is in the maintenance
    // model, so the corrected watchdog must stay silent and nothing is
    // shed -- refresh and scrub alone are budgeted, not anomalous.
    auto cfg = storm_config(true);
    cfg.storm_intensity = 0.0;
    const auto r = run_storm(cfg);
    ASSERT_GE(count(r, "feasible_trials"), 2u);
    EXPECT_GT(count(r, "mem/refreshes"), 0u);
    EXPECT_GT(count(r, "mem/scrubs"), 0u);
    EXPECT_GT(count(r, "watchdog/windows_checked"), 0u);
    EXPECT_EQ(count(r, "watchdog/supply_shortfall_alarms"), 0u);
    EXPECT_EQ(count(r, "watchdog/shed_events"), 0u);
    EXPECT_EQ(count(r, "hard_misses"), 0u);
}

TEST(maintenance_experiment, corrected_sbf_survives_maintenance_storms) {
    // The acceptance scenario: identical workloads and storm schedules,
    // only the supply model differs.
    const auto aware = run_storm(storm_config(true));
    const auto unaware = run_storm(storm_config(false));

    // Raw-sbf admission accepts every draw; corrected admission refuses
    // the over-committed one (refusal IS the maintenance-aware
    // behavior: that workload cannot be guaranteed once refresh and
    // scrub are charged) and admits the rest.
    ASSERT_EQ(count(unaware, "feasible_trials"), k_storm_trials);
    ASSERT_GE(count(aware, "feasible_trials"), 2u);
    ASSERT_GT(count(aware, "injected_storms"), 0u);

    // Corrected admission: hard clients ride out the storms miss-free;
    // the watchdog sees the unmodeled theft (supply alarms) and sheds
    // best-effort traffic to protect them.
    EXPECT_EQ(count(aware, "hard_misses"), 0u);
    EXPECT_GT(count(aware, "watchdog/supply_shortfall_alarms"), 0u);
    EXPECT_GT(count(aware, "watchdog/shed_events"), 0u);
    EXPECT_GT(count(aware, "watchdog/shed_client_cycles"), 0u);

    // Raw-sbf admission under-provisions: the same storm campaign
    // pushes hard clients over their deadlines.
    EXPECT_GT(count(unaware, "hard_misses"), 0u);
    EXPECT_GT(count(unaware, "best_effort_misses"), 0u);
}

#if BLUESCALE_TRACE_ENABLED
/// The cell bench/maintenance exports with --metrics/--trace, at the
/// driver's defaults: aware admission, 2x refresh with scrub and hammer
/// on, rare storms, 6 trials of 40,000 cycles from seed 1. Trial 0 of
/// this cell is refused admission, so its trace must come from a later
/// trial.
sweep_result run_exported_cell(unsigned threads) {
    maintenance_exp_config cfg;
    cfg.scenario.measure_cycles = 40'000;
    memctrl_config& mc = cfg.scenario.memctrl;
    mc.timing.t_refi = 975;
    mc.timing.t_rfc = 65;
    mc.maintenance.scrub_interval = 2048;
    mc.maintenance.scrub_duration = 32;
    mc.maintenance.hammer_threshold = 256;
    mc.maintenance.hammer_mitigation_cycles = 32;
    cfg.storm_intensity = 0.02;
    return testing::run_cell(
        {.trials = 6, .seed = 1, .threads = threads, .trace_cell = 0},
        maintenance_cell(cfg));
}

std::string trace_json(const obs::trace_export& trace) {
    std::ostringstream os;
    trace.write_chrome_json(os);
    return os.str();
}

TEST(maintenance_experiment, exported_cell_trace_is_nonempty_and_thread_invariant) {
    const auto serial = run_exported_cell(1);
    const auto parallel = run_exported_cell(4);
    ASSERT_GT(count(serial, "feasible_trials"), 0u);
    EXPECT_FALSE(serial.trace.events.empty());
    EXPECT_EQ(trace_json(serial.trace), trace_json(parallel.trace));
}
#endif // BLUESCALE_TRACE_ENABLED

} // namespace
} // namespace bluescale::harness
