// Health monitor hysteresis: an element degrades when its per-window
// stall ratio crosses the enter threshold, stays degraded through
// marginal windows (above exit, below enter), and recovers only after
// the run of k_recovery_windows consecutive healthy windows.
#include <gtest/gtest.h>

#include "core/bluescale_ic.hpp"
#include "core/health_monitor.hpp"
#include "mem/memory_controller.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"

namespace bluescale::core {
namespace {

// At the constants: a 1,024-cycle window degrades at >= 52 stalled
// cycles (ratio 0.05), counts as healthy at <= 10 (ratio 0.01), and is
// marginal in between.
constexpr cycle_t w = k_health_period;
constexpr cycle_t k_bad = 600;     ///< ratio 0.59: degrades
constexpr cycle_t k_marginal = 40; ///< ratio 0.04: neither enter nor exit

sim::fault_event stall(cycle_t start, cycle_t duration) {
    return {sim::fault_kind::se_stall, 0, start, duration};
}

struct rig {
    explicit rig(std::vector<sim::fault_event> events)
        : fabric(16), monitor(fabric) {
        fabric.attach_memory(mem);
        fabric.set_response_handler([](mem_request&&) {});
        // Stall schedule applied directly to one leaf SE; no traffic is
        // needed (stall cycles accrue whether or not work is buffered).
        fabric.se_at(1, 0).set_stall_faults(
            sim::fault_window(std::move(events)));
        sim.add(fabric);
        sim.add(mem);
        sim.add(monitor); // after the fabric, as in harness::testbench
    }
    bluescale_ic fabric;
    memory_controller mem;
    health_monitor monitor;
    simulator sim;
};

TEST(health_monitor, degrades_past_enter_threshold) {
    rig r({stall(0, k_bad)});
    r.sim.run(w + 1);
    EXPECT_TRUE(r.fabric.se_at(1, 0).degraded());
    EXPECT_EQ(r.monitor.degrade_events(), 1u);
    EXPECT_EQ(r.monitor.recovery_events(), 0u);
    // The untouched elements stay healthy.
    EXPECT_FALSE(r.fabric.se_at(0, 0).degraded());
    EXPECT_FALSE(r.fabric.se_at(1, 1).degraded());
}

TEST(health_monitor, thresholds_sit_at_five_and_one_percent) {
    static_assert(k_health_period == 1024 && k_recovery_windows == 3);
    // 51/1024 < 0.05 <= 52/1024: the enter threshold.
    rig below({stall(0, 51)});
    below.sim.run(w + 1);
    EXPECT_FALSE(below.fabric.se_at(1, 0).degraded());
    rig at({stall(0, 52)});
    at.sim.run(w + 1);
    EXPECT_TRUE(at.fabric.se_at(1, 0).degraded());

    // 10/1024 <= 0.01 < 11/1024: three windows of 10 stalls recover,
    // three of 11 do not.
    rig quiet({stall(0, k_bad), stall(w + 100, 10), stall(2 * w + 100, 10),
               stall(3 * w + 100, 10)});
    quiet.sim.run(4 * w + 1);
    EXPECT_FALSE(quiet.fabric.se_at(1, 0).degraded());
    EXPECT_EQ(quiet.monitor.recovery_events(), 1u);
    rig loud({stall(0, k_bad), stall(w + 100, 11), stall(2 * w + 100, 11),
              stall(3 * w + 100, 11)});
    loud.sim.run(4 * w + 1);
    EXPECT_TRUE(loud.fabric.se_at(1, 0).degraded());
    EXPECT_EQ(loud.monitor.recovery_events(), 0u);
}

TEST(health_monitor, ratio_below_enter_never_degrades) {
    // Marginal stalls every window: above exit but below enter -- a
    // healthy element must NOT flap into degraded mode (hysteresis).
    rig r({stall(0, k_marginal), stall(w, k_marginal),
           stall(2 * w, k_marginal)});
    r.sim.run(4 * w);
    EXPECT_FALSE(r.fabric.se_at(1, 0).degraded());
    EXPECT_EQ(r.monitor.degrade_events(), 0u);
}

TEST(health_monitor, marginal_windows_hold_degraded_mode) {
    // Degrade in window 1, then keep each following window marginal
    // (above exit, below enter): no recovery, no re-degrade.
    rig r({stall(0, k_bad), stall(w + 512, k_marginal),
           stall(2 * w + 512, k_marginal), stall(3 * w + 512, k_marginal),
           stall(4 * w + 512, k_marginal)});
    r.sim.run(5 * w + 1);
    EXPECT_TRUE(r.fabric.se_at(1, 0).degraded());
    EXPECT_EQ(r.monitor.degrade_events(), 1u);
    EXPECT_EQ(r.monitor.recovery_events(), 0u);
}

TEST(health_monitor, recovers_after_consecutive_healthy_windows) {
    // Stall burst in window 1 only; quiet afterwards. Recovery needs 3
    // consecutive healthy windows: the checks at 2w and 3w count 1 and
    // 2, the check at 4w completes the run of 3.
    rig r({stall(0, k_bad)});
    r.sim.run(3 * w + 1); // checks at w (degrade), 2w, 3w
    EXPECT_TRUE(r.fabric.se_at(1, 0).degraded());
    r.sim.run(w); // check at 4w: third healthy window -> recover
    EXPECT_FALSE(r.fabric.se_at(1, 0).degraded());
    EXPECT_EQ(r.monitor.degrade_events(), 1u);
    EXPECT_EQ(r.monitor.recovery_events(), 1u);

    EXPECT_EQ(r.monitor.time_to_recover().count(), 1u);
    EXPECT_DOUBLE_EQ(r.monitor.time_to_recover().mean(), 3072.0); // 3 windows
    // Degraded from the check at w to the check at 4w.
    EXPECT_EQ(r.fabric.se_at(1, 0).degraded_cycles(), 3 * w);
}

TEST(health_monitor, interrupted_healthy_run_restarts_recovery_count) {
    // Quiet, quiet, marginal, then quiet x3: the marginal window at
    // [3w, 4w) resets the consecutive-healthy counter, postponing
    // recovery from the check at 4w to the check at 7w.
    rig r({stall(0, k_bad), stall(3 * w + 28, k_marginal)});
    r.sim.run(6 * w + 1);
    EXPECT_TRUE(r.fabric.se_at(1, 0).degraded());
    r.sim.run(w);
    EXPECT_FALSE(r.fabric.se_at(1, 0).degraded());
    EXPECT_EQ(r.monitor.recovery_events(), 1u);
}

} // namespace
} // namespace bluescale::core
