// Health monitor hysteresis: an element degrades when its per-window
// stall ratio crosses the enter threshold, stays degraded through
// marginal windows (above exit, below enter), and recovers only after
// the configured run of consecutive healthy windows.
#include <gtest/gtest.h>

#include "core/bluescale_ic.hpp"
#include "core/health_monitor.hpp"
#include "mem/memory_controller.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"

namespace bluescale::core {
namespace {

health_config tight_config() {
    health_config cfg;
    cfg.check_period = 100;
    cfg.stall_enter = 0.5;
    cfg.stall_exit = 0.05;
    cfg.recovery_windows = 3;
    return cfg;
}

struct rig {
    explicit rig(std::vector<sim::fault_event> events,
                 health_config cfg = tight_config())
        : fabric(16), monitor(fabric, cfg) {
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
    // 60 stalled cycles in the first 100-cycle window: ratio 0.6 >= 0.5.
    rig r({{sim::fault_kind::se_stall, 0, 0, 60}});
    r.sim.run(101);
    EXPECT_TRUE(r.fabric.se_at(1, 0).degraded());
    EXPECT_EQ(r.monitor.degrade_events(), 1u);
    EXPECT_EQ(r.monitor.recovery_events(), 0u);
    // The untouched elements stay healthy.
    EXPECT_FALSE(r.fabric.se_at(0, 0).degraded());
    EXPECT_FALSE(r.fabric.se_at(1, 1).degraded());
}

TEST(health_monitor, ratio_below_enter_never_degrades) {
    // 10 stalls per window: above exit (0.05) but below enter (0.5) --
    // a healthy element must NOT flap into degraded mode (hysteresis).
    rig r({{sim::fault_kind::se_stall, 0, 0, 10},
           {sim::fault_kind::se_stall, 0, 100, 10},
           {sim::fault_kind::se_stall, 0, 200, 10}});
    r.sim.run(400);
    EXPECT_FALSE(r.fabric.se_at(1, 0).degraded());
    EXPECT_EQ(r.monitor.degrade_events(), 0u);
}

TEST(health_monitor, marginal_windows_hold_degraded_mode) {
    // Degrade in window 1, then keep each following window marginal
    // (ratio 0.1: above exit, below enter): no recovery, no re-degrade.
    rig r({{sim::fault_kind::se_stall, 0, 0, 60},
           {sim::fault_kind::se_stall, 0, 150, 10},
           {sim::fault_kind::se_stall, 0, 250, 10},
           {sim::fault_kind::se_stall, 0, 350, 10},
           {sim::fault_kind::se_stall, 0, 450, 10}});
    r.sim.run(501);
    EXPECT_TRUE(r.fabric.se_at(1, 0).degraded());
    EXPECT_EQ(r.monitor.degrade_events(), 1u);
    EXPECT_EQ(r.monitor.recovery_events(), 0u);
}

TEST(health_monitor, recovers_after_consecutive_healthy_windows) {
    // Stall burst in window 1 only; quiet afterwards. Recovery needs 3
    // consecutive healthy windows: checks at 200, 300, 400 fail to
    // recover (1, 2 windows), the check at 400 completes the run of 3.
    rig r({{sim::fault_kind::se_stall, 0, 0, 60}});
    r.sim.run(301); // checks at 100 (degrade), 200, 300
    EXPECT_TRUE(r.fabric.se_at(1, 0).degraded());
    r.sim.run(200); // check at 400: third healthy window -> recover
    EXPECT_FALSE(r.fabric.se_at(1, 0).degraded());
    EXPECT_EQ(r.monitor.degrade_events(), 1u);
    EXPECT_EQ(r.monitor.recovery_events(), 1u);

    const auto report = r.monitor.report();
    EXPECT_EQ(report.time_to_recover.count(), 1u);
    EXPECT_DOUBLE_EQ(report.time_to_recover.mean(), 300.0);
    // Degraded from the check at 100 to the check at 400.
    EXPECT_EQ(report.degraded_se_cycles,
              r.fabric.se_at(1, 0).degraded_cycles());
    EXPECT_EQ(report.degraded_se_cycles, 300u);
}

TEST(health_monitor, interrupted_healthy_run_restarts_recovery_count) {
    // Quiet, quiet, marginal, then quiet x3: the marginal window at
    // [300, 400) resets the consecutive-healthy counter, postponing
    // recovery from the check at 400 to the check at 700.
    rig r({{sim::fault_kind::se_stall, 0, 0, 60},
           {sim::fault_kind::se_stall, 0, 310, 10}});
    r.sim.run(601);
    EXPECT_TRUE(r.fabric.se_at(1, 0).degraded());
    r.sim.run(100);
    EXPECT_FALSE(r.fabric.se_at(1, 0).degraded());
    EXPECT_EQ(r.monitor.recovery_events(), 1u);
}

} // namespace
} // namespace bluescale::core
