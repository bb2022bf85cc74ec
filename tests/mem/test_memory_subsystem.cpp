#include <gtest/gtest.h>

#include "mem/memory_subsystem.hpp"

namespace bluescale {
namespace {

TEST(memory_subsystem, ddr3_matches_default_timing) {
    // The preset is the default controller with refresh switched on.
    const memctrl_config p = make_memctrl_config(dram_preset::ddr3_1600);
    const memctrl_config d;
    EXPECT_EQ(p.policy, d.policy);
    EXPECT_EQ(p.initiation_interval, d.initiation_interval);
    EXPECT_EQ(d.timing.t_refi, 0u);
}

TEST(memory_subsystem, every_dram_preset_has_refresh_enabled) {
    // The struct default keeps refresh opt-in, but the *named* DRAM
    // preset must model the real part: nonzero refresh cadence.
    const dram_timing t = make_memctrl_config(dram_preset::ddr3_1600).timing;
    EXPECT_GT(t.t_refi, 0u);
    EXPECT_GT(t.t_rfc, 0u);
    // The stall must be a small fraction of the cadence, or the preset
    // would spend more time refreshing than serving.
    EXPECT_LT(t.t_rfc, t.t_refi / 4);
}

TEST(memory_subsystem, usable_behind_an_interconnect) {
    memory_controller mc(make_memctrl_config(dram_preset::ddr3_1600));
    EXPECT_TRUE(mc.can_accept());
    EXPECT_TRUE(mc.idle());
}

} // namespace
} // namespace bluescale
