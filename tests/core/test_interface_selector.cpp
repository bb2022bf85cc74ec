#include <gtest/gtest.h>

#include "core/interface_selector.hpp"

namespace bluescale::core {
namespace {

TEST(interface_selector, table_depth_enforced) {
    interface_selector sel(2);
    EXPECT_TRUE(sel.load_task(0, 1, 100, 5));
    EXPECT_TRUE(sel.load_task(1, 1, 100, 5));
    EXPECT_FALSE(sel.load_task(2, 1, 100, 5)) << "table is full";
    EXPECT_EQ(sel.table_size(), 2u);
}

TEST(interface_selector, clear_table) {
    interface_selector sel(4);
    sel.load_task(0, 1, 100, 5);
    sel.clear_table();
    EXPECT_EQ(sel.table_size(), 0u);
    EXPECT_TRUE(sel.load_task(0, 1, 100, 5));
}

TEST(interface_selector, client_field_masked_to_two_bits) {
    interface_selector sel(4);
    sel.load_task(5, 1, 100, 5); // 5 & 0x3 == 1
    EXPECT_EQ(sel.table().front().client, 1);
}

TEST(interface_selector, selects_per_port_interfaces) {
    interface_selector sel(16);
    sel.load_task(0, 1, 100, 10);
    sel.load_task(1, 1, 200, 10);
    // Ports 2 and 3 empty.
    const auto result = sel.select(0.15);
    ASSERT_TRUE(result.interfaces[0].has_value());
    ASSERT_TRUE(result.interfaces[1].has_value());
    EXPECT_GT(result.interfaces[0]->bandwidth(), 0.1);
    EXPECT_GT(result.interfaces[1]->bandwidth(), 0.05);
    // Empty ports get the null interface.
    ASSERT_TRUE(result.interfaces[2].has_value());
    EXPECT_EQ(result.interfaces[2]->budget, 0u);
    EXPECT_TRUE(result.feasible());
}

TEST(interface_selector, reports_infeasible_port) {
    interface_selector sel(16);
    sel.load_task(0, 1, 10, 11); // U > 1
    const auto result = sel.select(1.1);
    EXPECT_FALSE(result.interfaces[0].has_value());
    EXPECT_FALSE(result.feasible());
}

TEST(interface_selector, estimates_fsm_cycles_from_work) {
    interface_selector sel(16);
    sel.load_task(0, 1, 100, 10);
    const auto result = sel.select(0.2);
    EXPECT_GT(result.work.tests_run, 0u);
    // The default reconfig_costs price: 8 cycles per test, 4 per point.
    EXPECT_EQ(result.estimated_cycles,
              result.work.tests_run * 8 + result.work.points_checked * 4);
}

TEST(interface_selector, more_ports_cost_more_cycles) {
    // Identical task on one port vs all four ports: the four-port table
    // does exactly four times the selection work.
    interface_selector small(16), large(16);
    small.load_task(0, 1, 64, 4);
    for (std::uint8_t p = 0; p < 4; ++p) {
        large.load_task(p, 1, 64, 4);
    }
    const auto a = small.select(0.0625);
    const auto b = large.select(0.25);
    EXPECT_GT(b.work.tests_run, a.work.tests_run);
    EXPECT_GT(b.estimated_cycles, a.estimated_cycles);
}

TEST(interface_selector, matches_direct_analysis_call) {
    interface_selector sel(16);
    sel.load_task(2, 1, 150, 6);
    sel.load_task(2, 2, 300, 6);
    const auto result = sel.select(0.3);
    const auto direct = analysis::select_interface(
        {{150, 6}, {300, 6}}, 0.3);
    ASSERT_TRUE(result.interfaces[2].has_value());
    ASSERT_TRUE(direct.has_value());
    EXPECT_EQ(*result.interfaces[2], *direct);
}

} // namespace
} // namespace bluescale::core
