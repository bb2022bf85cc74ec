#include <gtest/gtest.h>

#include "core/local_scheduler.hpp"

namespace bluescale::core {
namespace {

mem_request req(cycle_t deadline) {
    mem_request r;
    r.level_deadline = deadline;
    return r;
}

struct bufs4 {
    bufs4()
        : arr{random_access_buffer(4), random_access_buffer(4),
              random_access_buffer(4), random_access_buffer(4)} {}
    void fill(std::uint32_t port, cycle_t deadline) {
        arr[port].load(req(deadline));
        arr[port].commit();
    }
    std::array<random_access_buffer, k_se_ports> arr;
};

TEST(local_scheduler, unconfigured_picks_nothing) {
    local_scheduler sched;
    bufs4 b;
    b.fill(0, 10);
    EXPECT_FALSE(sched.configured());
    EXPECT_FALSE(sched.pick_budgeted(b.arr).has_value());
}

TEST(local_scheduler, configured_flag_set) {
    local_scheduler sched;
    sched.configure_port(0, 4, 1);
    EXPECT_TRUE(sched.configured());
}

TEST(local_scheduler, ready_requires_budget_and_pending_request) {
    local_scheduler sched;
    sched.configure_port(0, 4, 1);
    bufs4 b;
    // Budget but empty buffer: not ready.
    EXPECT_FALSE(sched.pick_budgeted(b.arr).has_value());
    // Request appears: ready.
    b.fill(0, 10);
    ASSERT_TRUE(sched.pick_budgeted(b.arr).has_value());
    EXPECT_EQ(*sched.pick_budgeted(b.arr), 0u);
    // Budget exhausted: not ready again.
    sched.server(0).consume();
    EXPECT_FALSE(sched.pick_budgeted(b.arr).has_value());
}

TEST(local_scheduler, gedf_picks_earliest_server_deadline) {
    local_scheduler sched(server_policy::gedf);
    sched.configure_port(0, 10, 2);
    sched.configure_port(1, 4, 1);
    sched.configure_port(2, 7, 1);
    bufs4 b;
    b.fill(0, 100);
    b.fill(1, 100);
    b.fill(2, 100);
    // Server deadlines: 10, 4, 7 -> port 1 wins (Algorithm 1).
    ASSERT_TRUE(sched.pick_budgeted(b.arr).has_value());
    EXPECT_EQ(*sched.pick_budgeted(b.arr), 1u);
}

TEST(local_scheduler, gedf_tracks_advancing_periods) {
    local_scheduler sched(server_policy::gedf);
    sched.configure_port(0, 10, 5);
    sched.configure_port(1, 8, 5);
    bufs4 b;
    b.fill(0, 100);
    b.fill(1, 100);
    // Initially deadlines 10 vs 8 -> port 1.
    EXPECT_EQ(*sched.pick_budgeted(b.arr), 1u);
    // After 7 ticks port 1 wraps sooner; tick both 7 units:
    for (int i = 0; i < 7; ++i) sched.tick_unit();
    // deadlines now: port0 = 3, port1 = 1 -> port 1 still earlier.
    EXPECT_EQ(*sched.pick_budgeted(b.arr), 1u);
    sched.tick_unit(); // port1 reloads to 8, port0 at 2
    EXPECT_EQ(*sched.pick_budgeted(b.arr), 0u);
}

TEST(local_scheduler, fixed_priority_picks_lowest_ready_port) {
    local_scheduler sched(server_policy::fixed_priority);
    sched.configure_port(0, 10, 1);
    sched.configure_port(1, 2, 1); // would win under GEDF
    bufs4 b;
    b.fill(0, 100);
    b.fill(1, 100);
    EXPECT_EQ(*sched.pick_budgeted(b.arr), 0u);
}

TEST(local_scheduler, disabled_ports_skipped) {
    local_scheduler sched;
    sched.configure_port(0, 0, 0); // disabled
    sched.configure_port(1, 6, 1);
    bufs4 b;
    b.fill(0, 1);
    b.fill(1, 100);
    EXPECT_EQ(*sched.pick_budgeted(b.arr), 1u);
}

} // namespace
} // namespace bluescale::core
