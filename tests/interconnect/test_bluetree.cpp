#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "interconnect/bluetree.hpp"
#include "mem/memory_controller.hpp"
#include "sim/simulator.hpp"

namespace bluescale {
namespace {

mem_request req(request_id_t id, client_id_t client, cycle_t deadline,
                std::uint64_t addr = 0) {
    mem_request r;
    r.id = id;
    r.client = client;
    r.addr = addr;
    r.abs_deadline = deadline;
    r.level_deadline = deadline;
    return r;
}

struct rig {
    explicit rig(std::uint32_t n, bluetree_config cfg = {})
        : net(n, cfg) {
        net.attach_memory(mem);
        net.set_response_handler(
            [this](mem_request&& r) { completed.push_back(std::move(r)); });
        sim.add(net);
        sim.add(mem);
    }
    void run_until_drained(cycle_t max = 10'000) {
        sim.run_until([this] { return net.in_flight() == 0; }, max);
    }
    bluetree net;
    memory_controller mem;
    std::vector<mem_request> completed;
    simulator sim;
};

TEST(bluetree, single_request_round_trip) {
    rig r(4);
    r.net.client_push(0, req(1, 0, 1000));
    r.run_until_drained();
    ASSERT_EQ(r.completed.size(), 1u);
    EXPECT_EQ(r.completed[0].id, 1u);
    EXPECT_GT(r.completed[0].complete_cycle, 0u);
}

TEST(bluetree, levels_match_client_count) {
    EXPECT_EQ(bluetree(2).levels(), 1u);
    EXPECT_EQ(bluetree(4).levels(), 2u);
    EXPECT_EQ(bluetree(16).levels(), 4u);
    EXPECT_EQ(bluetree(64).levels(), 6u);
}

TEST(bluetree, pads_odd_client_counts) {
    rig r(5); // pads to 8
    EXPECT_EQ(r.net.levels(), 3u);
    r.net.client_push(4, req(1, 4, 1000));
    r.run_until_drained();
    EXPECT_EQ(r.completed.size(), 1u);
}

TEST(bluetree, all_clients_reach_memory) {
    rig r(16);
    for (client_id_t c = 0; c < 16; ++c) {
        ASSERT_TRUE(r.net.client_can_accept(c));
        r.net.client_push(c, req(c, c, 10'000));
    }
    r.run_until_drained();
    ASSERT_EQ(r.completed.size(), 16u);
    std::set<client_id_t> seen;
    for (const auto& c : r.completed) seen.insert(c.client);
    EXPECT_EQ(seen.size(), 16u);
}

TEST(bluetree, responses_routed_to_issuing_client) {
    rig r(8);
    for (client_id_t c = 0; c < 8; ++c) {
        r.net.client_push(c, req(100 + c, c, 10'000, c * 4096));
    }
    r.run_until_drained();
    for (const auto& done : r.completed) {
        EXPECT_EQ(done.id, 100u + done.client);
    }
}

TEST(bluetree, no_requests_lost_under_sustained_load) {
    rig r(8);
    std::uint64_t pushed = 0;
    for (cycle_t now = 0; now < 3000; ++now) {
        for (client_id_t c = 0; c < 8; ++c) {
            if (now % 16 == c * 2 && r.net.client_can_accept(c)) {
                const std::uint64_t id = pushed++;
                // detlint:allow(cycle-step): synthetic request deadline, not engine cadence
                r.net.client_push(c, req(id, c, now + 400, id * 64));
            }
        }
        r.sim.step();
    }
    r.run_until_drained(50'000);
    EXPECT_EQ(r.completed.size(), pushed);
    EXPECT_EQ(r.net.in_flight(), 0u);
}

TEST(bluetree, backpressure_when_leaf_queue_full) {
    bluetree_config cfg;
    cfg.queue_depth = 2;
    rig r(4, cfg);
    // Without ticking, pushes accumulate in the leaf queue.
    EXPECT_TRUE(r.net.client_can_accept(0));
    r.net.client_push(0, req(1, 0, 100));
    r.net.client_push(0, req(2, 0, 100));
    EXPECT_FALSE(r.net.client_can_accept(0));
}

TEST(bluetree, alpha_one_alternates_under_saturation) {
    // With alpha=1 (round-robin) and both inputs saturated, grants must
    // alternate; completion order reflects it.
    bluetree_config cfg;
    cfg.alpha = 1;
    rig r(2, cfg);
    // All requests target the same line so the memory services them in
    // arrival order (no row-hit reordering).
    for (int i = 0; i < 4; ++i) {
        r.net.client_push(0, req(10 + i, 0, 10'000, 0));
        r.net.client_push(1, req(20 + i, 1, 10'000, 0));
    }
    r.run_until_drained();
    ASSERT_EQ(r.completed.size(), 8u);
    // Memory services in arrival order; arrival alternates.
    int flips = 0;
    for (std::size_t i = 1; i < r.completed.size(); ++i) {
        if (r.completed[i].client != r.completed[i - 1].client) ++flips;
    }
    EXPECT_GE(flips, 5);
}

TEST(bluetree, high_alpha_favors_left_input) {
    bluetree_config cfg;
    cfg.alpha = 8;
    cfg.queue_depth = 16;
    rig r(2, cfg);
    for (int i = 0; i < 8; ++i) {
        r.net.client_push(0, req(10 + i, 0, 10'000, i * 64));
        r.net.client_push(1, req(20 + i, 1, 10'000, i * 64 + 4096));
    }
    r.run_until_drained();
    ASSERT_EQ(r.completed.size(), 16u);
    // Left client's requests should all complete before the right
    // client's last one (it only sneaks in after alpha grants).
    std::map<client_id_t, cycle_t> last_done;
    for (const auto& c : r.completed) {
        last_done[c.client] = std::max(last_done[c.client],
                                       c.complete_cycle);
    }
    EXPECT_LT(last_done[0], last_done[1]);
}

TEST(bluetree, blocking_charged_on_priority_inversion) {
    // The blocking-factor heuristic ignores deadlines: with alpha = 2, an
    // early-deadline request on the low-priority (right) input waits
    // while late-deadline left-input requests are granted.
    bluetree_config cfg;
    cfg.alpha = 2;
    cfg.queue_depth = 4;
    rig r(2, cfg);
    for (int i = 0; i < 4; ++i) {
        r.net.client_push(0, req(10 + i, 0, 1'000'000)); // late, HP input
    }
    r.net.client_push(1, req(1, 1, 100)); // early, LP input
    r.run_until_drained();
    ASSERT_EQ(r.completed.size(), 5u);
    cycle_t blocked = 0;
    for (const auto& c : r.completed) {
        if (c.id == 1) blocked = c.blocked_cycles;
    }
    EXPECT_GT(blocked, 0u);
}

TEST(bluetree, smooth_variant_deeper_buffers) {
    auto smooth = bluetree::make_smooth(8);
    EXPECT_GT(smooth.config().queue_depth, bluetree_config{}.queue_depth);
    EXPECT_GT(smooth.config().smooth_depth, 0u);
    EXPECT_EQ(smooth.depth_of(0), 2 * smooth.levels());
}

TEST(bluetree, smooth_variant_round_trip) {
    bluetree_config cfg;
    cfg.queue_depth = 8;
    cfg.smooth_depth = 4;
    rig r(8, cfg);
    for (client_id_t c = 0; c < 8; ++c) {
        r.net.client_push(c, req(c, c, 10'000, c * 64));
    }
    r.run_until_drained();
    EXPECT_EQ(r.completed.size(), 8u);
}

TEST(bluetree, forwarded_counter_matches_completions) {
    rig r(4);
    for (client_id_t c = 0; c < 4; ++c) {
        r.net.client_push(c, req(c, c, 10'000, c * 64));
    }
    r.run_until_drained();
    EXPECT_EQ(r.net.forwarded_to_memory(), 4u);
}

} // namespace
} // namespace bluescale
