#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "interconnect/gsmtree.hpp"
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
    explicit rig(std::uint32_t n, gsmtree_config cfg = {})
        : net(n, cfg) {
        net.attach_memory(mem);
        net.set_response_handler(
            [this](mem_request&& r) { completed.push_back(std::move(r)); });
        sim.add(net);
        sim.add(mem);
    }
    void run_until_drained(cycle_t max = 20'000) {
        sim.run_until([this] { return net.in_flight() == 0; }, max);
    }
    gsmtree net;
    memory_controller mem;
    std::vector<mem_request> completed;
    simulator sim;
};

TEST(gsmtree, tdm_table_one_slot_per_client) {
    gsmtree net(8);
    ASSERT_EQ(net.slot_table().size(), 8u);
    for (client_id_t c = 0; c < 8; ++c) {
        EXPECT_EQ(net.slot_table()[c], c);
    }
}

TEST(gsmtree, fbsp_table_proportional_to_weights) {
    gsmtree_config cfg;
    cfg.reservation = gsm_reservation::fbsp;
    cfg.client_weights = {3.0, 1.0, 1.0, 1.0};
    gsmtree net(4, cfg);
    std::vector<int> counts(4, 0);
    for (client_id_t c : net.slot_table()) ++counts[c];
    int total = 0;
    for (int c : counts) total += c;
    EXPECT_EQ(total, 8); // the auto frame: two slots per client
    // Heaviest client dominates; every client keeps its guaranteed slot.
    for (int i = 1; i < 4; ++i) {
        EXPECT_GT(counts[0], counts[i]);
        EXPECT_GE(counts[i], 1);
    }
}

TEST(gsmtree, fbsp_auto_frame_is_two_slots_per_client) {
    for (std::uint32_t n : {1u, 3u, 8u, 16u}) {
        gsmtree_config cfg;
        cfg.reservation = gsm_reservation::fbsp;
        cfg.client_weights.assign(n, 1.0);
        cfg.client_weights[0] = 5.0;
        gsmtree net(n, cfg);
        EXPECT_EQ(net.slot_table().size(), 2 * n) << n;
    }
}

TEST(gsmtree, fbsp_never_starves_light_clients) {
    gsmtree_config cfg;
    cfg.reservation = gsm_reservation::fbsp;
    // Extremely skewed workloads (the Fig. 7 regression: a DNN HA next
    // to nearly idle processors): every client still gets >= 1 slot.
    cfg.client_weights = {10.0, 0.001, 0.0005, 0.002};
    gsmtree net(4, cfg);
    std::vector<int> counts(4, 0);
    for (client_id_t c : net.slot_table()) ++counts[c];
    for (int i = 0; i < 4; ++i) EXPECT_GE(counts[i], 1) << i;
}

TEST(gsmtree, fbsp_spreads_slots_evenly) {
    gsmtree_config cfg;
    cfg.reservation = gsm_reservation::fbsp;
    cfg.client_weights = {1.0, 1.0};
    gsmtree net(2, cfg);
    // Smooth WRR with equal weights must alternate, not batch.
    const auto& table = net.slot_table();
    for (std::size_t i = 1; i < table.size(); ++i) {
        EXPECT_NE(table[i], table[i - 1]);
    }
}

TEST(gsmtree, single_request_round_trip) {
    rig r(4);
    r.net.client_push(0, req(1, 0, 100'000));
    r.run_until_drained();
    ASSERT_EQ(r.completed.size(), 1u);
    EXPECT_EQ(r.completed[0].id, 1u);
}

TEST(gsmtree, all_clients_served) {
    rig r(8);
    for (client_id_t c = 0; c < 8; ++c) {
        r.net.client_push(c, req(c, c, 100'000, c * 64));
    }
    r.run_until_drained();
    EXPECT_EQ(r.completed.size(), 8u);
}

TEST(gsmtree, strict_tdm_is_non_work_conserving) {
    // A single active client on an 8-client TDM frame gets exactly one
    // slot per frame, even with everything else idle.
    gsmtree_config cfg;
    cfg.slot_cycles = 4;
    cfg.queue_depth = 16;
    rig r(8, cfg);
    for (int i = 0; i < 8; ++i) {
        r.net.client_push(0, req(i, 0, 1'000'000, i * 64));
    }
    r.run_until_drained(100'000);
    ASSERT_EQ(r.completed.size(), 8u);
    // 8 requests, one per 8-slot frame of 32 cycles: the last one cannot
    // be admitted before 7 full frames have elapsed.
    cycle_t last = 0;
    for (const auto& c : r.completed) {
        last = std::max(last, c.complete_cycle);
    }
    EXPECT_GE(last, 7u * 8u * 4u);
}

TEST(gsmtree, backpressure_when_client_queue_full) {
    gsmtree_config cfg;
    cfg.queue_depth = 2;
    rig r(4, cfg);
    r.net.client_push(0, req(1, 0, 100));
    r.net.client_push(0, req(2, 0, 100));
    EXPECT_FALSE(r.net.client_can_accept(0));
    EXPECT_TRUE(r.net.client_can_accept(1));
}

TEST(gsmtree, blocking_charged_against_earlier_deadlines) {
    rig r(4);
    // Client 1's slot grants a late-deadline request while client 0's
    // early-deadline request waits for its slot.
    r.net.client_push(1, req(2, 1, 1'000'000));
    r.net.client_push(0, req(1, 0, 10));
    // Let the frame advance into client 1's slot before client 0's next.
    r.run_until_drained();
    ASSERT_EQ(r.completed.size(), 2u);
    // At least one of the slot grants happened while the other waited.
    cycle_t blocked0 = 0;
    for (const auto& c : r.completed) {
        if (c.id == 1) blocked0 = c.blocked_cycles;
    }
    // Client 0 owns slot 0 and was pushed before any slot elapsed, so it
    // may or may not be blocked depending on admission phase; the metric
    // must never be charged to the LATE-deadline request though.
    for (const auto& c : r.completed) {
        if (c.id == 2) {
            EXPECT_EQ(c.blocked_cycles, 0u);
        }
    }
    (void)blocked0;
}

TEST(gsmtree, no_loss_under_sustained_load) {
    rig r(4);
    std::uint64_t pushed = 0;
    for (cycle_t now = 0; now < 4000; ++now) {
        for (client_id_t c = 0; c < 4; ++c) {
            if (now % 32 == 8 * c && r.net.client_can_accept(c)) {
                const std::uint64_t id = pushed++;
                // detlint:allow(cycle-step): synthetic request deadline, not engine cadence
                r.net.client_push(c, req(id, c, now + 1000, id * 64));
            }
        }
        r.sim.step();
    }
    r.run_until_drained(100'000);
    EXPECT_EQ(r.completed.size(), pushed);
}

} // namespace
} // namespace bluescale
