#include <gtest/gtest.h>

#include <vector>

#include "interconnect/axi_icrt.hpp"
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
    explicit rig(std::uint32_t n, axi_icrt_config cfg = {})
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
    axi_icrt net;
    memory_controller mem;
    std::vector<mem_request> completed;
    simulator sim;
};

TEST(axi_icrt, single_request_round_trip) {
    rig r(4);
    r.net.client_push(2, req(1, 2, 10'000));
    r.run_until_drained();
    ASSERT_EQ(r.completed.size(), 1u);
    EXPECT_EQ(r.completed[0].id, 1u);
    EXPECT_EQ(r.completed[0].client, 2u);
}

TEST(axi_icrt, default_arb_latency_grows_with_clients) {
    EXPECT_EQ(axi_icrt::default_arb_latency(2), 1u);
    EXPECT_EQ(axi_icrt::default_arb_latency(16), 2u);
    EXPECT_EQ(axi_icrt::default_arb_latency(64), 3u);
    EXPECT_GE(axi_icrt::default_arb_latency(256),
              axi_icrt::default_arb_latency(64));
}

TEST(axi_icrt, global_edf_grants_earliest_deadline_first) {
    rig r(4);
    // Three clients with distinct deadlines; later-deadline ones pushed
    // first. The central arbiter must reorder by deadline.
    r.net.client_push(0, req(1, 0, 9000, 0));
    r.net.client_push(1, req(2, 1, 100, 64));
    r.net.client_push(2, req(3, 2, 5000, 128));
    r.run_until_drained();
    ASSERT_EQ(r.completed.size(), 3u);
    // The earliest-deadline request must start memory service first.
    cycle_t start1 = 0, start2 = 0, start3 = 0;
    for (const auto& c : r.completed) {
        if (c.id == 1) start1 = c.mem_start;
        if (c.id == 2) start2 = c.mem_start;
        if (c.id == 3) start3 = c.mem_start;
    }
    EXPECT_LT(start2, start3);
    EXPECT_LT(start3, start1);
}

TEST(axi_icrt, regulation_throttles_greedy_client) {
    rig r(2);
    r.net.set_client_share(0, 0.1); // 25 requests per 256-cycle window
    const auto budget = static_cast<std::size_t>(0.1 * k_regulation_period);
    constexpr std::size_t windows = 10;
    // Greedy client 0 floods; client 1 idle.
    std::uint64_t pushed = 0;
    for (cycle_t now = 0; now < windows * k_regulation_period; ++now) {
        if (r.net.client_can_accept(0)) {
            const std::uint64_t id = pushed++;
            r.net.client_push(0, req(id, 0, 1'000'000, id * 64));
        }
        r.sim.step();
    }
    r.run_until_drained(100'000);
    // Without regulation the memory would service one request per 4
    // cycles; with a 10% share only the budget per window passes (plus
    // the queued tail, drained on the next refill).
    EXPECT_GE(r.completed.size(), windows * budget);
    EXPECT_LE(r.completed.size(), (windows + 1) * budget);
}

TEST(axi_icrt, unregulated_clients_unthrottled) {
    rig r(2);
    std::uint64_t pushed = 0;
    for (cycle_t now = 0; now < 640; ++now) {
        if (r.net.client_can_accept(0)) {
            const std::uint64_t id = pushed++;
            r.net.client_push(0, req(id, 0, 1'000'000, id * 64));
        }
        r.sim.step();
    }
    r.run_until_drained(100'000);
    EXPECT_GT(r.completed.size(), 120u);
}

TEST(axi_icrt, blocking_charged_on_inversion) {
    rig r(2);
    // Regulate client 0 to starve its budget, forcing grants of client
    // 1's later-deadline requests while client 0's early one waits.
    r.net.set_client_share(0, 0.001); // 1 request per window
    r.net.client_push(0, req(1, 0, 50, 0));
    r.net.client_push(0, req(2, 0, 60, 64));
    for (int i = 0; i < 6; ++i) {
        r.net.client_push(1, req(10 + i, 1, 1'000'000, 4096 + i * 64));
    }
    r.run_until_drained(100'000);
    cycle_t blocked = 0;
    for (const auto& c : r.completed) {
        if (c.id == 2) blocked = c.blocked_cycles;
    }
    EXPECT_GT(blocked, 0u);
}

TEST(axi_icrt, backpressure_per_client_queue) {
    axi_icrt_config cfg;
    cfg.queue_depth = 2;
    rig r(2, cfg);
    r.net.client_push(0, req(1, 0, 100));
    r.net.client_push(0, req(2, 0, 100));
    EXPECT_FALSE(r.net.client_can_accept(0));
    EXPECT_TRUE(r.net.client_can_accept(1));
}

TEST(axi_icrt, no_loss_under_sustained_load) {
    rig r(8);
    std::uint64_t pushed = 0;
    for (cycle_t now = 0; now < 4000; ++now) {
        for (client_id_t c = 0; c < 8; ++c) {
            if (now % 64 == 8 * c && r.net.client_can_accept(c)) {
                const std::uint64_t id = pushed++;
                // detlint:allow(cycle-step): synthetic request deadline, not engine cadence
                r.net.client_push(c, req(id, c, now + 500, id * 64));
            }
        }
        r.sim.step();
    }
    r.run_until_drained(100'000);
    EXPECT_EQ(r.completed.size(), pushed);
}

} // namespace
} // namespace bluescale
