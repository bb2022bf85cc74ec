#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/meshed_bluescale.hpp"
#include "sim/simulator.hpp"

namespace bluescale::core {
namespace {

mem_request req(request_id_t id, client_id_t client, std::uint64_t addr,
                cycle_t deadline = 1'000'000) {
    mem_request r;
    r.id = id;
    r.client = client;
    r.addr = addr;
    r.abs_deadline = deadline;
    r.level_deadline = deadline;
    return r;
}

struct rig {
    explicit rig(std::uint32_t n, meshed_config cfg = {}) : net(n, cfg) {
        net.set_response_handler(
            [this](mem_request&& r) { completed.push_back(std::move(r)); });
        sim.add(net);
    }
    void run_until_drained(cycle_t max = 50'000) {
        sim.run_until([this] { return net.in_flight() == 0; }, max);
    }
    meshed_bluescale_ic net;
    std::vector<mem_request> completed;
    simulator sim;
};

TEST(meshed_bluescale, address_steering_interleaves_channels) {
    meshed_config cfg;
    cfg.channels = 4;
    cfg.interleave_bytes = 4096;
    meshed_bluescale_ic net(16, cfg);
    for (std::uint64_t chunk = 0; chunk < 16; ++chunk) {
        EXPECT_EQ(net.channel_of(chunk * 4096), chunk % 4);
        EXPECT_EQ(net.channel_of(chunk * 4096 + 64), chunk % 4);
    }
}

TEST(meshed_bluescale, round_trip_through_each_channel) {
    meshed_config cfg;
    cfg.channels = 2;
    rig r(16, cfg);
    r.net.client_push(0, req(1, 0, 0));          // channel 0
    r.net.client_push(0, req(2, 0, 4096));       // channel 1
    r.run_until_drained();
    ASSERT_EQ(r.completed.size(), 2u);
    EXPECT_EQ(r.net.controller(0).serviced(), 1u);
    EXPECT_EQ(r.net.controller(1).serviced(), 1u);
}

TEST(meshed_bluescale, responses_return_to_issuing_client) {
    meshed_config cfg;
    cfg.channels = 2;
    rig r(16, cfg);
    for (client_id_t c = 0; c < 16; ++c) {
        r.net.client_push(c, req(100 + c, c, c * 4096));
    }
    r.run_until_drained();
    ASSERT_EQ(r.completed.size(), 16u);
    for (const auto& done : r.completed) {
        EXPECT_EQ(done.id, 100u + done.client);
    }
}

TEST(meshed_bluescale, aggregate_bandwidth_scales_with_channels) {
    // Saturating sequential traffic: K channels service ~K times the
    // transactions of one channel in the same window.
    auto run_saturated = [](std::uint32_t channels) {
        meshed_config cfg;
        cfg.channels = channels;
        cfg.interleave_bytes = 64; // line-interleave across channels
        meshed_bluescale_ic net(16, cfg);
        net.set_response_handler([](mem_request&&) {});
        simulator sim;
        sim.add(net);
        std::uint64_t addr = 0;
        for (cycle_t now = 0; now < 20'000; ++now) {
            for (client_id_t c = 0; c < 16; ++c) {
                if (net.client_can_accept(c)) {
                    net.client_push(c, req(addr, c, addr * 64));
                    ++addr;
                }
            }
            sim.step();
        }
        return net.total_serviced();
    };
    const auto one = run_saturated(1);
    const auto four = run_saturated(4);
    EXPECT_GT(four, 3 * one);
}

TEST(meshed_bluescale, configure_programs_all_channels) {
    std::vector<analysis::task_set> clients(16, analysis::task_set{{200, 4}});
    const auto sel = analysis::select_tree_interfaces(clients);
    ASSERT_TRUE(sel.feasible);
    meshed_config cfg;
    cfg.channels = 2;
    meshed_bluescale_ic net(16, cfg);
    net.configure(sel);
    for (std::uint32_t k = 0; k < 2; ++k) {
        EXPECT_TRUE(net.tree(k).se_at(0, 0).scheduler().configured());
    }
}

TEST(meshed_bluescale, single_channel_degenerates_to_plain_bluescale) {
    meshed_config cfg;
    cfg.channels = 1;
    rig r(16, cfg);
    for (client_id_t c = 0; c < 16; ++c) {
        r.net.client_push(c, req(c, c, c * 4096));
    }
    r.run_until_drained();
    EXPECT_EQ(r.completed.size(), 16u);
    EXPECT_EQ(r.net.total_serviced(), 16u);
}

} // namespace
} // namespace bluescale::core
