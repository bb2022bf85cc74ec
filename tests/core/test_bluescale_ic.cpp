#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/bluescale_ic.hpp"
#include "mem/memory_controller.hpp"
#include "sim/simulator.hpp"

namespace bluescale::core {
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
    explicit rig(std::uint32_t n, bluescale_config cfg = {})
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
    bluescale_ic net;
    memory_controller mem;
    std::vector<mem_request> completed;
    simulator sim;
};

TEST(bluescale_ic, shape_matches_paper_figures) {
    bluescale_ic ic16(16);
    EXPECT_EQ(ic16.total_ses(), 5u);   // Fig. 2(a)
    EXPECT_EQ(ic16.depth_of(0), 2u);
    bluescale_ic ic64(64);
    EXPECT_EQ(ic64.total_ses(), 21u);  // Fig. 2(d)
    EXPECT_EQ(ic64.depth_of(0), 3u);
}

TEST(bluescale_ic, single_request_round_trip) {
    rig r(16);
    r.net.client_push(5, req(1, 5, 10'000));
    r.run_until_drained();
    ASSERT_EQ(r.completed.size(), 1u);
    EXPECT_EQ(r.completed[0].id, 1u);
    EXPECT_EQ(r.completed[0].client, 5u);
}

TEST(bluescale_ic, all_clients_served_16) {
    rig r(16);
    for (client_id_t c = 0; c < 16; ++c) {
        ASSERT_TRUE(r.net.client_can_accept(c));
        r.net.client_push(c, req(c, c, 100'000, c * 4096));
    }
    r.run_until_drained();
    ASSERT_EQ(r.completed.size(), 16u);
    std::set<client_id_t> seen;
    for (const auto& c : r.completed) seen.insert(c.client);
    EXPECT_EQ(seen.size(), 16u);
}

TEST(bluescale_ic, all_clients_served_64) {
    rig r(64);
    for (client_id_t c = 0; c < 64; ++c) {
        r.net.client_push(c, req(c, c, 1'000'000, c * 4096));
    }
    r.run_until_drained(100'000);
    EXPECT_EQ(r.completed.size(), 64u);
}

TEST(bluescale_ic, non_power_of_four_clients) {
    rig r(6); // pads to 16-capacity tree
    for (client_id_t c = 0; c < 6; ++c) {
        r.net.client_push(c, req(c, c, 100'000, c * 4096));
    }
    r.run_until_drained();
    EXPECT_EQ(r.completed.size(), 6u);
}

TEST(bluescale_ic, responses_routed_correctly) {
    rig r(16);
    for (client_id_t c = 0; c < 16; ++c) {
        r.net.client_push(c, req(1000 + c, c, 100'000, c * 4096));
    }
    r.run_until_drained();
    for (const auto& done : r.completed) {
        EXPECT_EQ(done.id, 1000u + done.client);
    }
}

TEST(bluescale_ic, configure_from_tree_selection) {
    std::vector<analysis::task_set> clients(16);
    for (auto& s : clients) s.push_back({200, 4});
    const auto sel = analysis::select_tree_interfaces(clients);
    ASSERT_TRUE(sel.feasible);

    bluescale_config cfg;
    rig r(16, cfg);
    r.net.configure(sel);
    // Every leaf port's server must carry the selected parameters.
    for (std::uint32_t y = 0; y < 4; ++y) {
        for (std::uint32_t p = 0; p < 4; ++p) {
            const auto& iface = sel.port_interface(1, y, p);
            ASSERT_TRUE(iface.has_value());
            const auto& server = r.net.se_at(1, y).scheduler().server(p);
            EXPECT_EQ(server.period(), iface->period);
            EXPECT_EQ(server.budget(), iface->budget);
        }
    }
}

TEST(bluescale_ic, configured_fabric_still_delivers_everything) {
    std::vector<analysis::task_set> clients(16);
    for (auto& s : clients) s.push_back({200, 4});
    const auto sel = analysis::select_tree_interfaces(clients);
    ASSERT_TRUE(sel.feasible);

    rig r(16);
    r.net.configure(sel);
    std::uint64_t pushed = 0;
    for (cycle_t now = 0; now < 8000; ++now) {
        for (client_id_t c = 0; c < 16; ++c) {
            if (now % 800 == c * 50 && r.net.client_can_accept(c)) {
                const std::uint64_t id = pushed++;
                // detlint:allow(cycle-step): synthetic request deadline, not engine cadence
                r.net.client_push(c, req(id, c, now + 2000, id * 64));
            }
        }
        r.sim.step();
    }
    r.run_until_drained(100'000);
    EXPECT_EQ(r.completed.size(), pushed);
}

TEST(bluescale_ic, no_loss_under_saturating_load) {
    rig r(16);
    std::uint64_t pushed = 0;
    for (cycle_t now = 0; now < 4000; ++now) {
        for (client_id_t c = 0; c < 16; ++c) {
            if (r.net.client_can_accept(c) && pushed < 2000) {
                const std::uint64_t id = pushed++;
                // detlint:allow(cycle-step): synthetic request deadline, not engine cadence
                r.net.client_push(c, req(id, c, now + 100'000, id * 64));
            }
        }
        r.sim.step();
    }
    r.run_until_drained(200'000);
    EXPECT_EQ(r.completed.size(), pushed);
    EXPECT_EQ(r.net.in_flight(), 0u);
}

TEST(bluescale_ic, demux_response_network_routes_correctly) {
    bluescale_config cfg;
    cfg.responses = response_model::demux_network;
    rig r(64, cfg);
    for (client_id_t c = 0; c < 64; ++c) {
        r.net.client_push(c, req(5000 + c, c, 1'000'000, c * 4096));
    }
    r.run_until_drained(100'000);
    ASSERT_EQ(r.completed.size(), 64u);
    for (const auto& done : r.completed) {
        EXPECT_EQ(done.id, 5000u + done.client);
    }
}

TEST(bluescale_ic, ideal_and_demux_models_agree_at_low_rate) {
    auto run_model = [](response_model model) {
        bluescale_config cfg;
        cfg.responses = model;
        rig r(16, cfg);
        std::uint64_t pushed = 0;
        for (cycle_t now = 0; now < 4000; ++now) {
            const client_id_t c = static_cast<client_id_t>(now / 64 % 16);
            if (now % 64 == 0 && r.net.client_can_accept(c)) {
                const std::uint64_t id = pushed++;
                // detlint:allow(cycle-step): synthetic request deadline, not engine cadence
                r.net.client_push(c, req(id, c, now + 100'000, id * 64));
            }
            r.sim.step();
        }
        r.run_until_drained();
        return r.completed.size();
    };
    // Sparse traffic: the demux network has no contention, so both
    // models deliver everything.
    EXPECT_EQ(run_model(response_model::ideal_latency),
              run_model(response_model::demux_network));
}

TEST(bluescale_ic, demux_network_serializes_response_bursts) {
    // All 16 clients' responses funnel through the root demux at one per
    // cycle: 16 simultaneous completions take >= 16 cycles to deliver.
    bluescale_config cfg;
    cfg.responses = response_model::demux_network;
    rig r(16, cfg);
    for (client_id_t c = 0; c < 16; ++c) {
        r.net.client_push(c, req(c, c, 1'000'000, c * 64));
    }
    r.run_until_drained();
    ASSERT_EQ(r.completed.size(), 16u);
    cycle_t first = k_cycle_never, last = 0;
    for (const auto& done : r.completed) {
        first = std::min(first, done.complete_cycle);
        last = std::max(last, done.complete_cycle);
    }
    // The root demux forwards one response per cycle, so 16 deliveries
    // span at least 15 cycles no matter how the memory bunches them.
    EXPECT_GE(last - first, 15u);
}

TEST(bluescale_ic, forwards_counted_at_root) {
    rig r(16);
    for (client_id_t c = 0; c < 16; ++c) {
        r.net.client_push(c, req(c, c, 100'000, c * 64));
    }
    r.run_until_drained();
    EXPECT_EQ(r.net.forwarded_to_memory(), 16u);
    EXPECT_EQ(r.net.se_at(0, 0).forwarded(), 16u);
}

} // namespace
} // namespace bluescale::core
