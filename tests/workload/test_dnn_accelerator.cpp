#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "sim/simulator.hpp"
#include "workload/dnn_accelerator.hpp"

namespace bluescale::workload {
namespace {

using bluescale::testing::loopback_interconnect;

struct rig {
    explicit rig(dnn_config cfg, cycle_t latency = 10)
        : net(1, latency), ha(0, cfg, net, 7) {
        net.set_response_handler(
            [this](mem_request&& r) { ha.on_response(std::move(r)); });
        sim.add(ha);
        sim.add(net);
    }
    loopback_interconnect net;
    dnn_accelerator ha;
    simulator sim;
};

dnn_config small_cfg() {
    dnn_config cfg;
    cfg.compute_cycles = 50;
    cfg.layers = 3;
    cfg.bandwidth_share = 1.0; // unthrottled unless a test says otherwise
    return cfg;
}

TEST(dnn_accelerator, issues_layer_bursts) {
    // A long compute phase, so the run ends between bursts.
    auto cfg = small_cfg();
    cfg.compute_cycles = 1'000;
    rig r(cfg);
    r.sim.run(2'500);
    // Requests come in multiples of layers processed.
    EXPECT_EQ(r.ha.requests_issued(), 2 * k_dnn_burst_requests);
}

TEST(dnn_accelerator, completes_inferences) {
    rig r(small_cfg());
    r.sim.run(20'000);
    EXPECT_GT(r.ha.inferences_completed(), 3u);
}

TEST(dnn_accelerator, window_bounds_outstanding) {
    // With a long loopback latency the HA can never exceed its window.
    rig r(small_cfg(), /*latency=*/500);
    r.sim.run(400);
    EXPECT_EQ(r.ha.requests_issued(), k_dnn_window);
}

TEST(dnn_accelerator, bandwidth_cap_throttles_issue_rate) {
    auto fast = small_cfg();
    auto slow = small_cfg();
    slow.bandwidth_share = 0.05; // 1 request per 80 cycles at unit 4
    rig r_fast(fast), r_slow(slow);
    r_fast.sim.run(20'000);
    r_slow.sim.run(20'000);
    EXPECT_LT(r_slow.ha.requests_issued(),
              r_fast.ha.requests_issued() / 2);
    // Cap: share / unit_cycles requests per cycle (+ bucket burst).
    EXPECT_LE(r_slow.ha.requests_issued(),
              static_cast<std::uint64_t>(20'000 * 0.05 / 4) + k_dnn_window);
}

TEST(dnn_accelerator, compute_phase_pauses_traffic) {
    // One layer's worth of traffic, then a compute gap: over a horizon
    // shorter than burst+compute, at most one burst is issued.
    auto cfg = small_cfg();
    cfg.compute_cycles = 2000;
    rig r(cfg, /*latency=*/1);
    r.sim.run(1000);
    EXPECT_EQ(r.ha.requests_issued(), k_dnn_burst_requests);
}

TEST(dnn_accelerator, requests_are_reads_with_deadlines) {
    loopback_interconnect net(1, 1);
    dnn_accelerator ha(0, small_cfg(), net, 7);
    bool checked = false;
    net.set_response_handler([&](mem_request&& r) {
        EXPECT_EQ(r.op, mem_op::read);
        EXPECT_GT(r.abs_deadline, r.issue_cycle);
        checked = true;
        ha.on_response(std::move(r));
    });
    simulator sim;
    sim.add(ha);
    sim.add(net);
    sim.run(200);
    EXPECT_TRUE(checked);
}

} // namespace
} // namespace bluescale::workload
