#include <gtest/gtest.h>

#include <vector>

#include "../test_util.hpp"
#include "sim/simulator.hpp"
#include "workload/traffic_generator.hpp"

namespace bluescale::workload {
namespace {

using bluescale::testing::loopback_interconnect;

memory_task task(task_id_t id, std::uint64_t period_units,
                 std::uint32_t requests) {
    memory_task t;
    t.id = id;
    t.period_units = period_units;
    t.requests_per_job = requests;
    return t;
}

struct rig {
    explicit rig(memory_task_set tasks, cycle_t loopback_latency = 10)
        : net(1, loopback_latency),
          gen(0, std::move(tasks), net, /*seed=*/7) {
        net.set_response_handler(
            [this](mem_request&& r) { gen.on_response(std::move(r)); });
        sim.add(gen);
        sim.add(net);
    }
    loopback_interconnect net;
    traffic_generator gen;
    simulator sim;
};

TEST(traffic_generator, issues_expected_request_count) {
    // Period 25 units = 100 cycles, 2 requests per job, run 1000 cycles:
    // 10 jobs -> 20 requests.
    rig r({task(1, 25, 2)});
    r.sim.run(1000);
    EXPECT_EQ(r.gen.stats().issued(), 20u);
}

TEST(traffic_generator, all_responses_complete_under_light_load) {
    rig r({task(1, 50, 1)});
    r.sim.run(2000);
    EXPECT_EQ(r.gen.stats().completed(), r.gen.stats().issued());
    EXPECT_EQ(r.gen.stats().missed(), 0u);
}

TEST(traffic_generator, latency_measured_against_loopback) {
    rig r({task(1, 100, 1)}, /*loopback_latency=*/17);
    r.sim.run(4000);
    ASSERT_GT(r.gen.stats().completed(), 0u);
    // Loopback latency within a couple of cycles of tick-order skew.
    EXPECT_NEAR(r.gen.stats().latency_cycles().mean(), 17.0, 2.0);
}

TEST(traffic_generator, deadline_misses_detected) {
    // Period 2 units = 8 cycles but loopback takes 50: every request
    // misses its implicit deadline.
    rig r({task(1, 2, 1)}, /*loopback_latency=*/50);
    r.sim.run(1000);
    ASSERT_GT(r.gen.stats().completed(), 0u);
    EXPECT_EQ(r.gen.stats().missed(), r.gen.stats().completed());
}

TEST(traffic_generator, edf_orders_across_tasks) {
    // Two tasks; the shorter-period task's requests must carry earlier
    // deadlines and thus issue first when both have pending jobs.
    loopback_interconnect net(1, 1);
    std::vector<cycle_t> seen_deadlines;
    traffic_generator gen(
        0, {task(1, 100, 3), task(2, 25, 3)}, net, 7);
    net.set_response_handler([&](mem_request&& r) {
        seen_deadlines.push_back(r.abs_deadline);
        gen.on_response(std::move(r));
    });
    simulator sim;
    sim.add(gen);
    sim.add(net);
    sim.run(30); // within the first job of each task
    ASSERT_GE(seen_deadlines.size(), 4u);
    // First issued requests: task 2 (deadline 100 cycles) before task 1
    // (deadline 400 cycles).
    EXPECT_LT(seen_deadlines.front(), 400u);
}

TEST(traffic_generator, respects_backpressure) {
    rig r({task(1, 10, 5)});
    r.net.set_accepting(false);
    r.sim.run(500);
    EXPECT_EQ(r.gen.stats().issued(), 0u);
    EXPECT_GT(r.gen.backlog(), 0u);
    r.net.set_accepting(true);
    r.sim.run(500);
    EXPECT_GT(r.gen.stats().issued(), 0u);
}

TEST(traffic_generator, respects_outstanding_cap) {
    loopback_interconnect net(1, /*latency=*/1000); // responses far away
    traffic_generator gen(0, {task(1, 10, 50)}, net, 7);
    net.set_response_handler(
        [&](mem_request&& r) { gen.on_response(std::move(r)); });
    simulator sim;
    sim.add(gen);
    sim.add(net);
    sim.run(200);
    EXPECT_EQ(gen.stats().issued(), k_max_outstanding);
    EXPECT_EQ(gen.outstanding(), k_max_outstanding);
}

TEST(traffic_generator, finalize_counts_stranded_requests_as_missed) {
    loopback_interconnect net(1, /*latency=*/100000);
    traffic_generator gen(0, {task(1, 10, 1)}, net, 7);
    net.set_response_handler(
        [&](mem_request&& r) { gen.on_response(std::move(r)); });
    simulator sim;
    sim.add(gen);
    sim.add(net);
    sim.run(1000);
    EXPECT_EQ(gen.stats().missed(), 0u); // nothing completed yet
    gen.finalize(sim.now());
    EXPECT_GT(gen.stats().missed(), 0u);
    EXPECT_EQ(gen.stats().missed(), gen.stats().abandoned());
}

TEST(traffic_generator, requests_carry_client_and_task_ids) {
    loopback_interconnect net(1, 1);
    bool checked = false;
    traffic_generator gen(3 % 1 == 0 ? 0 : 0, {task(9, 50, 1)}, net, 7);
    net.set_response_handler([&](mem_request&& r) {
        EXPECT_EQ(r.client, 0u);
        EXPECT_EQ(r.task, 9);
        EXPECT_EQ(r.level_deadline, r.abs_deadline);
        checked = true;
        gen.on_response(std::move(r));
    });
    simulator sim;
    sim.add(gen);
    sim.add(net);
    sim.run(500);
    EXPECT_TRUE(checked);
}

TEST(traffic_generator, request_ids_unique) {
    loopback_interconnect net(1, 1);
    std::set<request_id_t> ids;
    traffic_generator gen(0, {task(1, 10, 3), task(2, 15, 2)}, net, 7);
    net.set_response_handler([&](mem_request&& r) {
        EXPECT_TRUE(ids.insert(r.id).second) << "duplicate request id";
        gen.on_response(std::move(r));
    });
    simulator sim;
    sim.add(gen);
    sim.add(net);
    sim.run(2000);
    EXPECT_GT(ids.size(), 100u);
}

TEST(traffic_generator, blocking_stat_zero_on_contention_free_path) {
    rig r({task(1, 50, 2)});
    r.sim.run(2000);
    EXPECT_DOUBLE_EQ(r.gen.stats().blocking_cycles().mean(), 0.0);
}

TEST(traffic_generator, writes_flag_propagates) {
    memory_task t = task(1, 50, 1);
    t.writes = true;
    loopback_interconnect net(1, 1);
    bool saw_write = false;
    traffic_generator gen(0, {t}, net, 7);
    net.set_response_handler([&](mem_request&& r) {
        saw_write = saw_write || r.op == mem_op::write;
        gen.on_response(std::move(r));
    });
    simulator sim;
    sim.add(gen);
    sim.add(net);
    sim.run(500);
    EXPECT_TRUE(saw_write);
}

} // namespace
} // namespace bluescale::workload
