// Client-side retry/timeout recovery edge cases, driven through the
// loopback interconnect's drop/fail controls: lost requests are reissued
// after the timeout (with exponential backoff), exhausted budgets give
// the request up, a response racing its own timeout expiry loses (the
// client tick runs before delivery), failed responses retry, and the
// reissue walk takes timed-out requests oldest id first.
#include <gtest/gtest.h>

#include <vector>

#include "../test_util.hpp"
#include "sim/simulator.hpp"
#include "workload/processor_client.hpp"
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
    explicit rig(memory_task_set tasks, traffic_gen_config cfg,
                 cycle_t loopback_latency = 10)
        : net(1, loopback_latency),
          gen(0, std::move(tasks), net, /*seed=*/7, cfg) {
        net.set_response_handler(
            [this](mem_request&& r) { gen.on_response(std::move(r)); });
        sim.add(gen);
        sim.add(net);
    }
    loopback_interconnect net;
    traffic_generator gen;
    simulator sim;
};

traffic_gen_config retry_config(cycle_t timeout, std::uint32_t retries) {
    traffic_gen_config cfg;
    cfg.retry_timeout_cycles = timeout;
    cfg.max_retries = retries;
    return cfg;
}

TEST(retry, dropped_request_reissued_and_completed) {
    rig r({task(1, 250, 1)}, retry_config(/*timeout=*/50, /*retries=*/3));
    r.net.drop_next(1);
    r.sim.run(1000);
    EXPECT_EQ(r.gen.stats().issued(), 1u);
    EXPECT_EQ(r.gen.stats().timeouts(), 1u);
    EXPECT_EQ(r.gen.stats().retries(), 1u);
    EXPECT_EQ(r.gen.stats().completed(), 1u);
    EXPECT_EQ(r.gen.stats().retry_exhausted(), 0u);
    EXPECT_EQ(r.gen.outstanding(), 0u);
}

TEST(retry, latency_of_retried_request_spans_recovery) {
    rig r({task(1, 500, 1)}, retry_config(100, 3), /*latency=*/10);
    r.net.drop_next(1);
    r.sim.run(2000);
    ASSERT_EQ(r.gen.stats().completed(), 1u);
    // Issued at 0, reissued at 100, completed at ~110: the sample keeps
    // the first attempt's issue cycle, so it spans the full recovery
    // (far beyond the loopback's 10-cycle service latency).
    EXPECT_GE(r.gen.stats().latency_cycles().max(), 100.0);
}

TEST(retry, exhausted_budget_gives_request_up) {
    rig r({task(1, 2500, 1)}, retry_config(50, /*retries=*/2));
    r.net.drop_next(3); // first attempt + both retries lost
    r.sim.run(10'000);
    // Timeouts: two expiries trigger retries, the third exhausts.
    EXPECT_EQ(r.gen.stats().retries(), 2u);
    EXPECT_EQ(r.gen.stats().timeouts(), 3u);
    EXPECT_EQ(r.gen.stats().retry_exhausted(), 1u);
    EXPECT_EQ(r.gen.stats().completed(), 0u);
    // The exhausted request stays outstanding until finalize() counts it
    // (end past the job's implicit deadline of 10'000 cycles).
    r.gen.finalize(10'500);
    EXPECT_EQ(r.gen.stats().abandoned(), 1u);
    EXPECT_EQ(r.gen.stats().missed(), 1u);
}

TEST(retry, backoff_doubles_each_window) {
    // timeout 50, backoff x2: expiries at 50, then 50+100=150, then
    // 150+200=350 (exhaustion). All three attempts are dropped.
    static_assert(k_retry_backoff_mult == 2);
    rig r({task(1, 2500, 1)}, retry_config(50, 2));
    r.net.drop_next(3);
    r.sim.run(149);
    EXPECT_EQ(r.gen.stats().retries(), 1u); // second expiry not yet due
    r.sim.run(100);
    EXPECT_EQ(r.gen.stats().retries(), 2u);
    EXPECT_EQ(r.gen.stats().retry_exhausted(), 0u);
    r.sim.run(200);
    EXPECT_EQ(r.gen.stats().retry_exhausted(), 1u);
}

TEST(retry, response_exactly_at_timeout_loses_the_race) {
    // Loopback latency == timeout: the response lands the same cycle the
    // timeout expires. Clients tick before the interconnect delivers, so
    // the reissue wins and the original response is dropped as stale.
    rig r({task(1, 500, 1)}, retry_config(/*timeout=*/10, 3),
          /*latency=*/10);
    r.sim.run(2000);
    EXPECT_EQ(r.gen.stats().timeouts(), 1u);
    EXPECT_EQ(r.gen.stats().retries(), 1u);
    EXPECT_EQ(r.gen.stats().stale_responses(), 1u);
    EXPECT_EQ(r.gen.stats().completed(), 1u); // the reissue completes
}

TEST(retry, response_inside_timeout_window_needs_no_recovery) {
    rig r({task(1, 500, 1)}, retry_config(/*timeout=*/11, 3),
          /*latency=*/10);
    r.sim.run(2000);
    EXPECT_EQ(r.gen.stats().timeouts(), 0u);
    EXPECT_EQ(r.gen.stats().retries(), 0u);
    EXPECT_EQ(r.gen.stats().stale_responses(), 0u);
    EXPECT_EQ(r.gen.stats().completed(), 1u);
}

TEST(retry, failed_response_retries_then_succeeds) {
    rig r({task(1, 250, 1)}, retry_config(50, 3));
    r.net.fail_next(1);
    r.sim.run(1000);
    EXPECT_EQ(r.gen.stats().failed_responses(), 1u);
    EXPECT_EQ(r.gen.stats().retries(), 1u);
    EXPECT_EQ(r.gen.stats().completed(), 1u);
}

TEST(retry, persistent_failures_exhaust_budget) {
    rig r({task(1, 2500, 1)}, retry_config(50, /*retries=*/2));
    r.net.fail_next(3);
    r.sim.run(10'000);
    EXPECT_EQ(r.gen.stats().failed_responses(), 3u);
    EXPECT_EQ(r.gen.stats().retries(), 2u);
    EXPECT_EQ(r.gen.stats().retry_exhausted(), 1u);
    EXPECT_EQ(r.gen.stats().completed(), 0u);
    EXPECT_EQ(r.gen.stats().abandoned(), 1u);
    EXPECT_EQ(r.gen.outstanding(), 0u);
}

TEST(retry, disabled_recovery_leaves_lost_request_outstanding) {
    rig r({task(1, 250, 1)}, traffic_gen_config{});
    r.net.drop_next(1);
    r.sim.run(900); // one release; its implicit deadline is cycle 1000
    EXPECT_EQ(r.gen.stats().timeouts(), 0u);
    EXPECT_EQ(r.gen.stats().retries(), 0u);
    EXPECT_EQ(r.gen.stats().completed(), 0u);
    EXPECT_EQ(r.gen.outstanding(), 1u);
    r.gen.finalize(2000);
    EXPECT_EQ(r.gen.stats().abandoned(), 1u);
}

/// A loopback that also records every request pushed into it.
class recording_loopback : public loopback_interconnect {
public:
    using loopback_interconnect::loopback_interconnect;
    void client_push(client_id_t c, mem_request r) override {
        pushed.push_back(r);
        loopback_interconnect::client_push(c, std::move(r));
    }
    std::vector<mem_request> pushed;
};

TEST(retry, reissues_walk_the_in_flight_requests_oldest_id_first) {
    // One job of four requests, a 20-cycle timeout and one retry each.
    // The port opens only at chosen cycles, so several requests time out
    // in one window and the reissue walk's order shows:
    //   c0 r0 (lost)   c5 r1 (answered at 35, after its reissue: stale)
    //   c20 r0 -> r0'  c22 r2  c23 r3  c25 r1 -> r1'   (all four lost)
    // With the port shut until c70, r0' (budget spent), r2, r3 and r1'
    // (budget spent) have all expired when it opens. Each tick walks
    // from the oldest id, marks spent entries exhausted as it passes and
    // reissues the first with budget left: c70 exhausts r0' and reissues
    // r2, c71 reissues r3, c72 exhausts r1'.
    recording_loopback net(1, /*latency=*/30);
    traffic_generator gen(0, {task(1, 1000, 4)}, net, /*seed=*/7,
                          retry_config(/*timeout=*/20, /*retries=*/1));
    net.set_response_handler(
        [&](mem_request&& resp) { gen.on_response(std::move(resp)); });
    simulator sim;
    sim.add(gen);
    sim.add(net);
    // Runs up to (not including) `cycle`, then ticks `cycle` with the
    // port open.
    const auto open_at = [&](cycle_t cycle) {
        net.set_accepting(false);
        sim.run(cycle - sim.now());
        net.set_accepting(true);
        sim.run(1);
    };

    net.drop_next(1);
    open_at(0);
    open_at(5);
    net.drop_next(4);
    for (const cycle_t c : {20, 22, 23, 25}) open_at(c);
    EXPECT_EQ(gen.stats().stale_responses(), 0u);
    EXPECT_EQ(gen.stats().retry_exhausted(), 0u);
    open_at(70);
    EXPECT_EQ(gen.stats().retry_exhausted(), 1u); // r0'
    open_at(71);
    EXPECT_EQ(gen.stats().retry_exhausted(), 1u);
    open_at(72);
    EXPECT_EQ(gen.stats().retry_exhausted(), 2u); // r1'
    net.set_accepting(true);
    sim.run(200);

    // Pushes in order. A reissue keeps the first attempt's issue cycle.
    struct push {
        std::uint64_t request; ///< of the job (its line offset)
        std::uint8_t attempt;
        cycle_t issue_cycle;
    };
    const std::vector<push> expected = {{0, 0, 0},  {1, 0, 5},  {0, 1, 0},
                                        {2, 0, 22}, {3, 0, 23}, {1, 1, 5},
                                        {2, 1, 22}, {3, 1, 23}};
    ASSERT_EQ(net.pushed.size(), expected.size());
    const mem_request& first = net.pushed.front();
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const mem_request& p = net.pushed[i];
        EXPECT_EQ(p.id, first.id + i) << "push " << i;
        EXPECT_EQ((p.addr - first.addr) / k_cache_line_bytes,
                  expected[i].request)
            << "push " << i;
        EXPECT_EQ(p.attempt, expected[i].attempt) << "push " << i;
        EXPECT_EQ(p.issue_cycle, expected[i].issue_cycle) << "push " << i;
    }
    EXPECT_EQ(gen.stats().timeouts(), 6u);
    EXPECT_EQ(gen.stats().retries(), 4u);
    EXPECT_EQ(gen.stats().stale_responses(), 1u); // r1's, counted once
    EXPECT_EQ(gen.stats().completed(), 2u);       // r2' and r3'
    EXPECT_EQ(gen.outstanding(), 2u);             // r0' and r1', exhausted
}

// --- processor_client (blocking cache-miss path) ------------------------

compute_task_set one_compute_task() {
    compute_task t;
    t.id = 1;
    t.category = task_category::function;
    t.period = 2000;
    t.compute_cycles = 40;
    t.mem_requests = 2;
    return {t};
}

struct proc_rig {
    proc_rig()
        : net(1, 10), cpu(0, one_compute_task(), net, /*seed=*/5) {
        net.set_response_handler(
            [this](mem_request&& r) { cpu.on_response(std::move(r)); });
        sim.add(cpu);
        sim.add(net);
    }
    loopback_interconnect net;
    processor_client cpu;
    simulator sim;
};

TEST(retry, blocking_core_without_recovery_hangs_on_loss) {
    // The core has no recovery path: a lost access blocks it for good.
    proc_rig r;
    r.net.drop_next(1);
    r.sim.run(4000);
    EXPECT_EQ(r.cpu.stats(task_category::function).completed, 0u);
    EXPECT_EQ(r.cpu.mem_requests_issued(), 1u);
}

} // namespace
} // namespace bluescale::workload
