#include <gtest/gtest.h>

#include "mem/maintenance_engine.hpp"
#include "mem/memory_controller.hpp"

namespace bluescale {
namespace {

dram_timing refresh_timing(std::uint32_t t_refi, std::uint32_t t_rfc) {
    dram_timing t;
    t.t_refi = t_refi;
    t.t_rfc = t_rfc;
    return t;
}

mem_request req_at(std::uint64_t addr) {
    mem_request r;
    r.id = 1;
    r.addr = addr;
    r.abs_deadline = 1'000'000;
    r.level_deadline = 1'000'000;
    return r;
}

TEST(maintenance_engine, refresh_staggers_bank_phases) {
    dram_model d(refresh_timing(800, 40));
    maintenance_engine eng(d, {});
    // Bank b's first window starts at (b+1)*t_refi/k_dram_banks: bank 0 at
    // 100, bank 7 at 800 (the classic all-banks cadence).
    eng.advance(99);
    EXPECT_EQ(eng.refreshes(), 0u);
    eng.advance(100);
    EXPECT_EQ(eng.refreshes(), 1u);
    EXPECT_TRUE(eng.bank_blocked(0, 100));
    EXPECT_TRUE(eng.bank_blocked(0, 139));
    EXPECT_FALSE(eng.bank_blocked(0, 140));
    EXPECT_FALSE(eng.bank_blocked(1, 100)); // bank 1's window is at 200
    eng.advance(800);
    EXPECT_EQ(eng.refreshes(), 8u); // every bank refreshed once
    EXPECT_EQ(eng.stolen_cycles(), 8u * 40u);
}

TEST(maintenance_engine, closed_form_catchup_matches_per_cycle) {
    // Sleeping across many windows and catching up in one advance() must
    // land on the same counters and blocked state as ticking every cycle.
    dram_model d1(refresh_timing(100, 10));
    dram_model d2(refresh_timing(100, 10));
    maintenance_config cfg;
    cfg.scrub_interval = 37;
    cfg.scrub_duration = 4;
    maintenance_engine stepped(d1, cfg);
    maintenance_engine jumped(d2, cfg);
    for (cycle_t now = 0; now <= 1000; ++now) stepped.advance(now);
    jumped.advance(1000);
    EXPECT_EQ(stepped.refreshes(), jumped.refreshes());
    EXPECT_EQ(stepped.scrubs(), jumped.scrubs());
    EXPECT_EQ(stepped.stolen_cycles(), jumped.stolen_cycles());
    for (std::uint32_t b = 0; b < 8; ++b) {
        EXPECT_EQ(stepped.bank_blocked(b, 1000), jumped.bank_blocked(b, 1000));
    }
}

TEST(maintenance_engine, scrub_sweeps_banks_round_robin) {
    dram_model d{dram_timing{}}; // refresh off
    maintenance_config cfg;
    cfg.scrub_interval = 20;
    cfg.scrub_duration = 5;
    maintenance_engine eng(d, cfg);
    eng.advance(20);
    EXPECT_EQ(eng.scrubs(), 1u);
    EXPECT_TRUE(eng.bank_blocked(0, 22));
    EXPECT_FALSE(eng.bank_blocked(1, 22));
    eng.advance(40);
    EXPECT_EQ(eng.scrubs(), 2u);
    EXPECT_TRUE(eng.bank_blocked(1, 42)); // round robin moved on
    EXPECT_FALSE(eng.bank_blocked(0, 42));
    EXPECT_EQ(eng.stolen_cycles(), 10u);
}

TEST(maintenance_engine, hammer_mitigation_after_threshold_activations) {
    dram_model d{dram_timing{}};
    maintenance_config cfg;
    cfg.hammer_threshold = 4;
    cfg.hammer_mitigation_cycles = 30;
    maintenance_engine eng(d, cfg);
    d.access(req_at(0)); // open bank 0's row
    for (int i = 0; i < 3; ++i) eng.on_activation(0, 10);
    EXPECT_EQ(eng.hammer_mitigations(), 0u);
    EXPECT_FALSE(eng.bank_blocked(0, 10));
    eng.on_activation(0, 10); // 4th activation crosses the threshold
    EXPECT_EQ(eng.hammer_mitigations(), 1u);
    // The mitigation queues behind the triggering access...
    EXPECT_TRUE(eng.bank_blocked(0, 39));
    EXPECT_FALSE(eng.bank_blocked(0, 40));
    // ...and evicts the aggressor row with the conflict penalty.
    EXPECT_EQ(d.classify(req_at(0)), row_outcome::conflict);
    // Counter restarts: 4 more activations to the next mitigation.
    for (int i = 0; i < 3; ++i) eng.on_activation(0, 50);
    EXPECT_EQ(eng.hammer_mitigations(), 1u);
    eng.on_activation(0, 50);
    EXPECT_EQ(eng.hammer_mitigations(), 2u);
}

TEST(maintenance_engine, next_boundary_reports_earliest_window) {
    dram_model d(refresh_timing(800, 40));
    maintenance_config cfg;
    cfg.scrub_interval = 350;
    cfg.scrub_duration = 8;
    maintenance_engine eng(d, cfg);
    eng.advance(0);
    EXPECT_EQ(eng.next_boundary(0), 100u); // bank 0's first refresh
    eng.advance(100);
    EXPECT_EQ(eng.next_boundary(100), 200u); // bank 1
    eng.advance(320);
    EXPECT_EQ(eng.next_boundary(320), 350u); // scrub before bank 3 at 400
}

TEST(maintenance_engine, storm_blocks_every_bank) {
    dram_model d{dram_timing{}};
    maintenance_engine eng(d, {});
    d.access(req_at(0));
    eng.inject_storms(
        {{sim::fault_kind::maintenance_storm, 0, /*start=*/50,
          /*duration=*/20}});
    eng.advance(10);
    EXPECT_FALSE(eng.bank_blocked(0, 10));
    EXPECT_EQ(eng.next_boundary(10), 50u);
    for (cycle_t now = 11; now < 70; ++now) eng.advance(now);
    EXPECT_EQ(eng.storm_cycles(), 20u);
    // Storm entry evicted the open row.
    EXPECT_EQ(d.classify(req_at(0)), row_outcome::conflict);
    eng.advance(70);
    EXPECT_FALSE(eng.bank_blocked(0, 70));
    // Modeled-maintenance counters are untouched by the storm.
    EXPECT_EQ(eng.refreshes(), 0u);
    EXPECT_EQ(eng.scrubs(), 0u);
    EXPECT_EQ(eng.stolen_cycles(), 0u);
}

TEST(maintenance_engine, controller_keeps_accepting_through_storm) {
    // A maintenance storm blocks the banks, not the queue: unlike a
    // backpressure storm, can_accept() stays true while service stalls.
    memctrl_config cfg;
    memory_controller mc(cfg);
    mc.inject_campaign(sim::fault_campaign(std::vector<sim::fault_event>{
        {sim::fault_kind::maintenance_storm, 0, /*start=*/8,
         /*duration=*/40}}));
    request_id_t id = 0;
    std::uint64_t serviced_during_storm = 0;
    for (cycle_t now = 0; now < 120; ++now) {
        EXPECT_TRUE(mc.can_accept() || k_request_queue_depth == 0 ||
                    !mc.can_accept()); // queue-full is the only refusal
        while (mc.can_accept()) mc.push(req_at(id++ * 64));
        const auto before = mc.serviced();
        mc.tick(now);
        while (mc.has_response()) mc.pop_response();
        mc.commit();
        if (now >= 12 && now < 48) {
            serviced_during_storm += mc.serviced() - before;
        }
    }
    // In-flight transactions may retire early in the window, but nothing
    // new is serviced deep inside it.
    EXPECT_LE(serviced_during_storm, 3u);
    EXPECT_EQ(mc.maintenance().storm_cycles(), 40u);
    EXPECT_GT(mc.serviced(), 10u); // service resumed after the storm
}

TEST(maintenance_engine, to_maintenance_model_converts_conservatively) {
    memctrl_config cfg;
    cfg.initiation_interval = 4;
    cfg.timing.t_refi = 800;
    cfg.timing.t_rfc = 41; // not a multiple of the unit: cost must ceil
    cfg.maintenance.scrub_interval = 400;
    cfg.maintenance.scrub_duration = 8;
    cfg.maintenance.hammer_threshold = 16;
    cfg.maintenance.hammer_mitigation_cycles = 30;
    const analysis::maintenance_model m = to_maintenance_model(cfg);
    ASSERT_EQ(m.ops.size(), 3u);
    EXPECT_EQ(m.ops[0].period, 200u); // refresh: 800 / 4
    EXPECT_EQ(m.ops[0].cost, 11u);    // ceil(41 / 4)
    // Scrub returns to a given bank every interval * k_dram_banks.
    EXPECT_EQ(m.ops[1].period, 400u * 8u / 4u);
    EXPECT_EQ(m.ops[1].cost, 2u);
    // Hammer threshold is already in units (one activation per start).
    EXPECT_EQ(m.ops[2].period, 16u);
    EXPECT_EQ(m.ops[2].cost, 8u); // ceil(30 / 4)
}

TEST(maintenance_engine, to_maintenance_model_empty_when_disabled) {
    EXPECT_TRUE(to_maintenance_model(memctrl_config{}).empty());
}

} // namespace
} // namespace bluescale
