#include <gtest/gtest.h>

#include <vector>

#include "mem/memory_controller.hpp"

namespace bluescale {
namespace {

mem_request make_req(request_id_t id, std::uint64_t addr,
                     cycle_t deadline = 1'000'000) {
    mem_request r;
    r.id = id;
    r.addr = addr;
    r.abs_deadline = deadline;
    r.level_deadline = deadline;
    return r;
}

/// Drives the controller standalone for `cycles`, collecting responses.
std::vector<mem_request> drain(memory_controller& mc, cycle_t cycles,
                               cycle_t start = 0) {
    std::vector<mem_request> out;
    for (cycle_t now = start; now < start + cycles; ++now) {
        mc.tick(now);
        while (mc.has_response()) out.push_back(mc.pop_response());
        mc.commit();
    }
    return out;
}

TEST(memory_controller, services_single_request) {
    memory_controller mc;
    mc.push(make_req(1, 0));
    const auto done = drain(mc, 100);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].id, 1u);
    EXPECT_EQ(mc.serviced(), 1u);
    EXPECT_TRUE(mc.idle());
}

TEST(memory_controller, stamps_service_times) {
    memory_controller mc;
    mc.push(make_req(1, 0));
    const auto done = drain(mc, 100);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_GT(done[0].mem_done, done[0].mem_start);
}

TEST(memory_controller, respects_initiation_interval) {
    memctrl_config cfg;
    cfg.initiation_interval = 4;
    memory_controller mc(cfg);
    // Two requests to different banks: starts must be >= 4 cycles apart.
    mc.push(make_req(1, 0));
    mc.push(make_req(2, 64));
    const auto done = drain(mc, 100);
    ASSERT_EQ(done.size(), 2u);
    EXPECT_GE(done[1].mem_start, done[0].mem_start + 4);
}

TEST(memory_controller, fcfs_preserves_order) {
    memctrl_config cfg;
    cfg.policy = memctrl_policy::fcfs;
    memory_controller mc(cfg);
    for (request_id_t i = 0; i < 5; ++i) {
        mc.push(make_req(i, i * 64));
    }
    const auto done = drain(mc, 300);
    ASSERT_EQ(done.size(), 5u);
    for (request_id_t i = 0; i < 5; ++i) EXPECT_EQ(done[i].id, i);
}

TEST(memory_controller, fr_fcfs_prefers_row_hit) {
    memctrl_config cfg;
    cfg.policy = memctrl_policy::fr_fcfs;
    memory_controller mc(cfg);
    const std::uint64_t row_span = k_row_bytes * k_dram_banks;

    // Open bank 0 row 0.
    mc.push(make_req(0, 0));
    drain(mc, 50);

    // Conflict (row 1 of bank 0) queued ahead of a row hit (row 0).
    mc.push(make_req(1, row_span));
    mc.push(make_req(2, 0));
    const auto done = drain(mc, 200, 50);
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0].id, 2u) << "row hit should be served first";
    EXPECT_EQ(done[1].id, 1u);
}

TEST(memory_controller, fr_fcfs_bypass_cap_prevents_starvation) {
    memctrl_config cfg;
    cfg.policy = memctrl_policy::fr_fcfs;
    memory_controller mc(cfg);
    const std::uint64_t row_span = k_row_bytes * k_dram_banks;

    // Open bank 0 row 0.
    mc.push(make_req(100, 0));
    drain(mc, 50);

    // One conflicting head, and the queue kept full of row hits behind
    // it: without the guard the hits would starve the head for good.
    mc.push(make_req(0, row_span)); // head, conflicts
    request_id_t next = 1;
    std::vector<mem_request> done;
    for (cycle_t now = 50; now < 2000; ++now) {
        while (mc.can_accept()) mc.push(make_req(next++, 0));
        mc.tick(now);
        while (mc.has_response()) done.push_back(mc.pop_response());
        mc.commit();
    }
    // The head is served after exactly k_fr_fcfs_bypass_cap bypasses.
    std::size_t head_pos = done.size();
    for (std::size_t i = 0; i < done.size(); ++i) {
        if (done[i].id == 0) head_pos = i;
    }
    EXPECT_EQ(head_pos, k_fr_fcfs_bypass_cap);
}

TEST(memory_controller, saturated_throughput_matches_interval) {
    memctrl_config cfg;
    cfg.initiation_interval = 4;
    memory_controller mc(cfg);
    std::uint64_t pushed = 0;
    cycle_t now = 0;
    for (; now < 4000; ++now) {
        while (mc.can_accept()) {
            mc.push(make_req(pushed, pushed * 64));
            ++pushed;
        }
        mc.tick(now);
        while (mc.has_response()) mc.pop_response();
        mc.commit();
    }
    // Allow warmup slack; steady state is one start per interval.
    EXPECT_GE(mc.serviced(), 4000u / 4 - 20);
}

TEST(memory_controller, backpressure_when_queue_full) {
    memory_controller mc;
    for (request_id_t i = 0; i < k_request_queue_depth; ++i) {
        EXPECT_TRUE(mc.can_accept());
        mc.push(make_req(i, i * 64));
    }
    EXPECT_FALSE(mc.can_accept());
}

TEST(memory_controller, response_backpressure_stalls_retirement) {
    memory_controller mc;
    constexpr request_id_t n = k_response_queue_depth + 2;
    request_id_t pushed = 0;
    // Never pop responses: retirement must stall at the response queue's
    // depth, not drop.
    for (cycle_t now = 0; now < 400; ++now) {
        while (pushed < n && mc.can_accept()) {
            mc.push(make_req(pushed, pushed * 64));
            ++pushed;
        }
        mc.tick(now);
        mc.commit();
    }
    std::uint64_t drained = 0;
    while (mc.has_response()) {
        mc.pop_response();
        ++drained;
    }
    EXPECT_EQ(drained, k_response_queue_depth);
    for (cycle_t now = 400; now < 800; ++now) {
        mc.tick(now);
        while (mc.has_response()) {
            mc.pop_response();
            ++drained;
        }
        mc.commit();
    }
    EXPECT_EQ(drained, n);
}

TEST(memory_controller, charges_blocking_to_earlier_deadline_waiters) {
    memctrl_config cfg;
    cfg.policy = memctrl_policy::fcfs;
    memory_controller mc(cfg);
    // Head has a LATER deadline than the second request: when the head is
    // served, the second is blocked by lower-priority work.
    mc.push(make_req(0, 0, /*deadline=*/1000));
    mc.push(make_req(1, 64, /*deadline=*/10));
    const auto done = drain(mc, 200);
    ASSERT_EQ(done.size(), 2u);
    const auto& late = done[0].id == 1 ? done[0] : done[1];
    EXPECT_GT(late.blocked_cycles, 0u);
}

TEST(memory_controller, no_blocking_charge_for_later_deadline_waiters) {
    memctrl_config cfg;
    cfg.policy = memctrl_policy::fcfs;
    memory_controller mc(cfg);
    mc.push(make_req(0, 0, /*deadline=*/10));
    mc.push(make_req(1, 64, /*deadline=*/1000));
    const auto done = drain(mc, 200);
    ASSERT_EQ(done.size(), 2u);
    for (const auto& r : done) EXPECT_EQ(r.blocked_cycles, 0u);
}

TEST(memory_controller, refresh_blocks_starts_during_bank_window) {
    memctrl_config cfg;
    cfg.timing.t_refi = 100;
    cfg.timing.t_rfc = 40;
    memory_controller mc(cfg);
    // Pin every request to bank 0 (addr stride = interleave * banks):
    // per-bank staggered refresh gives bank 0 the window
    // [t_refi/8 + 100k, t_refi/8 + 40 + 100k).
    const cycle_t phase = cfg.timing.t_refi / k_dram_banks;
    request_id_t id = 0;
    std::vector<cycle_t> starts;
    for (cycle_t now = 0; now < 800; ++now) {
        while (mc.can_accept()) mc.push(make_req(id, id * 512)), ++id;
        mc.tick(now);
        while (mc.has_response()) {
            starts.push_back(mc.pop_response().mem_start);
        }
        mc.commit();
    }
    ASSERT_FALSE(starts.empty());
    bool saw_post_refresh_start = false;
    for (cycle_t s : starts) {
        if (s < phase) continue;
        saw_post_refresh_start = true;
        EXPECT_GE((s - phase) % 100, 40u)
            << "start at " << s << " inside bank 0's refresh window";
    }
    EXPECT_TRUE(saw_post_refresh_start);
}

TEST(memory_controller, refresh_staggers_banks_and_closes_rows) {
    memctrl_config cfg;
    cfg.timing.t_refi = 50;
    cfg.timing.t_rfc = 10;
    memory_controller mc(cfg);
    // Open rows in bank 0 and bank 7, then idle across bank 0's staggered
    // window (t_refi/8 = 6) but not bank 7's (at t_refi = 50).
    mc.push(make_req(0, 0));
    mc.push(make_req(1, 7 * 64));
    drain(mc, 45);
    // Bank 0 was refreshed: row evicted, and the first re-access pays the
    // conflict path (the refresh issued the precharge). Bank 7 still hits.
    EXPECT_EQ(mc.dram().classify(make_req(99, 0)), row_outcome::conflict);
    EXPECT_EQ(mc.dram().classify(make_req(99, 7 * 64)), row_outcome::hit);
    EXPECT_GT(mc.maintenance().refreshes(), 0u);
}

TEST(memory_controller, staggered_refresh_preserves_multibank_throughput) {
    // The DSARP payoff: with one bank refreshing at a time, traffic
    // spread across banks barely notices a 20% per-bank refresh duty.
    auto saturated_throughput = [](std::uint32_t t_refi,
                                   std::uint32_t t_rfc) {
        memctrl_config cfg;
        cfg.timing.t_refi = t_refi;
        cfg.timing.t_rfc = t_rfc;
        memory_controller mc(cfg);
        request_id_t id = 0;
        for (cycle_t now = 0; now < 8000; ++now) {
            while (mc.can_accept()) mc.push(make_req(id, id * 64)), ++id;
            mc.tick(now);
            while (mc.has_response()) mc.pop_response();
            mc.commit();
        }
        return mc.serviced();
    };
    const auto base = saturated_throughput(0, 0);
    const auto refreshed = saturated_throughput(200, 40);
    EXPECT_GE(static_cast<double>(refreshed),
              static_cast<double>(base) * 0.9);
}

TEST(memory_controller, refresh_disabled_by_default) {
    memctrl_config cfg;
    EXPECT_EQ(cfg.timing.t_refi, 0u);
    memory_controller mc(cfg);
    mc.push(make_req(0, 0));
    drain(mc, 200);
    EXPECT_EQ(mc.dram().classify(make_req(99, 0)), row_outcome::hit);
}

TEST(memory_controller, single_bank_throughput_degrades_by_refresh_duty) {
    // Pinned to one bank, the per-bank refresh duty (plus the post-window
    // conflict reopen) comes straight out of throughput.
    auto saturated_throughput = [](std::uint32_t t_refi,
                                   std::uint32_t t_rfc) {
        memctrl_config cfg;
        cfg.timing.t_refi = t_refi;
        cfg.timing.t_rfc = t_rfc;
        memory_controller mc(cfg);
        request_id_t id = 0;
        for (cycle_t now = 0; now < 8000; ++now) {
            while (mc.can_accept()) mc.push(make_req(id, id * 512)), ++id;
            mc.tick(now);
            while (mc.has_response()) mc.pop_response();
            mc.commit();
        }
        return mc.serviced();
    };
    const auto base = saturated_throughput(0, 0);
    const auto refreshed = saturated_throughput(200, 40); // 20% duty
    EXPECT_LT(static_cast<double>(refreshed),
              static_cast<double>(base) * 0.87);
    EXPECT_GT(static_cast<double>(refreshed),
              static_cast<double>(base) * 0.65);
}

TEST(memory_controller, bank_parallelism_overlaps_service) {
    memctrl_config cfg;
    cfg.initiation_interval = 4;
    memory_controller mc(cfg);
    // Same bank twice: second start waits for the bank.
    mc.push(make_req(0, 0));
    mc.push(make_req(1, 0)); // same line -> same bank (row hit though)
    mc.push(make_req(2, 64 * 8)); // bank 0 again, same row region
    const auto same_bank = drain(mc, 300);
    ASSERT_EQ(same_bank.size(), 3u);

    memory_controller mc2(cfg);
    mc2.push(make_req(0, 0));
    mc2.push(make_req(1, 64));  // different bank
    mc2.push(make_req(2, 128)); // different bank
    const auto diff_bank = drain(mc2, 300);
    ASSERT_EQ(diff_bank.size(), 3u);
    EXPECT_LE(diff_bank[2].mem_done, same_bank[2].mem_done);
}

} // namespace
} // namespace bluescale
