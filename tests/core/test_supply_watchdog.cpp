// Supply-conformance watchdog: online sbf conformance checks over
// sliding windows, typed alarms, and hysteresis-controlled overload
// shedding that protects hard real-time clients while best-effort
// clients absorb the loss.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/bluescale_ic.hpp"
#include "core/supply_watchdog.hpp"
#include "mem/memory_controller.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"
#include "workload/traffic_generator.hpp"

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

/// Fabric + controller + watchdog, ticked manually so tests can place
/// deadline misses and backlog exactly where they want them.
struct rig {
    rig()
        : fabric(16),
          clients(16, analysis::task_set{{200, 4}}),
          selection(analysis::select_tree_interfaces(clients)) {
        EXPECT_TRUE(selection.feasible);
        fabric.attach_memory(mem);
        fabric.set_response_handler([](mem_request&&) {});
        fabric.configure(selection);
        wd = std::make_unique<supply_watchdog>(fabric, &selection);
    }

    /// Ticks [from, to], optionally flooding client 0 so its request
    /// path stays backlogged.
    void run(cycle_t from, cycle_t to, bool flood = false) {
        for (cycle_t t = from; t <= to; ++t) {
            if (flood && fabric.client_can_accept(0)) {
                fabric.client_push(0, req(next_id++, 0, 1'000'000'000));
            }
            fabric.tick(t);
            mem.tick(t);
            wd->tick(t);
            // Latched-queue semantics: pushes (and forwards) only become
            // visible after the commit phase, as under sim::simulator.
            fabric.commit();
            mem.commit();
        }
    }

    bluescale_ic fabric;
    memory_controller mem;
    std::vector<analysis::task_set> clients;
    analysis::tree_selection selection;
    std::unique_ptr<supply_watchdog> wd;
    request_id_t next_id = 1;
};

// At the constants: one check per 1,024-cycle window, shed after 2
// violating windows, restore after 4 clean ones, then after 8.
constexpr cycle_t w = k_watchdog_period;

/// Ticks the watchdog alone through windows [first, last] (1-based; the
/// check closing window k runs at k * w), with one hard miss in each
/// window when `miss` is set.
void windows(supply_watchdog& wd, std::uint64_t& missed, cycle_t first,
             cycle_t last, bool miss) {
    for (cycle_t t = (first - 1) * w + 1; t <= last * w; ++t) {
        if (miss && t % w == w / 2) ++missed;
        wd.tick(t);
    }
}

TEST(supply_watchdog, quiet_system_raises_no_alarms) {
    rig r;
    r.wd->track_client(0, client_class::hard, [] { return 0ull; });
    r.run(0, 10 * w);
    const auto& rep = r.wd->report();
    EXPECT_EQ(rep.windows_checked, 10u);
    EXPECT_EQ(rep.violating_windows, 0u);
    EXPECT_EQ(rep.supply_shortfall_alarms, 0u);
    EXPECT_EQ(rep.deadline_alarms, 0u);
    EXPECT_EQ(rep.shed_events, 0u);
    EXPECT_FALSE(r.wd->shedding_now());
}

TEST(supply_watchdog, hard_miss_streak_sheds_best_effort_with_hysteresis) {
    static_assert(k_shed_enter_windows == 2 && k_restore_windows == 4 &&
                  k_restore_backoff == 2);
    rig r;
    std::uint64_t hard_missed = 0;
    bool be_shed = false;
    std::uint64_t alarms_shed = 0;
    std::uint64_t alarms_restore = 0;
    r.wd->track_client(0, client_class::hard,
                       [&] { return hard_missed; });
    r.wd->track_client(15, client_class::best_effort, [] { return 0ull; },
                       [&](bool on) { be_shed = on; });
    r.wd->set_alarm_hook([&](watchdog_alarm a, cycle_t) {
        if (a == watchdog_alarm::overload_shed) ++alarms_shed;
        if (a == watchdog_alarm::overload_restore) ++alarms_restore;
    });

    // One hard miss per window: not shed after the first violating
    // check, shed after the second...
    windows(*r.wd, hard_missed, 1, 1, true);
    EXPECT_FALSE(r.wd->shedding_now());
    windows(*r.wd, hard_missed, 2, 2, true);
    EXPECT_TRUE(r.wd->shedding_now());
    // ...and NO oscillation while the violation persists.
    windows(*r.wd, hard_missed, 3, 10, true);
    EXPECT_TRUE(r.wd->shedding_now());
    EXPECT_TRUE(be_shed);
    EXPECT_EQ(r.wd->report().shed_events, 1u);
    EXPECT_EQ(alarms_shed, 1u);
    EXPECT_EQ(r.wd->report().deadline_alarms, 10u);
    EXPECT_EQ(r.wd->report().hard_misses, 10u);

    // Four clean windows satisfy the initial restore requirement.
    windows(*r.wd, hard_missed, 11, 13, false);
    EXPECT_TRUE(r.wd->shedding_now());
    windows(*r.wd, hard_missed, 14, 14, false);
    EXPECT_FALSE(r.wd->shedding_now());
    EXPECT_FALSE(be_shed);
    EXPECT_EQ(r.wd->report().restore_events, 1u);
    EXPECT_EQ(alarms_restore, 1u);

    // The overload returns: shed again after two violating windows...
    windows(*r.wd, hard_missed, 15, 16, true);
    EXPECT_TRUE(r.wd->shedding_now());
    EXPECT_EQ(r.wd->report().shed_events, 2u);

    // ...but restoration now needs 4 x backoff = 8 clean windows: still
    // shed after 7, restored after the 8th (oscillation is bounded).
    windows(*r.wd, hard_missed, 17, 23, false);
    EXPECT_TRUE(r.wd->shedding_now());
    windows(*r.wd, hard_missed, 24, 24, false);
    EXPECT_FALSE(r.wd->shedding_now());
    EXPECT_EQ(r.wd->report().restore_events, 2u);
    // One best-effort client shed over windows 3-14 and 17-24.
    EXPECT_EQ(r.wd->report().shed_client_cycles, 20 * w);
}

TEST(supply_watchdog, stalled_backlogged_port_raises_supply_shortfall) {
    rig r;
    // Client 0's leaf SE is stalled for the whole run while its port is
    // kept backlogged: delivered supply 0 < margin x sbf(window). No
    // client is tracked, so the overload episode it enters sheds nobody.
    r.fabric.se_at(1, 0).set_stall_faults(
        sim::fault_window({{sim::fault_kind::se_stall, 0, 0, 30'000}}));
    r.run(0, 20'000, /*flood=*/true);

    const auto& rep = r.wd->report();
    EXPECT_GT(rep.windows_checked, 0u);
    EXPECT_EQ(rep.violating_windows, rep.windows_checked);
    EXPECT_EQ(rep.supply_shortfall_alarms, rep.windows_checked);
    EXPECT_EQ(rep.deadline_alarms, 0u);
    EXPECT_EQ(rep.shed_events, 1u);
    EXPECT_TRUE(r.wd->shedding_now());
    EXPECT_EQ(rep.shed_client_cycles, 0u);
}

TEST(supply_watchdog, healthy_backlogged_port_conforms) {
    rig r;
    r.run(0, 20'000, /*flood=*/true);
    // A healthy fabric delivers at least sbf to a backlogged port (the
    // offline supply-conformance property, checked online): no alarms.
    EXPECT_GT(r.wd->report().windows_checked, 0u);
    EXPECT_EQ(r.wd->report().supply_shortfall_alarms, 0u);
    EXPECT_EQ(r.wd->report().shed_events, 0u);
}

TEST(supply_watchdog, alarm_mid_restore_rearms_the_clean_streak) {
    rig r;
    std::uint64_t missed = 0;
    r.wd->track_client(0, client_class::hard, [&] { return missed; });
    r.wd->track_client(15, client_class::best_effort, [] { return 0ull; });

    // Two violating windows shed.
    windows(*r.wd, missed, 1, 2, true);
    ASSERT_TRUE(r.wd->shedding_now());

    // Three clean windows, then a violating one mid-restore: the clean
    // streak re-arms, so three more clean windows must NOT restore.
    windows(*r.wd, missed, 3, 5, false);
    windows(*r.wd, missed, 6, 6, true);
    windows(*r.wd, missed, 7, 9, false);
    EXPECT_TRUE(r.wd->shedding_now()) << "restored on a re-armed streak";
    EXPECT_EQ(r.wd->report().restore_events, 0u);

    // The full requirement (4 consecutive clean windows) restores.
    windows(*r.wd, missed, 10, 10, false);
    EXPECT_FALSE(r.wd->shedding_now());
    EXPECT_EQ(r.wd->report().restore_events, 1u);
}

TEST(supply_watchdog, shedding_with_no_best_effort_clients_is_safe) {
    rig r;
    // Hard clients only: there is nothing to shed, but the alarm and
    // hysteresis machinery must neither divide by zero nor starve the
    // hard class.
    std::uint64_t missed = 0;
    bool hard_shed_called = false;
    r.wd->track_client(0, client_class::hard, [&] { return missed; },
                       [&](bool) { hard_shed_called = true; });
    r.wd->track_client(1, client_class::hard, [] { return 0ull; });

    windows(*r.wd, missed, 1, 5, true);
    // The overload episode is entered and alarmed...
    EXPECT_TRUE(r.wd->shedding_now());
    EXPECT_EQ(r.wd->report().shed_events, 1u);
    EXPECT_GT(r.wd->report().deadline_alarms, 0u);
    // ...but hard clients are never shed, even as the only population.
    EXPECT_FALSE(hard_shed_called);

    // Recovery restores cleanly with an empty shed set.
    windows(*r.wd, missed, 6, 9, false);
    EXPECT_FALSE(r.wd->shedding_now());
    EXPECT_EQ(r.wd->report().restore_events, 1u);
}

// Sustained overload under a stalled best-effort subtree: the watchdog
// sheds the best-effort clients (their issue streams throttle, their
// misses mount) while every hard real-time client keeps its contract and
// misses ZERO deadlines.
TEST(supply_watchdog, shedding_protects_hard_clients_under_overload) {
    constexpr std::uint32_t n = 16;
    constexpr cycle_t run_cycles = 40'000;

    // Admitted contracts are modest for everyone; the best-effort
    // clients (12-15, behind leaf SE(1, 3)) actually flood far beyond
    // their admitted demand, and their subtree is stalled on top.
    std::vector<analysis::task_set> rt(n, analysis::task_set{{200, 4}});
    auto selection = analysis::select_tree_interfaces(rt);
    ASSERT_TRUE(selection.feasible);

    bluescale_ic fabric(n);
    memory_controller mem;
    fabric.attach_memory(mem);
    fabric.configure(selection);
    fabric.se_at(1, 3).set_stall_faults(sim::fault_window(
        {{sim::fault_kind::se_stall, 0, 0, run_cycles}}));

    supply_watchdog wd(fabric, &selection);

    std::vector<std::unique_ptr<workload::traffic_generator>> clients;
    for (std::uint32_t c = 0; c < n; ++c) {
        const bool best_effort = c >= 12;
        workload::memory_task_set tasks{
            best_effort
                ? workload::memory_task{0, 50, 40, false}  // util 0.8
                : workload::memory_task{0, 200, 4, false}}; // util 0.02
        clients.push_back(std::make_unique<workload::traffic_generator>(
            c, std::move(tasks), fabric, 100 + c));
        auto* client = clients.back().get();
        wd.track_client(
            c,
            best_effort ? client_class::best_effort : client_class::hard,
            [client] { return client->stats().missed(); },
            [client](bool on) { client->set_shed(on); });
    }
    fabric.set_response_handler([&](mem_request&& r) {
        clients[r.client]->on_response(std::move(r));
    });

    simulator sim;
    for (auto& c : clients) sim.add(*c);
    sim.add(fabric);
    sim.add(mem);
    sim.add(wd); // last, as in harness::testbench
    sim.run(run_cycles);
    for (auto& c : clients) c->finalize(sim.now());

    const auto& rep = wd.report();
    EXPECT_GT(rep.supply_shortfall_alarms, 0u);
    EXPECT_GE(rep.shed_events, 1u);
    EXPECT_GT(rep.shed_client_cycles, 0u);

    std::uint64_t hard_missed = 0;
    std::uint64_t be_missed = 0;
    std::uint64_t shed_cycles = 0;
    for (std::uint32_t c = 0; c < n; ++c) {
        const auto& s = clients[c]->stats();
        if (c >= 12) {
            be_missed += s.missed();
            shed_cycles += s.shed_cycles();
        } else {
            hard_missed += s.missed();
        }
    }
    // Hard real-time clients ride through untouched; the best-effort
    // class absorbs the whole loss.
    EXPECT_EQ(hard_missed, 0u);
    EXPECT_GT(be_missed, 0u);
    EXPECT_GT(shed_cycles, 0u);
}

} // namespace
} // namespace bluescale::core
