#include <gtest/gtest.h>

#include <vector>

#include "obs/trace.hpp"
#include "sim/component.hpp"
#include "sim/simulator.hpp"

namespace bluescale {
namespace {

class recorder : public component {
public:
    recorder() : component("recorder", /*latches=*/true) {}
    void tick(cycle_t now) override { ticks.push_back(now); }
    void commit() override { ++commits; }
    std::vector<cycle_t> ticks;
    int commits = 0;
};

TEST(simulator, run_advances_time) {
    simulator sim;
    EXPECT_EQ(sim.now(), 0u);
    sim.run(10);
    EXPECT_EQ(sim.now(), 10u);
}

TEST(simulator, components_tick_every_cycle_with_correct_time) {
    simulator sim;
    recorder r;
    sim.add(r);
    sim.run(5);
    ASSERT_EQ(r.ticks.size(), 5u);
    for (cycle_t i = 0; i < 5; ++i) EXPECT_EQ(r.ticks[i], i);
}

TEST(simulator, commit_called_once_per_cycle) {
    simulator sim;
    recorder r;
    sim.add(r);
    sim.run(7);
    EXPECT_EQ(r.commits, 7);
}

TEST(simulator, all_components_tick_before_any_commit) {
    // Verifies the two-phase contract: within one cycle, both components
    // observe each other's pre-commit state.
    class phase_checker : public component {
    public:
        phase_checker(int& tick_count, int& commit_count)
            : component("pc", /*latches=*/true), ticks_(tick_count),
              commits_(commit_count) {}
        void tick(cycle_t) override {
            EXPECT_EQ(commits_, 0) << "commit ran before all ticks";
            ++ticks_;
        }
        void commit() override {
            EXPECT_EQ(ticks_, 2) << "not all components ticked yet";
            ++commits_;
        }

    private:
        int& ticks_;
        int& commits_;
    };
    int ticks = 0, commits = 0;
    phase_checker a(ticks, commits), b(ticks, commits);
    simulator sim;
    sim.add(a);
    sim.add(b);
    sim.step();
    EXPECT_EQ(ticks, 2);
    EXPECT_EQ(commits, 2);
}

TEST(simulator, run_until_predicate_fires) {
    simulator sim;
    recorder r;
    sim.add(r);
    const bool fired =
        sim.run_until([&] { return r.ticks.size() >= 3; }, 100);
    EXPECT_TRUE(fired);
    EXPECT_EQ(sim.now(), 3u);
}

TEST(simulator, run_until_honors_budget) {
    simulator sim;
    const bool fired = sim.run_until([] { return false; }, 20);
    EXPECT_FALSE(fired);
    EXPECT_EQ(sim.now(), 20u);
}

TEST(simulator, run_until_checks_before_stepping) {
    simulator sim;
    const bool fired = sim.run_until([] { return true; }, 20);
    EXPECT_TRUE(fired);
    EXPECT_EQ(sim.now(), 0u);
}

TEST(simulator, run_until_evaluates_predicate_once_per_cycle) {
    // Lockstep contract: the predicate is checked exactly once per cycle
    // in the budget -- no double evaluation when the budget is exhausted.
    simulator sim(simulator::engine::lockstep);
    int evals = 0;
    const bool fired = sim.run_until(
        [&] {
            ++evals;
            return false;
        },
        20);
    EXPECT_FALSE(fired);
    EXPECT_EQ(evals, 20);
}

TEST(simulator, run_until_event_mode_checks_before_each_skip) {
    // Event contract: once per stepped cycle plus once before each idle
    // skip -- an empty simulation steps cycle 0, then skips to the end.
    simulator sim(simulator::engine::event);
    int evals = 0;
    const bool fired = sim.run_until(
        [&] {
            ++evals;
            return false;
        },
        20);
    EXPECT_FALSE(fired);
    EXPECT_EQ(sim.now(), 20u);
    EXPECT_EQ(evals, 2);
}

TEST(simulator, run_until_zero_budget_checks_once) {
    simulator sim;
    int evals = 0;
    const bool fired = sim.run_until(
        [&] {
            ++evals;
            return true;
        },
        0);
    EXPECT_TRUE(fired);
    EXPECT_EQ(evals, 1);
    EXPECT_EQ(sim.now(), 0u);
}

TEST(simulator, run_accumulates_across_calls) {
    simulator sim;
    sim.run(4);
    sim.run(6);
    EXPECT_EQ(sim.now(), 10u);
}

// --- event engine ------------------------------------------------------

class periodic_sleeper : public component {
public:
    periodic_sleeper() : component("periodic") {}
    void tick(cycle_t now) override { ticks.push_back(now); }
    [[nodiscard]] cycle_t next_event(cycle_t now) const override {
        return now + 10;
    }
    std::vector<cycle_t> ticks;
};

class quiescent : public component {
public:
    quiescent() : component("quiescent", /*latches=*/true) {}
    void tick(cycle_t now) override { ticks.push_back(now); }
    void commit() override { ++commits; }
    [[nodiscard]] cycle_t next_event(cycle_t) const override {
        return k_cycle_never;
    }
    std::vector<cycle_t> ticks;
    int commits = 0;
};

TEST(simulator, event_engine_skips_to_next_wakeup) {
    simulator sim(simulator::engine::event);
    periodic_sleeper p;
    sim.add(p);
    sim.run(35);
    EXPECT_EQ(sim.now(), 35u);
    ASSERT_EQ(p.ticks.size(), 4u); // cycles 0, 10, 20, 30
    EXPECT_EQ(p.ticks[1], 10u);
    EXPECT_EQ(p.ticks[3], 30u);
}

TEST(simulator, event_engine_skips_empty_simulation_to_horizon) {
    simulator sim(simulator::engine::event);
    sim.run(1'000'000);
    EXPECT_EQ(sim.now(), 1'000'000u);
}

TEST(simulator, event_engine_matches_lockstep_for_default_components) {
    // A component that never overrides next_event() ticks every cycle in
    // both engines -- the safe-by-default contract.
    simulator sim(simulator::engine::event);
    recorder r;
    sim.add(r);
    sim.run(5);
    ASSERT_EQ(r.ticks.size(), 5u);
    for (cycle_t i = 0; i < 5; ++i) EXPECT_EQ(r.ticks[i], i);
    EXPECT_EQ(r.commits, 5);
}

#if BLUESCALE_TRACE_ENABLED

TEST(simulator, trace_clock_after_idle_skip_matches_lockstep) {
    // An emit between run calls (a service accepting a request, say)
    // carries the trace clock the last run left: under both engines the
    // last cycle run, even when the event engine skipped it.
    for (const auto e :
         {simulator::engine::event, simulator::engine::lockstep}) {
        simulator sim(e);
        obs::trace_sink sink;
        sim.bind_trace(sink);
        quiescent q;
        sim.add(q);
        const obs::tracer svc = sink.register_component("svc");
        sim.run(40);
        svc.emit(obs::trace_event_kind::fault_inject, 1);
        EXPECT_FALSE(sim.run_until([] { return false; }, 25));
        svc.emit(obs::trace_event_kind::fault_inject, 2);
        const auto events = sink.export_all().events;
        ASSERT_EQ(events.size(), 2u);
        EXPECT_EQ(events[0].cycle, 39u);
        EXPECT_EQ(events[1].cycle, 64u);
    }
}

#endif // BLUESCALE_TRACE_ENABLED

TEST(simulator, wake_rearms_quiescent_component) {
    simulator sim(simulator::engine::event);
    quiescent q;
    sim.add(q);
    sim.run(5);
    ASSERT_EQ(q.ticks.size(), 1u); // only the initial cycle
    EXPECT_EQ(q.ticks[0], 0u);
    q.wake();
    sim.run(5);
    ASSERT_EQ(q.ticks.size(), 2u);
    EXPECT_EQ(q.ticks[1], 5u);
}

TEST(simulator, late_add_keeps_wake_times_and_arms_newcomer) {
    // Assembly can continue after stepping started (testbench::arm adds
    // the fabric last): components already scheduled keep their wake
    // times, and the newcomer ticks at the next step.
    simulator sim(simulator::engine::event);
    periodic_sleeper p;
    sim.add(p);
    sim.run(3);
    quiescent q;
    sim.add(q);
    sim.run(12);
    EXPECT_EQ(p.ticks, (std::vector<cycle_t>{0, 10}));
    EXPECT_EQ(q.ticks, (std::vector<cycle_t>{3}));
}

TEST(simulator, component_woken_mid_cycle_commits_on_that_edge) {
    // A quiescent receiver woken during another component's tick must
    // still latch (commit) on the same cycle edge, so state staged into
    // it by the waker becomes visible next cycle -- as in lockstep.
    class waker : public component {
    public:
        explicit waker(quiescent& rx) : component("waker"), rx_(rx) {}
        void tick(cycle_t now) override {
            if (now == 1) rx_.wake();
        }

    private:
        quiescent& rx_;
    };
    quiescent rx;
    waker tx(rx);
    simulator sim(simulator::engine::event);
    sim.add(rx); // registered first: already passed over when woken
    sim.add(tx);
    sim.run(2);
    EXPECT_EQ(rx.commits, 2); // cycle 0 (initial) + cycle 1 (woken)
    ASSERT_EQ(rx.ticks.size(), 1u);
    sim.run(1);
    ASSERT_EQ(rx.ticks.size(), 2u); // the wake scheduled a cycle-2 tick
    EXPECT_EQ(rx.ticks[1], 2u);
}

TEST(simulator, event_engine_commits_latching_components_while_asleep) {
    // A latching component commits on every stepped cycle even when its
    // own tick is slept over: a producer may stage work into its queues
    // without waking it (transition-only wakes), and that work must
    // latch on the push cycle's edge exactly as in lockstep.
    class sleeper : public quiescent {};
    sleeper rx;
    recorder driver; // default horizon: keeps every cycle stepped
    simulator sim(simulator::engine::event);
    sim.add(rx);
    sim.add(driver);
    sim.run(5);
    ASSERT_EQ(rx.ticks.size(), 1u); // quiescent after cycle 0
    EXPECT_EQ(rx.commits, 5);       // but every edge still latched
}

TEST(simulator, default_engine_override_is_honored) {
    simulator::set_default_engine(simulator::engine::lockstep);
    simulator locked;
    EXPECT_EQ(locked.mode(), simulator::engine::lockstep);
    simulator::set_default_engine(simulator::engine::event);
    simulator evented;
    EXPECT_EQ(evented.mode(), simulator::engine::event);
    simulator::clear_default_engine();
}

} // namespace
} // namespace bluescale
