// Hybrid event-driven / cycle-stepped simulation engine.
//
// The default engine skips dead time: after every tick the simulator
// caches each component's next_event() horizon in a sim::wake_set, walks
// only the components whose horizon is due, and -- when every component
// is idle -- advances the clock straight to the earliest wakeup (the
// wake_set's root) instead of stepping through empty cycles. Producers
// re-arm sleeping consumers through sim::wake_hook (queue pushes,
// supervisor reprogramming), so no work is ever missed.
//
// Constructing with engine::lockstep (the bench drivers' --lockstep
// flag makes it the default engine) falls back to the classic
// cycle-stepped loop that ticks and commits every component every
// cycle. Both engines produce bit-identical simulations: the
// determinism suite diffs their exports.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/component.hpp"
#include "sim/types.hpp"
#include "sim/wake_set.hpp"

namespace bluescale {

/// Drives a set of components with a shared clock. Components are owned by
/// the caller (typically a system model that also wires them together); the
/// simulator only sequences them.
class simulator {
public:
    enum class engine : std::uint8_t {
        event,   ///< skip-to-next-event scheduling (default)
        lockstep ///< tick + commit every component every cycle
    };

    /// The engine new simulators start with: engine::event unless
    /// set_default_engine() overrode it.
    [[nodiscard]] static engine default_engine();
    /// Process-wide override (--lockstep, and tests that compare the two
    /// engines).
    static void set_default_engine(engine e);
    /// Drops the override, restoring engine::event.
    static void clear_default_engine();

    simulator() : engine_(default_engine()) {}
    explicit simulator(engine e) : engine_(e) {}
    /// Added components hold the address of wakes_, so a simulator stays
    /// where it was built.
    simulator(const simulator&) = delete;
    simulator& operator=(const simulator&) = delete;

    [[nodiscard]] engine mode() const { return engine_; }

    // Assembly-time registration; the hot-path marking is a name collision
    // (obs counter `add()` handle increments inside tick bodies resolve
    // here by name).
    // detlint:allow(hotpath-alloc): assembly-time registration
    void add(component& c) { components_.push_back(&c); }

    [[nodiscard]] cycle_t now() const { return now_; }

    /// Keeps `sink`'s trace clock in lockstep with the simulation: every
    /// step publishes the current cycle before components tick, so emit
    /// sites without a `now` argument in scope stamp the right cycle.
    /// Between steps the clock reads the last cycle run, skipped or not,
    /// so an emit between run calls is stamped alike under both engines.
    void bind_trace(obs::trace_sink& sink) { trace_ = &sink; }

    /// Opt-in simulator profiling: registers profile-flagged wall-clock
    /// metrics ("profile/sim/cycles", "profile/sim/wall_ns", and
    /// "profile/<component>/tick_ns" per added component) into `reg` and
    /// starts timing every step. Costs two clock reads per ticked
    /// component -- leave off outside profiling runs. Under the event
    /// engine "profile/sim/cycles" counts stepped (not skipped) cycles.
    void enable_profiling(obs::registry& reg);

    /// Runs for `cycles` additional cycles.
    void run(cycle_t cycles);

    /// Runs until `done()` returns true or `max_cycles` elapse. Returns
    /// true if the predicate fired, with now() at the firing cycle.
    ///
    /// Contract: the predicate must be a pure function of component /
    /// system state, not of now() -- the event engine evaluates it only
    /// when state can have changed (once per stepped cycle, plus once
    /// before each idle skip), which is observationally equivalent for
    /// state predicates and identical to lockstep's once-per-cycle
    /// cadence there. Time limits belong in `max_cycles`. With a zero
    /// budget the predicate is evaluated exactly once and no cycle runs.
    template <typename Pred>
    bool run_until(Pred&& done, cycle_t max_cycles) {
        const cycle_t end = now_ + max_cycles;
        if (now_ >= end) return done(); // zero budget: evaluate, don't step
        // `checked` records that the predicate was already evaluated for
        // the current now_ (just before an idle skip, over state no tick
        // has touched since), so it is not re-evaluated on loop entry.
        bool checked = false;
        while (now_ < end) {
            if (!checked && done()) return true;
            checked = false;
            step();
            if (engine_ == engine::event && now_ < end) {
                const cycle_t due = std::min(end, std::max(now_, next_due()));
                if (due > now_) {
                    // All components idle until `due`: state is frozen, so
                    // one evaluation covers every cycle in [now_, due).
                    if (done()) return true;
                    skip_to(due);
                    checked = true;
                }
            }
        }
        // The predicate was already evaluated for every reachable state in
        // the budget; exhausting it means it never fired.
        return false;
    }

    /// Advances exactly one cycle (ticking only due components in event
    /// mode, everything in lockstep).
    void step();

private:
    void sync_profile_handles();
    /// The event engine's idle skip: jumps the clock to `due` (> now_)
    /// and leaves the trace clock on due - 1, the last cycle lockstep
    /// would have stepped.
    void skip_to(cycle_t due) {
        now_ = due;
        if (trace_ != nullptr) trace_->set_now(due - 1);
    }
    /// Gives components added since the last step their wake slots and
    /// refreshes committers_ (assembly-time; runs before the first step
    /// after add()).
    void bind_new_components();
    /// One step(), with per-tick and per-step stopwatches when `Profile`.
    template <bool Profile>
    void step_cycle();

    /// Earliest wakeup across all components (k_cycle_never when
    /// everything is quiescent): the wake_set's root, always current.
    [[nodiscard]] cycle_t next_due() const { return wakes_.next_due(); }

    engine engine_;
    std::vector<component*> components_;
    /// The event engine's schedule, one slot per component (parallel to
    /// components_; each component's wake() arms its slot). A step walks
    /// only the due slots.
    sim::wake_set wakes_;
    /// Components whose commit() is a real clock edge (latches() == true);
    /// the event engine's commit scan calls only these -- the rest are
    /// no-ops by declaration, so skipping them is behaviour-preserving.
    std::vector<component*> committers_;
    cycle_t now_ = 0;
    obs::trace_sink* trace_ = nullptr;
    bool profiling_ = false;
    obs::registry* prof_reg_ = nullptr;
    obs::counter prof_cycles_;
    obs::counter prof_wall_ns_;
    std::vector<obs::counter> prof_tick_ns_; ///< parallel to components_
};

} // namespace bluescale
