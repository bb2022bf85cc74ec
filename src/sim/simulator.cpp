#include "sim/simulator.hpp"

#include <optional>

#include "obs/profile.hpp"

namespace bluescale {

namespace {

/// The process-wide default engine. Written only from
/// set_default_engine()/clear_default_engine() between runs; reads during
/// parallel trial sweeps see a stable value.
simulator::engine g_default_engine = simulator::engine::event;

} // namespace

simulator::engine simulator::default_engine() {
    return g_default_engine;
}

void simulator::set_default_engine(engine e) { g_default_engine = e; }

void simulator::clear_default_engine() { g_default_engine = engine::event; }

void simulator::enable_profiling(obs::registry& reg) {
    profiling_ = true;
    prof_reg_ = &reg;
    prof_cycles_ = reg.make_counter("profile/sim/cycles",
                                    obs::k_metric_profile);
    prof_wall_ns_ = reg.make_counter("profile/sim/wall_ns",
                                     obs::k_metric_profile);
    prof_tick_ns_.clear();
    sync_profile_handles();
}

void simulator::sync_profile_handles() {
    // Components may be added after enable_profiling (testbench::arm adds
    // the fabric last); late arrivals get their counters on first step.
    while (prof_tick_ns_.size() < components_.size()) {
        prof_tick_ns_.push_back(prof_reg_->make_counter(
            "profile/" + components_[prof_tick_ns_.size()]->name() +
                "/tick_ns",
            obs::k_metric_profile));
    }
}

void simulator::bind_new_components() {
    // Slots already bound keep their wake times; a late arrival carries
    // its private wake time (armed unless someone set it) into its slot.
    const std::size_t first = wakes_.size();
    wakes_.resize(components_.size());
    for (std::size_t i = first; i < components_.size(); ++i) {
        wakes_.schedule(i, components_[i]->wake_at());
        components_[i]->bind_wake_slot(wakes_, i);
    }
    committers_.clear();
    // One reservation per assembly change: this runs at add() time
    // (before stepping resumes), so the commit scan never grows storage
    // while the simulation is running.
    committers_.reserve(components_.size());
    for (component* c : components_) {
        if (c->latches()) committers_.push_back(c);
    }
    if (profiling_) sync_profile_handles();
}

void simulator::step() {
    if (profiling_) {
        step_cycle<true>();
    } else {
        step_cycle<false>();
    }
}

template <bool Profile>
void simulator::step_cycle() {
    if (trace_ != nullptr) trace_->set_now(now_);
    if (wakes_.size() != components_.size()) bind_new_components();
    std::optional<obs::stopwatch> step_watch;
    if constexpr (Profile) step_watch.emplace();
    const auto tick = [this](std::size_t i) {
        if constexpr (Profile) {
            const obs::stopwatch tick_watch;
            components_[i]->tick(now_);
            prof_tick_ns_[i].inc(tick_watch.ns());
        } else {
            components_[i]->tick(now_);
        }
    };
    if (engine_ == engine::lockstep) {
        // The tick-everything reference: no horizons, no schedule, and
        // every component commits.
        for (std::size_t i = 0; i < components_.size(); ++i) tick(i);
        for (component* c : components_) c->commit();
    } else {
        wakes_.walk(now_, [this, &tick](std::size_t i) {
            tick(i);
            // A self-wake during tick() is absorbed here by contract:
            // next_event() runs after tick and sees this-cycle state. A
            // wake from a LATER component's tick lands after this write
            // and sticks, as it must.
            wakes_.settle(i, now_, components_[i]->next_event(now_));
        });
        // Every latching component commits on every STEPPED cycle, even
        // ones that slept through the tick phase: a producer may push
        // into a sleeping consumer's queue without waking it
        // (transition-only wakes skip pushes onto existing work), and
        // those staged values must latch on this clock edge exactly as in
        // lockstep -- a consumer that wakes later must see everything
        // pushed before its wake cycle as visible. Cycles the engine
        // skips entirely stage nothing (no tick, no push), so eliding
        // their commits is behaviour-preserving; commit() on a latching
        // component with nothing staged is a no-op by the two-phase
        // contract, and non-latching components (latches() == false)
        // have no edge to run at all.
        for (component* c : committers_) c->commit();
    }
    if constexpr (Profile) {
        prof_wall_ns_.inc(step_watch->ns());
        prof_cycles_.inc();
    }
    ++now_;
}

void simulator::run(cycle_t cycles) {
    const cycle_t end = now_ + cycles;
    if (engine_ == engine::lockstep) {
        while (now_ < end) step();
        return;
    }
    while (now_ < end) {
        step();
        if (now_ >= end) break;
        // Idle skip: when no component is due before `due`, the cycles in
        // between are provably empty -- jump the clock over them.
        const cycle_t due = std::min(end, std::max(now_, next_due()));
        if (due > now_) skip_to(due);
    }
}

} // namespace bluescale
