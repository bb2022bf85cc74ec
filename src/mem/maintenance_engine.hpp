// Deterministic DRAM maintenance scheduler (ROADMAP item 3).
//
// Real DRAM periodically steals service for device upkeep. This engine
// models the three mechanisms that matter for real-time guarantees, all
// seed-free and fully determined by configuration:
//
//  * per-bank refresh -- DSARP-style staggered t_refi/t_rfc windows: bank
//    b refreshes at phase offset (b+1)*t_refi/k_dram_banks and every t_refi
//    after, so at most one bank is unavailable at a time instead of the
//    whole device (replaces the old all-banks-close controller stub);
//  * background ECC scrubbing -- a round-robin sweep that takes one bank
//    offline for scrub_duration every scrub_interval cycles;
//  * RowHammer mitigation -- Graphene-style: a per-bank activation
//    counter triggers a neighbor-row refresh (bank offline for
//    hammer_mitigation_cycles) every hammer_threshold activations.
//
// The engine is owned by the memory controller and driven from its tick:
// advance(now) applies every maintenance window start in (prev, now] in
// closed form, so the event engine can sleep across windows and catch up
// bit-identically to lockstep -- provided the controller's next_event
// horizon includes next_boundary(now), which keeps the observability
// counters current at every boundary even while the controller is idle.
//
// A maintenance *storm* (sim::fault_kind::maintenance_storm) injects
// excess scrubbing/mitigation: every bank is blocked for the window.
// Storms are the *unmodeled* interference the supply watchdog must catch;
// the periodic mechanisms above are *modeled* and exported to analysis
// via to_maintenance_model().
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/maintenance.hpp"
#include "mem/dram_model.hpp"
#include "obs/registry.hpp"
#include "sim/fault.hpp"
#include "sim/types.hpp"

namespace bluescale {

struct memctrl_config; // for to_maintenance_model (defined below)

/// Scrub/RowHammer knobs (refresh comes from dram_timing::t_refi/t_rfc).
/// Zero interval/threshold disables the mechanism -- the default, so
/// existing experiments opt in.
struct maintenance_config {
    /// Cycles between scrub bursts; each burst takes one bank (round
    /// robin) offline for scrub_duration cycles.
    std::uint64_t scrub_interval = 0;
    std::uint32_t scrub_duration = 0;
    /// Activations of one bank before a mitigation fires (0 = off).
    std::uint64_t hammer_threshold = 0;
    /// Bank-offline time per mitigation (neighbor-row refresh).
    std::uint32_t hammer_mitigation_cycles = 0;
};

class maintenance_engine {
public:
    maintenance_engine(dram_model& dram, maintenance_config cfg);

    /// Metrics bind_observability registers (own_'s capacity; the
    /// controller's own_ holds them as well once it binds the engine).
    static constexpr std::size_t k_metric_count = 5;

    /// Re-homes the maintenance counters into `reg` under "mem/...".
    void bind_observability(obs::metric_store& reg);

    /// Applies every maintenance window starting in (previous, now].
    /// Closed-form catch-up: repeated row-closes collapse, blocked-until
    /// horizons take the max over processed windows, and counters advance
    /// once per window, exactly as if every cycle had been ticked. Call
    /// once per controller tick, before any scheduling decision; `now`
    /// must never decrease between calls.
    void advance(cycle_t now);

    /// Records a bank activation at service start (RowHammer bookkeeping)
    /// with the access occupying its bank until `busy_until`. When the
    /// per-bank counter crosses the threshold, the mitigation queues
    /// right behind the triggering access: the bank stays blocked for
    /// hammer_mitigation_cycles after busy_until and its row closes.
    void on_activation(std::uint32_t bank, cycle_t busy_until);

    /// True while maintenance has the bank offline (refresh/scrub window,
    /// pending mitigation, or an active maintenance storm).
    [[nodiscard]] bool bank_blocked(std::uint32_t bank, cycle_t now) const;

    /// Event-engine horizon: the next maintenance window start (refresh,
    /// scrub, or storm), valid immediately after advance(now). Per-cycle
    /// inside a storm window (storm cycles are counted per cycle).
    [[nodiscard]] cycle_t next_boundary(cycle_t now) const;

    /// Consumes the maintenance_storm slice of a fault campaign.
    void inject_storms(std::vector<sim::fault_event> events);

    [[nodiscard]] const maintenance_config& config() const { return cfg_; }
    [[nodiscard]] std::uint64_t refreshes() const { return refreshes_.value(); }
    [[nodiscard]] std::uint64_t scrubs() const { return scrubs_.value(); }
    [[nodiscard]] std::uint64_t hammer_mitigations() const {
        return hammer_mitigations_.value();
    }
    /// Bank-cycles stolen by modeled maintenance (refresh + scrub +
    /// mitigation windows, at nominal duration).
    [[nodiscard]] std::uint64_t stolen_cycles() const {
        return stolen_cycles_.value();
    }
    /// Cycles inside injected maintenance-storm windows (all banks).
    [[nodiscard]] std::uint64_t storm_cycles() const {
        return storm_cycles_.value();
    }

private:
    dram_model& dram_;
    maintenance_config cfg_;
    /// Next refresh window start per bank (staggered phases).
    std::vector<cycle_t> next_refresh_;
    /// Exclusive end of each bank's current maintenance occupancy.
    std::vector<cycle_t> blocked_until_;
    /// RowHammer activation counters (reset on mitigation).
    std::vector<std::uint64_t> activations_;
    cycle_t next_scrub_ = 0;
    std::uint32_t scrub_bank_ = 0;
    sim::fault_window storms_;
    bool storm_active_ = false;
    /// Unnamed storage while unbound (bind_observability re-homes the
    /// handles).
    obs::value_block own_{k_metric_count};
    obs::counter refreshes_;
    obs::counter scrubs_;
    obs::counter hammer_mitigations_;
    obs::counter stolen_cycles_;
    obs::counter storm_cycles_;
};

/// Projects the configured maintenance mechanisms into the analysis-side
/// interference model, in analysis time units (initiation_interval cycles
/// each). Single-worst-bank abstraction: a client's accesses may all
/// target the bank under maintenance, so each mechanism is charged at its
/// per-bank rate -- refresh every t_refi, scrub every
/// scrub_interval * k_dram_banks (round robin), one mitigation per
/// hammer_threshold activations (at most one activation per time unit).
/// Conversions round conservatively (periods down, costs up).
[[nodiscard]] analysis::maintenance_model
to_maintenance_model(const memctrl_config& cfg);

} // namespace bluescale
