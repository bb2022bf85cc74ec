#include "mem/maintenance_engine.hpp"

#include <algorithm>

#include "mem/memory_controller.hpp"

namespace bluescale {

maintenance_engine::maintenance_engine(dram_model& dram,
                                       maintenance_config cfg)
    : dram_(dram), cfg_(cfg),
      next_refresh_(k_dram_banks, k_cycle_never),
      blocked_until_(k_dram_banks, 0), activations_(k_dram_banks, 0),
      next_scrub_(cfg.scrub_interval > 0 && cfg.scrub_duration > 0
                      ? cfg.scrub_interval
                      : k_cycle_never) {
    bind_observability(own_);
    const dram_timing& t = dram_.timing();
    for (std::uint32_t b = 0; b < k_dram_banks; ++b) {
        // DSARP stagger: bank b's first window at (b+1)*t_refi/banks,
        // so windows spread evenly and bank n-1 lands on the classic
        // all-banks cadence.
        next_refresh_[b] =
            t.t_refi > 0 && t.t_rfc > 0
                ? (static_cast<cycle_t>(t.t_refi) * (b + 1)) / k_dram_banks
                : k_cycle_never;
    }
}

void maintenance_engine::bind_observability(obs::metric_store& reg) {
    refreshes_ = reg.make_counter("mem/refreshes");
    scrubs_ = reg.make_counter("mem/scrubs");
    hammer_mitigations_ = reg.make_counter("mem/hammer_mitigations");
    stolen_cycles_ = reg.make_counter("mem/maintenance_stolen_cycles");
    storm_cycles_ = reg.make_counter("mem/maintenance_storm_cycles");
}

void maintenance_engine::advance(cycle_t now) {
    const dram_timing& t = dram_.timing();
    for (std::uint32_t b = 0; b < k_dram_banks; ++b) {
        while (next_refresh_[b] <= now) {
            blocked_until_[b] =
                std::max<cycle_t>(blocked_until_[b], next_refresh_[b] + t.t_rfc);
            dram_.close_row(b);
            refreshes_.inc();
            stolen_cycles_.inc(t.t_rfc);
            next_refresh_[b] += t.t_refi;
        }
    }
    while (next_scrub_ <= now) {
        blocked_until_[scrub_bank_] = std::max<cycle_t>(
            blocked_until_[scrub_bank_], next_scrub_ + cfg_.scrub_duration);
        dram_.close_row(scrub_bank_);
        scrubs_.inc();
        stolen_cycles_.inc(cfg_.scrub_duration);
        scrub_bank_ = (scrub_bank_ + 1) % k_dram_banks;
        next_scrub_ += cfg_.scrub_interval;
    }
    const bool storm = storms_.active(now);
    if (storm && !storm_active_) {
        // Storm entry: the excess scrub/mitigation burst evicts every
        // open row, exactly like the modeled mechanisms do per bank.
        dram_.close_all_rows();
    }
    storm_active_ = storm;
    if (storm_active_) storm_cycles_.inc();
}

void maintenance_engine::on_activation(std::uint32_t bank,
                                       cycle_t busy_until) {
    if (cfg_.hammer_threshold == 0 || cfg_.hammer_mitigation_cycles == 0) {
        return;
    }
    if (++activations_[bank] < cfg_.hammer_threshold) return;
    activations_[bank] = 0;
    // The mitigation issues right behind the triggering access: the bank
    // finishes the access, then stays offline for the neighbor-row
    // refresh, which also evicts the aggressor row.
    blocked_until_[bank] =
        std::max<cycle_t>(blocked_until_[bank], busy_until) +
        cfg_.hammer_mitigation_cycles;
    dram_.close_row(bank);
    hammer_mitigations_.inc();
    stolen_cycles_.inc(cfg_.hammer_mitigation_cycles);
}

bool maintenance_engine::bank_blocked(std::uint32_t bank, cycle_t now) const {
    return storm_active_ || now < blocked_until_[bank];
}

cycle_t maintenance_engine::next_boundary(cycle_t now) const {
    cycle_t due =
        storms_.empty() ? k_cycle_never : storms_.wake_horizon(now);
    for (const cycle_t r : next_refresh_) due = std::min(due, r);
    due = std::min(due, next_scrub_);
    // next_boundary() IS horizon API -- it feeds
    // memory_controller::next_event(); the clamp keeps the boundary
    // strictly in the future.
    return std::max(due, now + 1); // detlint:allow(cycle-step): horizon clamp
}

void maintenance_engine::inject_storms(std::vector<sim::fault_event> events) {
    storms_ = sim::fault_window(std::move(events));
}

namespace {

/// One cycle-domain mechanism -> analysis units, rounding conservatively:
/// the period floors (interference arrives at least this often) and the
/// cost ceils (each instance steals at least a whole unit boundary).
analysis::maintenance_op make_op(std::uint64_t period_cycles,
                                 std::uint64_t cost_cycles,
                                 std::uint64_t unit_cycles) {
    analysis::maintenance_op op;
    op.period = std::max<std::uint64_t>(1, period_cycles / unit_cycles);
    op.cost = (cost_cycles + unit_cycles - 1) / unit_cycles;
    return op;
}

} // namespace

analysis::maintenance_model to_maintenance_model(const memctrl_config& cfg) {
    analysis::maintenance_model m;
    const std::uint64_t unit = std::max<std::uint32_t>(1, cfg.initiation_interval);
    const dram_timing& t = cfg.timing;
    if (t.t_refi > 0 && t.t_rfc > 0) {
        m.ops.push_back(make_op(t.t_refi, t.t_rfc, unit));
    }
    const maintenance_config& mc = cfg.maintenance;
    if (mc.scrub_interval > 0 && mc.scrub_duration > 0) {
        m.ops.push_back(make_op(mc.scrub_interval * k_dram_banks,
                                mc.scrub_duration, unit));
    }
    if (mc.hammer_threshold > 0 && mc.hammer_mitigation_cycles > 0) {
        // Activations are bounded by one transaction start per unit, so
        // the threshold *is* the minimum inter-arrival in units.
        analysis::maintenance_op op;
        op.period = mc.hammer_threshold;
        op.cost = (mc.hammer_mitigation_cycles + unit - 1) / unit;
        m.ops.push_back(op);
    }
    return m;
}

} // namespace bluescale
