#include "harness/testbench.hpp"

#include <algorithm>

#include "core/bluescale_ic.hpp"
#include "interconnect/axi_hyperconnect.hpp"
#include "interconnect/axi_icrt.hpp"
#include "interconnect/bluetree.hpp"
#include "interconnect/gsmtree.hpp"

namespace bluescale::harness {

namespace {

/// The interconnect of `kind`, configured per the paper's evaluation
/// setup; a BlueScale fabric runs `selection` when it is feasible (else
/// unconfigured: pure nested EDF, work-conserving).
std::unique_ptr<interconnect>
build_interconnect(ic_kind kind, const testbench_options& opts,
                   std::uint32_t unit_cycles,
                   const analysis::tree_selection& selection) {
    const std::uint32_t n = opts.n_clients;
    const std::vector<double>& utils = opts.client_utilizations;
    switch (kind) {
    case ic_kind::axi_icrt: {
        axi_icrt_config cfg;
        cfg.arb_latency = axi_icrt::default_arb_latency(n);
        auto ic = std::make_unique<axi_icrt>(n, cfg);
        // "Allocating memory bandwidth to a client based on its workload"
        // [11]: reserve each client's utilization plus headroom.
        for (std::uint32_t c = 0; c < utils.size(); ++c) {
            ic->set_client_share(c, std::min(1.0, utils[c] * 1.25));
        }
        return ic;
    }
    case ic_kind::bluetree:
    case ic_kind::bluetree_smooth: {
        bluetree_config cfg;
        cfg.alpha = opts.bluetree_alpha;
        if (kind == ic_kind::bluetree) {
            return std::make_unique<bluetree>(n, cfg);
        }
        cfg.queue_depth = 8;
        cfg.smooth_depth = 4;
        return std::make_unique<bluetree>(n, cfg, "bluetree_smooth");
    }
    case ic_kind::gsmtree_tdm:
    case ic_kind::gsmtree_fbsp: {
        gsmtree_config cfg;
        cfg.slot_cycles = unit_cycles;
        if (kind == ic_kind::gsmtree_tdm) {
            cfg.reservation = gsm_reservation::tdm;
            return std::make_unique<gsmtree>(n, cfg, "gsmtree_tdm");
        }
        cfg.reservation = gsm_reservation::fbsp;
        cfg.client_weights = utils;
        if (cfg.client_weights.empty()) cfg.client_weights.assign(n, 1.0);
        return std::make_unique<gsmtree>(n, cfg, "gsmtree_fbsp");
    }
    case ic_kind::axi_hyperconnect:
        return std::make_unique<axi_hyperconnect>(n,
                                                  axi_hyperconnect_config{});
    case ic_kind::bluescale: {
        core::bluescale_config cfg;
        if (opts.bluescale_se) cfg.se = *opts.bluescale_se;
        cfg.se.unit_cycles = unit_cycles;
        auto ic = std::make_unique<core::bluescale_ic>(n, cfg);
        if (selection.feasible) ic->configure(selection);
        return ic;
    }
    }
    return nullptr;
}

} // namespace

testbench::testbench(ic_kind kind, const testbench_options& opts)
    : kind_(kind),
      unit_cycles_(opts.memctrl.initiation_interval),
      mem_(opts.memctrl),
      sinks_(opts.n_clients) {
    if (kind == ic_kind::bluescale && opts.rt_sets != nullptr) {
        selection_ =
            analysis::select_tree_interfaces(*opts.rt_sets, opts.selection);
    }
    ic_ = build_interconnect(kind, opts, unit_cycles_, selection_);
    ic_->attach_memory(mem_);
    ic_->set_response_handler([this](mem_request&& r) {
        sinks_[r.client](std::move(r));
    });

    if (opts.faults != nullptr) {
        ic_->inject_campaign(*opts.faults);
        mem_.inject_campaign(*opts.faults);
    }
    mem_.bind_observability(reg_, trace_.register_component("mem"));
    sim_.bind_trace(trace_);
    if (auto* bs = dynamic_cast<core::bluescale_ic*>(ic_.get())) {
        bs->bind_observability(reg_, trace_);
        // Under the lockstep fallback the fabric's internal SE walk is
        // forced to tick everything too, so --lockstep is a true
        // end-to-end tick-every-cycle reference.
        if (sim_.mode() == simulator::engine::lockstep) {
            bs->set_selective_ticking(false);
        }
        // Only the BlueScale fabric has elements to supervise; baselines
        // run the same campaign without graceful degradation.
        if (opts.health) {
            monitor_ = std::make_unique<core::health_monitor>(*bs);
            monitor_->bind_observability(
                reg_, trace_.register_component("health"));
        }
        if (opts.reconfig.has_value() && opts.rt_sets != nullptr) {
            reconfig_ = std::make_unique<core::reconfig_manager>(
                *bs, selection_, *opts.rt_sets, *opts.reconfig);
            reconfig_->bind_observability(
                reg_, trace_.register_component("reconfig"));
        }
        if (opts.watchdog.has_value()) {
            // The watchdog polices whatever selection is live: the
            // manager's committed copy when runtime reconfiguration is
            // on (updated in place at commits), else the static one.
            const analysis::tree_selection* live =
                reconfig_ ? &reconfig_->committed() : &selection_;
            watchdog_ = std::make_unique<core::supply_watchdog>(
                *bs, live, *opts.watchdog);
            watchdog_->bind_observability(
                reg_, trace_.register_component("watchdog"));
            if (reconfig_) {
                watchdog_->set_donate_hook(
                    [this](std::uint32_t client, bool shed) {
                        if (shed) {
                            reconfig_->donate_client_budget(client);
                        } else {
                            reconfig_->restore_client_budget(client);
                        }
                    });
            }
        }
    }
}

void testbench::add_client(client_id_t id, component& c,
                           std::function<void(mem_request&&)> sink) {
    sinks_.at(id) = std::move(sink);
    sim_.add(c);
}

void testbench::arm() {
    if (armed_) return;
    sim_.add(*ic_);
    sim_.add(mem_);
    // The monitor ticks last so each check window sees the cycle's final
    // stall counters; the manager after it so admission-time hazard
    // checks observe the freshest degraded/stall state; the watchdog
    // last of all so its windows close on the cycle's final counters.
    if (monitor_) sim_.add(*monitor_);
    if (reconfig_) sim_.add(*reconfig_);
    if (watchdog_) sim_.add(*watchdog_);
    armed_ = true;
}

void testbench::run(cycle_t cycles) {
    arm();
    sim_.run(cycles);
}

bool testbench::run_until(const std::function<bool()>& done,
                          cycle_t max_cycles) {
    arm();
    return sim_.run_until(done, max_cycles);
}

} // namespace bluescale::harness
