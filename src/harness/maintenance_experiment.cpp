#include "harness/maintenance_experiment.hpp"

#include "mem/maintenance_engine.hpp"
#include "stats/summary.hpp"

namespace bluescale::harness {

sweep_cell maintenance_cell(const maintenance_exp_config& cfg) {
    // Always BlueScale: the toggle under study lives in its admission
    // analysis and watchdog, which the baselines lack.
    return {"maintenance/", [cfg](trial_record& rec) {
        const traffic_scenario& sc = cfg.scenario;
        // Maintenance storms ONLY: every other kind's weight is zeroed so
        // the trial's interference is exactly the unmodeled-maintenance
        // story.
        sim::fault_campaign_config fc = fabric_campaign(
            rec.seed(), sc.n_clients, sc.measure_cycles, cfg.storm_intensity);
        fc.se_stall_weight = 0.0;
        fc.link_drop_weight = 0.0;
        fc.dram_error_weight = 0.0;
        fc.backpressure_weight = 0.0;
        fc.maintenance_storm_weight = 1.0;
        fc.n_elements = 1;
        fc.min_duration = k_storm_min_duration;
        fc.max_duration = k_storm_max_duration;
        const sim::fault_campaign campaign(fc);

        testbench_options opts;
        opts.faults = campaign.empty() ? nullptr : &campaign;
        opts.watchdog = core::watchdog_config{};
        opts.selection.bandwidth_tolerance = k_maintenance_bandwidth_tolerance;
        if (cfg.maintenance_aware) {
            // The one toggle under study: provision (Pi, Theta) against
            // the maintenance-corrected sbf AND police supply with the
            // same model, so budgeted refresh/scrub/mitigation never
            // alarms.
            const auto model = to_maintenance_model(sc.memctrl);
            opts.selection.sched.maintenance = model;
            opts.watchdog->maintenance = model;
        }
        traffic_trial tt(rec, ic_kind::bluescale, sc, opts);
        testbench& tb = tt.tb();

        auto hard_ratio = rec.sample("hard_miss_ratio");
        auto be_ratio = rec.sample("best_effort_miss_ratio");
        auto p99 = rec.sample("p99_latency_cycles");
        auto feasible = rec.counter("feasible_trials");
        // Admission refused: the corrected analysis found no feasible
        // (Pi, Theta) provisioning, so nothing is admitted and there is
        // no admitted-system behavior to measure (simulating the
        // unconfigured fabric would pollute the miss statistics with a
        // system admission control would never have started).
        if (!tb.selection_feasible()) {
            hard_ratio.add(0.0);
            be_ratio.add(0.0);
            p99.add(0.0);
            return;
        }
        feasible.inc();

        tt.add_clients({});
        tt.track_clients(k_best_effort_clients);
        tb.run(sc.measure_cycles);

        rec.counter("injected_storms").inc(campaign.size());
        const class_misses misses = tt.finalize(k_best_effort_clients);
        stats::sample_set latency;
        for (std::uint32_t c = 0; c < tt.n_clients(); ++c) {
            for (double l : tt.client(c).stats().latency_cycles().samples()) {
                latency.add(l);
            }
        }
        rec.counter("hard_misses").inc(misses.hard);
        rec.counter("best_effort_misses").inc(misses.best_effort);
        hard_ratio.add(ratio(misses.hard, misses.hard_accounted));
        be_ratio.add(
            ratio(misses.best_effort, misses.best_effort_accounted));
        p99.add(latency.percentile(99.0));
        rec.adopt(tb, "mem/");
        rec.adopt(tb, "watchdog/");
        rec.capture(tb);
    }};
}

} // namespace bluescale::harness
