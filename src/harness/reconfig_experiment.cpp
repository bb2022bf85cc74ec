#include "harness/reconfig_experiment.hpp"

#include <map>
#include <string>
#include <utility>

namespace bluescale::harness {

sweep_cell reconfig_cell(ic_kind kind, const reconfig_exp_config& cfg) {
    const auto trial = [kind, cfg](trial_record& rec) {
        const traffic_scenario& sc = cfg.scenario;
        const sim::fault_campaign campaign(
            fabric_campaign(rec.seed(), sc.n_clients, sc.measure_cycles,
                            cfg.fault_intensity));

        // The manager and watchdog are BlueScale-only (the testbench
        // builds neither for a baseline).
        testbench_options opts;
        opts.faults = campaign.empty() ? nullptr : &campaign;
        opts.health = true;
        opts.reconfig = core::reconfig_config{};
        opts.watchdog = core::watchdog_config{};
        traffic_trial tt(rec, kind, sc, opts);
        tt.add_clients(k_recovering_client);
        tt.track_clients(k_best_effort_clients);
        testbench& tb = tt.tb();
        rec.counter("feasible_trials").inc(tb.selection_feasible());

        // Transition-window accounting and live task-set swap at commit.
        auto transition_misses = rec.counter("transition_misses");
        std::map<std::uint64_t, workload::memory_task_set> staged_swaps;
        std::map<std::uint64_t, std::uint64_t> missed_at_submit;
        if (auto* mgr = tb.reconfig()) {
            mgr->set_resolve_hook([&](const core::admission_record& r,
                                      const analysis::task_set&) {
                auto base = missed_at_submit.find(r.id);
                if (base != missed_at_submit.end()) {
                    transition_misses.inc(tt.missed() - base->second);
                    missed_at_submit.erase(base);
                }
                auto it = staged_swaps.find(r.id);
                if (it == staged_swaps.end()) return;
                if (r.outcome == core::admission_outcome::committed) {
                    tt.client(r.client).reconfigure_tasks(
                        std::move(it->second), r.resolved_at);
                }
                staged_swaps.erase(it);
            });
        }

        // Run in segments up to each scheduled request; the manager (when
        // present) admits, stages and commits inside the simulation, so
        // the swap lands at the modeled commit instant, not here.
        auto unchecked = rec.counter("applied_unchecked");
        sim::reconfig_schedule_config schedule;
        schedule.warmup = k_reconfig_warmup;
        schedule.events_per_kcycle = cfg.events_per_kcycle;
        tt.run_schedule(
            schedule, sc.measure_cycles, sc.taskset,
            [&](const sim::reconfig_event& ev,
                workload::memory_task_set tasks) {
                if (auto* mgr = tb.reconfig()) {
                    const std::uint64_t id = mgr->submit(
                        ev.client, workload::to_rt_tasks(tasks));
                    staged_swaps.emplace(id, std::move(tasks));
                    missed_at_submit.emplace(id, tt.missed());
                } else {
                    // Baseline: no admission control -- the change lands
                    // immediately and unconditionally.
                    tt.client(ev.client).reconfigure_tasks(std::move(tasks),
                                                           tb.now());
                    unchecked.inc();
                }
            });

        const class_misses misses = tt.finalize(k_best_effort_clients);
        rec.counter("hard_misses").inc(misses.hard);
        rec.counter("best_effort_misses").inc(misses.best_effort);
        rec.sample("miss_ratio").add(misses.ratio());

        // Per-outcome counts and latencies off the resolved records.
        auto latency = rec.sample("latency_cycles");
        auto infeasible = rec.counter("rejected_infeasible");
        auto overutilized = rec.counter("rejected_overutilized");
        auto hazard = rec.counter("rejected_path_hazard");
        if (const auto* mgr = tb.reconfig()) {
            for (const auto& r : mgr->records()) {
                switch (r.outcome) {
                case core::admission_outcome::rejected_infeasible:
                    infeasible.inc();
                    break;
                case core::admission_outcome::rejected_overutilized:
                    overutilized.inc();
                    break;
                case core::admission_outcome::rejected_path_hazard:
                    hazard.inc();
                    break;
                case core::admission_outcome::committed:
                case core::admission_outcome::rolled_back:
                    latency.add(static_cast<double>(r.latency_cycles));
                    break;
                default: break;
                }
            }
        }
        for (const char* component : {"client.", "reconfig/", "watchdog/"}) {
            rec.adopt(tb, component);
        }
        rec.capture(tb);
    };
    return {"reconfig_exp/", trial, [](sweep_result& r) {
                const auto count = [&r](const char* name) {
                    return r.totals.get(std::string("reconfig_exp/") + name)
                        .count;
                };
                const auto submitted = count("reconfig/submitted");
                set_real(r.totals, "reconfig_exp/admission_ratio",
                         ratio(count("reconfig/admitted"), submitted));
                set_real(r.totals, "reconfig_exp/requests",
                         static_cast<double>(submitted +
                                             count("applied_unchecked")));
            }};
}

} // namespace bluescale::harness
