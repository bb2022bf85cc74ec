#include "harness/analysis_service_experiment.hpp"

#include <algorithm>
#include <map>
#include <utility>

namespace bluescale::harness {

namespace {

/// Requests start after the initial selection settles.
constexpr cycle_t k_warmup = 2'000;
/// Budget for draining the service + manager after the storm ends.
constexpr cycle_t k_drain_cycles = 50'000;

} // namespace

sweep_cell svc_storm_cell(const svc_storm_config& cfg) {
    const auto trial = [cfg](trial_record& rec) {
        const traffic_scenario& sc = cfg.scenario;
        // Fabric faults (path hazards -> retries), a separate substream
        // from the worker faults so intensities can be tuned
        // independently.
        const sim::fault_campaign path_faults(
            fabric_campaign(rec.seed(), sc.n_clients, sc.measure_cycles,
                            cfg.path_fault_intensity));

        testbench_options opts;
        opts.faults = path_faults.empty() ? nullptr : &path_faults;
        opts.reconfig = core::reconfig_config{};
        traffic_trial tt(rec, ic_kind::bluescale, sc, opts);
        testbench& tb = tt.tb();

        // The service under test, ticking after the manager (later add
        // order), so it observes manager resolutions the same cycle.
        svc::service_config scfg = cfg.service;
        scfg.seed = substream(rec.seed(), 0x5E17ull);
        svc::analysis_service service(*tb.reconfig(), scfg);
        service.bind_observability(
            tb.metrics(), tb.trace().register_component("analysis_service"));
        tb.sim().add(service);

        // Worker crash/stall campaign (zero weights for every fabric
        // kind, so these two substreams never interact).
        if (cfg.worker_fault_intensity > 0.0) {
            sim::fault_campaign_config wfc;
            wfc.seed = substream(rec.seed(), 0xFA17Cull);
            wfc.horizon = sc.measure_cycles;
            wfc.events_per_kcycle = cfg.worker_fault_intensity;
            wfc.se_stall_weight = 0.0;
            wfc.link_drop_weight = 0.0;
            wfc.dram_error_weight = 0.0;
            wfc.backpressure_weight = 0.0;
            wfc.worker_crash_weight = 1.0;
            wfc.worker_stall_weight = 1.0;
            wfc.n_workers = svc::k_workers;
            service.install_faults(sim::fault_campaign(wfc));
        }

        tt.add_clients(k_recovering_client);
        rec.counter("feasible_trials").inc(tb.selection_feasible());

        // Live task-set swap at the committed notification; the service's
        // completion hook keys it by service request id.
        std::map<std::uint64_t, workload::memory_task_set> staged_swaps;
        service.set_complete_hook([&](const svc::request_record& r,
                                      const analysis::task_set&) {
            auto it = staged_swaps.find(r.id);
            if (it == staged_swaps.end()) return;
            if (r.outcome == svc::request_outcome::committed) {
                tt.client(r.client).reconfigure_tasks(std::move(it->second),
                                                      r.finished_at);
            }
            staged_swaps.erase(it);
        });

        // The storm: run to each scheduled event and submit it to the
        // SERVICE (not the manager directly) -- queue bound, deadlines,
        // retries, breaker and cache all sit in the path.
        sim::reconfig_schedule_config storm;
        storm.warmup = k_warmup;
        storm.events_per_kcycle = cfg.requests_per_kcycle;
        tt.run_schedule(storm, sc.measure_cycles, sc.taskset,
                        [&](const sim::reconfig_event& ev,
                            workload::memory_task_set tasks) {
                            const std::uint64_t id = service.submit(
                                ev.client, workload::to_rt_tasks(tasks),
                                tb.now());
                            staged_swaps.emplace(id, std::move(tasks));
                        });

        // Drain: every request must reach a terminal outcome.
        const auto drained = [&] {
            return service.idle() && tb.reconfig()->backlog() == 0;
        };
        rec.counter("drained_trials")
            .inc(tb.run_until(drained, k_drain_cycles));

        const class_misses misses = tt.finalize(k_best_effort_clients);
        rec.counter("hard_misses").inc(misses.hard);
        rec.counter("best_effort_misses").inc(misses.best_effort);
        rec.sample("miss_ratio").add(misses.ratio());

        // Conservation: submitted == shed + expired + rejected +
        // committed, and every record carries exactly one terminal
        // outcome.
        const svc::service_stats st = service.stats();
        bool conserved = st.submitted == st.shed + st.expired +
                                              st.rejected + st.committed &&
                         st.submitted == service.records().size();
        auto degraded = rec.counter("degraded_requests");
        auto infeasible = rec.counter("rejected_infeasible");
        auto overutilized = rec.counter("rejected_overutilized");
        auto hazard = rec.counter("rejected_path_hazard");
        auto rolled_back = rec.counter("rolled_back");
        auto latency = rec.sample("latency_cycles");
        for (const auto& r : service.records()) {
            if (r.outcome == svc::request_outcome::pending) {
                conserved = false;
            }
            if (r.degraded && r.outcome != svc::request_outcome::shed) {
                degraded.inc();
            }
            if (r.outcome == svc::request_outcome::rejected) {
                switch (r.reject_reason) {
                case core::admission_outcome::rejected_infeasible:
                    infeasible.inc();
                    break;
                case core::admission_outcome::rejected_overutilized:
                    overutilized.inc();
                    break;
                case core::admission_outcome::rejected_path_hazard:
                    hazard.inc();
                    break;
                case core::admission_outcome::rolled_back:
                    rolled_back.inc();
                    break;
                default: break;
                }
            }
            if (r.outcome != svc::request_outcome::shed &&
                r.outcome != svc::request_outcome::pending) {
                latency.add(
                    static_cast<double>(r.finished_at - r.submitted_at));
            }
        }
        rec.counter("conserved_trials").inc(conserved);
        for (const char* component : {"client.", "reconfig/", "svc/"}) {
            rec.adopt(tb, component);
        }
        rec.capture(tb);
    };
    return {"svc_exp/", trial, [](sweep_result& r) {
                const auto hits =
                    r.totals.get("svc_exp/svc/cache_hits").count;
                const auto misses =
                    r.totals.get("svc_exp/svc/cache_misses").count;
                set_real(r.totals, "svc_exp/cache_hit_ratio",
                         ratio(hits, hits + misses));
            }};
}

} // namespace bluescale::harness
