#include "harness/wcrt_experiment.hpp"

#include <algorithm>

#include "analysis/wcrt.hpp"

namespace bluescale::harness {

sweep_cell wcrt_validation_cell(const traffic_scenario& s) {
    return {"wcrt/", [s](trial_record& rec) {
        traffic_trial tt(rec, ic_kind::bluescale, s, {});
        testbench& tb = tt.tb();
        if (!tb.selection_feasible()) return;
        rec.counter("feasible_trials").inc();

        // Grant the constant overhead the unit-rate abstraction omits:
        // draining the memory queue, the FR-FCFS bypass allowance (a
        // queued request may lose up to k_fr_fcfs_bypass_cap further start
        // slots to row hits), the worst single access, and the
        // response-path hops.
        const memctrl_config& mc = tb.memctrl().config();
        workload::traffic_gen_config tg;
        tg.validation_margin_cycles =
            (k_request_queue_depth + k_fr_fcfs_bypass_cap + 1) *
                mc.initiation_interval +
            24 + 2ull * tb.ic().depth_of(0);
        tt.add_clients(tg, [&rec](std::uint32_t c) { return rec.seed() + c; });
        tb.run(s.measure_cycles);
        rec.capture(tb);

        analysis::wcrt_memory_model mm;
        mm.queue_depth = k_request_queue_depth;
        mm.initiation_interval = mc.initiation_interval;
        const core::se_params se;
        tt.finalize(0);
        rec.adopt(tb, "client.");
        double worst = 0.0;
        std::uint64_t largest_bound = 0;
        for (std::uint32_t c = 0; c < tt.n_clients(); ++c) {
            worst = std::max(worst,
                             tt.client(c).stats().latency_cycles().max());
            const auto bound = analysis::wcrt_bound(tb.selection(), c,
                                                    se.buffer_depth, mm);
            if (bound.bounded) {
                largest_bound = std::max(
                    largest_bound, bound.total_cycles(tb.unit_cycles()));
            }
        }
        rec.sample("worst_latency_cycles").add(worst);
        rec.sample("drain_bound_cycles")
            .add(static_cast<double>(largest_bound));
    }};
}

} // namespace bluescale::harness
