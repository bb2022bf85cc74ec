#include "harness/resilience_experiment.hpp"

#include <array>
#include <memory>

#include "core/bluescale_ic.hpp"
#include "stats/summary.hpp"

namespace bluescale::harness {

sweep_cell resilience_cell(ic_kind kind, const resilience_config& cfg) {
    return {"resilience/", [kind, cfg](trial_record& rec) {
        const traffic_scenario& sc = cfg.scenario;
        // Identical workload and fault schedule per design at the same
        // trial seed.
        const sim::fault_campaign campaign(
            fabric_campaign(rec.seed(), sc.n_clients, sc.measure_cycles,
                            cfg.fault_intensity));
        testbench_options opts;
        opts.faults = campaign.empty() ? nullptr : &campaign;
        opts.health = true;
        traffic_trial tt(rec, kind, sc, opts);
        tt.add_clients(k_recovering_client);
        testbench& tb = tt.tb();
        tb.run(sc.measure_cycles);

        rec.counter("feasible_trials").inc(tb.selection_feasible());
        rec.counter("injected_events").inc(campaign.size());
        rec.sample("miss_ratio").add(tt.finalize(0).ratio());
        stats::sample_set latency;
        for (std::uint32_t c = 0; c < tt.n_clients(); ++c) {
            for (double l : tt.client(c).stats().latency_cycles().samples()) {
                latency.add(l);
            }
        }
        rec.sample("p99_latency_cycles").add(latency.percentile(99.0));
        rec.sample("worst_latency_cycles").add(latency.max());
        rec.counter("link_drops").inc(tb.ic().link_dropped());

        auto stall_windows = rec.counter("stall_windows");
        if (auto* bs = dynamic_cast<core::bluescale_ic*>(&tb.ic())) {
            const auto& shape = bs->shape();
            for (std::uint32_t l = 0; l <= shape.leaf_level; ++l) {
                for (std::uint32_t y = 0; y < shape.ses_at_level(l); ++y) {
                    stall_windows.inc(
                        bs->se_at(l, y).stall_windows_entered());
                }
            }
        }
        auto ttr = rec.sample("time_to_recover_cycles");
        if (const auto* mon = tb.health();
            mon != nullptr && mon->time_to_recover().count() > 0) {
            ttr.add(mon->time_to_recover().mean());
        }
        for (const char* component : {"client.", "se.", "mem/", "health/"}) {
            rec.adopt(tb, component);
        }
        rec.capture(tb);
    }};
}

std::vector<sweep_cell> resilience_cells(ic_kind kind, resilience_config cfg,
                                         std::span<const double> intensities) {
    // The first cell's finish step sets the reference the others read.
    const auto healthy = std::make_shared<std::array<double, 2>>();
    std::vector<sweep_cell> cells;
    for (double intensity : intensities) {
        cfg.fault_intensity = intensity;
        sweep_cell cell = resilience_cell(kind, cfg);
        cell.finish = [healthy, first = cells.empty()](sweep_result& r) {
            const std::array<double, 2> means = {
                r.totals.get("resilience/p99_latency_cycles").samples.mean(),
                r.totals.get("resilience/worst_latency_cycles")
                    .samples.mean()};
            if (first) *healthy = means;
            const auto inflation = [&](std::size_t i) {
                return (*healthy)[i] == 0.0 ? 0.0
                                            : means[i] / (*healthy)[i];
            };
            set_real(r.totals, "resilience/p99_inflation", inflation(0));
            set_real(r.totals, "resilience/worst_inflation", inflation(1));
        };
        cells.push_back(std::move(cell));
    }
    return cells;
}

} // namespace bluescale::harness
