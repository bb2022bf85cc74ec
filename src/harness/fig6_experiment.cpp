#include "harness/fig6_experiment.hpp"

#include <algorithm>
#include <string>

#include "stats/summary.hpp"

namespace bluescale::harness {

sweep_result run_fig6(ic_kind kind, const fig6_config& cfg) {
    const traffic_scenario& sc = cfg.scenario;
    const double clock_mhz =
        hwcost::system_clock_mhz(to_design(kind), sc.n_clients);
    const double us_per_cycle = 1.0 / clock_mhz;

    auto result = run_sweep(sc.sweep, "fig6/", [&](trial_record& rec) {
        testbench_options opts;
        opts.bluetree_alpha = cfg.bluetree_alpha;
        opts.bluescale_se = cfg.bluescale_se;
        traffic_trial tt(rec, kind, sc, opts);
        tt.add_clients({}, [&](std::uint32_t c) {
            return rec.seed() ^ (0x5851f42d4c957f2dull + c);
        });
        tt.tb().run(sc.measure_cycles);

        rec.counter("feasible_trials").inc(tt.tb().selection_feasible());
        rec.capture(tt.tb()); // before finalize() abandons late jobs
        const class_misses misses = tt.finalize(0);
        stats::running_summary blocking;
        double worst = 0.0;
        for (std::uint32_t c = 0; c < tt.n_clients(); ++c) {
            for (double b :
                 tt.client(c).stats().blocking_cycles().samples()) {
                blocking.add(b);
                worst = std::max(worst, b);
            }
        }
        rec.sample("blocking_us").add(blocking.mean() * us_per_cycle);
        rec.sample("worst_blocking_us").add(worst * us_per_cycle);
        rec.sample("miss_ratio").add(misses.ratio());
    });
    set_real(result.totals, "fig6/system_clock_mhz", clock_mhz);
    return result;
}

double fig6_mean(const sweep_result& r, std::string_view name) {
    return r.totals.get("fig6/" + std::string(name)).samples.mean();
}

std::vector<sweep_result> run_fig6_all(const fig6_config& cfg) {
    std::vector<sweep_result> results;
    for (ic_kind kind : k_all_kinds) {
        results.push_back(run_fig6(kind, cfg));
    }
    return results;
}

} // namespace bluescale::harness
