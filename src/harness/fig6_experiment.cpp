#include "harness/fig6_experiment.hpp"

#include <algorithm>

#include "stats/summary.hpp"

namespace bluescale::harness {

sweep_cell fig6_cell(ic_kind kind, const fig6_config& cfg) {
    const double clock_mhz =
        hwcost::system_clock_mhz(to_design(kind), cfg.scenario.n_clients);
    const double us_per_cycle = 1.0 / clock_mhz;

    const auto trial = [kind, cfg, us_per_cycle](trial_record& rec) {
        const traffic_scenario& sc = cfg.scenario;
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
    };
    return {"fig6/", trial, [clock_mhz](sweep_result& r) {
                set_real(r.totals, "fig6/system_clock_mhz", clock_mhz);
            }};
}

} // namespace bluescale::harness
