// Latency breakdown (extension experiment A11 in DESIGN.md): where does a
// memory transaction's time go inside a configured BlueScale fabric?
// Every request carries a compact per-hop stamp vector (RAB admission,
// per-level server grant -- see obs::hop_stamps); this bench reads those
// attribution stamps straight off completed responses and aggregates them
// per tree level, alongside the memory controller's share, across the
// utilization range. Each utilization point is one cell; trial t draws
// its task sets from seed + t (defaults: one trial at seed 2024) and
// client c is seeded 300 + c. --threads runs the cells in parallel, and
// the output is identical for any setting.
//
//   $ ./bench/latency_breakdown [--trials N] [--cycles N] [--threads N]
//                               [--seed N] [--csv out.csv]
//                               [--metrics out.csv] [--trace out.json]
//                               [--profile] [--lockstep]
//
// --csv dumps one row per utilization point; --metrics and --trace
// export the highest point (the last cell).
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/quadtree.hpp"
#include "harness/bench_cli.hpp"
#include "harness/traffic_trial.hpp"
#include "obs/hop_stamps.hpp"

using namespace bluescale;
using namespace bluescale::harness;

namespace {

constexpr std::uint32_t k_clients = 64;

/// The per-level wait sample's name.
std::string wait_name(std::uint32_t level) {
    std::string name = "wait.l";
    name += std::to_string(level);
    return name;
}

} // namespace

int main(int argc, char** argv) {
    bench_options defaults;
    defaults.trials = 1;
    defaults.measure_cycles = 80'000;
    defaults.seed = 2024;
    const auto opts = parse_bench_cli(
        argc, argv, defaults,
        "Per-level queueing breakdown inside BlueScale");
    const std::uint32_t depth =
        analysis::make_quadtree_shape(k_clients).leaf_level;
    const std::string leaf_wait = wait_name(depth);
    const report_column columns[] = {
        {"leaf wait (cyc)", "leaf_wait_cycles", leaf_wait, shown::num, 1},
        {"mid wait (cyc)", "mid_wait_cycles", "wait.l1", shown::num, 1},
        {"root wait (cyc)", "root_wait_cycles", "wait.l0", shown::num, 1},
        {"memory (cyc)", "memory_cycles", "memory", shown::num, 1},
        {"end-to-end (cyc)", "end_to_end_cycles", "end_to_end", shown::num,
         1},
    };

    std::printf("Per-level queueing breakdown inside BlueScale "
                "(64 clients, 3 SE levels)\n\n");

    report_section s{"", {"utilization"}, columns, {}};
    for (double util : {0.3, 0.5, 0.7, 0.85}) {
        const traffic_scenario sc = {
            .n_clients = k_clients,
            .measure_cycles = opts.measure_cycles,
            .util_lo = util,
            .util_hi = util,
            .taskset = {.min_period_units = 100, .max_period_units = 2000},
        };
        sweep_cell cell{"", [sc, depth](trial_record& rec) {
            std::vector<obs::sample> waits;
            for (std::uint32_t l = 0; l <= depth; ++l) {
                waits.push_back(rec.sample(wait_name(l)));
            }
            auto mem_time = rec.sample("memory");
            auto end_to_end = rec.sample("end_to_end");
            traffic_trial tt(rec, ic_kind::bluescale, sc, {});
            // Per-hop attribution off the response's stamp vector: the
            // wait at level l runs from arrival (grant at level l+1, plus
            // the one-cycle hop; RAB admission at the leaf) to the level-l
            // grant, and the memory stage from the root grant's handoff to
            // mem_done.
            tt.add_clients(
                {}, [](std::uint32_t c) { return 300 + c; },
                [&](const mem_request& resp) {
                    const obs::hop_stamps& h = resp.hops;
                    for (std::uint32_t l = 0; l <= depth; ++l) {
                        if (!h.granted_at(l)) continue;
                        const cycle_t arrived =
                            l == depth ? h.rab_admit : h.grant_at(l + 1) + 1;
                        waits[l].add(
                            static_cast<double>(h.grant_at(l) - arrived));
                    }
                    if (h.granted_at(0)) {
                        mem_time.add(static_cast<double>(
                            resp.mem_done - (h.grant_at(0) + 1)));
                    }
                    end_to_end.add(static_cast<double>(resp.total_latency()));
                });
            tt.tb().run(sc.measure_cycles);
            rec.capture(tt.tb());
        }};
        s.rows.push_back({std::move(cell), {formatted("%.2f", util)}});
    }
    run_report(opts, {.sections = {std::move(s)}});
    std::printf("\nQueueing concentrates at the leaf/mid levels (each "
                "client throttled by its own minimum-bandwidth\n"
                "interface) while the root stays shallow -- contention is "
                "resolved early, which is the architectural intent\n"
                "of the quadtree. The memory controller is the largest "
                "single stage at every load point.\n");
    return 0;
}
