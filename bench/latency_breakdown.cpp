// Latency breakdown (extension experiment A11 in DESIGN.md): where does a
// memory transaction's time go inside a configured BlueScale fabric?
// Every request carries a compact per-hop stamp vector (RAB admission,
// per-level server grant -- see obs::hop_stamps); this bench reads those
// attribution stamps straight off completed responses and aggregates them
// per tree level, alongside the memory controller's share, across the
// utilization range.
//
//   $ ./bench/latency_breakdown [--cycles N]
#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/tree_analysis.hpp"
#include "core/bluescale_ic.hpp"
#include "harness/bench_cli.hpp"
#include "mem/memory_controller.hpp"
#include "obs/hop_stamps.hpp"
#include "sim/simulator.hpp"
#include "stats/table.hpp"
#include "workload/taskset_gen.hpp"
#include "workload/traffic_generator.hpp"

using namespace bluescale;

int main(int argc, char** argv) {
    harness::bench_options defaults;
    defaults.measure_cycles = 80'000;
    const auto opts = harness::parse_bench_cli(
        argc, argv, defaults,
        "Per-level queueing breakdown inside BlueScale");
    const cycle_t cycles = opts.measure_cycles;
    constexpr std::uint32_t n_clients = 64;

    std::printf("Per-level queueing breakdown inside BlueScale "
                "(64 clients, 3 SE levels)\n\n");

    stats::table t({"utilization", "leaf wait (cyc)", "mid wait (cyc)",
                    "root wait (cyc)", "memory (cyc)",
                    "end-to-end (cyc)"});
    for (double util : {0.3, 0.5, 0.7, 0.85}) {
        rng gen(2024);
        auto tasksets = workload::make_client_tasksets(gen, n_clients,
                                                       util, util);
        std::vector<analysis::task_set> rt;
        for (const auto& ts : tasksets) {
            rt.push_back(workload::to_rt_tasks(ts));
        }
        const auto selection = analysis::select_tree_interfaces(rt);

        core::bluescale_ic fabric(n_clients);
        if (selection.feasible) fabric.configure(selection);
        memory_controller mem;
        fabric.attach_memory(mem);

        std::vector<std::unique_ptr<workload::traffic_generator>> clients;
        const std::uint32_t depth = fabric.shape().leaf_level;
        std::vector<stats::running_summary> per_level(depth + 1);
        stats::running_summary mem_time, end_to_end;
        for (std::uint32_t c = 0; c < n_clients; ++c) {
            clients.push_back(
                std::make_unique<workload::traffic_generator>(
                    c, tasksets[c], fabric, 300 + c));
        }
        // Per-hop attribution off the response's stamp vector: the wait at
        // level l runs from arrival (grant at level l+1, plus the one-cycle
        // hop; RAB admission at the leaf) to the level-l grant, and the
        // memory stage from the root grant's handoff to mem_done.
        fabric.set_response_handler([&](mem_request&& r) {
            const obs::hop_stamps& h = r.hops;
            for (std::uint32_t l = 0; l <= depth; ++l) {
                if (!h.granted_at(l)) continue;
                const cycle_t arrived =
                    l == depth ? h.rab_admit : h.grant_at(l + 1) + 1;
                per_level[l].add(
                    static_cast<double>(h.grant_at(l) - arrived));
            }
            if (h.granted_at(0)) {
                mem_time.add(
                    static_cast<double>(r.mem_done - (h.grant_at(0) + 1)));
            }
            end_to_end.add(static_cast<double>(r.total_latency()));
            clients[r.client]->on_response(std::move(r));
        });

        simulator sim;
        for (auto& c : clients) sim.add(*c);
        sim.add(fabric);
        sim.add(mem);
        sim.run(cycles);

        t.add_row({stats::table::num(util, 2),
                   stats::table::num(per_level[depth].mean(), 1),
                   stats::table::num(per_level[1].mean(), 1),
                   stats::table::num(per_level[0].mean(), 1),
                   stats::table::num(mem_time.mean(), 1),
                   stats::table::num(end_to_end.mean(), 1)});
    }
    t.print();
    std::printf("\nQueueing concentrates at the leaf/mid levels (each "
                "client throttled by its own minimum-bandwidth\n"
                "interface) while the root stays shallow -- contention is "
                "resolved early, which is the architectural intent\n"
                "of the quadtree. The memory controller is the largest "
                "single stage at every load point.\n");
    return 0;
}
