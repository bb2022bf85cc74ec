// Theory validation (extension experiment A6 in DESIGN.md): the paper's
// compositional analysis promises that a *feasible* interface selection
// makes every memory transaction meet its implicit deadline. This bench
// drives configured BlueScale fabrics hard and checks that promise
// directly (zero misses over every feasible trial), and reports the
// structural backlog-drain bound (analysis/wcrt.hpp) next to the observed
// maximum latency as a pessimism diagnostic.
//
// It also surfaces a real quantization effect: with integer (Pi, Theta)
// at 1-unit granularity, each port's minimum bandwidth overshoots its
// clients' utilization, so at 64+ clients and high load the selection is
// often infeasible even though the raw utilization fits -- the trials
// column records this.
//
//   $ ./bench/wcrt_validation [--trials N] [--cycles N] [--threads N]
#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/wcrt.hpp"
#include "core/bluescale_ic.hpp"
#include "harness/bench_cli.hpp"
#include "mem/memory_controller.hpp"
#include "sim/simulator.hpp"
#include "sim/trial_runner.hpp"
#include "stats/table.hpp"
#include "workload/taskset_gen.hpp"
#include "workload/traffic_generator.hpp"

using namespace bluescale;

namespace {

struct trial_result {
    bool feasible = false;
    std::uint64_t missed = 0;
    std::uint64_t missed_beyond_margin = 0;
    std::uint64_t completed = 0;
    double worst_observed = 0.0;
    std::uint64_t largest_bound = 0;
};

trial_result run_trial(std::uint32_t n_clients, double util_lo,
                       double util_hi, cycle_t cycles,
                       std::uint64_t seed) {
    rng gen(seed);
    workload::taskset_params params;
    params.min_period_units = 40;
    params.max_period_units = 600;
    auto tasksets = workload::make_client_tasksets(gen, n_clients,
                                                   util_lo, util_hi);
    std::vector<analysis::task_set> rt;
    for (const auto& ts : tasksets) {
        rt.push_back(workload::to_rt_tasks(ts));
    }
    const auto selection = analysis::select_tree_interfaces(rt);

    trial_result out;
    out.feasible = selection.feasible;
    if (!out.feasible) return out;

    core::bluescale_config bs_cfg;
    core::bluescale_ic fabric(n_clients, bs_cfg);
    fabric.configure(selection);
    memory_controller mem;
    fabric.attach_memory(mem);

    // Grant the constant overhead the unit-rate abstraction omits:
    // draining the memory queue, the FR-FCFS bypass allowance (a queued
    // request may lose up to bypass_cap further start slots to row hits),
    // the worst single access, and the response-path hops.
    workload::traffic_gen_config tg_cfg;
    tg_cfg.validation_margin_cycles =
        (mem.config().request_queue_depth +
         mem.config().fr_fcfs_bypass_cap + 1) *
            mem.config().initiation_interval +
        24 + 2ull * fabric.depth_of(0);
    std::vector<std::unique_ptr<workload::traffic_generator>> clients;
    for (std::uint32_t c = 0; c < n_clients; ++c) {
        clients.push_back(std::make_unique<workload::traffic_generator>(
            c, tasksets[c], fabric, seed + c, tg_cfg));
    }
    fabric.set_response_handler([&](mem_request&& r) {
        clients[r.client]->on_response(std::move(r));
    });

    simulator sim;
    for (auto& c : clients) sim.add(*c);
    sim.add(fabric);
    sim.add(mem);
    sim.run(cycles);

    analysis::wcrt_memory_model mm;
    mm.queue_depth = mem.config().request_queue_depth;
    mm.initiation_interval = mem.config().initiation_interval;
    for (std::uint32_t c = 0; c < n_clients; ++c) {
        clients[c]->finalize(sim.now());
        out.missed += clients[c]->stats().missed();
        out.missed_beyond_margin +=
            clients[c]->stats().missed_beyond_margin();
        out.completed += clients[c]->stats().completed();
        out.worst_observed = std::max(
            out.worst_observed, clients[c]->stats().latency_cycles().max());
        const auto bound = analysis::wcrt_bound(
            selection, c, bs_cfg.se.buffer_depth, mm);
        if (bound.bounded) {
            out.largest_bound =
                std::max(out.largest_bound,
                         bound.total_cycles(bs_cfg.se.unit_cycles));
        }
    }
    return out;
}

} // namespace

int main(int argc, char** argv) {
    harness::bench_options defaults;
    defaults.trials = 10;
    defaults.measure_cycles = 80'000;
    const auto opts = harness::parse_bench_cli(
        argc, argv, defaults,
        "Analysis validation: feasible selection => zero misses");
    const sim::trial_runner runner(opts.threads);

    std::printf("Analysis validation: feasible interface selection => "
                "zero deadline misses (BlueScale)\n\n");

    struct scale {
        std::uint32_t clients;
        double util_lo, util_hi;
    };
    // 64 clients run at lower utilization: integer (Pi, Theta)
    // quantization makes 70-90%% selections mostly infeasible there.
    const scale scales[] = {{16, 0.70, 0.90}, {64, 0.50, 0.70}};

    stats::table t({"clients", "utilization", "feasible trials",
                    "missed/completed", "beyond margin",
                    "worst latency (cyc)", "drain bound (cyc)"});
    for (const auto& s : scales) {
        const auto results =
            runner.run(opts.trials, [&](std::uint32_t i) {
                return run_trial(s.clients, s.util_lo, s.util_hi,
                                 opts.measure_cycles, 7000 + i);
            });

        std::uint32_t feasible = 0;
        std::uint64_t missed = 0, beyond = 0, completed = 0;
        double worst = 0.0;
        std::uint64_t bound = 0;
        for (const auto& r : results) {
            if (!r.feasible) continue;
            ++feasible;
            missed += r.missed;
            beyond += r.missed_beyond_margin;
            completed += r.completed;
            worst = std::max(worst, r.worst_observed);
            bound = std::max(bound, r.largest_bound);
        }
        t.add_row({std::to_string(s.clients),
                   stats::table::num(s.util_lo, 2) + "-" +
                       stats::table::num(s.util_hi, 2),
                   std::to_string(feasible) + "/" +
                       std::to_string(opts.trials),
                   std::to_string(missed) + "/" + std::to_string(completed),
                   std::to_string(beyond),
                   stats::table::num(worst, 0), std::to_string(bound)});
    }
    t.print();
    std::printf("\nThe compositional guarantee covers transaction "
                "scheduling on the unit-rate memory abstraction;\n"
                "'beyond margin' counts misses after granting the "
                "constant memory/response overhead that abstraction\n"
                "omits -- it must be 0. The drain bound's gap to the "
                "worst latency is analysis pessimism.\n");
    return 0;
}
