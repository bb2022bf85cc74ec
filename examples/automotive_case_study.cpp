// Automotive case study (paper Sec. 6.4 scenario): a 16-core system plus
// two DNN accelerators runs 10 safety + 10 function tasks with
// interference load, behind a BlueScale fabric programmed from the
// interface selection. Prints per-task outcomes and the HA's progress.
//
//   $ ./examples/automotive_case_study [target_utilization]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "analysis/tree_analysis.hpp"
#include "core/bluescale_ic.hpp"
#include "mem/memory_controller.hpp"
#include "sim/simulator.hpp"
#include "stats/table.hpp"
#include "workload/automotive_profiles.hpp"
#include "workload/dnn_accelerator.hpp"
#include "workload/processor_client.hpp"

using namespace bluescale;

int main(int argc, char** argv) {
    const double target_util = argc > 1 ? std::atof(argv[1]) : 0.6;
    constexpr std::uint32_t n_processors = 16;
    constexpr std::uint32_t n_has = 2;
    constexpr std::uint32_t n_clients = n_processors + n_has;
    constexpr std::uint32_t unit_cycles = 4;

    rng gen(2022);

    // 1. Build the software: 20 automotive tasks spread round-robin over
    //    the processors, topped up with interference tasks.
    auto app = workload::make_case_study_tasks(gen, n_processors);
    std::vector<workload::compute_task_set> per_proc(n_processors);
    for (std::size_t i = 0; i < app.size(); ++i) {
        per_proc[i % n_processors].push_back(app[i]);
    }
    task_id_t next_id = 100;
    for (auto& tasks : per_proc) {
        double u = workload::compute_utilization(tasks);
        while (u + 0.02 < target_util) {
            auto t = workload::make_interference_task(gen, next_id++,
                                                      0.1);
            u += t.compute_utilization();
            tasks.push_back(std::move(t));
        }
    }

    // 2. Interface selection from the memory-demand view of every client.
    std::vector<analysis::task_set> rt(n_clients);
    for (std::uint32_t c = 0; c < n_processors; ++c) {
        for (const auto& t : per_proc[c]) {
            rt[c].push_back({t.period / unit_cycles, t.mem_requests});
        }
    }
    workload::dnn_config ha_cfg;
    ha_cfg.bandwidth_share = 1.0 / n_clients;
    for (std::uint32_t h = 0; h < n_has; ++h) {
        rt[n_processors + h].push_back(
            {static_cast<std::uint64_t>(
                 static_cast<double>(workload::k_dnn_burst_requests) /
                 ha_cfg.bandwidth_share),
             workload::k_dnn_burst_requests});
    }
    const auto selection = analysis::select_tree_interfaces(rt);
    std::printf("interface selection: %s (root bandwidth %.3f, "
                "%u clients -> %u-capacity quadtree)\n",
                selection.feasible ? "feasible" : "infeasible",
                selection.root_bandwidth, n_clients,
                selection.shape.padded_clients);

    // 3. Assemble the system.
    core::bluescale_ic fabric(n_clients);
    if (selection.feasible) fabric.configure(selection);
    memory_controller mem;
    fabric.attach_memory(mem);

    std::vector<std::unique_ptr<workload::processor_client>> procs;
    for (std::uint32_t c = 0; c < n_processors; ++c) {
        procs.push_back(std::make_unique<workload::processor_client>(
            c, per_proc[c], fabric, 77 + c));
    }
    std::vector<std::unique_ptr<workload::dnn_accelerator>> has;
    for (std::uint32_t h = 0; h < n_has; ++h) {
        has.push_back(std::make_unique<workload::dnn_accelerator>(
            n_processors + h, ha_cfg, fabric, 991 + h));
    }
    fabric.set_response_handler([&](mem_request&& r) {
        if (r.client < n_processors) {
            procs[r.client]->on_response(std::move(r));
        } else {
            has[r.client - n_processors]->on_response(std::move(r));
        }
    });

    simulator sim;
    for (auto& p : procs) sim.add(*p);
    for (auto& h : has) sim.add(*h);
    sim.add(fabric);
    sim.add(mem);
    sim.run(200'000);

    // 4. Report.
    stats::table t({"core", "safety done/miss", "function done/miss",
                    "interference done/miss", "mem requests"});
    bool success = true;
    for (auto& p : procs) {
        p->finalize(sim.now());
        if (p->app_deadline_missed()) success = false;
        auto fmt = [&](workload::task_category c) {
            const auto& s = p->stats(c);
            return std::to_string(s.completed) + "/" +
                   std::to_string(s.missed);
        };
        t.add_row({std::to_string(p->id()),
                   fmt(workload::task_category::safety),
                   fmt(workload::task_category::function),
                   fmt(workload::task_category::interference),
                   std::to_string(p->mem_requests_issued())});
    }
    t.print();
    for (auto& h : has) {
        std::printf("HA %u: %llu requests, %llu inferences\n", h->id(),
                    static_cast<unsigned long long>(h->requests_issued()),
                    static_cast<unsigned long long>(
                        h->inferences_completed()));
    }
    std::printf("\ntarget utilization %.2f -> trial %s (success = no "
                "safety/function deadline missed)\n",
                target_util, success ? "SUCCEEDED" : "FAILED");
    return 0;
}
