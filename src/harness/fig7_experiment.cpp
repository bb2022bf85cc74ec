#include "harness/fig7_experiment.hpp"

#include <memory>

#include "harness/testbench.hpp"
#include "workload/automotive_profiles.hpp"
#include "workload/dnn_accelerator.hpp"
#include "workload/memory_task.hpp"
#include "workload/processor_client.hpp"

namespace bluescale::harness {

namespace {

/// Builds each processor's task set: the 20 app tasks spread round-robin
/// plus interference tasks topping utilization up to the target.
std::vector<workload::compute_task_set>
build_processor_tasks(rng& gen, std::uint32_t n_processors,
                      double target_utilization, double mem_scale) {
    std::vector<workload::compute_task_set> per_proc(n_processors);
    const auto app =
        workload::make_case_study_tasks(gen, n_processors, mem_scale);
    for (std::size_t i = 0; i < app.size(); ++i) {
        per_proc[i % n_processors].push_back(app[i]);
    }
    task_id_t next_id = 100;
    for (auto& tasks : per_proc) {
        double u = workload::compute_utilization(tasks);
        while (u < target_utilization) {
            const double chunk = std::min(target_utilization - u,
                                          gen.uniform_real(0.05, 0.15));
            if (chunk < 0.01) break;
            tasks.push_back(workload::make_interference_task(
                gen, next_id++, chunk, mem_scale));
            u += chunk;
        }
    }
    return per_proc;
}

/// Memory-demand view of a processor's tasks for the analysis and for
/// bandwidth reservation (AXI regulation / FBSP weights).
analysis::task_set
memory_view(const workload::compute_task_set& tasks,
            std::uint32_t unit_cycles) {
    analysis::task_set out;
    for (const auto& t : tasks) {
        if (t.period == 0 || t.mem_requests == 0) continue;
        out.push_back({std::max<std::uint64_t>(1, t.period / unit_cycles),
                       t.mem_requests});
    }
    return out;
}

analysis::task_set memory_view_ha(const workload::dnn_config& cfg) {
    // One layer = k_dnn_burst_requests transactions each
    // (burst issue + compute) cycles -- but the HA's own token-bucket
    // regulator caps its rate at bandwidth_share, so downstream
    // reservations (FBSP weights, AXI shares, BlueScale interfaces) must
    // see the capped demand, not the raw burst rate.
    constexpr std::uint32_t burst = workload::k_dnn_burst_requests;
    const std::uint64_t raw_period_units =
        (static_cast<std::uint64_t>(burst) * cfg.unit_cycles +
         cfg.compute_cycles) /
        cfg.unit_cycles;
    const double raw_util =
        static_cast<double>(burst) /
        static_cast<double>(std::max<std::uint64_t>(1, raw_period_units));
    const double util = std::min(raw_util, cfg.bandwidth_share);
    const auto period_units =
        static_cast<std::uint64_t>(static_cast<double>(burst) / util);
    return {{std::max<std::uint64_t>(1, period_units), burst}};
}

/// Multiplier on every task profile's memory demand, calibrated so the
/// 16-core system stresses the interconnect in the paper's 0.6-0.9
/// utilization band while the 64-core system's memory saturates around
/// 0.55-0.65 (matching Fig. 7's earlier collapse).
constexpr double k_mem_intensity_scale = 0.75;

/// One trial at `target_utilization`: the processor and accelerator
/// clients on the default memory controller and BlueTree alpha.
void fig7_trial(trial_record& rec, ic_kind kind, const fig7_config& cfg,
                double target_utilization, std::uint64_t trial_seed) {
    rng gen(trial_seed);
    const std::uint32_t n_clients = cfg.n_processors + k_fig7_accelerators;

    const auto per_proc =
        build_processor_tasks(gen, cfg.n_processors, target_utilization,
                              k_mem_intensity_scale);

    testbench_options opts;
    opts.n_clients = n_clients;
    const std::uint32_t unit_cycles = opts.memctrl.initiation_interval;

    workload::dnn_config ha_cfg;
    ha_cfg.unit_cycles = unit_cycles;
    ha_cfg.bandwidth_share = 1.0 / n_clients; // paper's enforced cap

    // Analysis view (used by BlueScale selection and reservations).
    std::vector<analysis::task_set> rt_sets;
    for (const auto& tasks : per_proc) {
        rt_sets.push_back(memory_view(tasks, unit_cycles));
        opts.client_utilizations.push_back(
            analysis::utilization(rt_sets.back()));
    }
    for (std::uint32_t h = 0; h < k_fig7_accelerators; ++h) {
        rt_sets.push_back(memory_view_ha(ha_cfg));
        opts.client_utilizations.push_back(
            analysis::utilization(rt_sets.back()));
    }
    opts.rt_sets = &rt_sets;

    testbench tb(kind, opts);
    rec.watch(tb);

    std::vector<std::unique_ptr<workload::processor_client>> procs;
    for (std::uint32_t c = 0; c < cfg.n_processors; ++c) {
        procs.push_back(std::make_unique<workload::processor_client>(
            c, per_proc[c], tb.ic(), trial_seed ^ (0x9e3779b9ull * (c + 1))));
        auto* proc = procs.back().get();
        proc->bind_observability(tb.metrics());
        tb.add_client(c, *proc, [proc](mem_request&& r) {
            proc->on_response(std::move(r));
        });
    }
    std::vector<std::unique_ptr<workload::dnn_accelerator>> has;
    for (std::uint32_t h = 0; h < k_fig7_accelerators; ++h) {
        has.push_back(std::make_unique<workload::dnn_accelerator>(
            cfg.n_processors + h, ha_cfg, tb.ic(),
            trial_seed ^ (0x51ull * (h + 1))));
        auto* ha = has.back().get();
        tb.add_client(cfg.n_processors + h, *ha, [ha](mem_request&& r) {
            ha->on_response(std::move(r));
        });
    }

    tb.run(cfg.measure_cycles);
    rec.capture(tb);

    bool success = true;
    std::uint64_t app_completed = 0, app_missed = 0;
    for (auto& p : procs) {
        p->finalize(tb.now());
        if (p->app_deadline_missed()) success = false;
        for (auto cat : {workload::task_category::safety,
                         workload::task_category::function}) {
            app_completed += p->stats(cat).completed;
            app_missed += p->stats(cat).missed;
        }
    }
    rec.counter("successful_trials").inc(success);
    rec.sample("app_miss_ratio").add(ratio(app_missed, app_completed));
}

} // namespace

std::vector<sweep_cell> fig7_cells(ic_kind kind, const fig7_config& cfg) {
    std::vector<sweep_cell> points;
    for (double u = cfg.util_lo; u <= cfg.util_hi + 1e-9;
         u += cfg.util_step) {
        const auto trial = [kind, cfg, u](trial_record& rec) {
            // Depends on the utilization and the trial index but not the
            // design, so every design sees identical workloads.
            const std::uint64_t grid_seed = rec.seed() - rec.index();
            const std::uint64_t trial_seed =
                grid_seed + rec.index() * 1000003ull +
                static_cast<std::uint64_t>(u * 1000.0) * 7919ull;
            fig7_trial(rec, kind, cfg, u, trial_seed);
        };
        const auto finish = [u](sweep_result& r) {
            // One app_miss_ratio sample per trial.
            const auto& miss = r.totals.get("fig7/app_miss_ratio").samples;
            const auto trials = static_cast<double>(miss.count());
            const double miss_sum = miss.sum();
            const double successful = static_cast<double>(
                r.totals.get("fig7/successful_trials").count);
            set_real(r.totals, "fig7/target_utilization", u);
            set_real(r.totals, "fig7/success_ratio", successful / trials);
            set_real(r.totals, "fig7/mean_app_miss_ratio", miss_sum / trials);
        };
        points.push_back({"fig7/", trial, finish});
    }
    return points;
}

} // namespace bluescale::harness
