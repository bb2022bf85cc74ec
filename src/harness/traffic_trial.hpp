// The synthetic-traffic scenario and pipeline shared by the Fig. 6
// experiment and its robustness extensions (resilience, maintenance,
// reconfig, svc_storm). A traffic_scenario is the one value those five
// configs embed: client count, simulated window, utilization band, task
// shape and memory controller (the trial count and seed belong to the
// run_sweep grid). A traffic_trial consumes it: one task set per client
// drawn from the trial seed, the testbench assembled around them, one
// traffic generator per client, and the hard/best-effort miss split at
// the end. Experiments add what is theirs -- fault campaigns,
// supervisors, reconfiguration schedules -- through testbench_options
// and tb().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "harness/testbench.hpp"
#include "harness/trial_sweep.hpp"
#include "mem/memory_controller.hpp"
#include "sim/fault.hpp"
#include "sim/reconfig_schedule.hpp"
#include "workload/taskset_gen.hpp"
#include "workload/traffic_generator.hpp"

namespace bluescale::harness {

/// The traffic every synthetic experiment runs, with Fig. 6's defaults
/// (paper Sec. 6.3: intensive traffic with tight implicit deadlines at
/// 70-90% interconnect utilization).
struct traffic_scenario {
    std::uint32_t n_clients = 16;
    cycle_t measure_cycles = 100'000;   ///< simulated window per trial
    double util_lo = 0.70;              ///< interconnect utilization range
    double util_hi = 0.90;
    workload::taskset_params taskset = {
        .n_tasks = 4,
        .total_utilization = 0.05, // overridden per client by util_lo/hi
        .min_period_units = 40,
        .max_period_units = 600,
        .write_fraction = 0.3,
    };
    memctrl_config memctrl = {};
};

/// `n` clients' task sets drawn from `gen`, each with the scenario's task
/// shape at a total utilization uniform in [util_lo, util_hi].
[[nodiscard]] std::vector<workload::memory_task_set>
draw_tasksets(const traffic_scenario& s, rng& gen, std::uint32_t n);

/// The memory-demand view of each client's task set (the interface
/// selection's input).
[[nodiscard]] std::vector<analysis::task_set>
rt_view(const std::vector<workload::memory_task_set>& tasksets);

/// The fault-bearing experiments' clients: reissue a request unanswered
/// for 2,048 cycles, at most 3 times, with exponential backoff.
inline constexpr workload::traffic_gen_config k_recovering_client = {
    .retry_timeout_cycles = 2048,
    .max_retries = 3,
};

/// The reconfig and svc_storm experiments' hard/best-effort split: the
/// last this-many client ids are best-effort (sheddable), the rest hard
/// real-time.
inline constexpr std::uint32_t k_best_effort_clients = 4;

/// Deadline misses split by client class, over finalized clients.
struct class_misses {
    std::uint64_t hard = 0;
    std::uint64_t best_effort = 0;
    std::uint64_t hard_accounted = 0; ///< completed + abandoned jobs
    std::uint64_t best_effort_accounted = 0;

    /// All clients' miss ratio.
    [[nodiscard]] double ratio() const {
        return harness::ratio(hard + best_effort,
                              hard_accounted + best_effort_accounted);
    }
};

class traffic_trial {
public:
    /// Assembles trial `rec`'s testbench for the scenario's n_clients
    /// task sets, drawn from the trial seed so every design sees the
    /// identical workload, on the scenario's memory controller: sets
    /// opts.memctrl, opts.n_clients, opts.client_utilizations and
    /// opts.rt_sets (the whole-tree selection input), and lets `rec`
    /// watch the simulator.
    traffic_trial(trial_record& rec, ic_kind kind, const traffic_scenario& s,
                  testbench_options opts);

    traffic_trial(const traffic_trial&) = delete;
    traffic_trial& operator=(const traffic_trial&) = delete;

    [[nodiscard]] testbench& tb() { return tb_; }
    [[nodiscard]] std::uint32_t n_clients() const {
        return static_cast<std::uint32_t>(tasksets_.size());
    }
    [[nodiscard]] workload::traffic_generator& client(std::uint32_t c) {
        return *clients_[c];
    }

    /// Constructs client c's generator from `tg` (unit_cycles from the
    /// testbench; k_recovering_client or {}), seeded with seed_of(c), or
    /// substream(trial seed, c) when seed_of is empty, binds it into the
    /// trial registry and registers it with the testbench, for every
    /// client. A non-empty `tap` sees each response before its client.
    void add_clients(workload::traffic_gen_config tg,
                     const std::function<std::uint64_t(std::uint32_t)>&
                         seed_of = {},
                     const std::function<void(const mem_request&)>& tap = {});

    /// Hands every client to the supply watchdog (no-op without one):
    /// the last `best_effort` client ids are sheddable, the rest hard.
    void track_clients(std::uint32_t best_effort);

    /// Finalizes every client at tb().now() and splits their misses,
    /// the last `best_effort` client ids counting as best-effort.
    class_misses finalize(std::uint32_t best_effort);

    /// Sum of every client's misses so far.
    [[nodiscard]] std::uint64_t missed() const;

    /// Draws the trial's reconfiguration schedule from `sc` (seeded from
    /// the trial seed, so every design sees the identical request
    /// sequence; horizon and client count set here), runs the trial up to
    /// each event and hands it to `submit` with the task set it asks for
    /// (a pure function of the trial seed and the event index, from the
    /// client's current utilization and the `tmpl` task shape); then runs
    /// on to `horizon`.
    void run_schedule(
        sim::reconfig_schedule_config sc, cycle_t horizon,
        const workload::taskset_params& tmpl,
        const std::function<void(const sim::reconfig_event&,
                                 workload::memory_task_set)>& submit);

private:
    [[nodiscard]] bool is_best_effort(std::uint32_t c,
                                      std::uint32_t best_effort) const {
        return c + best_effort >= n_clients();
    }

    std::uint64_t trial_seed_;
    std::vector<workload::memory_task_set> tasksets_;
    std::vector<analysis::task_set> rt_sets_;
    testbench tb_;
    std::vector<std::unique_ptr<workload::traffic_generator>> clients_;
};

/// The fabric fault campaign of one trial: a substream of the trial seed
/// (so every design sees the identical schedule), targeted at the
/// BlueScale-sized SE population of `n_clients` (baselines collapse
/// link/stall targets onto what they have -- see
/// interconnect::inject_campaign).
[[nodiscard]] sim::fault_campaign_config
fabric_campaign(std::uint64_t trial_seed, std::uint32_t n_clients,
                cycle_t horizon, double events_per_kcycle);

} // namespace bluescale::harness
