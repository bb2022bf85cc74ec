// System-level case study (paper Sec. 6.4 / Fig. 7): 16/64 processors plus
// two DNN accelerators run 10 automotive safety + 10 function tasks
// alongside interference tasks that raise each processor to a target
// utilization. The metric is the success ratio: the fraction of trials in
// which no safety or function task missed a deadline. Each utilization
// point is one sweep_cell; its clients are processor and accelerator
// models, not the synthetic traffic_scenario the other experiments share.
#pragma once

#include <cstdint>
#include <vector>

#include "harness/factory.hpp"
#include "harness/trial_sweep.hpp"

namespace bluescale::harness {

/// DNN accelerators beside the processors in every fig7 system.
inline constexpr std::uint32_t k_fig7_accelerators = 2;

struct fig7_config {
    std::uint32_t n_processors = 16;
    cycle_t measure_cycles = 60'000; ///< paper: 300 s wall-clock
    /// Target utilization sweep (paper: 10-90% at 5% intervals; Fig. 7
    /// plots 30-90%).
    double util_lo = 0.30;
    double util_hi = 0.90;
    double util_step = 0.10;
};

/// The cells of one design: one per utilization point, util_lo,
/// util_lo + util_step, ... up to util_hi. Workloads are identical across
/// designs for the same (seed, utilization, trial).
///
/// totals ("fig7/"): the counter successful_trials (trials without any
/// safety/function deadline miss), the per-trial sample app_miss_ratio
/// (app-task jobs missed / completed), and the reals target_utilization,
/// success_ratio (successful_trials / trials) and mean_app_miss_ratio
/// (the app_miss_ratio samples' sum / trials).
[[nodiscard]] std::vector<sweep_cell> fig7_cells(ic_kind kind,
                                                 const fig7_config& cfg);

} // namespace bluescale::harness
