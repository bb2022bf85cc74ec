// Maintenance-aware supply analysis (ROADMAP item 3).
//
// DRAM maintenance -- refresh, background ECC scrubbing, RowHammer
// mitigation -- periodically steals service from the memory device, so a
// (Pi, Theta) supply contract provisioned against the raw sbf() is
// optimistic on real hardware. Per-bank regulation (Sullivan et al.) and
// bounded-latency SDRAM arbitration (Shah et al., DPQ) both show the fix:
// fold the device-level stall budget into the *analysis*, not just the
// simulator. This header models each maintenance mechanism as a sporadic
// interference source with a minimum inter-arrival `period` and a
// worst-case stolen-time `cost`, and corrects the supply bound function
// by the worst-case stolen time in any sliding window.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/periodic_resource.hpp"

namespace bluescale::analysis {

/// One maintenance mechanism: up to `cost` time units are stolen from the
/// supply at most once per `period` time units (both in the same time
/// units as resource_interface). A zero period or cost disables the op.
struct maintenance_op {
    std::uint64_t period = 0;
    std::uint64_t cost = 0;

    friend bool operator==(const maintenance_op&,
                           const maintenance_op&) = default;
};

/// The set of maintenance mechanisms charged against one memory device.
/// An empty model reproduces the uncorrected analysis exactly.
struct maintenance_model {
    std::vector<maintenance_op> ops;

    [[nodiscard]] bool empty() const;

    /// Worst-case stolen time in any sliding window of length t:
    ///   stolen(t) = sum_ops (floor(t / period) + 1) * cost
    /// The +1 term is the critical-instant alignment: a window can open
    /// right as one instance begins and close right as another ends, so
    /// up to ceil boundary effects one extra instance fits. Monotone
    /// non-decreasing in t; stolen(0) = 0.
    [[nodiscard]] std::uint64_t stolen(std::uint64_t t) const;

    /// Long-run fraction of supply consumed: sum_ops cost / period.
    [[nodiscard]] double utilization() const;

    /// Window-independent stolen-time offset: sum_ops cost. Bounds the
    /// "+1" critical-instant terms of stolen(t) for the linear analysis.
    [[nodiscard]] std::uint64_t burst() const;
};

/// Maintenance-corrected supply bound function:
///   sbf_m(t) = sbf(max(0, t - stolen(t)), r)
/// The device is unavailable for at most stolen(t) of any window of
/// length t, so the interface's periodic guarantee is honored over the
/// remaining device-available time: the supply slips but is not consumed
/// by another port (the controller blocks ALL service during a
/// maintenance window and catches up after it). Each port therefore
/// loses only its own share of the stolen time in steady state --
/// essential for whole-tree feasibility, where charging every port the
/// full stolen service (sbf(t) - stolen(t)) would multiply the device's
/// maintenance utilization by the port count and blow past unit
/// capacity. Reduces to sbf() for an empty model.
[[nodiscard]] std::uint64_t maintenance_sbf(std::uint64_t t,
                                            const resource_interface& r,
                                            const maintenance_model& m);

/// Theorem 1's test bound, corrected for maintenance: stolen(t) is at
/// most mu*t + burst, so
///   lsbf_m(t) >= bw*((1 - mu)*t - burst - 2*(Pi-Theta))
/// and a dbf excursion above sbf_m past beta_m implies one before it,
/// where
///   beta_m = bw*(burst + 2*gap) / (bw*(1 - mu) - U),   gap = Pi - Theta.
/// Only defined when bw*(1 - mu) > U; returns 0 otherwise. Reduces to
/// theorem1_beta for an empty model.
[[nodiscard]] double maintenance_beta(const resource_interface& iface,
                                      double task_utilization,
                                      const maintenance_model& m);

/// maintenance_beta on precomputed terms: bandwidth = iface.bandwidth(),
/// gap = double(Pi) - double(Theta), mu = m.utilization() and
/// burst = double(m.burst()). The overload above is exactly this call, so
/// a caller probing many budgets against one model gets bit-identical
/// bounds without re-summing the model per budget.
[[nodiscard]] inline double maintenance_beta(double bandwidth, double gap,
                                             double task_utilization,
                                             double mu, double burst) {
    if (bandwidth * (1.0 - mu) <= task_utilization) return 0.0;
    return bandwidth * (burst + 2.0 * gap) /
           (bandwidth * (1.0 - mu) - task_utilization);
}

} // namespace bluescale::analysis
