// Deterministic schedules of runtime admission / reconfiguration requests.
//
// A reconfig_schedule is the workload-change analogue of a fault_campaign:
// a seed-driven, fully precomputed list of typed client events (task-set
// scale-ups/downs, joins, leaves) over a cycle horizon. Like the fault
// campaign it is pure data -- building one from the same config is
// bit-identical on every platform and for every trial-sweep thread count,
// so experiments that exercise core::reconfig_manager stay exactly as
// reproducible in a parallel harness::run_sweep as static-workload ones. The
// schedule only says WHEN and WHAT KIND of change a client requests; the
// harness derives the concrete task set deterministically from the event
// index (see harness::reconfig_experiment).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace bluescale::sim {

/// The admission-request taxonomy. Each action maps to one shape of
/// task-set change submitted to the reconfiguration manager.
enum class reconfig_action : std::uint8_t {
    /// The client's task set grows heavier by `magnitude` (x its current
    /// utilization). The canonical admission-test case: may be rejected.
    scale_up,
    /// The client's task set shrinks to `magnitude` (< 1) of its current
    /// utilization. Always feasible in isolation; frees supply.
    scale_down,
    /// A previously empty client joins with a fresh task set at
    /// `magnitude` utilization.
    join,
    /// The client's tasks all leave (task set becomes empty).
    leave,
};

inline constexpr std::size_t k_reconfig_actions = 4;

[[nodiscard]] const char* reconfig_action_name(reconfig_action a);

/// One scheduled request: client asks for `action` at cycle `at`.
struct reconfig_event {
    cycle_t at = 0;
    std::uint32_t client = 0;
    reconfig_action action{};
    /// Utilization scale factor (scale_up/scale_down) or target
    /// utilization (join); ignored for leave.
    double magnitude = 1.0;

    friend bool operator==(const reconfig_event&,
                           const reconfig_event&) = default;
};

/// Relative likelihood of each action, in reconfig_action order.
inline constexpr std::array<double, k_reconfig_actions> k_action_weights = {
    1.0, 1.0, 0.5, 0.5};
/// Magnitude range: scale_up draws in [1 + lo, 1 + hi]; scale_down in
/// [1 - hi, 1 - lo]; join draws a target utilization in [lo, hi].
inline constexpr double k_magnitude_lo = 0.25;
inline constexpr double k_magnitude_hi = 1.0;

struct reconfig_schedule_config {
    std::uint64_t seed = 1;
    /// Events are scheduled inside [warmup, horizon).
    cycle_t horizon = 100'000;
    cycle_t warmup = 0;
    /// Expected events per 1000 cycles (0 = static workload).
    double events_per_kcycle = 0.0;
    /// Clients eligible for events (picked uniformly).
    std::uint32_t n_clients = 1;
};

/// An immutable, chronologically sorted request schedule.
class reconfig_schedule {
public:
    /// Empty schedule: a static workload.
    reconfig_schedule() = default;
    /// Generates the schedule from the config (deterministic in cfg).
    explicit reconfig_schedule(const reconfig_schedule_config& cfg);
    /// Scripted schedule from explicit events (tests, targeted studies).
    explicit reconfig_schedule(std::vector<reconfig_event> events);

    [[nodiscard]] const std::vector<reconfig_event>& events() const {
        return events_;
    }
    [[nodiscard]] bool empty() const { return events_.empty(); }
    [[nodiscard]] std::size_t size() const { return events_.size(); }
    [[nodiscard]] std::uint64_t count(reconfig_action a) const;

private:
    std::vector<reconfig_event> events_;
};

} // namespace bluescale::sim
