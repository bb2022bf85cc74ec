// Health monitor (fault & recovery subsystem): a lightweight supervisor
// that samples every Scale Element's stall counter on a fixed cadence and
// flips unhealthy elements into degraded mode (work-conserving nested EDF,
// see scale_element::set_degraded). Hysteresis -- a higher enter threshold
// than exit threshold plus a required run of consecutive healthy windows --
// keeps a marginal element from oscillating between modes.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/component.hpp"
#include "stats/summary.hpp"

namespace bluescale::core {

class bluescale_ic;

/// Cycles between health checks (one stall-ratio sample per window).
inline constexpr cycle_t k_health_period = 1024;
/// Stall-cycle ratio (stalled cycles / window) at or above which a
/// healthy element is degraded.
inline constexpr double k_stall_enter = 0.05;
/// Ratio at or below which a degraded element's window counts as
/// healthy; below k_stall_enter for hysteresis.
inline constexpr double k_stall_exit = 0.01;
/// Consecutive healthy windows required before a degraded element is
/// restored to budgeted compositional mode.
inline constexpr std::uint32_t k_recovery_windows = 3;

class health_monitor : public component {
public:
    explicit health_monitor(bluescale_ic& fabric);

    void tick(cycle_t now) override;

    /// Event-engine horizon: a pure cadence -- nothing happens between
    /// checks, so the next one is the only wakeup needed.
    [[nodiscard]] cycle_t next_event(cycle_t) const override {
        return next_check_;
    }

    /// Re-homes the supervision counters into `reg` under "health/..."
    /// and attaches the trace stream; call before the trial starts.
    void bind_observability(obs::metric_store& reg, obs::tracer tracer);

    /// Healthy -> degraded transitions.
    [[nodiscard]] std::uint64_t degrade_events() const {
        return degrade_events_.value();
    }
    /// Degraded -> healthy transitions.
    [[nodiscard]] std::uint64_t recovery_events() const {
        return recovery_events_.value();
    }
    /// Degrade -> recovery spans, in cycles (recovered episodes only).
    /// The SE-cycles spent degraded are each element's degraded_cycles().
    [[nodiscard]] const stats::sample_set& time_to_recover() const {
        return time_to_recover_.values();
    }

private:
    struct element_state {
        std::uint64_t last_stall_cycles = 0;
        std::uint32_t healthy_windows = 0;
        cycle_t degraded_since = 0;
    };

    void check(cycle_t now);

    bluescale_ic& fabric_;
    cycle_t next_check_ = k_health_period;
    std::vector<element_state> state_; ///< indexed by se_linear_index
    /// Metrics bind_observability registers (own_'s capacity), and how
    /// many of them are sample metrics.
    static constexpr std::size_t k_metric_count = 3;
    static constexpr std::size_t k_sample_count = 1;
    /// Unnamed storage while unbound (bind_observability re-homes the
    /// handles).
    obs::value_block own_{k_metric_count, k_sample_count};
    obs::counter degrade_events_;
    obs::counter recovery_events_;
    obs::sample time_to_recover_;
    obs::tracer trace_;
};

} // namespace bluescale::core
