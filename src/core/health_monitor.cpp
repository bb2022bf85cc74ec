#include "core/health_monitor.hpp"

#include "core/bluescale_ic.hpp"

namespace bluescale::core {

health_monitor::health_monitor(bluescale_ic& fabric)
    : component("health_monitor"), fabric_(fabric),
      state_(fabric.total_ses()) {
    bind_observability(own_, obs::tracer{});
}

void health_monitor::bind_observability(obs::metric_store& reg,
                                        obs::tracer tracer) {
    degrade_events_ = reg.make_counter("health/degrade_events");
    recovery_events_ = reg.make_counter("health/recovery_events");
    time_to_recover_ = reg.make_sample("health/time_to_recover_cycles");
    trace_ = tracer;
}

void health_monitor::tick(cycle_t now) {
    if (now < next_check_) return;
    next_check_ = now + k_health_period;
    check(now);
}

void health_monitor::check(cycle_t now) {
    const auto& shape = fabric_.shape();
    for (std::uint32_t level = 0; level <= shape.leaf_level; ++level) {
        for (std::uint32_t order = 0; order < shape.ses_at_level(level);
             ++order) {
            scale_element& se = fabric_.se_at(level, order);
            element_state& st =
                state_[fabric_.se_linear_index(level, order)];
            const std::uint64_t stalls = se.fault_stall_cycles();
            const double ratio =
                static_cast<double>(stalls - st.last_stall_cycles) /
                static_cast<double>(k_health_period);
            st.last_stall_cycles = stalls;

            if (!se.degraded()) {
                if (ratio >= k_stall_enter) {
                    se.set_degraded(true);
                    st.degraded_since = now;
                    st.healthy_windows = 0;
                    degrade_events_.inc();
                }
                continue;
            }
            // Degraded: count consecutive quiet windows toward recovery.
            if (ratio <= k_stall_exit) {
                if (++st.healthy_windows >= k_recovery_windows) {
                    se.set_degraded(false);
                    st.healthy_windows = 0;
                    recovery_events_.inc();
                    time_to_recover_.add(
                        static_cast<double>(now - st.degraded_since));
                }
            } else {
                st.healthy_windows = 0;
            }
        }
    }
}

} // namespace bluescale::core
