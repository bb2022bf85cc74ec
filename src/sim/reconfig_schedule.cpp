#include "sim/reconfig_schedule.hpp"

#include <algorithm>
#include <cmath>

#include "sim/rng.hpp"

namespace bluescale::sim {

namespace {

/// Total order making generated schedules independent of generation
/// order (mirrors fault_campaign's event_before).
bool event_before(const reconfig_event& a, const reconfig_event& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.client != b.client) return a.client < b.client;
    if (a.action != b.action) return a.action < b.action;
    return a.magnitude < b.magnitude;
}

} // namespace

const char* reconfig_action_name(reconfig_action a) {
    switch (a) {
    case reconfig_action::scale_up: return "scale_up";
    case reconfig_action::scale_down: return "scale_down";
    case reconfig_action::join: return "join";
    case reconfig_action::leave: return "leave";
    }
    return "?";
}

reconfig_schedule::reconfig_schedule(const reconfig_schedule_config& cfg) {
    double total_weight = 0.0;
    for (double w : k_action_weights) total_weight += w;

    const cycle_t span =
        cfg.horizon > cfg.warmup ? cfg.horizon - cfg.warmup : 0;
    const auto n_events = static_cast<std::uint64_t>(std::llround(
        cfg.events_per_kcycle * static_cast<double>(span) / 1000.0));
    if (n_events == 0 || span == 0 || cfg.n_clients == 0) {
        return;
    }

    rng gen(cfg.seed);

    events_.reserve(n_events);
    for (std::uint64_t i = 0; i < n_events; ++i) {
        reconfig_event e;
        double x = gen.uniform_real(0.0, total_weight);
        std::size_t a = 0;
        while (a + 1 < k_reconfig_actions && x >= k_action_weights[a]) {
            x -= k_action_weights[a];
            ++a;
        }
        e.action = static_cast<reconfig_action>(a);
        e.client =
            static_cast<std::uint32_t>(gen.uniform_u64(0, cfg.n_clients - 1));
        e.at = cfg.warmup + gen.uniform_u64(0, span - 1);
        const double m = gen.uniform_real(k_magnitude_lo, k_magnitude_hi);
        switch (e.action) {
        case reconfig_action::scale_up: e.magnitude = 1.0 + m; break;
        case reconfig_action::scale_down:
            e.magnitude = std::max(0.0, 1.0 - m);
            break;
        case reconfig_action::join: e.magnitude = m; break;
        case reconfig_action::leave: e.magnitude = 0.0; break;
        }
        events_.push_back(e);
    }
    std::sort(events_.begin(), events_.end(), event_before);
}

reconfig_schedule::reconfig_schedule(std::vector<reconfig_event> events)
    : events_(std::move(events)) {
    std::sort(events_.begin(), events_.end(), event_before);
}

std::uint64_t reconfig_schedule::count(reconfig_action a) const {
    std::uint64_t n = 0;
    for (const auto& e : events_) {
        if (e.action == a) ++n;
    }
    return n;
}

} // namespace bluescale::sim
