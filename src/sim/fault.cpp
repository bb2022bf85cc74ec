#include "sim/fault.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "sim/rng.hpp"

namespace bluescale::sim {

namespace {

/// Total order making generated schedules independent of generation
/// order (and therefore of any future generator refactor).
bool event_before(const fault_event& a, const fault_event& b) {
    if (a.start != b.start) return a.start < b.start;
    if (a.kind != b.kind) return a.kind < b.kind;
    if (a.target != b.target) return a.target < b.target;
    return a.duration < b.duration;
}

} // namespace

const char* fault_kind_name(fault_kind k) {
    switch (k) {
    case fault_kind::se_stall: return "se_stall";
    case fault_kind::link_drop: return "link_drop";
    case fault_kind::dram_error: return "dram_error";
    case fault_kind::backpressure_storm: return "backpressure_storm";
    case fault_kind::maintenance_storm: return "maintenance_storm";
    case fault_kind::worker_crash: return "worker_crash";
    case fault_kind::worker_stall: return "worker_stall";
    }
    return "?";
}

fault_campaign::fault_campaign(const fault_campaign_config& cfg) {
    const std::array<double, k_fault_kinds> weights = {
        cfg.se_stall_weight,          cfg.link_drop_weight,
        cfg.dram_error_weight,        cfg.backpressure_weight,
        cfg.maintenance_storm_weight, cfg.worker_crash_weight,
        cfg.worker_stall_weight};
    double total_weight = 0.0;
    for (double w : weights) total_weight += w;

    const auto n_events = static_cast<std::uint64_t>(std::llround(
        cfg.events_per_kcycle * static_cast<double>(cfg.horizon) / 1000.0));
    if (n_events == 0 || total_weight <= 0.0 || cfg.horizon == 0) return;

    rng gen(cfg.seed);
    const cycle_t dur_lo = std::min(cfg.min_duration, cfg.max_duration);
    const cycle_t dur_hi = std::max(cfg.min_duration, cfg.max_duration);
    const std::uint32_t n_elements = std::max<std::uint32_t>(1, cfg.n_elements);
    const std::uint32_t n_workers = std::max<std::uint32_t>(1, cfg.n_workers);

    events_.reserve(n_events);
    for (std::uint64_t i = 0; i < n_events; ++i) {
        fault_event e;
        // Weighted kind pick by inverse CDF over the configured weights.
        double x = gen.uniform_real(0.0, total_weight);
        std::size_t k = 0;
        while (k + 1 < k_fault_kinds && x >= weights[k]) {
            x -= weights[k];
            ++k;
        }
        e.kind = static_cast<fault_kind>(k);
        if (e.kind == fault_kind::se_stall ||
            e.kind == fault_kind::link_drop) {
            e.target = static_cast<std::uint32_t>(
                gen.uniform_u64(0, n_elements - 1));
        } else if (e.kind == fault_kind::worker_crash ||
                   e.kind == fault_kind::worker_stall) {
            e.target = static_cast<std::uint32_t>(
                gen.uniform_u64(0, n_workers - 1));
        } else {
            e.target = 0;
        }
        e.start = gen.uniform_u64(0, cfg.horizon - 1);
        e.duration = gen.uniform_u64(dur_lo, dur_hi);
        events_.push_back(e);
    }
    std::sort(events_.begin(), events_.end(), event_before);
}

fault_campaign::fault_campaign(std::vector<fault_event> events)
    : events_(std::move(events)) {
    std::sort(events_.begin(), events_.end(), event_before);
}

std::uint64_t fault_campaign::count(fault_kind k) const {
    std::uint64_t n = 0;
    for (const auto& e : events_) {
        if (e.kind == k) ++n;
    }
    return n;
}

std::vector<fault_event> fault_campaign::slice(fault_kind k,
                                               std::uint32_t target) const {
    std::vector<fault_event> out;
    for (const auto& e : events_) {
        if (e.kind == k && e.target == target) out.push_back(e);
    }
    return out;
}

std::vector<fault_event> fault_campaign::slice_all(fault_kind k) const {
    std::vector<fault_event> out;
    for (const auto& e : events_) {
        if (e.kind == k) out.push_back(e);
    }
    return out;
}

fault_window::fault_window(std::vector<fault_event> events)
    : events_(std::move(events)) {
    std::sort(events_.begin(), events_.end(), event_before);
}

bool fault_window::active(cycle_t now) {
    while (cursor_ < events_.size() && events_[cursor_].start <= now) {
        const fault_event& e = events_[cursor_];
        const cycle_t end = e.start + e.duration;
        // Only count a window ENTRY: an event starting while a previous
        // one is still active extends the window rather than opening a
        // new one.
        if (e.start >= active_until_) ++activations_;
        if (end > active_until_) active_until_ = end;
        ++cursor_;
    }
    return now < active_until_;
}

cycle_t fault_window::wake_horizon(cycle_t now) const {
    // Stay on the per-cycle cadence through the merged open window AND
    // the first cycle after it, so the caller observes the falling edge
    // (active() returning false) with a real tick.
    if (now <= active_until_) return now + 1;
    if (cursor_ < events_.size()) {
        return std::max(now + 1, events_[cursor_].start);
    }
    return k_cycle_never;
}

} // namespace bluescale::sim
