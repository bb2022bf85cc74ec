#include "analysis/maintenance.hpp"

namespace bluescale::analysis {

bool maintenance_model::empty() const {
    for (const auto& op : ops) {
        if (op.period > 0 && op.cost > 0) return false;
    }
    return true;
}

std::uint64_t maintenance_model::stolen(std::uint64_t t) const {
    if (t == 0) return 0;
    std::uint64_t total = 0;
    for (const auto& op : ops) {
        if (op.period == 0 || op.cost == 0) continue;
        total += (t / op.period + 1) * op.cost;
    }
    return total;
}

double maintenance_model::utilization() const {
    double u = 0.0;
    for (const auto& op : ops) {
        if (op.period == 0 || op.cost == 0) continue;
        u += static_cast<double>(op.cost) / static_cast<double>(op.period);
    }
    return u;
}

std::uint64_t maintenance_model::burst() const {
    std::uint64_t b = 0;
    for (const auto& op : ops) {
        if (op.period == 0 || op.cost == 0) continue;
        b += op.cost;
    }
    return b;
}

std::uint64_t maintenance_sbf(std::uint64_t t, const resource_interface& r,
                              const maintenance_model& m) {
    const std::uint64_t theft = m.stolen(t);
    return sbf(t > theft ? t - theft : 0, r);
}

double maintenance_beta(const resource_interface& iface,
                        double task_utilization, const maintenance_model& m) {
    return maintenance_beta(
        iface.bandwidth(),
        static_cast<double>(iface.period) - static_cast<double>(iface.budget),
        task_utilization, m.utilization(), static_cast<double>(m.burst()));
}

} // namespace bluescale::analysis
