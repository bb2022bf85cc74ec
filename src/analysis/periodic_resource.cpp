#include "analysis/periodic_resource.hpp"

#include <algorithm>
#include <cassert>

namespace bluescale::analysis {

std::uint64_t sbf(std::uint64_t t, const resource_interface& r) {
    assert(r.budget <= r.period);
    if (r.period == 0 || r.budget == 0) return 0;
    const std::uint64_t gap = r.period - r.budget;
    if (t < gap) return 0;
    const std::uint64_t t_prime = t - gap;
    const std::uint64_t whole_periods = t_prime / r.period;
    const std::uint64_t remainder = t_prime - whole_periods * r.period;
    const std::uint64_t eps = remainder > gap ? remainder - gap : 0;
    return whole_periods * r.budget + std::min<std::uint64_t>(eps, r.budget);
}

std::uint64_t min_budget_for_supply(std::uint64_t t, std::uint64_t period,
                                    std::uint64_t demand) {
    if (demand == 0) return 0;
    if (period == 0) return 1; // no supply at all: period + 1
    const std::uint64_t q = t / period;
    const std::uint64_t s = t % period;
    // The four pieces of the header comment, each as
    // slope * Theta >= need over Theta in [first, last]. Every knee is at
    // least 1 because s < Pi.
    const std::uint64_t knee1 = (period - s + 1) / 2;
    const std::uint64_t knee2 = period - s;
    const std::uint64_t knee3 = (2 * period - s + 1) / 2;
    struct piece {
        std::uint64_t first, last, slope, need;
    };
    const piece pieces[] = {
        {0, knee1 - 1, q > 0 ? q - 1 : 0, demand},
        {knee1, knee2 - 1, q > 0 ? q + 1 : 0, demand + (period - s)},
        {knee2, knee3 - 1, q, demand},
        {knee3, period, q + 2, demand + (2 * period - s)},
    };
    for (const piece& p : pieces) {
        if (p.first > p.last || p.slope * p.last < p.need) continue;
        return std::max(p.first, p.need / p.slope + (p.need % p.slope != 0));
    }
    return period + 1;
}

double lsbf(std::uint64_t t, const resource_interface& r) {
    if (r.period == 0) return 0.0;
    const double bw = r.bandwidth();
    const double shifted = static_cast<double>(t) -
                           2.0 * static_cast<double>(r.period - r.budget);
    return std::max(0.0, bw * shifted);
}

} // namespace bluescale::analysis
