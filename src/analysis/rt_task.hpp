// Sporadic/periodic task abstraction used by the schedulability analysis.
#pragma once

#include <compare>
#include <cstdint>
#include <vector>

namespace bluescale::analysis {

/// A periodic task with implicit deadline: period T (== relative deadline)
/// and worst-case execution time C, both in integer time units (cycles), as
/// the paper assumes discrete time.
///
/// At the leaf level these are the Local Tasks' given parameters; at inner
/// levels a server task with interface (Pi, Theta) is treated as the task
/// (T = Pi, C = Theta).
struct rt_task {
    std::uint64_t period = 0; ///< T_i (and relative deadline D_i)
    std::uint64_t wcet = 0;   ///< C_i

    [[nodiscard]] double utilization() const {
        return period == 0 ? 0.0
                           : static_cast<double>(wcet) /
                                 static_cast<double>(period);
    }

    friend auto operator<=>(const rt_task&, const rt_task&) = default;
};

using task_set = std::vector<rt_task>;

/// Sum of C_i / T_i over the set.
[[nodiscard]] double utilization(const task_set& tasks);

/// Smallest period in the set; 0 for an empty set.
[[nodiscard]] std::uint64_t min_period(const task_set& tasks);

} // namespace bluescale::analysis
