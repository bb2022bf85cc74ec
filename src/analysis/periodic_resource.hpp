// Shin & Lee's periodic resource model (RTSS'03), as used by the paper to
// characterize a Virtual Element's supply.
#pragma once

#include <cstdint>

namespace bluescale::analysis {

/// The interface of a Virtual Element: at least `budget` (Theta) time units
/// of service are guaranteed every `period` (Pi) time units.
struct resource_interface {
    std::uint64_t period = 0; ///< Pi
    std::uint64_t budget = 0; ///< Theta (<= Pi)

    [[nodiscard]] double bandwidth() const {
        return period == 0 ? 0.0
                           : static_cast<double>(budget) /
                                 static_cast<double>(period);
    }

    friend bool operator==(const resource_interface&,
                           const resource_interface&) = default;
};

/// Supply bound function: the minimum service guaranteed to the VE in any
/// interval of length t (paper Sec. 5, from [17]):
///
///   sbf(t) = 0                                   if t' < 0
///   sbf(t) = floor(t'/Pi) * Theta + eps          if t' >= 0
///   where t'  = t - (Pi - Theta)
///         eps = max(t' - Pi*floor(t'/Pi) - (Pi - Theta), 0)
[[nodiscard]] std::uint64_t sbf(std::uint64_t t, const resource_interface& r);

/// Inverse of sbf in the budget: the smallest Theta in [0, period] with
/// sbf(t, {period, Theta}) >= demand, or period + 1 when even Theta =
/// period falls short. For fixed t and Pi, sbf is nondecreasing and
/// piecewise linear in Theta. With t = q*Pi + s (0 <= s < Pi):
///
///   Theta <  ceil((Pi - s)/2)            : (q - 1)*Theta      (0 if q = 0)
///   Theta <  Pi - s                      : (q + 1)*Theta + s - Pi
///                                                             (0 if q = 0)
///   Theta <  ceil((2Pi - s)/2)           : q*Theta
///   Theta <= Pi                          : (q + 2)*Theta + s - 2Pi
///
/// so the answer is one ceiling division in the first piece that reaches
/// the demand. Monotonicity makes "sbf(t, {Pi, Theta}) < demand" the same
/// as "Theta < min_budget_for_supply(t, Pi, demand)". Maintenance only
/// shifts t (maintenance_sbf(t) = sbf(t - stolen(t))), so the same
/// inversion serves the maintenance-corrected supply.
[[nodiscard]] std::uint64_t min_budget_for_supply(std::uint64_t t,
                                                  std::uint64_t period,
                                                  std::uint64_t demand);

/// Linear lower bound on sbf used in Theorem 1's proof:
///   lsbf(t) = (Theta/Pi) * (t - 2(Pi - Theta)), clamped at 0.
[[nodiscard]] double lsbf(std::uint64_t t, const resource_interface& r);

} // namespace bluescale::analysis
