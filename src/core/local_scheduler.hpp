// Local scheduler (paper Sec. 4.2, Fig. 3(a)): the SE's upper-level
// priority queue. Four server tasks -- one per local client port -- are
// realized with P-/B-counter pairs; pure combinational scheduling circuits
// pick the next port to serve in a single cycle.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "core/counters.hpp"
#include "core/random_access_buffer.hpp"
#include "sim/types.hpp"

namespace bluescale::core {

/// Number of local client ports per Scale Element.
inline constexpr std::uint32_t k_se_ports = 4;

/// Upper-level queue policy. The paper schedules server tasks GEDF
/// (Algorithm 1); fixed priority is provided as an ablation of the design
/// choice (port index == priority, lower wins).
enum class server_policy : std::uint8_t { gedf, fixed_priority };

class local_scheduler {
public:
    explicit local_scheduler(server_policy policy = server_policy::gedf)
        : policy_(policy) {}

    /// Programs server tau_p with (Pi, Theta) in time units. A port with
    /// budget 0 is disabled (unused / empty client).
    void configure_port(std::uint32_t port, std::uint32_t period_units,
                        std::uint32_t budget_units) {
        servers_[port].configure(period_units, budget_units);
        configured_ = true;
    }

    /// True once any port has been given an interface: the scheduler then
    /// runs in budgeted (compositional) mode.
    [[nodiscard]] bool configured() const { return configured_; }

    /// Advances every server by one time unit (period/budget refresh).
    void tick_unit() {
        for (auto& s : servers_) s.tick_unit();
    }

    /// Advances every server by `k` time units in closed form (the event
    /// engine's catch-up over slept unit boundaries; no grants happened
    /// in between, so this is exactly k tick_unit() calls).
    void advance_units(std::uint64_t k) {
        for (auto& s : servers_) s.advance_units(k);
    }

    /// Algorithm 1's outer pick: among server tasks that are ready (have
    /// budget and a pending request in their buffer), the one with the
    /// earliest deadline. Returns the port index, or nullopt when no
    /// budgeted server is ready.
    [[nodiscard]] std::optional<std::uint32_t>
    pick_budgeted(const std::array<random_access_buffer, k_se_ports>& bufs)
        const {
        std::optional<std::uint32_t> best;
        std::uint32_t best_deadline = 0;
        for (std::uint32_t p = 0; p < k_se_ports; ++p) {
            const server_task& s = servers_[p];
            if (!s.enabled() || !s.has_budget() || bufs[p].empty()) continue;
            if (!best) {
                best = p;
                best_deadline = s.units_to_deadline();
                if (policy_ == server_policy::fixed_priority) break;
            } else if (s.units_to_deadline() < best_deadline) {
                best = p;
                best_deadline = s.units_to_deadline();
            }
        }
        return best;
    }

    [[nodiscard]] const server_task& server(std::uint32_t port) const {
        return servers_[port];
    }
    [[nodiscard]] server_task& server(std::uint32_t port) {
        return servers_[port];
    }

private:
    server_policy policy_;
    std::array<server_task, k_se_ports> servers_{};
    bool configured_ = false;
};

} // namespace bluescale::core
