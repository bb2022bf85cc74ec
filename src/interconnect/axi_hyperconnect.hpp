// AXI HyperConnect (Restuccia et al. [15], cited in the paper's Sec. 1):
// a predictable hypervisor-level centralized interconnect for FPGA
// accelerators. Unlike AXI-IC^RT's deadline-aware arbiter, HyperConnect
// achieves predictability through *fair* transaction-level round-robin
// over per-client queues plus a hard cap on each client's outstanding
// transactions -- bounding any client's interference on any other without
// knowing task parameters.
//
// Included as an extended baseline (not part of the paper's evaluated
// six): it sits between the heuristic trees (no fairness guarantee) and
// AXI-IC^RT (full deadline awareness).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "interconnect/interconnect.hpp"

namespace bluescale {

/// Pipeline latency of the central crossbar, in cycles.
inline constexpr std::uint32_t k_hyperconnect_fabric_latency = 2;
/// Maximum in-flight transactions per client (the hypervisor's
/// interference bound).
inline constexpr std::uint32_t k_hyperconnect_max_outstanding = 4;

struct axi_hyperconnect_config {
    std::size_t queue_depth = 4;
};

class axi_hyperconnect : public interconnect {
public:
    axi_hyperconnect(std::uint32_t n_clients,
                     axi_hyperconnect_config cfg = {},
                     std::string name = "axi_hyperconnect");

    [[nodiscard]] bool client_can_accept(client_id_t c) const override;
    void client_push(client_id_t c, mem_request r) override;
    [[nodiscard]] std::uint32_t depth_of(client_id_t c) const override;

    void tick(cycle_t now) override;
    void commit() override;

    /// Event-engine horizon: outstanding credits only change when a
    /// response is delivered, and responses exist only while requests are
    /// in flight; with nothing in flight tick() is a pure no-op.
    [[nodiscard]] cycle_t next_event(cycle_t now) const override {
        return in_flight() > 0 ? now + 1 : k_cycle_never;
    }

    [[nodiscard]] std::uint32_t outstanding(client_id_t c) const {
        return outstanding_[c];
    }

protected:
    void on_response_delivered(const mem_request& r) override {
        // Release the hypervisor's outstanding-transaction credit.
        if (outstanding_[r.client] > 0) --outstanding_[r.client];
    }

private:
    axi_hyperconnect_config cfg_;
    std::vector<latched_queue<mem_request>> client_q_;
    /// Transactions granted but not yet responded, per client.
    std::vector<std::uint32_t> outstanding_;
    std::uint32_t rr_next_ = 0; ///< round-robin pointer
    std::deque<std::pair<cycle_t, mem_request>> pipeline_;
};

} // namespace bluescale
