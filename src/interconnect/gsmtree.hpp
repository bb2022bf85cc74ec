// GSMTree: a globally arbitrated memory tree (paper Sec. 2/6; Gomony et
// al. [7, 8]). The tree is scheduled by a global TDM frame: each slot
// admits (at most) one request from one designated client, which then
// traverses the contention-free pipeline to the memory. Two reservation
// strategies from the paper's evaluation:
//   * TDM:  equal slots for every client.
//   * FBSP: slots proportional to each client's maximum workload
//           (frame-based slot proportional reservation).
//
// TDM trees are predictable but non-work-conserving: a slot whose owner
// has nothing pending is wasted, which is exactly the average-latency
// penalty the paper observes.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "interconnect/interconnect.hpp"

namespace bluescale {

enum class gsm_reservation : std::uint8_t {
    tdm,  ///< equal bandwidth for all clients
    fbsp, ///< bandwidth proportional to declared client workload
};

struct gsmtree_config {
    gsm_reservation reservation = gsm_reservation::tdm;
    /// Cycles per TDM slot; one memory transaction per slot. Matched to
    /// the memory controller's initiation interval by the harness.
    std::uint32_t slot_cycles = 4;
    /// Per-client admission queue depth.
    std::size_t queue_depth = 4;
    /// FBSP: relative workload weight per client (utilization share).
    /// Empty (or for TDM) means equal weights.
    std::vector<double> client_weights;
};

class gsmtree : public interconnect {
public:
    gsmtree(std::uint32_t n_clients, gsmtree_config cfg = {},
            std::string name = "gsmtree");

    [[nodiscard]] bool client_can_accept(client_id_t c) const override;
    void client_push(client_id_t c, mem_request r) override;
    [[nodiscard]] std::uint32_t depth_of(client_id_t c) const override;
    bool bind_client_drain(client_id_t c, sim::wake_hook hook) override {
        client_q_[c].set_drain_hook(hook);
        return true;
    }

    void tick(cycle_t now) override;
    void commit() override;

    /// Event-engine horizon: queued requests can only be admitted at TDM
    /// slot boundaries (the slot owner is a pure function of `now`, so
    /// nothing rotates between them), pipelined requests exit at their
    /// root-arrival cycle, and responses follow response_horizon(). An
    /// idle fabric sleeps until client_push() or a retiring response
    /// wakes it.
    [[nodiscard]] cycle_t next_event(cycle_t now) const override;

    [[nodiscard]] const std::vector<client_id_t>& slot_table() const {
        return slot_table_;
    }

private:
    void build_slot_table();

    gsmtree_config cfg_;
    std::uint32_t levels_;
    std::vector<latched_queue<mem_request>> client_q_;
    std::vector<client_id_t> slot_table_;
    /// Requests in the tree pipeline: (cycle they reach the root, request).
    std::deque<std::pair<cycle_t, mem_request>> pipeline_;
    /// Requests resident in the admission queues (visible + staged);
    /// drives next_event() and gates the commit walk.
    std::uint64_t queued_ = 0;
};

} // namespace bluescale
