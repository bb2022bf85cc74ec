// BlueTree distributed memory interconnect (paper Sec. 2; Audsley [3]):
// a binary tree of 2-to-1 multiplexers, each with a local arbiter using the
// blocking-factor heuristic: every `alpha` requests from the left (local
// high-priority) input allow at most one request from the right (local
// low-priority) input to pass. With alpha == 1 the node degenerates to
// round-robin.
//
// BlueTree-Smooth (Wang et al. [19]) is the same fabric with deeper buffers
// along the access paths plus an output register stage per node, which
// smooths bursts at the cost of one extra cycle per hop.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "interconnect/interconnect.hpp"

namespace bluescale {

struct bluetree_config {
    /// Blocking factor alpha (paper Sec. 2.2; default 2 as in Sec. 6).
    std::uint32_t alpha = 2;
    /// Per-input queue depth at every node.
    std::size_t queue_depth = 2;
    /// Smoothing: adds a per-node output buffer stage of this depth
    /// (0 = plain BlueTree; BlueTree-Smooth uses > 0).
    std::size_t smooth_depth = 0;
};

class bluetree : public interconnect {
public:
    bluetree(std::uint32_t n_clients, bluetree_config cfg = {},
             std::string name = "bluetree");

    [[nodiscard]] bool client_can_accept(client_id_t c) const override;
    void client_push(client_id_t c, mem_request r) override;
    [[nodiscard]] std::uint32_t depth_of(client_id_t c) const override;
    bool bind_client_drain(client_id_t c, sim::wake_hook hook) override {
        nodes_[leaf_base_ + c / 2].in[c % 2].set_drain_hook(hook);
        return true;
    }

    void tick(cycle_t now) override;
    void commit() override;

    /// Event-engine horizon: per-cycle while any node holds a request
    /// (arbitration contends every cycle), else the response path. A
    /// request sitting at the memory controller needs no fabric ticks:
    /// its response re-arms us via the attach_memory() wake, and
    /// client_push() re-arms through note_injected().
    [[nodiscard]] cycle_t next_event(cycle_t now) const override {
        return items_total_ > 0 ? now + 1 : response_horizon(now);
    }

    [[nodiscard]] const bluetree_config& config() const { return cfg_; }
    [[nodiscard]] std::uint32_t levels() const { return levels_; }

    /// Convenience factory for the smoothed variant with defaults from the
    /// paper's evaluation setup.
    static bluetree make_smooth(std::uint32_t n_clients,
                                std::uint32_t alpha = 2);

private:
    struct node {
        node(std::size_t queue_depth, std::size_t smooth_depth)
            : in{latched_queue<mem_request>(queue_depth),
                 latched_queue<mem_request>(queue_depth)},
              out(smooth_depth > 0
                      ? std::optional<latched_queue<mem_request>>(
                            std::in_place, smooth_depth)
                      : std::nullopt) {}

        latched_queue<mem_request> in[2];
        /// Engaged only in the smoothed variant.
        std::optional<latched_queue<mem_request>> out;
        std::int32_t parent = -1; ///< node index; -1 == root
        std::uint8_t parent_port = 0;
        std::uint32_t hp_run = 0; ///< consecutive high-priority grants
    };

    /// True if the node's downstream sink can take one request.
    [[nodiscard]] bool sink_can_accept(const node& n) const;
    void sink_push(std::uint32_t i, cycle_t now, mem_request r);
    void arbitrate(std::uint32_t i, cycle_t now);

    bluetree_config cfg_;
    std::uint32_t padded_clients_;
    std::uint32_t levels_;
    std::vector<node> nodes_;
    std::uint32_t leaf_base_; ///< index of first leaf node
    /// Requests resident in node i's queues (visible + staged), kept in
    /// one contiguous array so tick()/commit() skip empty nodes without
    /// chasing per-queue storage. items_total_ is the fabric-wide sum
    /// and drives next_event().
    std::vector<std::uint32_t> node_items_;
    std::uint64_t items_total_ = 0;
};

} // namespace bluescale
