// AXI-InterconnectRT (paper Sec. 1/6; Jiang et al. [11]): a centralized
// real-time interconnect. A monolithic switch box buffers every client's
// requests and a central arbiter with a global view grants the pending
// request with the earliest deadline, subject to optional per-client
// bandwidth regulation ("allocating memory bandwidth to a client based on
// its workload").
//
// Centralization buys near-optimal scheduling at small scale; its cost is
// hardware scalability: the monolithic arbiter's logic grows with the
// client count, which lowers the synthesizable clock frequency (captured
// by hwcost::frequency_model, used when converting cycles to wall-clock).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "interconnect/interconnect.hpp"

namespace bluescale {

/// Bandwidth-regulation window, in cycles. Regulation is enabled per
/// client via axi_icrt::set_client_share().
inline constexpr cycle_t k_regulation_period = 256;

struct axi_icrt_config {
    /// Per-client buffer depth in the switch box.
    std::size_t queue_depth = 4;
    /// Pipeline latency of the monolithic mux/arbiter, in cycles (grows
    /// with the mux tree depth; the factory default is log2(n)/2).
    std::uint32_t arb_latency = 2;
};

class axi_icrt : public interconnect {
public:
    axi_icrt(std::uint32_t n_clients, axi_icrt_config cfg = {},
             std::string name = "axi_icrt");

    /// Reserves `share` (fraction of total transaction throughput) for
    /// client c; the regulator refills the client's request budget every
    /// k_regulation_period. Unset clients are unregulated.
    void set_client_share(client_id_t c, double share);

    [[nodiscard]] bool client_can_accept(client_id_t c) const override;
    void client_push(client_id_t c, mem_request r) override;
    [[nodiscard]] std::uint32_t depth_of(client_id_t c) const override;
    bool bind_client_drain(client_id_t c, sim::wake_hook hook) override {
        client_q_[c].set_drain_hook(hook);
        return true;
    }

    void tick(cycle_t now) override;
    void commit() override;

    /// Event-engine horizon: per-cycle while the switch box holds
    /// requests (central arbitration contends every cycle), else the
    /// arbiter pipeline's exit time and the response path. Regulator
    /// refills are caught up in closed form at the next tick (see
    /// next_refill_ -- a refill is an absolute reset, so skipped
    /// boundaries collapse to one) and so never force a wake on their
    /// own. Requests parked at the memory controller need no fabric
    /// ticks: their responses re-arm us via the attach_memory() wake.
    [[nodiscard]] cycle_t next_event(cycle_t now) const override {
        if (queued_ > 0) return now + 1;
        cycle_t due = response_horizon(now);
        if (!pipeline_.empty()) {
            // A pipeline head already due but blocked on a full memory
            // queue degrades to per-cycle polling via the clamp.
            due = std::min(due, std::max(now + 1, pipeline_.front().first));
        }
        return due;
    }

    /// Default arbiter pipeline depth for an n-client monolithic switch.
    [[nodiscard]] static std::uint32_t default_arb_latency(std::uint32_t n);

private:
    struct regulator {
        bool enabled = false;
        std::uint64_t budget_per_period = 0;
        std::uint64_t budget = 0;
    };

    axi_icrt_config cfg_;
    std::vector<latched_queue<mem_request>> client_q_;
    std::vector<regulator> regulators_;
    /// Next regulation-window boundary not yet applied; tick() refills
    /// through every boundary in (previous, now] at once.
    cycle_t next_refill_ = 0;
    /// Granted requests in the arbiter pipeline: (exit cycle, request).
    std::deque<std::pair<cycle_t, mem_request>> pipeline_;
    /// Requests resident in the switch-box queues (visible + staged);
    /// drives next_event() and gates the commit walk.
    std::uint64_t queued_ = 0;
};

} // namespace bluescale
