// DNN hardware-accelerator client (paper Secs. 6 / 6.4): a streaming
// engine that processes "layers" -- bursts of memory reads (weights /
// activations) followed by a compute phase -- continuously, which
// intensifies memory traffic and makes the client mix heterogeneous.
//
// The paper's HAs run SqueezeNet-class networks on MNIST/EMNIST/CIFAR-10;
// the interconnect only sees their layer-shaped burst traffic, which this
// model preserves. As in the paper's setup, the HA enforces its own
// bandwidth cap (1/#clients of the memory bandwidth) with a token-bucket
// regulator, since not all interconnects support reservation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "interconnect/interconnect.hpp"
#include "sim/component.hpp"
#include "sim/rng.hpp"

namespace bluescale::workload {

/// Requests per layer burst (weights + activations of one layer).
inline constexpr std::uint32_t k_dnn_burst_requests = 64;
/// Maximum outstanding requests within a burst (also the token bucket's
/// cap).
inline constexpr std::uint32_t k_dnn_window = 8;

struct dnn_config {
    /// Compute cycles between bursts (MAC array busy, no memory traffic).
    std::uint32_t compute_cycles = 400;
    /// Layers per inference; a new inference starts immediately.
    std::uint32_t layers = 18; ///< SqueezeNet-class depth
    /// Bandwidth cap as a fraction of memory throughput (paper:
    /// 1/#clients). Tokens refill continuously at this rate.
    double bandwidth_share = 1.0 / 16.0;
    /// Cycles per transaction time unit (memory initiation interval).
    std::uint32_t unit_cycles = 4;
};

class dnn_accelerator : public component {
public:
    dnn_accelerator(client_id_t id, dnn_config cfg, interconnect& net,
                    std::uint64_t seed);

    void tick(cycle_t now) override;

    /// Event-engine horizon. The token bucket accrues per cycle, so the
    /// accelerator stays on the per-cycle cadence until the bucket is
    /// pinned at its cap (the min-clamp makes further accrual ticks
    /// bit-exact no-ops); once there it sleeps only when blocked purely
    /// on responses, and on_response() wakes it.
    [[nodiscard]] cycle_t next_event(cycle_t now) const override;

    void on_response(mem_request&& r);

    [[nodiscard]] client_id_t id() const { return id_; }
    [[nodiscard]] std::uint64_t requests_issued() const { return issued_; }
    [[nodiscard]] std::uint64_t inferences_completed() const {
        return inferences_;
    }

private:
    client_id_t id_;
    dnn_config cfg_;
    interconnect& net_;
    rng rng_;
    std::uint32_t layer_ = 0;
    std::uint32_t burst_left_ = 0;   ///< requests not yet issued this layer
    std::uint32_t outstanding_ = 0;
    std::uint32_t compute_left_ = 0; ///< compute phase countdown
    double tokens_ = 0.0;            ///< bandwidth-regulator bucket
    std::uint64_t issued_ = 0;
    std::uint64_t inferences_ = 0;
    std::uint64_t seq_ = 0;
    request_id_t next_request_id_;
};

} // namespace bluescale::workload
