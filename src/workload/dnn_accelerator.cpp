#include "workload/dnn_accelerator.hpp"

#include <algorithm>
#include <cassert>

namespace bluescale::workload {

dnn_accelerator::dnn_accelerator(client_id_t id, dnn_config cfg,
                                 interconnect& net, std::uint64_t seed)
    : component("dnn_ha_" + std::to_string(id)), id_(id), cfg_(cfg),
      net_(net), rng_(seed), burst_left_(k_dnn_burst_requests),
      next_request_id_((static_cast<request_id_t>(id) << 40) | 1u) {}

void dnn_accelerator::tick(cycle_t now) {
    // Token bucket: `bandwidth_share` of one transaction per unit.
    tokens_ = std::min(
        tokens_ + cfg_.bandwidth_share / cfg_.unit_cycles,
        static_cast<double>(k_dnn_window));

    if (compute_left_ > 0) {
        --compute_left_;
        return;
    }

    if (burst_left_ > 0) {
        if (tokens_ >= 1.0 && outstanding_ < k_dnn_window &&
            net_.client_can_accept(id_)) {
            mem_request r;
            r.id = next_request_id_++;
            r.client = id_;
            r.task = static_cast<task_id_t>(layer_ + 1);
            // Layer weights stream sequentially from a per-layer region.
            r.addr = (static_cast<std::uint64_t>(id_) * 1024 + layer_) *
                         (1u << 20) +
                     (seq_++ % 16'384) * 64;
            r.op = mem_op::read;
            r.issue_cycle = now;
            r.hop_arrival = now;
            // Streaming engine: soft deadline one layer ahead.
            r.abs_deadline =
                now + static_cast<cycle_t>(k_dnn_burst_requests) *
                          cfg_.unit_cycles * 4;
            r.level_deadline = r.abs_deadline;
            tokens_ -= 1.0;
            ++outstanding_;
            ++issued_;
            --burst_left_;
            net_.client_push(id_, std::move(r));
        }
        return;
    }

    // Burst fully issued: wait for the window to drain, then compute.
    if (outstanding_ == 0) {
        compute_left_ = cfg_.compute_cycles;
        ++layer_;
        if (layer_ >= cfg_.layers) {
            layer_ = 0;
            ++inferences_;
        }
        burst_left_ = k_dnn_burst_requests;
    }
}

cycle_t dnn_accelerator::next_event(cycle_t now) const {
    if (compute_left_ > 0) return now + 1;
    // Below the cap the bucket gains tokens every cycle; at the cap the
    // clamp makes accrual a bit-exact no-op, so sleeping there is safe.
    if (tokens_ < static_cast<double>(k_dnn_window)) return now + 1;
    // Port backpressure has no wake signal, so an issuable burst request
    // keeps the per-cycle cadence; a full window is drained by responses
    // (which wake us), and so is the end-of-burst wait.
    if (burst_left_ > 0 && outstanding_ < k_dnn_window) return now + 1;
    return k_cycle_never;
}

void dnn_accelerator::on_response(mem_request&& r) {
    assert(r.client == id_);
    assert(outstanding_ > 0);
    wake(); // window space / end-of-burst progress opens next cycle
    --outstanding_;
    (void)r;
}

} // namespace bluescale::workload
