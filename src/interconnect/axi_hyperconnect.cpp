#include "interconnect/axi_hyperconnect.hpp"

#include <cassert>

namespace bluescale {

axi_hyperconnect::axi_hyperconnect(std::uint32_t n_clients,
                                   axi_hyperconnect_config cfg,
                                   std::string name)
    : interconnect(std::move(name), n_clients), cfg_(cfg),
      outstanding_(n_clients, 0) {
    client_q_.reserve(n_clients);
    for (std::uint32_t c = 0; c < n_clients; ++c) {
        client_q_.emplace_back(cfg_.queue_depth);
    }
}

bool axi_hyperconnect::client_can_accept(client_id_t c) const {
    return client_q_[c].can_push();
}

void axi_hyperconnect::client_push(client_id_t c, mem_request r) {
    assert(client_q_[c].can_push());
    note_injected();
    client_q_[c].push(std::move(r));
}

std::uint32_t axi_hyperconnect::depth_of(client_id_t) const {
    return k_hyperconnect_fabric_latency;
}

void axi_hyperconnect::tick(cycle_t now) {
    // Round-robin grant among clients that have a pending request and
    // spare outstanding credit.
    if (memory_can_accept()) {
        const std::uint32_t n = num_clients();
        for (std::uint32_t step = 0; step < n; ++step) {
            const std::uint32_t c = (rr_next_ + step) % n;
            if (client_q_[c].empty() ||
                outstanding_[c] >= k_hyperconnect_max_outstanding) {
                continue;
            }
            mem_request granted = client_q_[c].pop();
            ++outstanding_[c];
            for (auto& q : client_q_) {
                charge_blocked(q, granted.level_deadline, 1);
            }
            // Fabric pipeline occupancy is credit-bounded (at most
            // clients x k_hyperconnect_max_outstanding in flight), so deque
            // chunk growth is capped and amortized across the run.
            // detlint:allow(hotpath-alloc): credit-bounded pipeline depth
            pipeline_.emplace_back(now + k_hyperconnect_fabric_latency,
                                   std::move(granted));
            rr_next_ = (c + 1) % n;
            break;
        }
    }

    while (!pipeline_.empty() && pipeline_.front().first <= now &&
           memory_can_accept()) {
        forward_to_memory(now, std::move(pipeline_.front().second));
        pipeline_.pop_front();
    }

    drain_memory_responses(now);
    deliver_due_responses(now); // releases credits via the delivery hook
}

void axi_hyperconnect::commit() {
    for (auto& q : client_q_) q.commit();
}

} // namespace bluescale
