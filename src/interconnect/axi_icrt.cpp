#include "interconnect/axi_icrt.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace bluescale {

axi_icrt::axi_icrt(std::uint32_t n_clients, axi_icrt_config cfg,
                   std::string name)
    : interconnect(std::move(name), n_clients), cfg_(cfg),
      regulators_(n_clients) {
    client_q_.reserve(n_clients);
    for (std::uint32_t c = 0; c < n_clients; ++c) {
        client_q_.emplace_back(cfg_.queue_depth);
    }
}

std::uint32_t axi_icrt::default_arb_latency(std::uint32_t n) {
    std::uint32_t depth = 0;
    while ((1u << depth) < n) ++depth;
    return std::max<std::uint32_t>(1, depth / 2);
}

void axi_icrt::set_client_share(client_id_t c, double share) {
    regulator& reg = regulators_[c];
    reg.enabled = true;
    reg.budget_per_period = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::floor(share *
                          static_cast<double>(k_regulation_period))));
    reg.budget = reg.budget_per_period;
}

bool axi_icrt::client_can_accept(client_id_t c) const {
    return client_q_[c].can_push();
}

void axi_icrt::client_push(client_id_t c, mem_request r) {
    assert(client_q_[c].can_push());
    note_injected();
    ++queued_;
    client_q_[c].push(std::move(r));
}

std::uint32_t axi_icrt::depth_of(client_id_t) const {
    // One demux crossing back through the switch box.
    return cfg_.arb_latency;
}

void axi_icrt::tick(cycle_t now) {
    // Refill bandwidth regulators at every regulation-window boundary.
    // Boundaries slept over by the event engine collapse into this one
    // refill: each is an absolute reset to budget_per_period, so only the
    // latest matters.
    if (now >= next_refill_) {
        for (auto& reg : regulators_) reg.budget = reg.budget_per_period;
        next_refill_ =
            (now / k_regulation_period + 1) * k_regulation_period;
    }

    // Central arbitration: earliest level-deadline among eligible heads.
    // The switch accepts one request per cycle while the memory queue has
    // room for what is already pipelined plus the new grant.
    if (queued_ > 0 && memory_can_accept() &&
        pipeline_.size() <
            static_cast<std::size_t>(std::max<std::uint32_t>(
                1, cfg_.arb_latency))) {
        int best = -1;
        cycle_t best_deadline = k_cycle_never;
        for (std::uint32_t c = 0; c < num_clients(); ++c) {
            if (client_q_[c].empty()) continue;
            const regulator& reg = regulators_[c];
            if (reg.enabled && reg.budget == 0) continue;
            if (client_q_[c].front().level_deadline < best_deadline) {
                best_deadline = client_q_[c].front().level_deadline;
                best = static_cast<int>(c);
            }
        }
        if (best >= 0) {
            mem_request granted =
                client_q_[static_cast<std::size_t>(best)].pop();
            --queued_;
            regulator& reg = regulators_[static_cast<std::size_t>(best)];
            if (reg.enabled) --reg.budget;
            for (auto& q : client_q_) {
                charge_blocked(q, granted.level_deadline, 1);
            }
            // Arbiter pipeline occupancy is bounded by the total queued
            // requests feeding it (per-client queue depths), so deque
            // chunk growth is capped and amortized across the run.
            // detlint:allow(hotpath-alloc): queue-bounded pipeline depth
            pipeline_.emplace_back(now + cfg_.arb_latency,
                                   std::move(granted));
        }
    }

    while (!pipeline_.empty() && pipeline_.front().first <= now &&
           memory_can_accept()) {
        forward_to_memory(now, std::move(pipeline_.front().second));
        pipeline_.pop_front();
    }

    drain_memory_responses(now);
    deliver_due_responses(now);
}

void axi_icrt::commit() {
    // queued_ counts staged pushes too, so zero means nothing to latch.
    if (queued_ == 0) return;
    for (auto& q : client_q_) q.commit();
}

} // namespace bluescale
