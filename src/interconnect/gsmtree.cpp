#include "interconnect/gsmtree.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace bluescale {

namespace {
std::uint32_t tree_levels(std::uint32_t n) {
    std::uint32_t levels = 1;
    while ((1u << levels) < n) ++levels;
    return levels;
}
} // namespace

gsmtree::gsmtree(std::uint32_t n_clients, gsmtree_config cfg,
                 std::string name)
    : interconnect(std::move(name), n_clients), cfg_(std::move(cfg)),
      levels_(tree_levels(n_clients)) {
    client_q_.reserve(n_clients);
    for (std::uint32_t c = 0; c < n_clients; ++c) {
        client_q_.emplace_back(cfg_.queue_depth);
    }
    build_slot_table();
}

void gsmtree::build_slot_table() {
    const std::uint32_t n = num_clients();
    slot_table_.clear();

    if (cfg_.reservation == gsm_reservation::tdm ||
        cfg_.client_weights.empty()) {
        // Equal bandwidth: one slot per client.
        for (client_id_t c = 0; c < n; ++c) slot_table_.push_back(c);
        return;
    }

    // FBSP: every client is guaranteed one slot per frame (a reservation
    // scheme must not starve light clients), and the remaining slots are
    // apportioned by smooth weighted round-robin over the declared
    // workloads, which also spreads each client's slots evenly. The frame
    // is two slots per client.
    assert(cfg_.client_weights.size() == n);
    const std::uint32_t frame = 2 * n;
    std::vector<std::uint32_t> slots(n, 1);
    double total = 0.0;
    for (double w : cfg_.client_weights) total += std::max(w, 1e-9);
    std::vector<double> credit(n, 0.0);
    for (std::uint32_t s = n; s < frame; ++s) {
        std::uint32_t best = 0;
        for (std::uint32_t c = 0; c < n; ++c) {
            credit[c] += std::max(cfg_.client_weights[c], 1e-9);
            if (credit[c] > credit[best]) best = c;
        }
        credit[best] -= total;
        ++slots[best];
    }
    // Interleave: place each client's k slots at evenly spaced frame
    // positions (next free slot on collision), heaviest clients first so
    // they get the most even spread.
    std::vector<client_id_t> table(frame, n); // n == unassigned
    std::vector<std::uint32_t> order(n);
    for (std::uint32_t c = 0; c < n; ++c) order[c] = c;
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return slots[a] > slots[b];
              });
    for (const std::uint32_t c : order) {
        for (std::uint32_t i = 0; i < slots[c]; ++i) {
            std::uint32_t pos = static_cast<std::uint32_t>(
                (static_cast<std::uint64_t>(i) * frame) / slots[c]);
            while (table[pos] != n) pos = (pos + 1) % frame;
            table[pos] = c;
        }
    }
    slot_table_ = std::move(table);
}

bool gsmtree::client_can_accept(client_id_t c) const {
    return client_q_[c].can_push();
}

void gsmtree::client_push(client_id_t c, mem_request r) {
    assert(client_q_[c].can_push());
    note_injected();
    ++queued_;
    client_q_[c].push(std::move(r));
}

std::uint32_t gsmtree::depth_of(client_id_t) const { return levels_; }

void gsmtree::tick(cycle_t now) {
    // Slot boundary: admit the owner's head request into the tree.
    if (now % cfg_.slot_cycles == 0) {
        const std::size_t slot =
            static_cast<std::size_t>(now / cfg_.slot_cycles) %
            slot_table_.size();
        const client_id_t owner = slot_table_[slot];
        if (!client_q_[owner].empty()) {
            mem_request granted = client_q_[owner].pop();
            --queued_;
            // Requests of other clients with earlier deadlines wait out
            // this whole slot: charge the slot as inversion blocking.
            for (auto& q : client_q_) {
                charge_blocked(q, granted.level_deadline, cfg_.slot_cycles);
            }
            // Tree pipeline holds at most one request per slot in flight
            // over `levels_` cycles, so deque chunk growth is capped and
            // amortized across the run.
            // detlint:allow(hotpath-alloc): slot-bounded pipeline depth
            pipeline_.emplace_back(now + levels_, std::move(granted));
        }
    }

    // Pipeline exit: hand requests that reached the root to the memory.
    while (!pipeline_.empty() && pipeline_.front().first <= now &&
           memory_can_accept()) {
        forward_to_memory(now, std::move(pipeline_.front().second));
        pipeline_.pop_front();
    }

    drain_memory_responses(now);
    deliver_due_responses(now);
}

void gsmtree::commit() {
    // queued_ counts staged pushes too, so zero means nothing to latch.
    if (queued_ == 0) return;
    for (auto& q : client_q_) q.commit();
}

cycle_t gsmtree::next_event(cycle_t now) const {
    cycle_t due = response_horizon(now);
    if (queued_ > 0) {
        // Next slot boundary; the blocking charge for a granted slot is
        // applied at the boundary tick itself, so the cycles between
        // boundaries are provable no-ops for the admission stage.
        due = std::min(due,
                       (now / cfg_.slot_cycles + 1) * cfg_.slot_cycles);
    }
    if (!pipeline_.empty()) {
        // A root arrival already due but blocked on a full memory queue
        // degrades to per-cycle polling via the clamp.
        due = std::min(due, std::max(now + 1, pipeline_.front().first));
    }
    return due;
}

} // namespace bluescale
