#include "interconnect/bluetree.hpp"

#include <cassert>

namespace bluescale {

namespace {
std::uint32_t pad_to_pow2(std::uint32_t n) {
    std::uint32_t p = 2;
    while (p < n) p *= 2;
    return p;
}
std::uint32_t log2_u32(std::uint32_t p) {
    std::uint32_t l = 0;
    while ((1u << l) < p) ++l;
    return l;
}
} // namespace

bluetree::bluetree(std::uint32_t n_clients, bluetree_config cfg,
                   std::string name)
    : interconnect(std::move(name), n_clients), cfg_(cfg),
      padded_clients_(pad_to_pow2(n_clients)),
      levels_(log2_u32(padded_clients_)) {
    assert(cfg_.alpha >= 1);
    const std::uint32_t n_nodes = padded_clients_ - 1;
    nodes_.reserve(n_nodes);
    for (std::uint32_t i = 0; i < n_nodes; ++i) {
        nodes_.emplace_back(cfg_.queue_depth, cfg_.smooth_depth);
        if (i > 0) {
            nodes_[i].parent = static_cast<std::int32_t>((i - 1) / 2);
            nodes_[i].parent_port = static_cast<std::uint8_t>((i - 1) % 2);
        }
    }
    leaf_base_ = (1u << (levels_ - 1)) - 1;
    node_items_.assign(n_nodes, 0);
}

bluetree bluetree::make_smooth(std::uint32_t n_clients, std::uint32_t alpha) {
    bluetree_config cfg;
    cfg.alpha = alpha;
    cfg.queue_depth = 8;
    cfg.smooth_depth = 4;
    return bluetree(n_clients, cfg, "bluetree_smooth");
}

bool bluetree::client_can_accept(client_id_t c) const {
    const node& leaf = nodes_[leaf_base_ + c / 2];
    return leaf.in[c % 2].can_push();
}

void bluetree::client_push(client_id_t c, mem_request r) {
    node& leaf = nodes_[leaf_base_ + c / 2];
    assert(leaf.in[c % 2].can_push());
    note_injected();
    ++node_items_[leaf_base_ + c / 2];
    ++items_total_;
    leaf.in[c % 2].push(std::move(r));
}

std::uint32_t bluetree::depth_of(client_id_t) const {
    // Response path crosses one demux per tree level (plus one per output
    // register stage in the smoothed variant).
    return cfg_.smooth_depth > 0 ? 2 * levels_ : levels_;
}

bool bluetree::sink_can_accept(const node& n) const {
    if (n.out) return n.out->can_push();
    if (n.parent < 0) return memory_can_accept();
    return nodes_[static_cast<std::size_t>(n.parent)]
        .in[n.parent_port]
        .can_push();
}

void bluetree::sink_push(std::uint32_t i, cycle_t now, mem_request r) {
    node& n = nodes_[i];
    if (n.out) {
        n.out->push(std::move(r)); // stays resident in node i
        return;
    }
    --node_items_[i];
    if (n.parent < 0) {
        --items_total_;
        forward_to_memory(now, std::move(r));
    } else {
        ++node_items_[static_cast<std::size_t>(n.parent)];
        nodes_[static_cast<std::size_t>(n.parent)].in[n.parent_port].push(
            std::move(r));
    }
}

void bluetree::arbitrate(std::uint32_t i, cycle_t now) {
    node& n = nodes_[i];
    if (!sink_can_accept(n)) return;
    const bool hp = !n.in[0].empty();
    const bool lp = !n.in[1].empty();
    if (!hp && !lp) return;

    // Blocking-factor rule: after `alpha` consecutive high-priority grants
    // a pending low-priority request gets through.
    std::size_t pick;
    if (hp && (!lp || n.hp_run < cfg_.alpha)) {
        pick = 0;
        ++n.hp_run;
    } else {
        pick = 1;
        n.hp_run = 0;
    }

    mem_request granted = n.in[pick].pop();
    charge_blocked(n.in[0], granted.level_deadline, 1);
    charge_blocked(n.in[1], granted.level_deadline, 1);
    sink_push(i, now, std::move(granted));
}

void bluetree::tick(cycle_t now) {
    // Both walks skip empty nodes via the contiguous occupancy array; a
    // node with zero resident requests arbitrates nothing and moves
    // nothing, so the skip is exact.
    if (items_total_ > 0) {
        // Move smoothing-stage outputs toward the parent first, then
        // arbitrate.
        if (cfg_.smooth_depth > 0) {
            for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
                if (node_items_[i] == 0) continue;
                node& n = nodes_[i];
                if (n.out->empty()) continue;
                const bool parent_ok =
                    n.parent < 0
                        ? memory_can_accept()
                        : nodes_[static_cast<std::size_t>(n.parent)]
                              .in[n.parent_port]
                              .can_push();
                if (!parent_ok) continue;
                mem_request r = n.out->pop();
                --node_items_[i];
                if (n.parent < 0) {
                    --items_total_;
                    forward_to_memory(now, std::move(r));
                } else {
                    ++node_items_[static_cast<std::size_t>(n.parent)];
                    nodes_[static_cast<std::size_t>(n.parent)]
                        .in[n.parent_port]
                        .push(std::move(r));
                }
            }
        }
        for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
            if (node_items_[i] != 0) arbitrate(i, now);
        }
    }

    drain_memory_responses(now);
    deliver_due_responses(now);
}

void bluetree::commit() {
    // node_items_ counts staged pushes too, so a zero-count node has
    // nothing to latch.
    if (items_total_ == 0) return;
    for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
        if (node_items_[i] == 0) continue;
        node& n = nodes_[i];
        n.in[0].commit();
        n.in[1].commit();
        if (n.out) n.out->commit();
    }
}

} // namespace bluescale
