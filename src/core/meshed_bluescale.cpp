#include "core/meshed_bluescale.hpp"

#include <algorithm>
#include <cassert>

namespace bluescale::core {

meshed_bluescale_ic::meshed_bluescale_ic(std::uint32_t n_clients,
                                         meshed_config cfg)
    : interconnect("meshed_bluescale", n_clients), cfg_(cfg) {
    assert(cfg_.channels >= 1);
    for (std::uint32_t k = 0; k < cfg_.channels; ++k) {
        trees_.push_back(std::make_unique<bluescale_ic>(
            n_clients, bluescale_config{},
            "bluescale_ch" + std::to_string(k)));
        controllers_.push_back(std::make_unique<memory_controller>());
        trees_[k]->attach_memory(*controllers_[k]);
        // Channel trees hand completed responses straight up; this
        // wrapper owns the client-facing bookkeeping.
        trees_[k]->set_response_handler([this](mem_request&& r) {
            deliver_response_now(std::move(r));
        });
        // Channel-tree wakes (SE stalls, pushes) bubble up to the mesh.
        trees_[k]->set_wake_hook(sim::wake_of(*this));
    }
}

cycle_t meshed_bluescale_ic::next_event(cycle_t now) const {
    if (in_flight() > 0) return now + 1;
    cycle_t due = k_cycle_never;
    for (const auto& tree : trees_) {
        due = std::min(due, tree->next_event(now));
    }
    return due;
}

void meshed_bluescale_ic::configure(
    const analysis::tree_selection& selection) {
    for (auto& tree : trees_) tree->configure(selection);
}

bool meshed_bluescale_ic::client_can_accept(client_id_t c) const {
    // Conservative: the client must be able to inject regardless of which
    // channel the next address maps to (prevents head-of-line surprises
    // at the client, which does not know the steering).
    for (const auto& tree : trees_) {
        if (!tree->client_can_accept(c)) return false;
    }
    return true;
}

void meshed_bluescale_ic::client_push(client_id_t c, mem_request r) {
    note_injected();
    trees_[channel_of(r.addr)]->client_push(c, std::move(r));
}

std::uint32_t meshed_bluescale_ic::depth_of(client_id_t c) const {
    return trees_.front()->depth_of(c);
}

void meshed_bluescale_ic::tick(cycle_t now) {
    for (std::uint32_t k = 0; k < cfg_.channels; ++k) {
        trees_[k]->tick(now);
        controllers_[k]->tick(now);
    }
}

void meshed_bluescale_ic::commit() {
    for (std::uint32_t k = 0; k < cfg_.channels; ++k) {
        trees_[k]->commit();
        controllers_[k]->commit();
    }
}

std::uint64_t meshed_bluescale_ic::total_serviced() const {
    std::uint64_t n = 0;
    for (const auto& mc : controllers_) n += mc->serviced();
    return n;
}

} // namespace bluescale::core
