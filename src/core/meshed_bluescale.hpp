// Meshed BlueScale: a multi-memory extension in the spirit of Meshed
// BlueTree (Wang et al. [20], the paper's Sec. 2 lineage). K independent
// memory channels each sit behind their own BlueScale quadtree; a client
// port steers each transaction to the channel owning its address
// (interleaved mapping), multiplying aggregate memory bandwidth while
// every channel keeps BlueScale's per-channel compositional guarantees.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/bluescale_ic.hpp"
#include "mem/memory_controller.hpp"

namespace bluescale::core {

struct meshed_config {
    std::uint32_t channels = 2;
    /// Consecutive chunks of this many bytes alternate across channels.
    std::uint64_t interleave_bytes = 4096;
};

/// Owns `channels` BlueScale trees and their memory controllers; presents
/// the standard interconnect interface (the memory side is internal, so
/// attach_memory must not be called).
class meshed_bluescale_ic : public interconnect {
public:
    meshed_bluescale_ic(std::uint32_t n_clients, meshed_config cfg = {});

    /// Programs every channel tree with the same per-channel selection
    /// (each channel serves 1/K of the address space, so a selection
    /// computed from per-channel demand applies to all by symmetry).
    void configure(const analysis::tree_selection& selection);

    [[nodiscard]] std::uint32_t channel_of(std::uint64_t addr) const {
        return static_cast<std::uint32_t>(
            (addr / cfg_.interleave_bytes) % cfg_.channels);
    }

    [[nodiscard]] bool client_can_accept(client_id_t c) const override;
    void client_push(client_id_t c, mem_request r) override;
    [[nodiscard]] std::uint32_t depth_of(client_id_t c) const override;

    void tick(cycle_t now) override;
    void commit() override;

    /// Event-engine horizon: per-cycle while any transaction is in
    /// flight anywhere in the mesh; otherwise the earliest wakeup among
    /// the channel trees (channel controllers are idle whenever the mesh
    /// is -- they carry no fault schedules of their own).
    [[nodiscard]] cycle_t next_event(cycle_t now) const override;

    /// Forwards to every channel tree (see
    /// bluescale_ic::set_selective_ticking).
    void set_selective_ticking(bool on) {
        for (auto& tree : trees_) tree->set_selective_ticking(on);
    }

    [[nodiscard]] std::uint32_t channels() const { return cfg_.channels; }
    [[nodiscard]] const memory_controller& controller(std::uint32_t k) const {
        return *controllers_[k];
    }
    [[nodiscard]] const bluescale_ic& tree(std::uint32_t k) const {
        return *trees_[k];
    }
    /// Total transactions serviced across all channels.
    [[nodiscard]] std::uint64_t total_serviced() const;

private:
    meshed_config cfg_;
    std::vector<std::unique_ptr<bluescale_ic>> trees_;
    std::vector<std::unique_ptr<memory_controller>> controllers_;
};

} // namespace bluescale::core
