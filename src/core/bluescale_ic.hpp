// BlueScale memory interconnect (paper Sec. 3, Fig. 2(a)/(d)): a quadtree
// of isomorphic Scale Elements between the clients (leaves) and the shared
// memory sub-system (root). Each SE needs only local information, yet the
// per-SE compositional schedulers together guarantee system-wide real-time
// performance once the interface selection (Sec. 5) has programmed every
// server task.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "analysis/quadtree.hpp"
#include "analysis/tree_analysis.hpp"
#include "core/scale_element.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "interconnect/interconnect.hpp"
#include "sim/wake_set.hpp"

namespace bluescale::core {

/// How the response path (memory -> client) is simulated.
enum class response_model : std::uint8_t {
    /// Contention-free fixed latency of depth hops (upper-bound-accurate
    /// for response rates below one per cycle per subtree).
    ideal_latency,
    /// Cycle-accurate demux network: each SE's response port forwards one
    /// response per cycle into per-child buffers with backpressure
    /// (paper Fig. 2(b)'s DeMux).
    demux_network,
};

struct bluescale_config {
    se_params se = {};
    response_model responses = response_model::demux_network;
};

/// Per-SE response buffer depth (demux_network model).
inline constexpr std::size_t k_response_buffer_depth = 4;

class bluescale_ic : public interconnect {
public:
    bluescale_ic(std::uint32_t n_clients, bluescale_config cfg = {},
                 std::string name = "bluescale");

    /// Programs every SE's server tasks from a resolved interface
    /// selection (analysis::select_tree_interfaces). Ports whose selection
    /// is missing or zero-bandwidth are disabled.
    void configure(const analysis::tree_selection& selection);

    [[nodiscard]] bool client_can_accept(client_id_t c) const override;
    void client_push(client_id_t c, mem_request r) override;
    [[nodiscard]] std::uint32_t depth_of(client_id_t c) const override;
    bool bind_client_drain(client_id_t c, sim::wake_hook hook) override {
        leaf_of(c).set_port_drain_hook(shape_.leaf_port_of_client(c), hook);
        return true;
    }

    void tick(cycle_t now) override;
    void commit() override;

    /// Event-engine horizon: the earliest SE wakeup (the root of the SE
    /// wake_set, so per-cycle after any SE wake the walk had already
    /// passed) and per-cycle while responses are en route. A
    /// quiescent tree sleeps until a client push or a scheduled SE stall
    /// window; while any SE sleeps on backpressure the root holds work,
    /// so the fabric keeps stepping every cycle.
    [[nodiscard]] cycle_t next_event(cycle_t now) const override;

    /// The SE walk inside tick() visits only elements whose cached wakeup
    /// is due, using the same wake/horizon protocol and sim::wake_set as
    /// the simulator -- exact by the same argument, and active in both
    /// engines. The testbench switches it off under the lockstep engine
    /// so the fallback is a true tick-everything reference.
    void set_selective_ticking(bool on) { selective_ = on; }

    /// Re-homes every SE's counters into `reg` ("se.<level>.<order>/...")
    /// and registers one trace stream per element; call before the trial
    /// starts.
    void bind_observability(obs::registry& reg, obs::trace_sink& sink);

    /// Distributes a campaign over the fabric: se_stall events go to the
    /// targeted SE's stall window, link_drop events to the targeted SE's
    /// provider link (index 0 = root SE -> memory). Targets use the
    /// level-major linear numbering of se_linear_index(); out-of-range
    /// targets wrap modulo total_ses().
    void inject_campaign(const sim::fault_campaign& campaign) override;

    /// Level-major linear SE numbering shared by fault targeting and the
    /// health monitor: root is 0, then level 1 left-to-right, and so on.
    [[nodiscard]] std::uint32_t se_linear_index(std::uint32_t level,
                                               std::uint32_t order) const {
        std::uint32_t base = 0;
        for (std::uint32_t l = 0; l < level; ++l) {
            base += shape_.ses_at_level(l);
        }
        return base + order;
    }

    [[nodiscard]] const analysis::quadtree_shape& shape() const {
        return shape_;
    }
    [[nodiscard]] std::uint32_t total_ses() const {
        return shape_.total_ses();
    }
    [[nodiscard]] const scale_element& se_at(std::uint32_t level,
                                             std::uint32_t order) const {
        return *levels_[level][order];
    }
    [[nodiscard]] scale_element& se_at(std::uint32_t level,
                                       std::uint32_t order) {
        return *levels_[level][order];
    }

    /// SE ticks run since construction: a deterministic work counter (the
    /// same for any --threads, engine-specific by design), kept out of the
    /// registry so exports do not change.
    [[nodiscard]] std::uint64_t se_ticks() const { return se_ticks_; }

private:
    [[nodiscard]] scale_element& leaf_of(client_id_t c) {
        return *levels_.back()[shape_.leaf_se_of_client(c)];
    }
    [[nodiscard]] const scale_element& leaf_of(client_id_t c) const {
        return *levels_.back()[shape_.leaf_se_of_client(c)];
    }

    /// Child port of SE(level, ·) on client c's path (the demux select):
    /// base-4 digit `leaf_level - level` of the client id.
    [[nodiscard]] std::uint32_t
    response_port(std::uint32_t level, client_id_t c) const {
        return (c >> resp_shift_[level]) & (analysis::k_se_fanin - 1);
    }

    /// Demux-network step: move responses one SE hop toward the clients.
    void tick_response_network(cycle_t now);
    /// Stages `r` in resp_q_[l][y], listing the queue for this edge's
    /// commit on its first push of the cycle.
    void push_response(std::uint32_t l, std::uint32_t y, mem_request r);
    /// The parent SE and parent port that non-root SE `link_idx` (level-major
    /// index) feeds. In the full quadtree's level-major numbering the
    /// children of SE i are 4i+1 .. 4i+4.
    [[nodiscard]] scale_element* uplink_parent(std::uint32_t link_idx) const {
        return se_flat_[(link_idx - 1) / analysis::k_se_fanin];
    }
    [[nodiscard]] static std::uint32_t uplink_port(std::uint32_t link_idx) {
        return (link_idx - 1) % analysis::k_se_fanin;
    }
    /// Sink of non-root SE `link_idx`: crosses its provider link (which an
    /// injected link fault may eat) into the parent's port buffer.
    void push_up(std::uint32_t link_idx, mem_request r);
    /// SE wake thunk target: lists SE i for this edge's commit and wakes
    /// the fabric.
    void note_se_wake(std::uint32_t i);
    /// Brings every SE's backlog counters up to the clock (registry
    /// snapshot hook).
    void settle_backlog();

    /// Context of one SE's wake thunk: the fabric and the SE's level-major
    /// index (se_flat_ / se_wakes_ slot).
    struct se_wake_ctx {
        bluescale_ic* fabric;
        std::uint32_t index;
    };

    bluescale_config cfg_;
    analysis::quadtree_shape shape_;
    /// Clock latched at tick() entry so the SE sink lambdas (which have
    /// no time argument) can evaluate link-fault windows.
    cycle_t now_ = 0;
    bool selective_ = true;
    /// Dirty list: SEs woken since the last edge, each listed once
    /// (se_dirty_ flags). Every buffer load wakes its SE, so the list
    /// covers every staged request; commit() latches exactly these.
    /// Reserved to total_ses() at assembly.
    std::vector<std::uint32_t> dirty_;
    std::vector<std::uint8_t> se_dirty_;
    std::vector<se_wake_ctx> se_wake_ctx_;
    std::uint64_t se_ticks_ = 0;
    /// Responses inside resp_q_ (visible + staged): incremented when the
    /// root pulls a completion from the memory, decremented at leaf
    /// delivery. Gates the response-network walk in both engines (a
    /// provable no-op at zero).
    std::uint64_t resp_in_network_ = 0;
    /// Per-SE provider-link drop windows, indexed by se_linear_index.
    std::vector<sim::fault_window> link_faults_;
    /// levels_[l][y] owns SE(l, y); level 0 is the root.
    std::vector<std::vector<std::unique_ptr<scale_element>>> levels_;
    /// Level-major flat view of every SE, paired with se_wakes_: slot i
    /// holds se_flat_[i]'s wake time (component::bind_wake_slot), so the
    /// selective walk visits only due SEs, in level-major order.
    std::vector<scale_element*> se_flat_;
    sim::wake_set se_wakes_;
    /// resp_q_[l][y]: responses waiting at SE(l, y)'s provider-side
    /// response port (demux_network model only).
    std::vector<std::vector<latched_queue<mem_request>>> resp_q_;
    /// resp_busy_[l]: bitset over level l's queues, set while the queue
    /// holds a visible response -- the demux walk visits only these, in
    /// level-major order.
    std::vector<std::vector<std::uint64_t>> resp_busy_;
    /// Queues pushed this cycle, as (level, order), each listed once;
    /// commit() latches exactly these. Reserved to total_ses().
    std::vector<std::pair<std::uint32_t, std::uint32_t>> resp_pushed_;
    /// Per-level right shift selecting the demux digit of a client id.
    std::vector<std::uint32_t> resp_shift_;
};

} // namespace bluescale::core
