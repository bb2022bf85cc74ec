// Abstract memory interconnect: the component between client ports and the
// shared memory controller. All evaluated designs (BlueScale, AXI-IC^RT,
// BlueTree, BlueTree-Smooth, GSMTree) implement this interface, so the
// experiment harness and the clients are design-agnostic.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "mem/memory_controller.hpp"
#include "mem/request.hpp"
#include "sim/component.hpp"
#include "sim/fault.hpp"
#include "sim/latched_queue.hpp"
#include "sim/wake.hpp"

namespace bluescale {

class interconnect : public component {
public:
    /// Called with each completed transaction when its response reaches the
    /// issuing client's port.
    using response_handler = std::function<void(mem_request&&)>;

    interconnect(std::string name, std::uint32_t n_clients);

    [[nodiscard]] std::uint32_t num_clients() const { return n_clients_; }

    /// Backpressure: can client c inject a request this cycle?
    [[nodiscard]] virtual bool client_can_accept(client_id_t c) const = 0;

    /// Injects a request at client c's port. Only valid when
    /// client_can_accept(c). The request's level_deadline must be set (leaf
    /// arbitration priority; normally its abs_deadline).
    virtual void client_push(client_id_t c, mem_request r) = 0;

    /// Number of request-path hops between client c and the memory; the
    /// response path crosses the same number of demux stages.
    [[nodiscard]] virtual std::uint32_t depth_of(client_id_t c) const = 0;

    /// Arms `hook` to fire when a pop frees space in client c's ingress
    /// queue (the full -> non-full transition client_can_accept() tracks),
    /// so a backpressured client can sleep instead of polling its port
    /// every cycle. Returns false when the design cannot provide the
    /// signal; the client must then keep the per-cycle poll (the
    /// conservative default for fabrics that do not override this).
    virtual bool bind_client_drain(client_id_t, sim::wake_hook) {
        return false;
    }

    void attach_memory(memory_controller& mc) {
        mem_ = &mc;
        // A response retiring into the controller's out-queue is the one
        // fabric-external event the horizon below cannot see coming;
        // the wake re-arms a sleeping fabric for the visibility edge.
        mc.set_response_wake(sim::wake_of(*this));
    }
    void set_response_handler(response_handler h) {
        on_response_ = std::move(h);
    }

    /// Requests injected but not yet delivered back to their client.
    [[nodiscard]] std::uint64_t in_flight() const { return in_flight_; }
    /// Total requests handed to the memory controller.
    [[nodiscard]] std::uint64_t forwarded_to_memory() const {
        return forwarded_;
    }
    /// Requests eaten by link transient faults (never delivered; the
    /// issuing client recovers via retry/timeout or abandons at trial
    /// end).
    [[nodiscard]] std::uint64_t link_dropped() const { return link_dropped_; }

    /// Applies a fault campaign's link_drop slice to this design's
    /// injection points. The base maps every link_drop event, whatever
    /// its target, onto the single root link into the memory controller
    /// (the choke point every design shares); BlueScale overrides this to
    /// distribute targets over its SE parent links. se_stall events are
    /// fabric-internal and ignored here; dram_error/backpressure_storm
    /// belong to memory_controller::inject_campaign.
    virtual void inject_campaign(const sim::fault_campaign& campaign);

protected:
    /// Bookkeeping wrappers derived classes use at the memory boundary.
    [[nodiscard]] bool memory_can_accept() const {
        return mem_ != nullptr && mem_->can_accept();
    }
    /// Hands a request over the root link. During an injected link fault
    /// the request is silently eaten (the client's retry/timeout recovery
    /// is the only way it comes back).
    void forward_to_memory(cycle_t now, mem_request r) {
        if (root_link_faults_.active(now)) {
            note_dropped();
            return;
        }
        ++forwarded_;
        mem_->push(std::move(r));
    }

    void note_injected() {
        ++in_flight_;
        // Uniform push-wake: every design injects through here, so a
        // sleeping fabric is re-armed the moment a client hands it work.
        wake();
    }
    /// A request died inside the fabric: it will never produce a
    /// response, so it leaves the in-flight population here.
    void note_dropped() {
        --in_flight_;
        ++link_dropped_;
    }

    /// Direct memory-response access for interconnects that model the
    /// response path themselves (instead of the delay line below).
    [[nodiscard]] bool memory_has_response() const {
        return mem_ != nullptr && mem_->has_response();
    }
    mem_request pop_memory_response() { return mem_->pop_response(); }

    /// Pulls finished transactions from the memory controller and schedules
    /// their delivery depth_of(client) cycles later (response-path demux
    /// stages are contention-free, one route per client). Call every tick.
    void drain_memory_responses(cycle_t now);

    /// Delivers responses whose due time has arrived. Call every tick.
    void deliver_due_responses(cycle_t now);

    /// Hands one completed request straight to the response handler,
    /// bypassing the delay line (for interconnects that model response
    /// latency themselves, and for test doubles).
    void deliver_response_now(mem_request r);

    /// Horizon of the shared response path for derived next_event()s:
    /// per-cycle while the controller holds a visible response (the next
    /// tick must drain it), else the earliest delay-line delivery, else
    /// never. Responses that retire while the fabric sleeps fire the
    /// wake installed by attach_memory(), so "never" stays safe.
    [[nodiscard]] cycle_t response_horizon(cycle_t now) const {
        if (memory_has_response()) return now + 1;
        if (!response_line_.empty()) {
            return std::max(now + 1, response_line_.top().due);
        }
        return k_cycle_never;
    }

    /// Hook invoked just before a response reaches the client's handler;
    /// lets derived classes release per-client credits or record stats.
    virtual void on_response_delivered(const mem_request&) {}

private:
    struct pending_response {
        cycle_t due;
        std::uint64_t seq; ///< tie-break, preserves FIFO order per due time
        mem_request req;
    };
    struct later_due {
        bool operator()(const pending_response& a,
                        const pending_response& b) const {
            return a.due != b.due ? a.due > b.due : a.seq > b.seq;
        }
    };

    std::uint32_t n_clients_;
    memory_controller* mem_ = nullptr;
    response_handler on_response_;
    sim::fault_window root_link_faults_;
    std::priority_queue<pending_response, std::vector<pending_response>,
                        later_due>
        response_line_;
    std::uint64_t in_flight_ = 0;
    std::uint64_t forwarded_ = 0;
    std::uint64_t link_dropped_ = 0;
    std::uint64_t response_seq_ = 0;
};

} // namespace bluescale
