#include "interconnect/interconnect.hpp"

#include <cassert>

namespace bluescale {

interconnect::interconnect(std::string name, std::uint32_t n_clients)
    : component(std::move(name), /*latches=*/true), n_clients_(n_clients) {
    assert(n_clients > 0);
}

void interconnect::drain_memory_responses(cycle_t now) {
    if (mem_ == nullptr) return;
    while (mem_->has_response()) {
        mem_request r = mem_->pop_response();
        const cycle_t due = now + depth_of(r.client);
        response_line_.push({due, response_seq_++, std::move(r)});
    }
}

void interconnect::deliver_due_responses(cycle_t now) {
    while (!response_line_.empty() && response_line_.top().due <= now) {
        // priority_queue::top() is const; the element is moved out via the
        // usual const_cast idiom since pop() follows immediately.
        auto& top = const_cast<pending_response&>(response_line_.top());
        mem_request r = std::move(top.req);
        response_line_.pop();
        r.complete_cycle = now;
        assert(in_flight_ > 0);
        --in_flight_;
        on_response_delivered(r);
        if (on_response_) on_response_(std::move(r));
    }
}

void interconnect::deliver_response_now(mem_request r) {
    assert(in_flight_ > 0);
    --in_flight_;
    on_response_delivered(r);
    if (on_response_) on_response_(std::move(r));
}

void interconnect::inject_campaign(const sim::fault_campaign& campaign) {
    // Single-choke-point designs: every link_drop target collapses onto
    // the root link, so the total injected fault load matches what a
    // distributed fabric would see.
    root_link_faults_ =
        sim::fault_window(campaign.slice_all(sim::fault_kind::link_drop));
}

} // namespace bluescale
