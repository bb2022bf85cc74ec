#include "core/bluescale_ic.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace bluescale::core {

bluescale_ic::bluescale_ic(std::uint32_t n_clients, bluescale_config cfg,
                           std::string name)
    : interconnect(std::move(name), n_clients), cfg_(cfg),
      shape_(analysis::make_quadtree_shape(n_clients)) {
    const std::uint32_t depth = shape_.leaf_level;
    levels_.resize(depth + 1);
    for (std::uint32_t l = 0; l <= depth; ++l) {
        const std::uint32_t count = shape_.ses_at_level(l);
        levels_[l].reserve(count);
        for (std::uint32_t y = 0; y < count; ++y) {
            levels_[l].push_back(std::make_unique<scale_element>(
                "SE(" + std::to_string(l) + "," + std::to_string(y) + ")",
                cfg_.se));
            levels_[l].back()->set_tree_level(l);
        }
    }

    static_assert(analysis::k_se_fanin == 4, "response_port: 2 bits/level");
    resp_shift_.resize(depth + 1);
    for (std::uint32_t l = 0; l <= depth; ++l) {
        resp_shift_[l] = 2 * (depth - l);
    }
    if (cfg_.responses == response_model::demux_network) {
        resp_q_.resize(depth + 1);
        resp_busy_.resize(depth + 1);
        for (std::uint32_t l = 0; l <= depth; ++l) {
            const std::uint32_t count = shape_.ses_at_level(l);
            resp_q_[l].reserve(count);
            for (std::uint32_t y = 0; y < count; ++y) {
                resp_q_[l].emplace_back(k_response_buffer_depth);
            }
            resp_busy_[l].assign((count + 63) / 64, 0);
        }
        resp_pushed_.reserve(shape_.total_ses());
    }

    // Every SE wake lists the SE for the next edge and bubbles up to the
    // fabric so the simulator re-arms it (client pushes reach the SE
    // buffers directly, bypassing tick()). Each SE's wake time lives in
    // slot i of se_wakes_ (level-major); fresh SEs and fresh slots are
    // both armed, so binding needs no copy.
    const std::uint32_t n_ses = shape_.total_ses();
    se_flat_.reserve(n_ses);
    se_wakes_.resize(n_ses);
    se_wake_ctx_.reserve(n_ses);
    se_dirty_.assign(n_ses, 0);
    dirty_.reserve(n_ses);
    for (auto& level : levels_) {
        for (auto& se : level) {
            const auto i = static_cast<std::uint32_t>(se_flat_.size());
            se_wake_ctx_.push_back({this, i});
            se->set_wake_hook({[](void* ctx) {
                                   const auto* w =
                                       static_cast<se_wake_ctx*>(ctx);
                                   w->fabric->note_se_wake(w->index);
                               },
                               &se_wake_ctx_.back()});
            se->bind_wake_slot(se_wakes_, i);
            se_flat_.push_back(se.get());
        }
    }

    // Wire provider ports: SE(l, y) feeds port (y % 4) of SE(l-1, y/4);
    // the root feeds the memory controller. Each push first crosses the
    // SE's provider link, which an injected link fault may eat.
    link_faults_.resize(shape_.total_ses());
    levels_[0][0]->bind_sink([this] { return memory_can_accept(); },
                             [this](mem_request r) {
                                 if (link_faults_[0].active(now_)) {
                                     note_dropped();
                                     return;
                                 }
                                 forward_to_memory(now_, std::move(r));
                             });
    for (std::uint32_t l = 1; l <= depth; ++l) {
        for (std::uint32_t y = 0; y < levels_[l].size(); ++y) {
            scale_element* parent =
                levels_[l - 1][analysis::quadtree_shape::parent_order(y)]
                    .get();
            const std::uint32_t port =
                analysis::quadtree_shape::parent_port(y);
            const std::uint32_t link_idx = se_linear_index(l, y);
            assert(uplink_parent(link_idx) == parent &&
                   uplink_port(link_idx) == port);
            scale_element& child = *levels_[l][y];
            // Both closures fit std::function's local buffer (16 B), so
            // wiring an SE allocates nothing.
            child.bind_sink(
                [parent, port] { return parent->port_can_accept(port); },
                [this, link_idx](mem_request r) {
                    push_up(link_idx, std::move(r));
                });
            // The parent port's full -> non-full edge is the only way the
            // child's sink turns ready again: a refused child sleeps on it.
            parent->set_port_drain_hook(port, sim::wake_of(child));
            child.enable_backpressure_sleep(&now_);
        }
    }
}

void bluescale_ic::push_up(std::uint32_t link_idx, mem_request r) {
    if (link_faults_[link_idx].active(now_)) {
        note_dropped();
        return;
    }
    uplink_parent(link_idx)->port_push(uplink_port(link_idx), std::move(r));
}

void bluescale_ic::note_se_wake(std::uint32_t i) {
    if (se_dirty_[i] == 0) {
        se_dirty_[i] = 1;
        // dirty_ is reserved to total_ses() at assembly and se_dirty_
        // lists each SE at most once per edge.
        // detlint:allow(hotpath-alloc): push into pre-reserved dirty list
        dirty_.push_back(i);
    }
    wake();
}

void bluescale_ic::settle_backlog() {
    for (scale_element* se : se_flat_) se->settle_backlog();
}

void bluescale_ic::inject_campaign(const sim::fault_campaign& campaign) {
    const std::uint32_t n = shape_.total_ses();
    std::vector<std::vector<sim::fault_event>> stall(n);
    std::vector<std::vector<sim::fault_event>> drop(n);
    for (const auto& e : campaign.events()) {
        if (e.kind == sim::fault_kind::se_stall) {
            stall[e.target % n].push_back(e);
        } else if (e.kind == sim::fault_kind::link_drop) {
            drop[e.target % n].push_back(e);
        }
    }
    std::uint32_t idx = 0;
    for (auto& level : levels_) {
        for (auto& se : level) {
            se->set_stall_faults(sim::fault_window(std::move(stall[idx])));
            link_faults_[idx] = sim::fault_window(std::move(drop[idx]));
            ++idx;
        }
    }
}

void bluescale_ic::bind_observability(obs::registry& reg,
                                      obs::trace_sink& sink) {
    for (std::uint32_t l = 0; l <= shape_.leaf_level; ++l) {
        for (std::uint32_t y = 0; y < shape_.ses_at_level(l); ++y) {
            const std::string prefix =
                "se." + std::to_string(l) + "." + std::to_string(y);
            levels_[l][y]->bind_observability(
                reg, prefix, sink.register_component(prefix));
        }
    }
    // Backpressure-slept cycles are owed, not yet counted: settle them
    // before every snapshot so exports match the lockstep engine's.
    reg.add_sync_hook(
        {[](void* ctx) { static_cast<bluescale_ic*>(ctx)->settle_backlog(); },
         this});
}

void bluescale_ic::configure(const analysis::tree_selection& selection) {
    assert(selection.shape.leaf_level == shape_.leaf_level);
    for (std::uint32_t l = 0; l < selection.levels.size(); ++l) {
        for (std::uint32_t y = 0; y < selection.levels[l].size(); ++y) {
            for (std::uint32_t p = 0; p < analysis::k_se_fanin; ++p) {
                const auto& iface = selection.levels[l][y].ports[p];
                if (iface && iface->budget > 0) {
                    levels_[l][y]->configure_port(
                        p, static_cast<std::uint32_t>(iface->period),
                        static_cast<std::uint32_t>(iface->budget));
                } else {
                    levels_[l][y]->configure_port(p, 0, 0);
                }
            }
        }
    }
}

bool bluescale_ic::client_can_accept(client_id_t c) const {
    return leaf_of(c).port_can_accept(shape_.leaf_port_of_client(c));
}

void bluescale_ic::client_push(client_id_t c, mem_request r) {
    note_injected();
    leaf_of(c).port_push(shape_.leaf_port_of_client(c), std::move(r));
}

std::uint32_t bluescale_ic::depth_of(client_id_t) const {
    return shape_.leaf_level + 1;
}

void bluescale_ic::push_response(std::uint32_t l, std::uint32_t y,
                                 mem_request r) {
    auto& q = resp_q_[l][y];
    if (q.total_size() == q.size()) {
        // resp_pushed_ is reserved to total_ses() at assembly and lists
        // each queue at most once per edge.
        // detlint:allow(hotpath-alloc): push into pre-reserved push list
        resp_pushed_.emplace_back(l, y);
    }
    q.push(std::move(r));
}

void bluescale_ic::tick_response_network(cycle_t now) {
    // Pull finished transactions into the root SE's response port.
    while (resp_q_[0][0].can_push() && memory_has_response()) {
        push_response(0, 0, pop_memory_response());
        ++resp_in_network_;
    }

    // Each SE forwards one response per cycle down its demux. Only queues
    // holding a visible response can act, so walk the occupancy bitsets
    // -- level-major, ascending order, exactly the full sweep's order.
    // Forwards stage into level l + 1 and cannot be forwarded again until
    // the edge.
    const std::uint32_t depth = shape_.leaf_level;
    for (std::uint32_t l = 0; l <= depth; ++l) {
        auto& busy = resp_busy_[l];
        for (std::size_t w = 0; w < busy.size(); ++w) {
            for (std::uint64_t bits = busy[w]; bits != 0; bits &= bits - 1) {
                const auto b =
                    static_cast<std::uint32_t>(std::countr_zero(bits));
                const auto y = static_cast<std::uint32_t>(w * 64) + b;
                auto& q = resp_q_[l][y];
                const client_id_t c = q.front().client;
                if (l == depth) {
                    // Leaf demux: hand the response to the client port.
                    mem_request r = q.pop();
                    --resp_in_network_;
                    r.complete_cycle = now;
                    deliver_response_now(std::move(r));
                } else {
                    const std::uint32_t child =
                        analysis::quadtree_shape::child_order(
                            y, response_port(l, c));
                    if (!resp_q_[l + 1][child].can_push()) continue;
                    push_response(l + 1, child, q.pop());
                }
                if (q.empty()) busy[w] &= ~(std::uint64_t{1} << b);
            }
        }
    }
}

void bluescale_ic::tick(cycle_t now) {
    now_ = now;
    // Selective SE walk: the simulator's wake/horizon protocol, one level
    // down, on the same wake_set. An element whose cached wakeup is still
    // in the future would tick as a pure no-op (its own next_event() said
    // so, and anything that changed since then fired a wake), so skipping
    // it is exact. Lockstep ticks everything and skips the horizon
    // bookkeeping.
    if (!selective_) {
        for (scale_element* se : se_flat_) se->tick(now);
        se_ticks_ += se_flat_.size();
    } else {
        se_wakes_.walk(now, [this, now](std::size_t i) {
            scale_element* se = se_flat_[i];
            se->tick(now);
            ++se_ticks_;
            se_wakes_.settle(i, now, se->next_event(now));
        });
    }
    if (cfg_.responses == response_model::demux_network) {
        // A provable no-op with nothing to pull and nothing en route.
        if (memory_has_response() || resp_in_network_ > 0) {
            tick_response_network(now);
        }
    } else {
        drain_memory_responses(now);
        deliver_due_responses(now);
    }
}

void bluescale_ic::commit() {
    if (!selective_) {
        for (scale_element* se : se_flat_) se->commit();
    } else {
        // Every buffer load wakes its SE, so the woken ones are the only
        // SEs with staged requests to latch.
        for (const std::uint32_t i : dirty_) se_flat_[i]->commit();
    }
    for (const std::uint32_t i : dirty_) se_dirty_[i] = 0;
    dirty_.clear();
    for (const auto& [l, y] : resp_pushed_) {
        resp_q_[l][y].commit();
        resp_busy_[l][y / 64] |= std::uint64_t{1} << (y % 64);
    }
    resp_pushed_.clear();
}

cycle_t bluescale_ic::next_event(cycle_t now) const {
    // Request path: the earliest cached SE wakeup (the horizons the walk
    // trusts); an SE armed behind the walk makes it 0, i.e. the next
    // cycle. Requests parked at the memory controller hold no SE awake;
    // their responses re-arm the fabric via the attach_memory() wake.
    cycle_t due = std::max(now + 1, se_wakes_.next_due());
    // Response path: the demux network forwards one response per SE per
    // cycle while anything is en route; the delay-line model exposes its
    // horizon directly.
    if (cfg_.responses == response_model::demux_network) {
        if (memory_has_response() || resp_in_network_ > 0) {
            due = std::min(due, now + 1);
        }
    } else {
        due = std::min(due, response_horizon(now));
    }
    return due;
}

} // namespace bluescale::core
