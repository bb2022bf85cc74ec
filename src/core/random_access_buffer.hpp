// Random access buffer (paper Sec. 4.1, Fig. 2(c)): the SE's low-level
// priority queue. Unlike a FIFO, the stored requests can be fetched in any
// order: a comparator bank continuously searches the register banks for
// the highest-priority (earliest-deadline) request, and the fetcher
// extracts it for the local scheduler.
//
// Storage is structure-of-arrays over a fixed arena: the mem_request
// payloads live in pre-allocated slots that are recycled through a free
// list (no per-request heap traffic), while the comparator bank scans a
// dense, contiguous deadline array -- the one field the hot EDF pick and
// the blocking-charge loop actually touch. Two-phase visibility matches
// latched_queue: load() stages a slot, commit() publishes it.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "mem/request.hpp"
#include "sim/types.hpp"
#include "sim/wake.hpp"

namespace bluescale::core {

class random_access_buffer {
public:
    explicit random_access_buffer(std::size_t depth) : arena_(depth) {
        free_.reserve(depth);
        // Recycle low slots first (pop from the back): load order stays
        // deterministic and the arena stays dense under low occupancy.
        for (std::size_t i = depth; i > 0; --i) {
            free_.push_back(static_cast<std::uint32_t>(i - 1));
        }
        order_.reserve(depth);
        deadlines_.reserve(depth);
        staged_.reserve(depth);
    }

    /// Producer-side wake notification, fired on every load(). Unlike
    /// latched_queue's quiet-transition wake, any load can invalidate the
    /// owning SE's cached horizon: a backpressured SE sleeps with work
    /// buffered, and the load both changes what it will charge and must
    /// latch on this cycle's edge.
    void set_wake_hook(sim::wake_hook hook) { wake_ = hook; }

    /// Consumer-side drain notification, fired when fetch_earliest()
    /// frees a slot in a previously full arena (can_load() flips back to
    /// true) -- lets a backpressured client sleep on the port instead of
    /// polling (see latched_queue::set_drain_hook).
    void set_drain_hook(sim::wake_hook hook) { drain_ = hook; }

    // --- loader side (register chain input) -----------------------------
    [[nodiscard]] bool can_load() const { return !free_.empty(); }

    void load(mem_request r) {
        assert(can_load());
        const std::uint32_t slot = free_.back();
        free_.pop_back();
        arena_[slot] = std::move(r);
        // staged_ is reserved to the arena depth at construction and
        // can_load() (asserted above) bounds occupancy.
        // detlint:allow(hotpath-alloc): push into pre-reserved staging
        staged_.push_back(slot);
        wake_.fire();
    }

    // --- arbiter / fetcher side ------------------------------------------
    [[nodiscard]] bool empty() const { return order_.empty(); }
    [[nodiscard]] std::size_t size() const { return order_.size(); }
    [[nodiscard]] std::size_t capacity() const { return arena_.size(); }

    /// Occupancy including loads staged for the next edge -- what a
    /// consumer's quiescence check must consult.
    [[nodiscard]] std::size_t total_size() const {
        return order_.size() + staged_.size();
    }

    [[nodiscard]] bool quiet() const { return total_size() == 0; }

    /// The comparators' result: earliest level deadline currently stored
    /// (nullopt when empty). This is Algorithm 1's inner EDF pick.
    [[nodiscard]] std::optional<cycle_t> min_deadline() const {
        if (deadlines_.empty()) return std::nullopt;
        cycle_t best = deadlines_[0];
        for (std::size_t i = 1; i < deadlines_.size(); ++i) {
            best = std::min(best, deadlines_[i]);
        }
        return best;
    }

    /// Fetches the earliest-deadline request (ties broken by load order,
    /// matching the comparator chain's first-match behaviour).
    mem_request fetch_earliest() {
        assert(!order_.empty());
        std::size_t best = 0;
        for (std::size_t i = 1; i < deadlines_.size(); ++i) {
            if (deadlines_[i] < deadlines_[best]) best = i;
        }
        const std::uint32_t slot = order_[best];
        order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(best));
        deadlines_.erase(deadlines_.begin() +
                         static_cast<std::ptrdiff_t>(best));
        const bool was_full = free_.empty();
        // The free list is reserved to the arena depth at construction and
        // holds at most one entry per slot.
        // detlint:allow(hotpath-alloc): push into pre-reserved free list
        free_.push_back(slot);
        if (was_full) drain_.fire();
        return std::move(arena_[slot]);
    }

    /// Charges one blocking cycle to stored requests with a deadline
    /// earlier than the granted one (measurement hook, not hardware).
    void charge_blocked(cycle_t granted_deadline) {
        for (std::size_t i = 0; i < deadlines_.size(); ++i) {
            if (deadlines_[i] < granted_deadline) {
                ++arena_[order_[i]].blocked_cycles;
            }
        }
    }

    /// Clock edge: loads staged this cycle become visible, in load order.
    void commit() {
        for (const std::uint32_t slot : staged_) {
            // order_/deadlines_ are reserved to the arena depth at
            // construction; visible + staged occupancy never exceeds it.
            // detlint:allow(hotpath-alloc): push into pre-reserved mirror
            order_.push_back(slot);
            // detlint:allow(hotpath-alloc): push into pre-reserved mirror
            deadlines_.push_back(arena_[slot].level_deadline);
        }
        staged_.clear();
    }

    void clear() {
        order_.clear();
        deadlines_.clear();
        staged_.clear();
        free_.clear();
        for (std::size_t i = arena_.size(); i > 0; --i) {
            // clear() is a between-trials reset, hot only through the
            // clear/clear name collision with commit()'s staged_.clear();
            // the free list is pre-reserved to the arena depth regardless.
            // detlint:allow(hotpath-alloc): push into pre-reserved free list
            free_.push_back(static_cast<std::uint32_t>(i - 1));
        }
    }

private:
    /// Fixed request storage; slots are recycled, never reallocated.
    std::vector<mem_request> arena_;
    /// Free arena slots (stack; top = next slot to hand out).
    std::vector<std::uint32_t> free_;
    /// Visible slots in load order (parallel to deadlines_).
    std::vector<std::uint32_t> order_;
    /// Dense deadline mirror of order_ -- the comparator bank's scan
    /// array. deadlines_[i] == arena_[order_[i]].level_deadline, valid
    /// because a stored request's level_deadline is never mutated.
    std::vector<cycle_t> deadlines_;
    /// Slots loaded this cycle, awaiting commit().
    std::vector<std::uint32_t> staged_;
    sim::wake_hook wake_{};
    sim::wake_hook drain_{};
};

} // namespace bluescale::core
