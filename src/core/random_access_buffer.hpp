// Random access buffer (paper Sec. 4.1, Fig. 2(c)): the SE's low-level
// priority queue. Unlike a FIFO, the stored requests can be fetched in any
// order: a comparator bank continuously searches the register banks for
// the highest-priority (earliest-deadline) request, and the fetcher
// extracts it for the local scheduler.
//
// Like the register bank it models, the buffer is sized once: its whole
// storage is one heap block allocated at construction for the exact
// depth, laid out structure-of-arrays (depth entries each):
//
//   deadlines  level deadlines of the visible requests, in load order --
//              the dense array the comparator bank (the hot EDF pick and
//              the blocking-charge loop) scans
//   arena      mem_request payloads, recycled through the free stack, so
//              a request costs no heap traffic
//   order      arena slot of each visible request (parallel to deadlines)
//   staged     arena slots loaded this cycle, awaiting commit()
//   free       free arena slots (a stack; the top is the next slot out)
//
// Two-phase visibility matches latched_queue: load() stages a slot,
// commit() publishes it.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>

#include "mem/request.hpp"
#include "sim/types.hpp"
#include "sim/wake.hpp"

namespace bluescale::core {

class random_access_buffer {
public:
    explicit random_access_buffer(std::size_t depth)
        : block_(new std::byte[depth * k_slot_bytes]),
          depth_(static_cast<std::uint32_t>(depth)) {
        std::byte* at = block_.get();
        deadlines_ = carve<cycle_t>(at, depth);
        arena_ = carve<mem_request>(at, depth);
        order_ = carve<std::uint32_t>(at, depth);
        staged_ = carve<std::uint32_t>(at, depth);
        free_ = carve<std::uint32_t>(at, depth);
        // Every slot free; low slots are handed out first (top of the
        // stack is slot 0), so slot use is deterministic and dense under
        // low occupancy.
        for (std::uint32_t k = 0; k < depth_; ++k) free_[k] = depth_ - 1 - k;
        free_size_ = depth_;
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
    [[nodiscard]] bool can_load() const { return free_size_ != 0; }

    void load(mem_request r) {
        assert(can_load());
        const std::uint32_t slot = free_[--free_size_];
        arena_[slot] = std::move(r);
        staged_[staged_size_++] = slot;
        wake_.fire();
    }

    // --- arbiter / fetcher side ------------------------------------------
    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] std::size_t capacity() const { return depth_; }

    /// Occupancy including loads staged for the next edge -- what a
    /// consumer's quiescence check must consult.
    [[nodiscard]] std::size_t total_size() const {
        return std::size_t{size_} + staged_size_;
    }

    [[nodiscard]] bool quiet() const { return total_size() == 0; }

    /// The comparators' result: earliest level deadline currently stored
    /// (nullopt when empty). This is Algorithm 1's inner EDF pick.
    [[nodiscard]] std::optional<cycle_t> min_deadline() const {
        if (size_ == 0) return std::nullopt;
        cycle_t best = deadlines_[0];
        for (std::uint32_t i = 1; i < size_; ++i) {
            best = std::min(best, deadlines_[i]);
        }
        return best;
    }

    /// Fetches the earliest-deadline request (ties broken by load order,
    /// matching the comparator chain's first-match behaviour).
    mem_request fetch_earliest() {
        assert(size_ != 0);
        std::uint32_t best = 0;
        for (std::uint32_t i = 1; i < size_; ++i) {
            if (deadlines_[i] < deadlines_[best]) best = i;
        }
        const std::uint32_t slot = order_[best];
        // Close the gap: the visible entries stay in load order.
        std::copy(order_ + best + 1, order_ + size_, order_ + best);
        std::copy(deadlines_ + best + 1, deadlines_ + size_,
                  deadlines_ + best);
        --size_;
        const bool was_full = free_size_ == 0;
        free_[free_size_++] = slot;
        if (was_full) drain_.fire();
        return std::move(arena_[slot]);
    }

    /// Charges one blocking cycle to stored requests with a deadline
    /// earlier than the granted one (measurement hook, not hardware).
    void charge_blocked(cycle_t granted_deadline) {
        for (std::uint32_t i = 0; i < size_; ++i) {
            if (deadlines_[i] < granted_deadline) {
                ++arena_[order_[i]].blocked_cycles;
            }
        }
    }

    /// Clock edge: loads staged this cycle become visible, in load order.
    /// deadlines_[i] mirrors arena_[order_[i]].level_deadline, valid
    /// because a stored request's level_deadline is never mutated.
    void commit() {
        // Counts in locals: the slot-index stores could alias them.
        const std::uint32_t staged = staged_size_;
        std::uint32_t n = size_;
        for (std::uint32_t k = 0; k < staged; ++k, ++n) {
            const std::uint32_t slot = staged_[k];
            order_[n] = slot;
            deadlines_[n] = arena_[slot].level_deadline;
        }
        size_ = n;
        staged_size_ = 0;
    }

private:
    // The constructor carves the block's arrays widest-aligned first, so
    // each one starts aligned: the arrays before it end on a multiple of
    // its alignment.
    static_assert(std::is_trivially_destructible_v<mem_request>,
                  "the block is freed without destroying its requests");
    static_assert(alignof(mem_request) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__ &&
                  alignof(mem_request) <= alignof(cycle_t) &&
                  sizeof(mem_request) % alignof(std::uint32_t) == 0);
    static constexpr std::size_t k_slot_bytes =
        sizeof(cycle_t) + sizeof(mem_request) + 3 * sizeof(std::uint32_t);

    /// Creates an array of `n` default-initialized T at `at` and moves
    /// `at` past it.
    template <class T>
    static T* carve(std::byte*& at, std::size_t n) {
        T* first = ::new (static_cast<void*>(at)) T[n];
        at += n * sizeof(T);
        return first;
    }

    std::unique_ptr<std::byte[]> block_;
    cycle_t* deadlines_ = nullptr;
    mem_request* arena_ = nullptr;
    std::uint32_t* order_ = nullptr;
    std::uint32_t* staged_ = nullptr;
    std::uint32_t* free_ = nullptr;
    std::uint32_t depth_ = 0;
    /// Visible requests (deadlines_/order_ entries in use).
    std::uint32_t size_ = 0;
    std::uint32_t staged_size_ = 0;
    std::uint32_t free_size_ = 0;
    sim::wake_hook wake_{};
    sim::wake_hook drain_{};
};

} // namespace bluescale::core
