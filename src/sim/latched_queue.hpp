// Two-phase bounded queue modelling a registered hardware interface.
//
// Values pushed during a cycle's tick() phase become visible to consumers
// only after commit() -- i.e., on the next clock edge. This gives every
// producer/consumer pair well-defined one-cycle hand-off semantics that do
// not depend on the order in which the simulator ticks components.
//
// Like the register file it models, the queue is one fixed-capacity ring
// in a single heap block, with a head pointer and two counts. From the
// head, in ring order, sit first the `visible_` entries the consumer may
// read, then the `staged_` entries pushed since the last edge, in push
// order. push() writes behind the staged tail, and commit() only moves
// the boundary between the two windows: it is O(1) and moves no entry.
// Hardware queues exert backpressure; they never drop or grow.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <utility>

#include "sim/wake.hpp"

namespace bluescale {

template <typename T>
class latched_queue {
public:
    explicit latched_queue(std::size_t capacity)
        : slots_(std::make_unique<T[]>(capacity)), capacity_(capacity) {
        assert(capacity > 0);
    }

    /// Producer-side wake notification: a push() into a fully quiet queue
    /// re-arms the queue's consumer. Only that transition can invalidate a
    /// consumer's cached horizon -- the next_event() contract requires a
    /// consumer to stay scheduled while its queue is non-quiet -- so
    /// pushes onto existing work skip the (redundant) wake. The consumer
    /// still sees the value only after commit(); the early wake just
    /// guarantees it is scheduled for that cycle.
    void set_wake_hook(sim::wake_hook hook) { wake_ = hook; }

    /// Consumer-side drain notification: fired when a pop()/extract()
    /// frees a slot in a previously full queue (can_push() flips back to
    /// true). Lets a backpressured producer sleep on the queue instead of
    /// polling can_push() every cycle.
    void set_drain_hook(sim::wake_hook hook) { drain_ = hook; }

    /// Free slots from the producer's point of view: pushes staged this
    /// cycle count against capacity, so a producer can never overrun the
    /// queue even before commit().
    [[nodiscard]] bool can_push() const { return total_size() < capacity_; }

    [[nodiscard]] std::size_t free_slots() const {
        return capacity_ - total_size();
    }

    /// Occupancy including values still staged for the next edge -- the
    /// quantity a consumer's next_event() must consult: staged work means
    /// the queue is not quiescent even though empty() still holds.
    [[nodiscard]] std::size_t total_size() const { return visible_ + staged_; }

    [[nodiscard]] bool quiet() const { return total_size() == 0; }

    void push(T value) {
        assert(can_push());
        const bool was_quiet = quiet();
        slots_[slot(total_size())] = std::move(value);
        ++staged_;
        if (was_quiet) wake_.fire();
    }

    // --- consumer side: operates on values committed in earlier cycles ---
    [[nodiscard]] bool empty() const { return visible_ == 0; }
    [[nodiscard]] std::size_t size() const { return visible_; }
    [[nodiscard]] std::size_t capacity() const { return capacity_; }

    [[nodiscard]] const T& front() const {
        assert(!empty());
        return slots_[head_];
    }

    T pop() {
        assert(!empty());
        const bool was_full = total_size() == capacity_;
        T value = std::move(slots_[head_]);
        head_ = slot(1);
        --visible_;
        if (was_full) drain_.fire();
        return value;
    }

    /// Visible entry i positions from the front (0 == front). For
    /// arbiters that inspect queue contents without consuming them.
    [[nodiscard]] const T& at(std::size_t i) const {
        assert(i < visible_);
        return slots_[slot(i)];
    }

    [[nodiscard]] T& at(std::size_t i) {
        assert(i < visible_);
        return slots_[slot(i)];
    }

    /// Removes and returns visible entry i, keeping the order of the rest.
    /// Everything behind it, the staged tail included, moves one slot
    /// forward, so the staged entries stay contiguous and in push order.
    T extract(std::size_t i) {
        assert(i < visible_);
        const bool was_full = total_size() == capacity_;
        T value = std::move(slots_[slot(i)]);
        for (std::size_t j = i + 1; j < total_size(); ++j) {
            slots_[slot(j - 1)] = std::move(slots_[slot(j)]);
        }
        --visible_;
        if (was_full) drain_.fire();
        return value;
    }

    /// Clock edge: staged values become visible, in push order.
    void commit() {
        visible_ += staged_;
        staged_ = 0;
    }

private:
    /// Ring index of the entry i positions behind the head (i <=
    /// capacity_, so one conditional subtraction wraps it).
    [[nodiscard]] std::size_t slot(std::size_t i) const {
        const std::size_t j = head_ + i;
        return j < capacity_ ? j : j - capacity_;
    }

    std::unique_ptr<T[]> slots_;
    std::size_t capacity_;
    std::size_t head_ = 0;
    std::size_t visible_ = 0;
    std::size_t staged_ = 0;
    sim::wake_hook wake_{};
    sim::wake_hook drain_{};
};

} // namespace bluescale
