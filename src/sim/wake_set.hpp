// The event engine's wake schedule: one cached wakeup cycle per slot,
// kept in a min-tree so the per-step cost follows the slots that are due,
// not how many slots exist.
//
// Both schedulers in the simulator run on it: simulator (one slot per
// component) and bluescale_ic's selective Scale Element walk (one slot
// per SE). A slot holds the earliest cycle its owner could need a tick;
// 0 means armed (due at the next step), k_cycle_never quiescent.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace bluescale::sim {

/// A tournament tree over per-slot wake times. Leaf i is slot i's wake
/// cycle; every inner node holds the min of its two children, so the
/// root is the earliest wakeup overall. Leaves sit at [cap, cap + size)
/// of one flat array (cap a power of two, padding leaves never due);
/// node k's children are 2k and 2k + 1.
///
/// Walk contract (walk() below), relied on by both schedulers:
///   1. a slot armed *above* the cursor during a visit is visited in the
///      same walk;
///   2. a slot armed *at or below* the cursor stays due: next_due()
///      becomes 0 and the slot runs at the next walk;
///   3. the visited slot's own re-arm is overwritten by the settle() that
///      follows its tick (the horizon read after a tick already sees it).
class wake_set {
public:
    wake_set() { resize(0); }
    explicit wake_set(std::size_t n) { resize(n); }

    /// Grows or shrinks to `n` slots. Existing slots keep their wake
    /// times; new slots start armed. Assembly-time only: it reallocates
    /// and rebuilds every inner node.
    void resize(std::size_t n) {
        const std::size_t cap = std::bit_ceil(std::max<std::size_t>(n, 1));
        std::vector<cycle_t> tree(2 * cap, k_cycle_never);
        const std::size_t keep = std::min(n, size_);
        for (std::size_t i = 0; i < keep; ++i) tree[cap + i] = at(i);
        for (std::size_t i = keep; i < n; ++i) tree[cap + i] = 0;
        for (std::size_t k = cap - 1; k >= 1; --k) {
            tree[k] = std::min(tree[2 * k], tree[2 * k + 1]);
        }
        tree_ = std::move(tree);
        cap_ = cap;
        size_ = n;
    }

    [[nodiscard]] std::size_t size() const { return size_; }

    /// Slot i's cached wake cycle.
    [[nodiscard]] cycle_t at(std::size_t i) const { return tree_[cap_ + i]; }

    /// Earliest wake cycle over all slots (k_cycle_never when every slot
    /// is quiescent or there are none).
    [[nodiscard]] cycle_t next_due() const { return tree_[1]; }

    /// Sets slot i's wake cycle and repairs the path to the root,
    /// stopping at the first node whose min is unchanged.
    void schedule(std::size_t i, cycle_t t) {
        std::size_t k = cap_ + i;
        tree_[k] = t;
        for (k >>= 1; k >= 1; k >>= 1) {
            const cycle_t m = std::min(tree_[2 * k], tree_[2 * k + 1]);
            if (tree_[k] == m) break;
            tree_[k] = m;
        }
    }

    /// Arms slot i: due at the next walk.
    void arm(std::size_t i) { schedule(i, 0); }

    /// Re-schedules slot i after its tick at `now`: it sleeps until its
    /// declared `horizon`, but never less than one cycle -- the floor
    /// clamp of the wake protocol, which absorbs a self-wake during the
    /// tick (contract 3).
    void settle(std::size_t i, cycle_t now, cycle_t horizon) {
        schedule(i, std::max(now + 1, horizon));
    }

    /// Visits every slot due at `now` (wake cycle <= now) in ascending
    /// index order, calling f(i). After each visit the walk descends from
    /// the cursor to the next due slot above it, so arms issued by the
    /// visit follow contracts 1 and 2. The visitor normally ticks the
    /// slot's owner and settle()s it.
    template <typename F>
    void walk(cycle_t now, F&& f) {
        if (tree_[1] > now) return;
        std::size_t i = descend(1, now);
        while (true) {
            f(i);
            if (!next_after(i, now)) return;
        }
    }

private:
    /// Leftmost due leaf under node k, which must itself be due.
    [[nodiscard]] std::size_t descend(std::size_t k, cycle_t now) const {
        while (k < cap_) {
            k <<= 1;
            if (tree_[k] > now) ++k;
        }
        return k - cap_;
    }

    /// Advances `i` to the next due slot above it; false when none is.
    /// Climbs until some right sibling of the path holds a due leaf, then
    /// descends into it.
    bool next_after(std::size_t& i, cycle_t now) const {
        for (std::size_t k = cap_ + i; k > 1; k >>= 1) {
            if ((k & 1) == 0 && tree_[k + 1] <= now) {
                i = descend(k + 1, now);
                return true;
            }
        }
        return false;
    }

    std::vector<cycle_t> tree_;
    std::size_t cap_ = 1;
    std::size_t size_ = 0;
};

} // namespace bluescale::sim
