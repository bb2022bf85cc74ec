#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "sim/wake_set.hpp"

namespace bluescale {
namespace {

using sim::wake_set;

/// The reference the min-tree must match: the flat wake array both
/// schedulers used to scan. Its walk is the plain ascending scan, which
/// by construction visits a slot armed above the cursor and leaves one
/// armed at or below it for the next walk.
class naive_wakes {
public:
    void resize(std::size_t n) { v_.resize(n, 0); }
    [[nodiscard]] std::size_t size() const { return v_.size(); }
    [[nodiscard]] cycle_t at(std::size_t i) const { return v_[i]; }
    [[nodiscard]] cycle_t next_due() const {
        cycle_t m = k_cycle_never;
        for (const cycle_t t : v_) m = std::min(m, t);
        return m;
    }
    void schedule(std::size_t i, cycle_t t) { v_[i] = t; }
    void arm(std::size_t i) { v_[i] = 0; }
    void settle(std::size_t i, cycle_t now, cycle_t horizon) {
        v_[i] = std::max(now + 1, horizon);
    }
    template <typename F>
    void walk(cycle_t now, F&& f) {
        for (std::size_t i = 0; i < v_.size(); ++i) {
            if (v_[i] <= now) f(i);
        }
    }

private:
    std::vector<cycle_t> v_;
};

/// A random wake time around `now`: armed, already due, a near or far
/// future horizon, or never.
cycle_t draw_time(rng& r, cycle_t now) {
    switch (r.uniform_u64(0, 5)) {
    case 0: return 0;
    case 1: return r.uniform_u64(0, now);
    case 2: return now + r.uniform_u64(1, 4);
    case 3: return now + r.uniform_u64(1, 200);
    case 4: return k_cycle_never;
    default: return now + 1;
    }
}

/// One step of the scheduler loop, driven by `r`: a walk at `now` whose
/// visitor issues arms at, above and below the cursor, schedules random
/// slots, and (usually) settles the visited slot. Returns the visit
/// order. Run on both implementations with identically seeded rngs, the
/// draws stay in step exactly as long as the visit orders agree.
template <typename W>
std::vector<std::size_t> run_walk(W& w, cycle_t now, rng& r) {
    std::vector<std::size_t> order;
    const std::size_t n = w.size();
    w.walk(now, [&](std::size_t i) {
        order.push_back(i);
        const std::uint64_t ops = r.uniform_u64(0, 3);
        for (std::uint64_t k = 0; k < ops; ++k) {
            switch (r.uniform_u64(0, 4)) {
            case 0: w.arm(i); break; // self-wake, absorbed by the settle
            case 1:
                if (i + 1 < n) w.arm(r.uniform_u64(i + 1, n - 1));
                break;
            case 2: w.arm(r.uniform_u64(0, i)); break;
            case 3:
                w.schedule(r.uniform_u64(0, n - 1), draw_time(r, now));
                break;
            default: break;
            }
        }
        if (r.uniform_u64(0, 7) != 0) w.settle(i, now, draw_time(r, now));
    });
    return order;
}

std::string where(std::uint64_t seed, std::uint64_t op) {
    return "seed " + std::to_string(seed) + " op " + std::to_string(op);
}

/// Drives a wake_set and the naive array through the same seeded
/// operation stream and checks visit order, next_due() and every at(i)
/// after each operation. Returns the first mismatch (empty when none).
::testing::AssertionResult run_case(std::size_t size, std::uint64_t seed) {
    constexpr int k_rounds = 48;
    rng ops(seed);
    wake_set tree(size);
    naive_wakes ref;
    ref.resize(size);
    cycle_t now = 0;
    std::uint64_t op = 0;
    const auto check_state = [&]() -> ::testing::AssertionResult {
        if (tree.size() != ref.size()) {
            return ::testing::AssertionFailure()
                   << where(seed, op) << ": size " << tree.size()
                   << " != " << ref.size();
        }
        if (tree.next_due() != ref.next_due()) {
            return ::testing::AssertionFailure()
                   << where(seed, op) << ": next_due " << tree.next_due()
                   << " != " << ref.next_due();
        }
        for (std::size_t i = 0; i < ref.size(); ++i) {
            if (tree.at(i) != ref.at(i)) {
                return ::testing::AssertionFailure()
                       << where(seed, op) << ": at(" << i << ") "
                       << tree.at(i) << " != " << ref.at(i);
            }
        }
        return ::testing::AssertionSuccess();
    };
    for (int pass = 0; pass < k_rounds; ++pass) {
        // Out-of-walk traffic: producer wakes and horizon writes.
        const std::uint64_t writes = ops.uniform_u64(0, 6);
        for (std::uint64_t k = 0; k < writes; ++k, ++op) {
            const std::size_t i = ops.uniform_u64(0, ref.size() - 1);
            if (ops.uniform_u64(0, 2) == 0) {
                tree.arm(i);
                ref.arm(i);
            } else {
                const cycle_t t = draw_time(ops, now);
                tree.schedule(i, t);
                ref.schedule(i, t);
            }
            if (auto ok = check_state(); !ok) return ok;
        }
        // Assembly change mid-run: grow or shrink, never to zero.
        if (ops.uniform_u64(0, 15) == 0) {
            const std::size_t n = ops.uniform_u64(1, size + 70);
            tree.resize(n);
            ref.resize(n);
            ++op;
            if (auto ok = check_state(); !ok) return ok;
        }
        rng tree_draws = ops;
        rng ref_draws = ops;
        const auto got = run_walk(tree, now, tree_draws);
        const auto want = run_walk(ref, now, ref_draws);
        ops = ref_draws;
        ++op;
        if (got != want) {
            return ::testing::AssertionFailure()
                   << where(seed, op) << ": walk at " << now << " visited "
                   << got.size() << " slots, reference " << want.size();
        }
        if (auto ok = check_state(); !ok) return ok;
        // Advance like the run loop: one cycle, or skip to the next due
        // wakeup when it lies further out.
        const cycle_t due = ref.next_due();
        now = (due != k_cycle_never && due > now + 1 &&
               ops.uniform_u64(0, 1) == 0)
                  ? due
                  : now + 1;
    }
    return ::testing::AssertionSuccess();
}

TEST(wake_set, matches_naive_array_under_random_schedules) {
    // Sizes straddle the power-of-two padding (63/64/65) and include the
    // fabric (1,365 SEs at 4,096 clients) and simulator (4,098 slots)
    // sizes of the widest benchmark tree.
    const std::size_t sizes[] = {1, 2, 63, 64, 65, 1365, 4098};
    for (const std::size_t size : sizes) {
        const std::uint64_t seeds = size > 1000 ? 4 : 40;
        for (std::uint64_t s = 0; s < seeds; ++s) {
            const std::uint64_t seed =
                substream(0x3A4E5E7, size * 1000 + s);
            ASSERT_TRUE(run_case(size, seed)) << "size " << size;
        }
    }
}

TEST(wake_set, walk_visits_arms_above_cursor_and_defers_the_rest) {
    wake_set w(8);
    for (std::size_t i = 0; i < 8; ++i) w.schedule(i, 100);
    w.arm(2);
    std::vector<std::size_t> order;
    w.walk(5, [&](std::size_t i) {
        order.push_back(i);
        if (i == 2) {
            w.arm(6); // above the cursor: this walk
            w.arm(1); // below: the next walk
            w.arm(2); // self: absorbed by the settle
        }
        w.settle(i, 5, 50);
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{2, 6}));
    EXPECT_EQ(w.next_due(), 0u);
    EXPECT_EQ(w.at(1), 0u);
    EXPECT_EQ(w.at(2), 50u);
    EXPECT_EQ(w.at(6), 50u);
}

TEST(wake_set, empty_set_is_quiescent) {
    wake_set empty;
    EXPECT_EQ(empty.next_due(), k_cycle_never);
    int visits = 0;
    empty.walk(0, [&](std::size_t) { ++visits; });
    EXPECT_EQ(visits, 0);
}

} // namespace
} // namespace bluescale
