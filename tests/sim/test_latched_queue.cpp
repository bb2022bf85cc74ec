#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <sstream>
#include <string>

#include "sim/latched_queue.hpp"
#include "sim/rng.hpp"

namespace bluescale {
namespace {

TEST(latched_queue, push_invisible_before_commit) {
    latched_queue<int> q(4);
    q.push(1);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
}

TEST(latched_queue, push_visible_after_commit) {
    latched_queue<int> q(4);
    q.push(1);
    q.commit();
    ASSERT_EQ(q.size(), 1u);
    EXPECT_EQ(q.front(), 1);
}

TEST(latched_queue, staged_pushes_count_against_capacity) {
    latched_queue<int> q(2);
    q.push(1);
    EXPECT_TRUE(q.can_push());
    q.push(2);
    EXPECT_FALSE(q.can_push());
    EXPECT_EQ(q.free_slots(), 0u);
}

TEST(latched_queue, commit_preserves_push_order) {
    latched_queue<int> q(4);
    q.push(1);
    q.push(2);
    q.commit();
    q.push(3);
    q.commit();
    EXPECT_EQ(q.pop(), 1);
    EXPECT_EQ(q.pop(), 2);
    EXPECT_EQ(q.pop(), 3);
}

TEST(latched_queue, pop_frees_capacity_for_next_cycle) {
    latched_queue<int> q(2);
    q.push(1);
    q.push(2);
    q.commit();
    EXPECT_FALSE(q.can_push());
    q.pop();
    EXPECT_TRUE(q.can_push());
}

TEST(latched_queue, producer_consumer_one_cycle_handoff) {
    // Models two components exchanging one value per cycle regardless of
    // tick order: the consumer never sees a same-cycle push.
    latched_queue<int> q(4);
    int received = -1;
    for (int cycle = 0; cycle < 3; ++cycle) {
        // consumer ticks first this cycle
        if (!q.empty()) received = q.pop();
        // producer ticks second
        q.push(cycle);
        q.commit();
        EXPECT_EQ(received, cycle - 1);
    }
}

TEST(latched_queue, at_and_extract_on_visible_elements) {
    latched_queue<int> q(4);
    q.push(10);
    q.push(20);
    q.push(30);
    q.commit();
    EXPECT_EQ(q.at(1), 20);
    EXPECT_EQ(q.extract(1), 20);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.pop(), 10);
    EXPECT_EQ(q.pop(), 30);
}

TEST(latched_queue, commit_with_nothing_staged_is_noop) {
    latched_queue<int> q(4);
    q.push(5);
    q.commit();
    q.commit();
    EXPECT_EQ(q.size(), 1u);
}

// --- ring behaviour: push, commit, then check ----------------------------
// (kept under the fixed_queue suite name of the ring these cases first
// covered)

TEST(fixed_queue, starts_empty) {
    latched_queue<int> q(4);
    EXPECT_TRUE(q.empty());
    EXPECT_TRUE(q.quiet());
    EXPECT_TRUE(q.can_push());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.capacity(), 4u);
    EXPECT_EQ(q.free_slots(), 4u);
}

TEST(fixed_queue, push_pop_fifo_order) {
    latched_queue<int> q(4);
    q.push(1);
    q.push(2);
    q.push(3);
    q.commit();
    EXPECT_EQ(q.pop(), 1);
    EXPECT_EQ(q.pop(), 2);
    EXPECT_EQ(q.pop(), 3);
    EXPECT_TRUE(q.empty());
}

TEST(fixed_queue, full_at_capacity) {
    latched_queue<int> q(2);
    q.push(1);
    q.commit();
    EXPECT_TRUE(q.can_push());
    q.push(2);
    q.commit();
    EXPECT_FALSE(q.can_push());
    EXPECT_EQ(q.free_slots(), 0u);
}

TEST(fixed_queue, wraps_around) {
    latched_queue<int> q(3);
    for (int round = 0; round < 10; ++round) {
        q.push(round * 2);
        q.push(round * 2 + 1);
        q.commit();
        EXPECT_EQ(q.pop(), round * 2);
        EXPECT_EQ(q.pop(), round * 2 + 1);
    }
    EXPECT_TRUE(q.empty());
}

TEST(fixed_queue, front_peeks_without_removing) {
    latched_queue<int> q(4);
    q.push(42);
    q.commit();
    EXPECT_EQ(q.front(), 42);
    EXPECT_EQ(q.size(), 1u);
}

TEST(fixed_queue, at_indexes_from_front) {
    latched_queue<int> q(4);
    q.push(10);
    q.push(20);
    q.push(30);
    q.commit();
    q.pop(); // head moves; at() must follow
    q.push(40);
    q.commit();
    EXPECT_EQ(q.at(0), 20);
    EXPECT_EQ(q.at(1), 30);
    EXPECT_EQ(q.at(2), 40);
}

TEST(fixed_queue, extract_middle_preserves_order) {
    latched_queue<int> q(5);
    for (int i = 1; i <= 5; ++i) q.push(i);
    q.commit();
    EXPECT_EQ(q.extract(2), 3);
    EXPECT_EQ(q.size(), 4u);
    EXPECT_EQ(q.pop(), 1);
    EXPECT_EQ(q.pop(), 2);
    EXPECT_EQ(q.pop(), 4);
    EXPECT_EQ(q.pop(), 5);
}

TEST(fixed_queue, extract_front_equals_pop) {
    latched_queue<int> q(3);
    q.push(7);
    q.push(8);
    q.commit();
    EXPECT_EQ(q.extract(0), 7);
    EXPECT_EQ(q.front(), 8);
}

TEST(fixed_queue, extract_last) {
    latched_queue<int> q(3);
    q.push(7);
    q.push(8);
    q.push(9);
    q.commit();
    EXPECT_EQ(q.extract(2), 9);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.pop(), 7);
    EXPECT_EQ(q.pop(), 8);
}

TEST(fixed_queue, extract_across_wraparound) {
    latched_queue<int> q(4);
    q.push(1);
    q.push(2);
    q.push(3);
    q.commit();
    q.pop();
    q.pop();
    q.push(4);
    q.push(5); // storage wraps here
    q.commit();
    EXPECT_EQ(q.extract(1), 4);
    EXPECT_EQ(q.pop(), 3);
    EXPECT_EQ(q.pop(), 5);
}

TEST(fixed_queue, move_only_types) {
    latched_queue<std::unique_ptr<int>> q(2);
    q.push(std::make_unique<int>(5));
    q.commit();
    auto p = q.pop();
    EXPECT_EQ(*p, 5);
}

// --- seeded property test against a deque model --------------------------

/// The queue's contract, written the obvious way: every entry in push
/// order, the first `visible` of them committed, and the hook firings the
/// queue promises (wake on a quiet->non-quiet push, drain on a pop or
/// extract from a full queue).
struct queue_model {
    std::size_t capacity = 0;
    std::deque<int> entries;
    std::size_t visible = 0;
    std::uint64_t wakes = 0;
    std::uint64_t drains = 0;

    [[nodiscard]] bool full() const { return entries.size() == capacity; }
    void push(int v) {
        if (entries.empty()) ++wakes;
        entries.push_back(v);
    }
    int extract(std::size_t i) {
        if (full()) ++drains;
        const int v = entries[i];
        entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(i));
        --visible;
        return v;
    }
};

void count_firing(void* n) { ++*static_cast<std::uint64_t*>(n); }

/// The first observable difference between `q` and `m`, or "".
std::string state_mismatch(const latched_queue<int>& q, const queue_model& m,
                           std::uint64_t wakes, std::uint64_t drains) {
    std::ostringstream os;
    if (q.size() != m.visible) {
        os << "size " << q.size() << " vs " << m.visible;
    } else if (q.total_size() != m.entries.size()) {
        os << "total_size " << q.total_size() << " vs " << m.entries.size();
    } else if (q.free_slots() != m.capacity - m.entries.size() ||
               q.can_push() != !m.full()) {
        os << "free_slots " << q.free_slots() << " vs "
           << m.capacity - m.entries.size();
    } else if (q.quiet() != m.entries.empty() ||
               q.empty() != (m.visible == 0)) {
        os << "quiet/empty " << q.quiet() << '/' << q.empty();
    } else if (wakes != m.wakes || drains != m.drains) {
        os << "wake/drain firings " << wakes << '/' << drains << " vs "
           << m.wakes << '/' << m.drains;
    } else {
        for (std::size_t i = 0; i < m.visible; ++i) {
            if (q.at(i) != m.entries[i]) {
                os << "at(" << i << ") " << q.at(i) << " vs " << m.entries[i];
                break;
            }
        }
    }
    return os.str();
}

TEST(latched_queue_property, matches_deque_model) {
    constexpr std::uint64_t k_seeds = 40;
    constexpr std::uint32_t k_ops = 3000;
    for (const std::size_t capacity : {1, 2, 3, 8}) {
        for (std::uint64_t seed = 1; seed <= k_seeds; ++seed) {
            rng gen(seed * 1000 + capacity);
            latched_queue<int> q(capacity);
            queue_model m;
            m.capacity = capacity;
            std::uint64_t wakes = 0;
            std::uint64_t drains = 0;
            q.set_wake_hook({count_firing, &wakes});
            q.set_drain_hook({count_firing, &drains});
            int next_value = 1;
            std::size_t peak = 0;
            for (std::uint32_t op = 0; op < k_ops; ++op) {
                const auto fail = [&](const std::string& what) {
                    return ::testing::Message()
                           << "capacity " << capacity << ", seed " << seed
                           << ", op #" << op << ": " << what;
                };
                // Pushes outweigh removals, so the queue fills, wraps and
                // drains from full.
                const std::uint64_t roll = gen.uniform_u64(0, 999);
                if (roll < 400) {
                    if (q.can_push()) {
                        q.push(next_value);
                        m.push(next_value);
                        ++next_value;
                    }
                } else if (roll < 600) {
                    q.commit();
                    m.visible = m.entries.size();
                } else if (roll < 860) {
                    if (!q.empty()) {
                        // Half the removals pop, half extract anywhere.
                        const bool pop = roll < 730;
                        const std::size_t i =
                            pop ? 0 : gen.pick(m.visible);
                        const int got = pop ? q.pop() : q.extract(i);
                        const int want = m.extract(i);
                        if (got != want) {
                            std::ostringstream os;
                            os << (pop ? "pop " : "extract(") << i << ") "
                               << got << " vs " << want;
                            FAIL() << fail(os.str());
                        }
                    }
                } else if (!q.empty()) {
                    const std::size_t i = gen.pick(m.visible);
                    q.at(i) = -next_value;
                    m.entries[i] = -next_value;
                    ++next_value;
                }
                const std::string diff = state_mismatch(q, m, wakes, drains);
                if (!diff.empty()) FAIL() << fail(diff);
                peak = std::max(peak, q.total_size());
            }
            // Every run must reach a full queue, so the drain hook and the
            // full-queue refusals are exercised.
            ASSERT_EQ(peak, capacity)
                << "capacity " << capacity << ", seed " << seed;
        }
    }
}

} // namespace
} // namespace bluescale
