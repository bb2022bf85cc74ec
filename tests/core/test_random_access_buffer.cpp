#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/random_access_buffer.hpp"
#include "sim/rng.hpp"

namespace bluescale::core {
namespace {

mem_request req(request_id_t id, cycle_t deadline) {
    mem_request r;
    r.id = id;
    r.level_deadline = deadline;
    return r;
}

TEST(random_access_buffer, load_visible_after_commit) {
    random_access_buffer buf(4);
    buf.load(req(1, 100));
    EXPECT_TRUE(buf.empty());
    buf.commit();
    EXPECT_EQ(buf.size(), 1u);
}

TEST(random_access_buffer, min_deadline_scans_all_entries) {
    random_access_buffer buf(4);
    buf.load(req(1, 300));
    buf.load(req(2, 100));
    buf.load(req(3, 200));
    buf.commit();
    ASSERT_TRUE(buf.min_deadline().has_value());
    EXPECT_EQ(*buf.min_deadline(), 100u);
}

TEST(random_access_buffer, min_deadline_empty_is_nullopt) {
    random_access_buffer buf(4);
    EXPECT_FALSE(buf.min_deadline().has_value());
}

TEST(random_access_buffer, fetch_earliest_extracts_by_deadline) {
    random_access_buffer buf(4);
    buf.load(req(1, 300));
    buf.load(req(2, 100));
    buf.load(req(3, 200));
    buf.commit();
    EXPECT_EQ(buf.fetch_earliest().id, 2u);
    EXPECT_EQ(buf.fetch_earliest().id, 3u);
    EXPECT_EQ(buf.fetch_earliest().id, 1u);
    EXPECT_TRUE(buf.empty());
}

TEST(random_access_buffer, ties_broken_by_load_order) {
    random_access_buffer buf(4);
    buf.load(req(1, 100));
    buf.load(req(2, 100));
    buf.commit();
    EXPECT_EQ(buf.fetch_earliest().id, 1u);
}

TEST(random_access_buffer, capacity_respected) {
    random_access_buffer buf(2);
    buf.load(req(1, 1));
    buf.load(req(2, 2));
    EXPECT_FALSE(buf.can_load());
    buf.commit();
    EXPECT_FALSE(buf.can_load());
    buf.fetch_earliest();
    EXPECT_TRUE(buf.can_load());
}

TEST(random_access_buffer, charge_blocked_only_earlier_deadlines) {
    random_access_buffer buf(4);
    buf.load(req(1, 100));
    buf.load(req(2, 300));
    buf.commit();
    buf.charge_blocked(/*granted_deadline=*/200);
    // Only id 1 (deadline 100 < 200) is blocked by the grant.
    const auto a = buf.fetch_earliest();
    const auto b = buf.fetch_earliest();
    EXPECT_EQ(a.id, 1u);
    EXPECT_EQ(a.blocked_cycles, 1u);
    EXPECT_EQ(b.blocked_cycles, 0u);
}

TEST(random_access_buffer, interleaved_load_fetch) {
    random_access_buffer buf(4);
    buf.load(req(1, 50));
    buf.commit();
    buf.load(req(2, 10)); // staged: not fetchable this cycle
    EXPECT_EQ(*buf.min_deadline(), 50u);
    EXPECT_EQ(buf.fetch_earliest().id, 1u);
    buf.commit();
    EXPECT_EQ(buf.fetch_earliest().id, 2u);
}

// --- seeded property test against a naive vector model -----------------

/// The buffer's contract, written the obvious way: visible requests in
/// load order, staged loads beside them, EDF fetch taking the first
/// minimum, and the hook firings the buffer promises.
struct rab_model {
    std::size_t depth = 0;
    std::vector<mem_request> visible;
    std::vector<mem_request> staged;
    std::uint64_t wakes = 0;
    std::uint64_t drains = 0;

    [[nodiscard]] bool can_load() const {
        return visible.size() + staged.size() < depth;
    }
    void load(const mem_request& r) {
        staged.push_back(r);
        ++wakes;
    }
    void commit() {
        visible.insert(visible.end(), staged.begin(), staged.end());
        staged.clear();
    }
    mem_request fetch_earliest() {
        std::size_t best = 0;
        for (std::size_t i = 1; i < visible.size(); ++i) {
            if (visible[i].level_deadline < visible[best].level_deadline) {
                best = i;
            }
        }
        if (!can_load()) ++drains;
        const mem_request r = visible[best];
        visible.erase(visible.begin() + static_cast<std::ptrdiff_t>(best));
        return r;
    }
    void charge_blocked(cycle_t granted) {
        for (auto& r : visible) {
            if (r.level_deadline < granted) ++r.blocked_cycles;
        }
    }
    [[nodiscard]] std::optional<cycle_t> min_deadline() const {
        std::optional<cycle_t> best;
        for (const auto& r : visible) {
            if (!best || r.level_deadline < *best) best = r.level_deadline;
        }
        return best;
    }
};

void count_firing(void* n) { ++*static_cast<std::uint64_t*>(n); }

/// The first observable difference between `buf` and `m`, or "".
std::string state_mismatch(const random_access_buffer& buf,
                           const rab_model& m, std::uint64_t wakes,
                           std::uint64_t drains) {
    std::ostringstream os;
    if (buf.size() != m.visible.size()) {
        os << "size " << buf.size() << " vs " << m.visible.size();
    } else if (buf.total_size() != m.visible.size() + m.staged.size()) {
        os << "total_size " << buf.total_size() << " vs "
           << m.visible.size() + m.staged.size();
    } else if (buf.empty() != m.visible.empty() ||
               buf.quiet() != (m.visible.empty() && m.staged.empty())) {
        os << "empty/quiet " << buf.empty() << '/' << buf.quiet();
    } else if (buf.can_load() != m.can_load()) {
        os << "can_load " << buf.can_load();
    } else if (buf.min_deadline() != m.min_deadline()) {
        os << "min_deadline " << buf.min_deadline().value_or(k_cycle_never)
           << " vs " << m.min_deadline().value_or(k_cycle_never);
    } else if (wakes != m.wakes || drains != m.drains) {
        os << "wake/drain firings " << wakes << '/' << drains << " vs "
           << m.wakes << '/' << m.drains;
    }
    return os.str();
}

TEST(random_access_buffer_property, matches_vector_model) {
    constexpr std::uint64_t k_seeds = 40;
    constexpr std::uint32_t k_ops = 3000;
    for (const std::size_t depth : {1, 2, 8, 64}) {
        for (std::uint64_t seed = 1; seed <= k_seeds; ++seed) {
            rng gen(seed * 1000 + depth);
            random_access_buffer buf(depth);
            rab_model m;
            m.depth = depth;
            std::uint64_t wakes = 0;
            std::uint64_t drains = 0;
            buf.set_wake_hook({count_firing, &wakes});
            buf.set_drain_hook({count_firing, &drains});
            ASSERT_EQ(buf.capacity(), depth);
            request_id_t next_id = 1;
            std::size_t peak = 0;
            for (std::uint32_t op = 0; op < k_ops; ++op) {
                const auto fail = [&](const std::string& what) {
                    return ::testing::Message()
                           << "depth " << depth << ", seed " << seed
                           << ", op #" << op << ": " << what;
                };
                // Loads outweigh fetches, so deep buffers fill up;
                // deadlines come from a narrow range, so ties are common.
                const std::uint64_t roll = gen.uniform_u64(0, 999);
                if (roll < 450) {
                    if (buf.can_load()) {
                        const mem_request r =
                            req(next_id++, gen.uniform_u64(0, 15));
                        buf.load(r);
                        m.load(r);
                    }
                } else if (roll < 650) {
                    buf.commit();
                    m.commit();
                } else if (roll < 820) {
                    if (!buf.empty()) {
                        const mem_request got = buf.fetch_earliest();
                        const mem_request want = m.fetch_earliest();
                        if (got.id != want.id ||
                            got.level_deadline != want.level_deadline ||
                            got.blocked_cycles != want.blocked_cycles) {
                            std::ostringstream os;
                            os << "fetched id " << got.id << " (deadline "
                               << got.level_deadline << ", blocked "
                               << got.blocked_cycles << "), model id "
                               << want.id << " (deadline "
                               << want.level_deadline << ", blocked "
                               << want.blocked_cycles << ")";
                            FAIL() << fail(os.str());
                        }
                    }
                } else {
                    const cycle_t granted = gen.uniform_u64(0, 16);
                    buf.charge_blocked(granted);
                    m.charge_blocked(granted);
                }
                const std::string diff = state_mismatch(buf, m, wakes, drains);
                if (!diff.empty()) FAIL() << fail(diff);
                peak = std::max(peak, buf.total_size());
            }
            // Every run must reach a full buffer, so the drain hook and
            // the full-buffer refusals are exercised.
            ASSERT_EQ(peak, depth) << "depth " << depth << ", seed " << seed;
        }
    }
}

} // namespace
} // namespace bluescale::core
