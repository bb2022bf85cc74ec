#include <gtest/gtest.h>

#include <array>
#include <set>

#include "sim/rng.hpp"

namespace bluescale {
namespace {

TEST(rng, deterministic_for_same_seed) {
    rng a(123), b(123);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(rng, different_seeds_diverge) {
    rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next()) ++equal;
    }
    EXPECT_EQ(equal, 0);
}

TEST(rng, reseed_restarts_stream) {
    rng a(99);
    std::array<std::uint64_t, 8> first{};
    for (auto& v : first) v = a.next();
    a.reseed(99);
    for (auto v : first) EXPECT_EQ(v, a.next());
}

TEST(rng, zero_seed_is_well_mixed) {
    rng a(0);
    // splitmix64 seeding must not produce a degenerate all-zero state.
    std::set<std::uint64_t> values;
    for (int i = 0; i < 64; ++i) values.insert(a.next());
    EXPECT_GT(values.size(), 60u);
}

TEST(rng, uniform_u64_respects_bounds) {
    rng a(7);
    for (int i = 0; i < 10000; ++i) {
        const auto v = a.uniform_u64(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}

TEST(rng, uniform_u64_single_point_range) {
    rng a(7);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(a.uniform_u64(42, 42), 42u);
    }
}

TEST(rng, uniform_u64_covers_range) {
    rng a(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) seen.insert(a.uniform_u64(0, 9));
    EXPECT_EQ(seen.size(), 10u);
}

TEST(rng, uniform_u64_unbiased_mean) {
    rng a(5);
    double sum = 0;
    constexpr int n = 100000;
    for (int i = 0; i < n; ++i) {
        sum += static_cast<double>(a.uniform_u64(0, 100));
    }
    EXPECT_NEAR(sum / n, 50.0, 0.5);
}

TEST(rng, uniform_unit_in_range) {
    rng a(3);
    for (int i = 0; i < 10000; ++i) {
        const double v = a.uniform_unit();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(rng, uniform_real_respects_bounds) {
    rng a(13);
    for (int i = 0; i < 1000; ++i) {
        const double v = a.uniform_real(-2.5, 7.5);
        EXPECT_GE(v, -2.5);
        EXPECT_LT(v, 7.5);
    }
}

TEST(rng, pick_covers_all_indices) {
    rng a(17);
    std::set<std::size_t> seen;
    for (int i = 0; i < 200; ++i) seen.insert(a.pick(5));
    EXPECT_EQ(seen.size(), 5u);
}

TEST(rng, satisfies_uniform_random_bit_generator) {
    static_assert(std::uniform_random_bit_generator<rng>);
    SUCCEED();
}

TEST(rng_substream, deterministic_and_distinct) {
    EXPECT_EQ(substream(1, 0), substream(1, 0));
    EXPECT_NE(substream(1, 0), substream(1, 1));
    EXPECT_NE(substream(1, 0), substream(2, 0));
    // Streams from adjacent indices must not produce correlated draws.
    rng a(substream(99, 0));
    rng b(substream(99, 1));
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next()) ++equal;
    }
    EXPECT_EQ(equal, 0);
}

} // namespace
} // namespace bluescale
