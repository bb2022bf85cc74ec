#include <gtest/gtest.h>

#include <utility>

#include "analysis/interface_selection.hpp"
#include "analysis/selection_cache.hpp"
#include "analysis/tree_analysis.hpp"
#include "sim/rng.hpp"

namespace bluescale::analysis {
namespace {

std::vector<task_set> random_clients(std::uint64_t seed, std::uint32_t n) {
    rng r(seed);
    std::vector<task_set> clients(n);
    for (auto& s : clients) {
        const std::uint64_t period = 100 + r.uniform_u64(0, 400);
        s.push_back({period, 1 + r.uniform_u64(0, period / 25)});
    }
    return clients;
}

TEST(selection_cache, hit_is_bit_identical_to_the_uncached_call) {
    const task_set tasks{{50, 5}, {100, 10}, {200, 20}};

    sched_test_stats plain_work;
    analysis_context plain;
    plain.sched.stats = &plain_work;
    const auto expected = select_interface(tasks, 0.8, plain);

    selection_cache cache;
    sched_test_stats miss_work, hit_work;
    analysis_context ctx;
    ctx.cache = &cache;
    ctx.sched.stats = &miss_work;
    const auto first = select_interface(tasks, 0.8, ctx);
    ctx.sched.stats = &hit_work;
    const auto second = select_interface(tasks, 0.8, ctx);

    EXPECT_EQ(first, expected);
    EXPECT_EQ(second, expected);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);

    // The hit replays the original work counters: identical totals, only
    // the hit/miss split differs.
    EXPECT_EQ(miss_work.tests_run, plain_work.tests_run);
    EXPECT_EQ(miss_work.points_checked, plain_work.points_checked);
    EXPECT_EQ(hit_work.tests_run, miss_work.tests_run);
    EXPECT_EQ(hit_work.points_checked, miss_work.points_checked);
    EXPECT_EQ(miss_work.cache_misses, 1u);
    EXPECT_EQ(hit_work.cache_hits, 1u);
    EXPECT_EQ(hit_work.cache_misses, 0u);
}

TEST(selection_cache, infeasibility_is_cached_too) {
    selection_cache cache;
    analysis_context ctx;
    ctx.cache = &cache;
    EXPECT_EQ(select_interface({{10, 11}}, 1.1, ctx), std::nullopt);
    EXPECT_EQ(select_interface({{10, 11}}, 1.1, ctx), std::nullopt);
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(selection_cache, tree_selection_identical_with_cache_on_or_off) {
    const auto clients = random_clients(42, 16);

    sched_test_stats off_work;
    analysis_context off;
    off.sched.stats = &off_work;
    const auto base = select_tree_interfaces(clients, off);

    selection_cache cache;
    sched_test_stats on_work;
    analysis_context on;
    on.cache = &cache;
    on.sched.stats = &on_work;
    const auto cached = select_tree_interfaces(clients, on);

    EXPECT_EQ(cached.feasible, base.feasible);
    EXPECT_EQ(cached.failure, base.failure);
    EXPECT_EQ(cached.root_bandwidth, base.root_bandwidth);
    for (std::uint32_t l = 0; l < base.levels.size(); ++l) {
        for (std::uint32_t y = 0; y < base.levels[l].size(); ++y) {
            for (std::uint32_t p = 0; p < 4; ++p) {
                EXPECT_EQ(cached.levels[l][y].ports[p],
                          base.levels[l][y].ports[p]);
            }
        }
    }
    // Work totals replay identically; only the hit/miss counters differ.
    EXPECT_EQ(on_work.tests_run, off_work.tests_run);
    EXPECT_EQ(on_work.points_checked, off_work.points_checked);
    EXPECT_EQ(off_work.cache_hits + off_work.cache_misses, 0u);
    EXPECT_EQ(on_work.cache_hits + on_work.cache_misses,
              cache.stats().hits + cache.stats().misses);
}

TEST(selection_cache, analysis_knobs_are_part_of_the_key) {
    const task_set tasks{{50, 5}, {100, 10}};
    selection_cache cache;
    analysis_context ctx;
    ctx.cache = &cache;
    (void)select_interface(tasks, 0.5, ctx);

    // Same tasks, different knobs: each variant must miss (a hit would
    // hand back a result computed under different rules).
    analysis_context capped = ctx;
    capped.max_period = 7;
    (void)select_interface(tasks, 0.5, capped);

    analysis_context tolerant = ctx;
    tolerant.bandwidth_tolerance = 0.10;
    (void)select_interface(tasks, 0.5, tolerant);

    analysis_context maintained = ctx;
    maintained.sched.maintenance.ops.push_back({1000, 40});
    (void)select_interface(tasks, 0.5, maintained);

    analysis_context degraded = ctx;
    degraded.sched.sufficient_only = true;
    (void)select_interface(tasks, 0.5, degraded);

    // A different utilization context is a different key as well.
    (void)select_interface(tasks, 0.6, ctx);

    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().misses, 6u);
    EXPECT_EQ(cache.size(), 6u);
}

TEST(selection_cache, capacity_bounds_entries_with_fifo_eviction) {
    selection_cache cache(16); // one entry per shard
    analysis_context ctx;
    ctx.cache = &cache;
    for (std::uint64_t p = 100; p < 200; ++p) {
        (void)select_interface({{p, 1}}, 0.5, ctx);
    }
    EXPECT_LE(cache.size(), 16u);
    EXPECT_GT(cache.stats().evictions, 0u);
    // An evicted key recomputes (miss), not a wrong hit.
    EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(selection_cache, committed_update_needs_no_invalidation) {
    // The cache key is the FULL input of select_interface, so a committed
    // reconfiguration cannot stale an entry: the changed client resolves
    // under a different key (a miss), untouched subtrees re-hit their old
    // keys, and the entries those hits return are still exactly what an
    // uncached selection would compute. (A result cache whose entries
    // read committed state -- svc::analysis_service's evaluation cache --
    // must be cleared on commit instead.)
    auto clients = random_clients(7, 16);
    selection_cache cache;
    analysis_context ctx;
    ctx.cache = &cache;

    auto sel = select_tree_interfaces(clients, ctx);
    ASSERT_TRUE(sel.feasible);
    auto update =
        evaluate_client_update(sel, clients, 3, task_set{{400, 8}}, ctx);
    apply_client_update(std::move(update), sel, clients);

    // Post-commit, a fresh uncached selection agrees with a fully cached
    // one: nothing the commit changed can be served stale.
    const auto cached = select_tree_interfaces(clients, ctx);
    const auto fresh = select_tree_interfaces(clients);
    EXPECT_EQ(cached.feasible, fresh.feasible);
    EXPECT_EQ(cached.root_bandwidth, fresh.root_bandwidth);
    for (std::uint32_t l = 0; l < fresh.levels.size(); ++l) {
        for (std::uint32_t y = 0; y < fresh.levels[l].size(); ++y) {
            for (std::uint32_t p = 0; p < 4; ++p) {
                EXPECT_EQ(cached.levels[l][y].ports[p],
                          fresh.levels[l][y].ports[p]);
            }
        }
    }
}

TEST(selection_cache, clear_empties_every_shard) {
    selection_cache cache;
    analysis_context ctx;
    ctx.cache = &cache;
    for (std::uint64_t p = 100; p < 120; ++p) {
        (void)select_interface({{p, 1}}, 0.5, ctx);
    }
    EXPECT_GT(cache.size(), 0u);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
}

} // namespace
} // namespace bluescale::analysis
