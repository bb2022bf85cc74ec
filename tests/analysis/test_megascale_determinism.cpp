// Mega-scale determinism gate (ROADMAP item 2): a depth-8 quadtree
// (65,536 leaves) whole-tree selection must be byte-identical for every
// --threads value. The workload is a uniform profile so the selection
// cache collapses the tree to a handful of distinct selection problems
// -- the test exercises the parallel ordered-merge and the sharded
// cache, not the selector's arithmetic. Runs under scripts/check_tsan.sh
// (suite megascale_determinism) to prove the determinism is not hiding
// a data race.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "analysis/selection_cache.hpp"
#include "analysis/tree_analysis.hpp"

namespace bluescale::analysis {
namespace {

constexpr std::uint32_t k_depth8_clients = 65'536; // 4^8 leaves

std::vector<task_set> mega_clients(std::uint32_t n) {
    // Total utilization 0.10 with wcet 4. The wcet matters at this scale:
    // wcet=1 server tasks degenerate (integer budgets plus the blackout
    // bound force every interface to ~2x its load, doubling bandwidth per
    // level), while a few cycles of wcet amortize the quantization and
    // keep a depth-8 tree feasible.
    return std::vector<task_set>(
        n, task_set{{static_cast<std::uint64_t>(40) * n, 4}});
}

analysis_context mega_context(selection_cache& cache, unsigned threads,
                              sched_test_stats* stats = nullptr) {
    analysis_context ctx;
    ctx.max_period = 1u << 26; // leaf periods exceed the 2^16 default cap
    ctx.cache = &cache;
    ctx.threads = threads;
    if (stats != nullptr) ctx.sched.stats = stats;
    return ctx;
}

// Canonical byte serialization of everything a selection decides.
std::string canonical(const tree_selection& sel) {
    std::string out;
    out += sel.feasible ? "feasible;" : "infeasible;";
    out += sel.failure.to_string();
    char bw[64];
    std::snprintf(bw, sizeof bw, ";root=%a;", sel.root_bandwidth);
    out += bw;
    for (const auto& level : sel.levels) {
        for (const auto& se : level) {
            for (const auto& port : se.ports) {
                if (port) {
                    out += std::to_string(port->period);
                    out += '/';
                    out += std::to_string(port->budget);
                } else {
                    out += '-';
                }
                out += ';';
            }
        }
    }
    return out;
}

TEST(megascale_determinism, depth8_selection_identical_threads_1_vs_8) {
    const auto clients = mega_clients(k_depth8_clients);

    selection_cache cache_serial;
    sched_test_stats work_serial;
    const auto serial = select_tree_interfaces(
        clients, mega_context(cache_serial, 1, &work_serial));

    selection_cache cache_parallel;
    sched_test_stats work_parallel;
    const auto parallel = select_tree_interfaces(
        clients, mega_context(cache_parallel, 8, &work_parallel));

    ASSERT_TRUE(serial.feasible) << serial.failure.to_string();
    EXPECT_EQ(serial.shape.leaf_level, 7u);

    // Byte-identical selections...
    EXPECT_EQ(canonical(parallel), canonical(serial));
    // ...and byte-identical work totals: a cache hit replays the miss's
    // counters, so even the hit/miss split only redistributes, never
    // changes, the summed work.
    EXPECT_EQ(work_parallel.tests_run, work_serial.tests_run);
    EXPECT_EQ(work_parallel.points_checked, work_serial.points_checked);
    EXPECT_EQ(work_parallel.ladder_exact_fallbacks,
              work_serial.ladder_exact_fallbacks);
    EXPECT_EQ(work_parallel.cache_hits + work_parallel.cache_misses,
              work_serial.cache_hits + work_serial.cache_misses);

    // The uniform profile collapses the 87,380 port selections (21,845
    // SEs x 4 ports) to a handful of distinct problems -- the scale
    // contract that makes depth-8 tractable.
    EXPECT_LT(cache_serial.stats().misses, 64u);
    EXPECT_GT(cache_serial.stats().hits, 80'000u);
}

TEST(megascale_determinism, threads_zero_means_hardware_concurrency) {
    // threads == 0 must behave like any explicit thread count: identical
    // bytes, whatever the machine's core count resolves to.
    const auto clients = mega_clients(1024); // depth 5: fast smoke
    selection_cache cache_a, cache_b;
    const auto a =
        select_tree_interfaces(clients, mega_context(cache_a, 1));
    const auto b =
        select_tree_interfaces(clients, mega_context(cache_b, 0));
    EXPECT_EQ(canonical(b), canonical(a));
}

} // namespace
} // namespace bluescale::analysis
