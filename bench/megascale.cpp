// Mega-scale whole-tree interface selection (ROADMAP item 2; the
// analysis-side companion of Fig. 5's hardware scalability curves).
// Sweeps the quadtree depth d (4^d clients; depth 8 = 65,536 leaves) and
// reports, per depth:
//
//   (a) selection time with the exact test + selection cache (the
//       mega-scale configuration), plus the deterministic work counters
//       that machine-independently proxy that time;
//   (b) feasibility at a fixed light load: the root bandwidth the
//       selection actually provisions vs the offered utilization -- the
//       compounding price of hierarchical composition at scale;
//   (c) cache parity: at depths <= 4 the cached selection is
//       byte-compared against the uncached one (a hit must hand back
//       exactly what the miss computed);
//   (d) threads determinism: byte-identical selections for every
//       --threads value.
//
//   $ ./bench/megascale [--depth N] [--feas-depth N] [--parity-depth N]
//                       [--threads N] [--json PATH] [--check]
//
// --json dumps the per-depth counters (BENCH_megascale.json via
// scripts/bench_snapshot.sh). --check is the CI perf-smoke leg: shallow
// depths, exits nonzero on any parity or determinism violation. A
// malformed flag value prints the usage and exits 2.
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "analysis/selection_cache.hpp"
#include "analysis/tree_analysis.hpp"
#include "harness/bench_cli.hpp"
#include "obs/profile.hpp"
#include "stats/table.hpp"

using namespace bluescale;
using analysis::analysis_context;
using analysis::selection_cache;
using analysis::task_set;
using analysis::tree_selection;

namespace {

// The mega-tree workload profile. wcet matters at scale: wcet=1 server
// tasks degenerate (integer budgets + the blackout bound force every
// interface to ~2x its load, doubling bandwidth per level); a few cycles
// of wcet amortize the quantization. Clients draw from a small pool of
// distinct profiles round-robin, so the selection cache collapses the
// tree to O(pool) distinct problems per level.
constexpr std::uint64_t k_wcet = 4;
constexpr double k_u_nominal = 0.15;  // timing/parity sweeps
constexpr double k_u_feas = 0.10;     // feasibility curve (uniform)
constexpr std::uint32_t k_pool = 64;
constexpr std::uint64_t k_max_period = 1u << 26;

struct mega_options {
    std::uint32_t depth = 8;
    std::uint32_t feas_depth = 10;
    std::uint32_t parity_depth = 4;
    unsigned threads = 1;
    std::string json_path;
    bool check = false;
};

// 4^d clients must fit in 32 bits (clients_at_depth).
constexpr std::uint32_t k_max_depth = 15;

[[noreturn]] void usage_and_exit(int code) {
    std::fprintf(code == 0 ? stdout : stderr,
                 "usage: megascale [--depth N] [--feas-depth N] "
                 "[--parity-depth N] [--threads N] [--json PATH] "
                 "[--check]\n  depths are at most %u (4^d clients)\n",
                 k_max_depth);
    std::exit(code);
}

/// A flag value in [0, max] (harness::parse_uint); usage + exit 2
/// otherwise.
std::uint32_t parse_flag(const std::string& flag, const char* text,
                         std::uint32_t max) {
    const std::optional<std::uint64_t> v = harness::parse_uint(text, max);
    if (!v) {
        std::fprintf(stderr,
                     "megascale: %s expects an integer in [0, %u], got "
                     "'%s'\n",
                     flag.c_str(), max, text);
        usage_and_exit(2);
    }
    return static_cast<std::uint32_t>(*v);
}

mega_options parse_cli(int argc, char** argv) {
    mega_options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "megascale: %s needs a value\n",
                             a.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--depth") {
            o.depth = parse_flag(a, next(), k_max_depth);
        } else if (a == "--feas-depth") {
            o.feas_depth = parse_flag(a, next(), k_max_depth);
        } else if (a == "--parity-depth") {
            o.parity_depth = parse_flag(a, next(), k_max_depth);
        } else if (a == "--threads") {
            o.threads = parse_flag(a, next(), UINT_MAX);
        } else if (a == "--json") {
            o.json_path = next();
        } else if (a == "--check") {
            o.check = true;
        } else {
            usage_and_exit(a == "--help" ? 0 : 2);
        }
    }
    if (o.check) {
        // CI smoke: shallow but covering every leg.
        o.depth = std::min(o.depth, 5u);
        o.feas_depth = std::min(o.feas_depth, 6u);
        o.parity_depth = std::min(o.parity_depth, 3u);
    }
    return o;
}

std::uint32_t clients_at_depth(std::uint32_t d) { return 1u << (2 * d); }

/// Round-robin pool of distinct single-task profiles, scaled so the
/// total utilization is ~k_u_nominal at any tree size.
std::vector<task_set> pool_clients(std::uint32_t n) {
    const double base =
        static_cast<double>(k_wcet) * static_cast<double>(n) / k_u_nominal;
    std::vector<task_set> clients(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        const double stretch =
            1.0 + static_cast<double>(i % k_pool) / k_pool;
        clients[i] = task_set{
            {static_cast<std::uint64_t>(base * stretch), k_wcet}};
    }
    return clients;
}

/// Uniform profile for the feasibility curve (one distinct selection
/// problem per level: the deepest points stay cheap).
std::vector<task_set> uniform_clients(std::uint32_t n) {
    const auto period = static_cast<std::uint64_t>(
        static_cast<double>(k_wcet) * static_cast<double>(n) / k_u_feas);
    return std::vector<task_set>(n, task_set{{period, k_wcet}});
}

double total_utilization(const std::vector<task_set>& clients) {
    double u = 0.0;
    for (const auto& s : clients) u += analysis::utilization(s);
    return u;
}

analysis_context mega_context(selection_cache* cache, unsigned threads,
                              analysis::sched_test_stats* stats) {
    analysis_context ctx;
    ctx.max_period = k_max_period;
    ctx.cache = cache;
    ctx.threads = threads;
    ctx.sched.stats = stats;
    return ctx;
}

/// Canonical byte serialization of everything a selection decides.
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

struct depth_result {
    std::uint32_t depth = 0;
    bool feasible = false;
    double root_bw = 0.0;
    double offered_u = 0.0;
    double wall_ms = 0.0;
    std::uint64_t cache_misses = 0;
    std::uint64_t tests_run = 0;
    std::uint64_t points_checked = 0;
};

depth_result run_depth(const std::vector<task_set>& clients,
                       std::uint32_t d, unsigned threads) {
    selection_cache cache;
    analysis::sched_test_stats work;
    const auto ctx = mega_context(&cache, threads, &work);
    obs::stopwatch sw;
    const auto sel = select_tree_interfaces(clients, ctx);
    depth_result r;
    r.depth = d;
    r.feasible = sel.feasible;
    r.root_bw = sel.root_bandwidth;
    r.offered_u = total_utilization(clients);
    r.wall_ms = sw.seconds() * 1e3;
    r.cache_misses = cache.stats().misses;
    r.tests_run = work.tests_run;
    r.points_checked = work.points_checked;
    return r;
}

void write_json(const mega_options& opts,
                const std::vector<depth_result>& timing,
                const std::vector<depth_result>& feas, bool parity_ok,
                bool determinism_ok) {
    if (opts.json_path.empty()) return;
    std::FILE* f = std::fopen(opts.json_path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "megascale: cannot write %s\n",
                     opts.json_path.c_str());
        std::exit(1);
    }
    auto emit_curve = [&](const char* name,
                          const std::vector<depth_result>& rs) {
        std::fprintf(f, "  \"%s\": {\n", name);
        for (std::size_t i = 0; i < rs.size(); ++i) {
            const auto& r = rs[i];
            // tests_run / points_checked are the deterministic,
            // machine-independent proxy for selection time (cache hits
            // replay the original counters, so totals are exact for any
            // --threads); wall_ms is recorded for trend-reading only.
            std::fprintf(
                f,
                "    \"d%u\": {\"feasible\": %s, \"root_bw\": %.6f, "
                "\"offered_u\": %.6f, \"tests_run\": %llu, "
                "\"points_checked\": %llu, \"wall_ms\": %.1f}%s\n",
                r.depth, r.feasible ? "true" : "false", r.root_bw,
                r.offered_u,
                static_cast<unsigned long long>(r.tests_run),
                static_cast<unsigned long long>(r.points_checked),
                r.wall_ms, i + 1 < rs.size() ? "," : "");
        }
        std::fprintf(f, "  }");
    };
    std::fprintf(f, "{\n  \"schema\": 1,\n");
    std::fprintf(f,
                 "  \"profile\": {\"wcet\": %llu, \"u_nominal\": %.2f, "
                 "\"u_feas\": %.2f, \"pool\": %u, \"max_period\": %llu},\n",
                 static_cast<unsigned long long>(k_wcet), k_u_nominal,
                 k_u_feas, k_pool,
                 static_cast<unsigned long long>(k_max_period));
    emit_curve("timing", timing);
    std::fprintf(f, ",\n");
    emit_curve("feasibility", feas);
    std::fprintf(f, ",\n  \"parity_ok\": %s,\n  \"determinism_ok\": %s\n}\n",
                 parity_ok ? "true" : "false",
                 determinism_ok ? "true" : "false");
    std::fclose(f);
    std::printf("\nwrote %s\n", opts.json_path.c_str());
}

} // namespace

int main(int argc, char** argv) {
    const auto opts = parse_cli(argc, argv);

    std::printf("Mega-scale whole-tree interface selection "
                "(exact test + selection cache)\n");

    // (a) Selection-time curve.
    std::printf("\n(a) Selection time vs depth (pool of %u profiles, "
                "U~%.2f, threads=%u):\n",
                k_pool, k_u_nominal, opts.threads);
    std::vector<depth_result> timing;
    stats::table t({"depth", "clients", "feasible", "root bw", "wall ms",
                    "cache misses"});
    for (std::uint32_t d = 2; d <= opts.depth; ++d) {
        const auto r =
            run_depth(pool_clients(clients_at_depth(d)), d, opts.threads);
        t.add_row({std::to_string(d), std::to_string(clients_at_depth(d)),
                   r.feasible ? "yes" : "no",
                   stats::table::num(r.root_bw, 3),
                   stats::table::num(r.wall_ms, 1),
                   std::to_string(r.cache_misses)});
        timing.push_back(r);
    }
    t.print();

    // (b) Feasibility curve at fixed light load.
    std::printf("\n(b) Feasibility vs depth (uniform profile, offered "
                "U=%.2f, threads=1):\n",
                k_u_feas);
    std::vector<depth_result> feas;
    stats::table ft({"depth", "clients", "feasible", "offered U",
                     "root bw", "overhead x", "wall ms"});
    for (std::uint32_t d = 2; d <= opts.feas_depth; ++d) {
        const auto r =
            run_depth(uniform_clients(clients_at_depth(d)), d, 1);
        ft.add_row({std::to_string(d), std::to_string(clients_at_depth(d)),
                    r.feasible ? "yes" : "no",
                    stats::table::num(r.offered_u, 3),
                    stats::table::num(r.root_bw, 3),
                    stats::table::num(r.root_bw / r.offered_u, 2),
                    stats::table::num(r.wall_ms, 1)});
        feas.push_back(r);
    }
    ft.print();
    std::printf("The overhead column is the compounding price of "
                "hierarchical composition:\neach level re-quantizes its "
                "children's (Pi, Theta) server tasks.\n");

    // (c) Cache parity: the cached selection against the uncached one.
    std::printf("\n(c) Cache parity (uncached vs cached, "
                "byte-compared):\n");
    bool parity_ok = true;
    for (std::uint32_t d = 2; d <= opts.parity_depth; ++d) {
        const auto clients = pool_clients(clients_at_depth(d));
        obs::stopwatch sw;
        const auto uncached = select_tree_interfaces(
            clients, mega_context(nullptr, opts.threads, nullptr));
        const double uncached_ms = sw.seconds() * 1e3;
        selection_cache cache;
        sw.restart();
        const auto cached = select_tree_interfaces(
            clients, mega_context(&cache, opts.threads, nullptr));
        const double cached_ms = sw.seconds() * 1e3;
        const bool same = canonical(uncached) == canonical(cached);
        parity_ok = parity_ok && same;
        std::printf("  depth %u: %s (uncached %.1f ms, cached %.1f ms)\n",
                    d, same ? "bit-identical" : "MISMATCH", uncached_ms,
                    cached_ms);
    }

    // (d) Threads determinism.
    const std::uint32_t det_depth = std::min(opts.depth, 6u);
    const auto det_clients = pool_clients(clients_at_depth(det_depth));
    std::printf("\n(d) Threads determinism at depth %u: ", det_depth);
    bool determinism_ok = true;
    std::string reference;
    for (unsigned threads : {1u, 2u, 8u}) {
        selection_cache cache;
        const auto sel = select_tree_interfaces(
            det_clients, mega_context(&cache, threads, nullptr));
        if (reference.empty()) {
            reference = canonical(sel);
        } else {
            determinism_ok =
                determinism_ok && canonical(sel) == reference;
        }
    }
    std::printf("%s (threads 1/2/8)\n",
                determinism_ok ? "byte-identical" : "MISMATCH");

    write_json(opts, timing, feas, parity_ok, determinism_ok);

    if (!parity_ok || !determinism_ok) {
        std::printf("\nmegascale: FAILED (%s%s)\n",
                    parity_ok ? "" : "parity ",
                    determinism_ok ? "" : "determinism");
        return 1;
    }
    if (opts.check) std::printf("\nmegascale --check: all legs passed.\n");
    return 0;
}
