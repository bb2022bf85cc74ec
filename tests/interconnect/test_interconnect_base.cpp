// Behaviour shared by every design through the interconnect base class:
// response delay-line ordering, in-flight accounting, and the
// blocking-latency measurement helper -- plus cross-design fuzz/property
// checks (determinism, conservation under random backpressure).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "harness/testbench.hpp"
#include "sim/rng.hpp"

namespace bluescale {
namespace {

using harness::ic_kind;
using harness::k_all_kinds;
using harness::kind_name;
using harness::testbench;

mem_request req(request_id_t id, client_id_t client, cycle_t deadline,
                std::uint64_t addr) {
    mem_request r;
    r.id = id;
    r.client = client;
    r.addr = addr;
    r.abs_deadline = deadline;
    r.level_deadline = deadline;
    return r;
}

/// Drives one design with a deterministic random injection pattern and
/// random memory-side pressure; returns (completions, checksum of
/// completion order).
struct fuzz_outcome {
    std::uint64_t completed = 0;
    std::uint64_t order_checksum = 1469598103934665603ull;
    std::uint64_t in_flight_end = 0;

    void absorb(const mem_request& r) {
        ++completed;
        order_checksum ^= r.id + 0x9e3779b97f4a7c15ull;
        order_checksum *= 1099511628211ull;
    }
};

/// `kind`'s fabric and memory controller for `n` clients, each with
/// `utilization` when non-zero, with the responses handed to
/// `on_response` instead of clients, armed so sim().step() ticks them.
std::unique_ptr<testbench>
bare_fabric(ic_kind kind, std::uint32_t n,
            std::function<void(mem_request&&)> on_response,
            double utilization = 0.0) {
    harness::testbench_options opts;
    opts.n_clients = n;
    if (utilization > 0.0) opts.client_utilizations.assign(n, utilization);
    auto tb = std::make_unique<testbench>(kind, opts);
    tb->ic().set_response_handler(std::move(on_response));
    tb->run(0);
    return tb;
}

fuzz_outcome fuzz_run(ic_kind kind, std::uint64_t seed,
                      cycle_t cycles = 6000) {
    const std::uint32_t n = 8;
    fuzz_outcome out;
    auto tb = bare_fabric(
        kind, n, [&](mem_request&& r) { out.absorb(r); }, 0.02);
    interconnect& ic = tb->ic();
    rng rnd(seed);
    request_id_t id = 0;
    for (cycle_t now = 0; now < cycles; ++now) {
        // Random bursty injection.
        const std::uint32_t tries = static_cast<std::uint32_t>(rnd.pick(4));
        for (std::uint32_t i = 0; i < tries; ++i) {
            const auto c = static_cast<client_id_t>(rnd.pick(n));
            if (ic.client_can_accept(c)) {
                ic.client_push(
                    c, req(id, c, now + rnd.uniform_u64(50, 5000),
                           rnd.uniform_u64(0, 1u << 20) * 64));
                ++id;
            }
        }
        tb->sim().step();
    }
    // Drain.
    tb->run_until([&] { return ic.in_flight() == 0; }, 100'000);
    out.in_flight_end = ic.in_flight();
    return out;
}

class base_fuzz : public ::testing::TestWithParam<ic_kind> {};

TEST_P(base_fuzz, conservation_under_random_bursts) {
    const auto out = fuzz_run(GetParam(), 42);
    EXPECT_EQ(out.in_flight_end, 0u) << kind_name(GetParam());
    EXPECT_GT(out.completed, 500u) << kind_name(GetParam());
}

TEST_P(base_fuzz, fully_deterministic_replay) {
    const auto a = fuzz_run(GetParam(), 1234);
    const auto b = fuzz_run(GetParam(), 1234);
    EXPECT_EQ(a.completed, b.completed) << kind_name(GetParam());
    EXPECT_EQ(a.order_checksum, b.order_checksum)
        << kind_name(GetParam())
        << ": same seed must give bit-identical completion order";
}

TEST_P(base_fuzz, different_seeds_diverge) {
    const auto a = fuzz_run(GetParam(), 1);
    const auto b = fuzz_run(GetParam(), 2);
    EXPECT_NE(a.order_checksum, b.order_checksum) << kind_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(designs, base_fuzz,
                         ::testing::ValuesIn(k_all_kinds),
                         [](const auto& pinfo) {
                             switch (pinfo.param) {
                             case ic_kind::axi_icrt: return "axi_icrt";
                             case ic_kind::bluetree: return "bluetree";
                             case ic_kind::bluetree_smooth:
                                 return "bluetree_smooth";
                             case ic_kind::gsmtree_tdm: return "gsmtree_tdm";
                             case ic_kind::gsmtree_fbsp:
                                 return "gsmtree_fbsp";
                             case ic_kind::bluescale: return "bluescale";
                             case ic_kind::axi_hyperconnect:
                                 return "axi_hyperconnect";
                             }
                             return "unknown";
                         });

TEST(interconnect_base, response_path_depth_delays_delivery) {
    // Two designs with different depths: the deeper one's first response
    // arrives later for identical timing otherwise. Use BlueScale 16 vs
    // 64 (depth 2 vs 3).
    auto time_first_response = [](std::uint32_t n) {
        cycle_t first = 0;
        auto tb = bare_fabric(ic_kind::bluescale, n, [&](mem_request&& r) {
            if (first == 0) first = r.complete_cycle;
        });
        tb->ic().client_push(0, req(1, 0, 100'000, 0));
        tb->run(2000);
        return first;
    };
    EXPECT_LT(time_first_response(16), time_first_response(64));
}

TEST(interconnect_base, in_flight_tracks_every_stage) {
    std::uint64_t delivered = 0;
    auto tb = bare_fabric(ic_kind::bluetree, 4,
                          [&](mem_request&&) { ++delivered; });
    interconnect& ic = tb->ic();
    EXPECT_EQ(ic.in_flight(), 0u);
    ic.client_push(0, req(1, 0, 100'000, 0));
    EXPECT_EQ(ic.in_flight(), 1u);
    tb->run_until([&] { return delivered == 1; }, 10'000);
    EXPECT_EQ(ic.in_flight(), 0u);
}

TEST(interconnect_base, forwarded_counter_monotone) {
    auto tb = bare_fabric(ic_kind::axi_icrt, 4, [](mem_request&&) {});
    interconnect& ic = tb->ic();
    for (int i = 0; i < 4; ++i) {
        ic.client_push(static_cast<client_id_t>(i),
                       req(i, static_cast<client_id_t>(i), 100'000,
                           i * 4096));
    }
    std::uint64_t prev = 0;
    for (int i = 0; i < 200; ++i) {
        tb->sim().step();
        EXPECT_GE(ic.forwarded_to_memory(), prev);
        prev = ic.forwarded_to_memory();
    }
    EXPECT_EQ(prev, 4u);
}

} // namespace
} // namespace bluescale
