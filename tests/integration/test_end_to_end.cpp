// Full-system integration: clients -> interconnect -> memory -> responses,
// for every evaluated design.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "harness/testbench.hpp"
#include "workload/taskset_gen.hpp"
#include "workload/traffic_generator.hpp"

namespace bluescale {
namespace {

using harness::ic_kind;
using harness::k_all_kinds;
using harness::kind_name;

struct system_rig {
    system_rig(ic_kind kind, std::uint32_t n_clients, double total_util,
               std::uint64_t seed = 5) {
        rng r(seed);
        tasksets = workload::make_client_tasksets(r, n_clients, total_util,
                                                  total_util);
        harness::testbench_options opts;
        opts.n_clients = n_clients;
        for (const auto& ts : tasksets) {
            opts.client_utilizations.push_back(workload::utilization(ts));
            rt_sets.push_back(workload::to_rt_tasks(ts));
        }
        opts.rt_sets = &rt_sets;
        tb = std::make_unique<harness::testbench>(kind, opts);
        for (std::uint32_t c = 0; c < n_clients; ++c) {
            clients.push_back(std::make_unique<workload::traffic_generator>(
                c, tasksets[c], tb->ic(), seed * 1000 + c));
            auto* client = clients.back().get();
            tb->add_client(c, *client, [client](mem_request&& resp) {
                client->on_response(std::move(resp));
            });
        }
    }

    std::uint64_t total_issued() const {
        std::uint64_t n = 0;
        for (const auto& c : clients) n += c->stats().issued();
        return n;
    }
    std::uint64_t total_completed() const {
        std::uint64_t n = 0;
        for (const auto& c : clients) n += c->stats().completed();
        return n;
    }
    std::uint64_t total_missed() const {
        std::uint64_t n = 0;
        for (const auto& c : clients) n += c->stats().missed();
        return n;
    }

    std::vector<workload::memory_task_set> tasksets;
    std::vector<analysis::task_set> rt_sets;
    std::unique_ptr<harness::testbench> tb;
    std::vector<std::unique_ptr<workload::traffic_generator>> clients;
};

class end_to_end : public ::testing::TestWithParam<ic_kind> {};

TEST_P(end_to_end, conservation_no_request_lost_or_duplicated) {
    system_rig rig(GetParam(), 16, 0.6);
    rig.tb->run(30'000);
    // Drain: stop new traffic; responses for everything issued must
    // eventually arrive.
    for (auto& c : rig.clients) c->stop();
    rig.tb->run_until([&] { return rig.tb->ic().in_flight() == 0; }, 200'000);
    EXPECT_EQ(rig.tb->ic().in_flight(), 0u) << kind_name(GetParam());
    EXPECT_EQ(rig.total_completed(), rig.total_issued())
        << kind_name(GetParam());
}

TEST_P(end_to_end, light_load_meets_all_deadlines) {
    system_rig rig(GetParam(), 16, 0.15);
    rig.tb->run(40'000);
    for (auto& c : rig.clients) c->finalize(rig.tb->now());
    EXPECT_EQ(rig.total_missed(), 0u) << kind_name(GetParam());
    EXPECT_GT(rig.total_completed(), 300u) << kind_name(GetParam());
}

TEST_P(end_to_end, sixty_four_clients_functional) {
    system_rig rig(GetParam(), 64, 0.5);
    rig.tb->run(20'000);
    for (auto& c : rig.clients) c->stop();
    rig.tb->run_until([&] { return rig.tb->ic().in_flight() == 0; }, 200'000);
    EXPECT_EQ(rig.total_completed(), rig.total_issued())
        << kind_name(GetParam());
    EXPECT_GT(rig.total_completed(), 1000u) << kind_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(designs, end_to_end,
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

TEST(end_to_end_bluescale, configured_fabric_meets_deadlines_at_80pct) {
    // The headline property: with the interface selection programmed,
    // BlueScale sustains 80% utilization without deadline misses.
    system_rig rig(ic_kind::bluescale, 16, 0.8, /*seed=*/42);
    ASSERT_TRUE(rig.tb->selection_feasible())
        << rig.tb->selection().failure.to_string();
    rig.tb->run(100'000);
    for (auto& c : rig.clients) c->finalize(rig.tb->now());
    EXPECT_EQ(rig.total_missed(), 0u);
    EXPECT_GT(rig.total_completed(), 15'000u);
}

TEST(end_to_end_bluescale, throughput_matches_demand_at_80pct) {
    system_rig rig(ic_kind::bluescale, 16, 0.8, /*seed=*/42);
    rig.tb->run(100'000);
    // Demand is 0.8 units/unit = 0.2 requests/cycle.
    const double rate =
        static_cast<double>(rig.tb->memctrl().serviced()) / 100'000.0;
    EXPECT_NEAR(rate, 0.2, 0.02);
}

TEST(end_to_end_bluescale, blocking_bounded_under_contention) {
    system_rig rig(ic_kind::bluescale, 16, 0.85, /*seed=*/11);
    rig.tb->run(50'000);
    double worst = 0;
    for (auto& c : rig.clients) {
        worst = std::max(worst, c->stats().blocking_cycles().max());
    }
    // Compositional scheduling bounds inversion; a loose sanity ceiling.
    EXPECT_LT(worst, 2'000.0);
}

} // namespace
} // namespace bluescale
