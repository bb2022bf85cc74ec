// Cross-design properties of the measurement machinery itself: the
// blocking-latency metric and the latency accounting must be mutually
// consistent for every design, or Fig. 6's comparisons are meaningless.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/bluescale_ic.hpp"
#include "harness/testbench.hpp"
#include "mem/memory_controller.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "workload/taskset_gen.hpp"
#include "workload/traffic_generator.hpp"

namespace bluescale {
namespace {

using harness::ic_kind;
using harness::k_extended_kinds;
using harness::kind_name;

struct observed {
    std::vector<mem_request> done;
};

observed run_design(ic_kind kind, std::uint64_t seed) {
    const std::uint32_t n = 16;
    rng r(seed);
    auto tasksets = workload::make_client_tasksets(r, n, 0.75, 0.75);
    harness::testbench_options opts;
    opts.n_clients = n;
    for (const auto& ts : tasksets) {
        opts.client_utilizations.push_back(workload::utilization(ts));
    }
    harness::testbench tb(kind, opts);
    std::vector<std::unique_ptr<workload::traffic_generator>> clients;
    observed out;
    for (std::uint32_t c = 0; c < n; ++c) {
        clients.push_back(std::make_unique<workload::traffic_generator>(
            c, tasksets[c], tb.ic(), seed + c));
        auto* client = clients.back().get();
        tb.add_client(c, *client, [&out, client](mem_request&& req) {
            out.done.push_back(req);
            client->on_response(std::move(req));
        });
    }
    tb.run(20'000);
    return out;
}

class metric_consistency : public ::testing::TestWithParam<ic_kind> {};

TEST_P(metric_consistency, blocking_never_exceeds_total_latency) {
    const auto obs = run_design(GetParam(), 4242);
    ASSERT_GT(obs.done.size(), 200u) << kind_name(GetParam());
    for (const auto& r : obs.done) {
        EXPECT_LE(r.blocked_cycles, r.total_latency())
            << kind_name(GetParam()) << " request " << r.id;
    }
}

TEST_P(metric_consistency, timestamps_are_causally_ordered) {
    const auto obs = run_design(GetParam(), 777);
    for (const auto& r : obs.done) {
        EXPECT_LE(r.issue_cycle, r.mem_start) << kind_name(GetParam());
        EXPECT_LE(r.mem_start, r.mem_done) << kind_name(GetParam());
        EXPECT_LE(r.mem_done, r.complete_cycle) << kind_name(GetParam());
    }
}

TEST_P(metric_consistency, latency_includes_memory_service_floor) {
    // Every transaction pays at least the row-hit service time.
    const auto obs = run_design(GetParam(), 99);
    for (const auto& r : obs.done) {
        EXPECT_GE(r.mem_done - r.mem_start, k_t_cas + k_t_burst)
            << kind_name(GetParam());
    }
}

/// What one 16-client BlueScale run reports for its SEs (forwarded,
/// per-port backlogged cycles, wait samples) and clients (issued,
/// completed, latency and blocking samples). Unbound, the values come
/// from the accessors over each component's unnamed fallback; bound, from
/// the registry's snapshot.
struct fabric_readings {
    std::vector<std::uint64_t> counts;
    std::vector<std::vector<double>> samples;
    std::uint64_t backlogged = 0; ///< sum over every SE port
};

fabric_readings run_bluescale(bool bound) {
    const std::uint32_t n = 16;
    rng r(31);
    // Near-saturating load, so ports backlog and SEs sleep on refusals.
    auto tasksets = workload::make_client_tasksets(r, n, 0.95, 0.95);
    core::bluescale_ic ic(n);
    memory_controller mem;
    ic.attach_memory(mem);
    std::vector<std::unique_ptr<workload::traffic_generator>> clients;
    for (std::uint32_t c = 0; c < n; ++c) {
        clients.push_back(std::make_unique<workload::traffic_generator>(
            c, tasksets[c], ic, 100 + c));
    }
    ic.set_response_handler([&](mem_request&& req) {
        clients[req.client]->on_response(std::move(req));
    });
    obs::registry reg;
    obs::trace_sink sink(64);
    if (bound) {
        ic.bind_observability(reg, sink);
        for (auto& c : clients) c->bind_observability(reg);
    }
    simulator sim;
    for (auto& c : clients) sim.add(*c);
    sim.add(ic);
    sim.add(mem);
    sim.run(20'000);

    fabric_readings out;
    const obs::snapshot snap = reg.take_snapshot();
    const auto count = [&](std::uint64_t accessor, const std::string& name) {
        out.counts.push_back(bound ? snap.get(name).count : accessor);
    };
    const auto samples = [&](const stats::sample_set& accessor,
                             const std::string& name) {
        out.samples.push_back(bound ? snap.get(name).samples.samples()
                                    : accessor.samples());
    };
    const auto& shape = ic.shape();
    for (std::uint32_t l = 0; l <= shape.leaf_level; ++l) {
        for (std::uint32_t y = 0; y < shape.ses_at_level(l); ++y) {
            const std::string se =
                "se." + std::to_string(l) + "." + std::to_string(y);
            const core::scale_element& el = ic.se_at(l, y);
            count(el.forwarded(), se + "/forwarded");
            for (std::uint32_t p = 0; p < core::k_se_ports; ++p) {
                count(el.port_backlogged_cycles(p),
                      se + "/port" + std::to_string(p) +
                          "/backlogged_cycles");
                out.backlogged += out.counts.back();
            }
            samples(el.wait_stats(), se + "/wait_cycles");
        }
    }
    for (std::uint32_t c = 0; c < n; ++c) {
        const std::string client = "client." + std::to_string(c);
        const workload::client_stats& st = clients[c]->stats();
        count(st.issued(), client + "/issued");
        count(st.completed(), client + "/completed");
        samples(st.latency_cycles(), client + "/latency_cycles");
        samples(st.blocking_cycles(), client + "/blocking_cycles");
    }
    return out;
}

TEST(unbound_metrics, accessors_match_the_bound_export) {
    const fabric_readings unbound = run_bluescale(false);
    const fabric_readings bound = run_bluescale(true);
    EXPECT_EQ(unbound.counts, bound.counts);
    EXPECT_EQ(unbound.samples, bound.samples);
    // The run exercised what it compares.
    EXPECT_GT(bound.backlogged, 1000u);
    ASSERT_FALSE(bound.samples.empty());
    EXPECT_FALSE(bound.samples.back().empty());
}

INSTANTIATE_TEST_SUITE_P(designs, metric_consistency,
                         ::testing::ValuesIn(k_extended_kinds),
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

} // namespace
} // namespace bluescale
