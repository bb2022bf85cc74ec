// Transactional reconfiguration: feasible requests stage and commit
// after the modeled propagation latency; infeasible ones are rejected
// with a structured reason and zero perturbation of the running fabric;
// hazards during staging or at the commit instant roll the transaction
// back, restoring the prior (Pi, Theta) everywhere.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "analysis/selection_cache.hpp"
#include "core/bluescale_ic.hpp"
#include "core/reconfig_manager.hpp"
#include "mem/memory_controller.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"

namespace bluescale::core {
namespace {

/// (period, budget) of every server in the fabric, for before/after
/// perturbation checks.
std::vector<std::pair<std::uint32_t, std::uint32_t>>
server_snapshot(const bluescale_ic& fabric) {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> snap;
    const auto& shape = fabric.shape();
    for (std::uint32_t l = 0; l <= shape.leaf_level; ++l) {
        for (std::uint32_t y = 0; y < shape.ses_at_level(l); ++y) {
            const auto& sched = fabric.se_at(l, y).scheduler();
            for (std::uint32_t p = 0; p < k_se_ports; ++p) {
                snap.emplace_back(sched.server(p).period(),
                                  sched.server(p).budget());
            }
        }
    }
    return snap;
}

void expect_selections_equal(const analysis::tree_selection& a,
                             const analysis::tree_selection& b) {
    ASSERT_EQ(a.levels.size(), b.levels.size());
    for (std::uint32_t l = 0; l < a.levels.size(); ++l) {
        for (std::uint32_t y = 0; y < a.levels[l].size(); ++y) {
            for (std::uint32_t p = 0; p < 4; ++p) {
                EXPECT_EQ(a.levels[l][y].ports[p], b.levels[l][y].ports[p])
                    << "SE(" << l << "," << y << ") port " << p;
            }
        }
    }
}

struct rig {
    explicit rig(reconfig_config cfg = {})
        : fabric(16),
          clients(16, analysis::task_set{{200, 4}}),
          selection(analysis::select_tree_interfaces(clients)) {
        EXPECT_TRUE(selection.feasible);
        fabric.attach_memory(mem);
        fabric.set_response_handler([](mem_request&&) {});
        fabric.configure(selection);
        mgr = std::make_unique<reconfig_manager>(fabric, selection, clients,
                                                 cfg);
        sim.add(fabric);
        sim.add(mem);
        sim.add(*mgr);
    }

    /// Runs until the request leaves the staging state (bounded).
    void run_until_resolved(std::uint64_t id, cycle_t max_cycles = 100'000) {
        sim.run_until(
            [&] {
                const auto o = mgr->record(id).outcome;
                return o != admission_outcome::pending &&
                       o != admission_outcome::staged;
            },
            max_cycles);
    }

    bluescale_ic fabric;
    memory_controller mem;
    std::vector<analysis::task_set> clients;
    analysis::tree_selection selection;
    std::unique_ptr<reconfig_manager> mgr;
    simulator sim;
};

TEST(reconfig_manager, feasible_request_commits_after_propagation_latency) {
    rig r;
    const auto id = r.mgr->submit(6, analysis::task_set{{100, 8}});
    r.sim.run(3); // admission runs at the manager's next tick
    ASSERT_TRUE(r.mgr->staging());
    EXPECT_EQ(r.mgr->record(id).outcome, admission_outcome::staged);
    EXPECT_GT(r.mgr->record(id).latency_cycles, 0u);

    r.run_until_resolved(id);
    const auto& rec = r.mgr->record(id);
    EXPECT_EQ(rec.outcome, admission_outcome::committed);
    // The commit lands exactly when the parameter path delivers.
    EXPECT_EQ(rec.resolved_at, rec.decided_at + rec.latency_cycles);
    EXPECT_EQ(r.mgr->stats().committed, 1u);
    EXPECT_EQ(r.mgr->stats().admitted, 1u);

    // The manager's committed state carries the new task set, and the
    // fabric's leaf server now runs the newly selected interface.
    ASSERT_EQ(r.mgr->client_tasks()[6].size(), 1u);
    EXPECT_EQ(r.mgr->client_tasks()[6][0].period, 100u);
    const auto& shape = r.selection.shape;
    const auto& iface =
        r.mgr->committed()
            .levels[shape.leaf_level][shape.leaf_se_of_client(6)]
            .ports[shape.leaf_port_of_client(6)];
    ASSERT_TRUE(iface.has_value());
    const auto& sched =
        r.fabric.se_at(shape.leaf_level, shape.leaf_se_of_client(6))
            .scheduler();
    EXPECT_EQ(sched.server(shape.leaf_port_of_client(6)).period(),
              iface->period);
    EXPECT_EQ(sched.server(shape.leaf_port_of_client(6)).budget(),
              iface->budget);
}

TEST(reconfig_manager, infeasible_request_rejected_without_perturbation) {
    rig r;
    const auto before = server_snapshot(r.fabric);

    // Near-unit utilization from one client: no selection can carry it.
    const auto id = r.mgr->submit(3, analysis::task_set{{40, 39}});
    r.run_until_resolved(id);

    const auto& rec = r.mgr->record(id);
    EXPECT_TRUE(rec.outcome == admission_outcome::rejected_overutilized ||
                rec.outcome == admission_outcome::rejected_infeasible)
        << admission_outcome_name(rec.outcome);
    EXPECT_FALSE(rec.detail.empty());
    EXPECT_EQ(r.mgr->stats().rejected, 1u);
    EXPECT_EQ(r.mgr->stats().admitted, 0u);

    // Zero perturbation: every fabric server and the committed selection
    // are byte-identical to the pre-request state.
    EXPECT_EQ(server_snapshot(r.fabric), before);
    expect_selections_equal(r.mgr->committed(), r.selection);
    ASSERT_EQ(r.mgr->client_tasks()[3].size(), 1u);
    EXPECT_EQ(r.mgr->client_tasks()[3][0].period, 200u);
}

TEST(reconfig_manager, admission_decisions_are_deterministic) {
    rig a;
    rig b;
    for (std::uint32_t c : {2u, 9u, 14u}) {
        a.mgr->submit(c, analysis::task_set{{100, 8}});
        b.mgr->submit(c, analysis::task_set{{100, 8}});
    }
    a.sim.run(60'000);
    b.sim.run(60'000);
    ASSERT_EQ(a.mgr->records().size(), b.mgr->records().size());
    for (std::size_t i = 0; i < a.mgr->records().size(); ++i) {
        const auto& ra = a.mgr->records()[i];
        const auto& rb = b.mgr->records()[i];
        EXPECT_EQ(ra.outcome, rb.outcome);
        EXPECT_EQ(ra.decided_at, rb.decided_at);
        EXPECT_EQ(ra.resolved_at, rb.resolved_at);
        EXPECT_EQ(ra.latency_cycles, rb.latency_cycles);
        EXPECT_EQ(ra.root_bandwidth, rb.root_bandwidth);
    }
}

TEST(reconfig_manager, degraded_path_rejected_at_admission) {
    rig r;
    // Client 6 sits behind leaf SE(1, 1): degrade it.
    r.fabric.se_at(1, 1).set_degraded(true);
    const auto id = r.mgr->submit(6, analysis::task_set{{100, 8}});
    r.run_until_resolved(id);
    const auto& rec = r.mgr->record(id);
    EXPECT_EQ(rec.outcome, admission_outcome::rejected_path_hazard);
    EXPECT_NE(rec.detail.find("degraded"), std::string::npos) << rec.detail;

    // An off-path client is unaffected by the degraded element's gate.
    const auto id2 = r.mgr->submit(0, analysis::task_set{{100, 8}});
    r.run_until_resolved(id2);
    EXPECT_EQ(r.mgr->record(id2).outcome, admission_outcome::committed);
}

TEST(reconfig_manager, mid_staging_hazard_rolls_back) {
    rig r;
    const auto before = server_snapshot(r.fabric);
    const auto id = r.mgr->submit(6, analysis::task_set{{100, 8}});
    r.sim.run(3);
    ASSERT_TRUE(r.mgr->staging());

    // The health monitor flips a request-path SE mid-flight.
    r.fabric.se_at(1, 1).set_degraded(true);
    r.sim.run(3);
    const auto& rec = r.mgr->record(id);
    EXPECT_EQ(rec.outcome, admission_outcome::rolled_back);
    EXPECT_NE(rec.detail.find("staging hazard"), std::string::npos)
        << rec.detail;
    EXPECT_EQ(r.mgr->stats().rolled_back, 1u);
    EXPECT_FALSE(r.mgr->staging());
    // The fabric was never reprogrammed; prior (Pi, Theta) hold.
    EXPECT_EQ(server_snapshot(r.fabric), before);
    expect_selections_equal(r.mgr->committed(), r.selection);
}

TEST(reconfig_manager, commit_instant_hazard_restores_prior_parameters) {
    rig r;
    const auto before = server_snapshot(r.fabric);
    const auto id = r.mgr->submit(6, analysis::task_set{{100, 8}});
    r.sim.run(3);
    ASSERT_TRUE(r.mgr->staging());

    // Schedule a stall window on the request path opening exactly at the
    // commit instant: the fabric IS reprogrammed with the staged
    // selection, the hazard check then fires, and the rollback must
    // reprogram the prior committed parameters everywhere.
    const auto& rec0 = r.mgr->record(id);
    const cycle_t commit_at = rec0.decided_at + rec0.latency_cycles;
    ASSERT_GT(commit_at, r.sim.now());
    r.fabric.se_at(1, 1).set_stall_faults(sim::fault_window(
        {{sim::fault_kind::se_stall, 0, commit_at, 16}}));

    r.run_until_resolved(id);
    const auto& rec = r.mgr->record(id);
    EXPECT_EQ(rec.outcome, admission_outcome::rolled_back);
    EXPECT_NE(rec.detail.find("commit hazard"), std::string::npos)
        << rec.detail;
    EXPECT_EQ(rec.resolved_at, commit_at);
    EXPECT_EQ(r.mgr->stats().rolled_back, 1u);
    EXPECT_EQ(r.mgr->stats().committed, 0u);
    // Restored: every server back to the prior committed (Pi, Theta).
    EXPECT_EQ(server_snapshot(r.fabric), before);
    expect_selections_equal(r.mgr->committed(), r.selection);
    ASSERT_EQ(r.mgr->client_tasks()[6].size(), 1u);
    EXPECT_EQ(r.mgr->client_tasks()[6][0].period, 200u);
}

TEST(reconfig_manager, requests_queue_fifo_one_transaction_at_a_time) {
    rig r;
    const auto first = r.mgr->submit(2, analysis::task_set{{100, 8}});
    const auto second = r.mgr->submit(9, analysis::task_set{{100, 6}});
    r.sim.run(3);
    EXPECT_TRUE(r.mgr->staging());
    EXPECT_EQ(r.mgr->backlog(), 2u);
    // The second request is not even decided while the first is staged.
    EXPECT_EQ(r.mgr->record(second).outcome, admission_outcome::pending);

    r.run_until_resolved(second);
    EXPECT_EQ(r.mgr->record(first).outcome, admission_outcome::committed);
    EXPECT_EQ(r.mgr->record(second).outcome, admission_outcome::committed);
    EXPECT_GE(r.mgr->record(second).decided_at,
              r.mgr->record(first).resolved_at);
    EXPECT_EQ(r.mgr->backlog(), 0u);
}

TEST(reconfig_manager, donate_and_restore_leaf_budget) {
    rig r;
    const auto& shape = r.selection.shape;
    const std::uint32_t order = shape.leaf_se_of_client(12);
    const std::uint32_t port = shape.leaf_port_of_client(12);
    const auto& sched = r.fabric.se_at(shape.leaf_level, order).scheduler();
    const auto committed_period = sched.server(port).period();
    const auto committed_budget = sched.server(port).budget();
    ASSERT_GT(committed_budget, 0u);

    r.mgr->donate_client_budget(12);
    EXPECT_EQ(sched.server(port).budget(), 0u);

    r.mgr->restore_client_budget(12);
    EXPECT_EQ(sched.server(port).period(), committed_period);
    EXPECT_EQ(sched.server(port).budget(), committed_budget);
}

TEST(reconfig_manager, expired_deadline_rejects_without_perturbation) {
    rig r;
    // The first request stages for its propagation latency; the second
    // carries a deadline that passes while it waits in the queue.
    const auto first = r.mgr->submit(2, analysis::task_set{{100, 8}});
    const auto second = r.mgr->submit(9, analysis::task_set{{100, 6}},
                                      /*deadline=*/2);
    r.run_until_resolved(second);
    const auto& rec = r.mgr->record(second);
    EXPECT_EQ(rec.outcome, admission_outcome::rejected_deadline_expired);
    EXPECT_FALSE(rec.detail.empty());
    EXPECT_EQ(r.mgr->stats().rejected_deadline_expired, 1u);
    EXPECT_EQ(r.mgr->record(first).outcome, admission_outcome::committed);

    // Zero perturbation: state matches a run without the expired request.
    rig twin;
    const auto twin_first = twin.mgr->submit(2, analysis::task_set{{100, 8}});
    twin.run_until_resolved(twin_first);
    EXPECT_EQ(server_snapshot(r.fabric), server_snapshot(twin.fabric));
    expect_selections_equal(r.mgr->committed(), twin.mgr->committed());
    EXPECT_EQ(r.mgr->client_tasks()[9].size(),
              twin.mgr->client_tasks()[9].size());
    EXPECT_EQ(r.mgr->client_tasks()[9][0].period, 200u);
}

TEST(reconfig_manager, deadline_mid_staging_abandons_before_the_fabric) {
    rig r;
    // Stage with a deadline inside the propagation latency: the
    // transaction must be abandoned mid-staging (fabric untouched, next
    // FIFO entry unblocked) instead of running to commit -- the staging
    // latency models pseudo-polynomial admission work, so without this a
    // single expensive transaction can hold the queue arbitrarily long
    // past its caller's deadline.
    const auto first = r.mgr->submit(6, analysis::task_set{{100, 8}},
                                     /*deadline=*/10);
    const auto second = r.mgr->submit(2, analysis::task_set{{100, 6}});
    r.sim.run(3);
    ASSERT_TRUE(r.mgr->staging());
    ASSERT_GT(r.mgr->record(first).latency_cycles, 10u)
        << "staging latency too short to cross the deadline";

    r.run_until_resolved(first);
    const auto& rec = r.mgr->record(first);
    EXPECT_EQ(rec.outcome, admission_outcome::rejected_deadline_expired);
    EXPECT_NE(rec.detail.find("mid-staging"), std::string::npos);
    EXPECT_EQ(rec.resolved_at, 11u); // expiry is now > deadline
    EXPECT_EQ(r.mgr->stats().rejected_deadline_expired, 1u);
    EXPECT_EQ(r.mgr->stats().rolled_back, 0u);

    // The abandoned transaction unblocks the FIFO and left no trace: the
    // second request commits, and the end state matches a run where the
    // expired request never arrived.
    r.run_until_resolved(second);
    EXPECT_EQ(r.mgr->record(second).outcome, admission_outcome::committed);
    rig twin;
    const auto twin_second =
        twin.mgr->submit(2, analysis::task_set{{100, 6}});
    twin.run_until_resolved(twin_second);
    EXPECT_EQ(server_snapshot(r.fabric), server_snapshot(twin.fabric));
    expect_selections_equal(r.mgr->committed(), twin.mgr->committed());
    EXPECT_EQ(r.mgr->client_tasks()[6].size(), 1u);
    EXPECT_EQ(r.mgr->client_tasks()[6][0].period, 200u);
}

TEST(reconfig_manager, shares_one_selection_cache_with_whole_tree_selection) {
    // The reconfig_config::selection analysis_context carries a
    // selection_cache*: whole-tree selection (the testbench path) and the
    // manager's admission tests then hit the SAME entries, and a shared
    // cache changes no decision.
    analysis::selection_cache cache;
    reconfig_config cfg;
    cfg.selection.cache = &cache;
    rig cached(cfg);
    rig plain;

    // Warm the cache exactly as testbench whole-tree selection would:
    // same clients, same knobs, same cache.
    (void)analysis::select_tree_interfaces(cached.clients, cfg.selection);
    const auto warmed = cache.stats();
    EXPECT_GT(warmed.misses, 0u);

    // A detached admission evaluation (the svc::analysis_service entry
    // point) of an unchanged profile resolves the whole request path
    // under warm keys: pure hits, zero new misses.
    const auto noop =
        cached.mgr->evaluate(3, analysis::task_set{{200, 4}}, false);
    EXPECT_TRUE(noop.feasible);
    EXPECT_GT(cache.stats().hits, warmed.hits);
    EXPECT_EQ(cache.stats().misses, warmed.misses);

    // A changed profile misses on the changed keys, then a redo of the
    // same evaluation (svc's retry / crash-redo shape) re-hits them.
    const auto once = cache.stats();
    (void)cached.mgr->evaluate(3, analysis::task_set{{100, 8}}, false);
    const auto twice = cache.stats();
    EXPECT_GT(twice.misses, once.misses);
    (void)cached.mgr->evaluate(3, analysis::task_set{{100, 8}}, false);
    EXPECT_EQ(cache.stats().misses, twice.misses);
    EXPECT_GT(cache.stats().hits, twice.hits);

    // And the shared cache changes no decision: the committed admission
    // matches a cache-less manager's, port for port.
    const auto id_c = cached.mgr->submit(3, analysis::task_set{{100, 8}});
    cached.run_until_resolved(id_c);
    const auto id_p = plain.mgr->submit(3, analysis::task_set{{100, 8}});
    plain.run_until_resolved(id_p);
    EXPECT_EQ(cached.mgr->record(id_c).outcome,
              admission_outcome::committed);
    expect_selections_equal(cached.mgr->committed(),
                            plain.mgr->committed());
}

TEST(reconfig_manager, leave_request_frees_the_port) {
    rig r;
    const auto id = r.mgr->submit(5, analysis::task_set{});
    r.run_until_resolved(id);
    EXPECT_EQ(r.mgr->record(id).outcome, admission_outcome::committed);
    EXPECT_TRUE(r.mgr->client_tasks()[5].empty());
    const auto& shape = r.selection.shape;
    const auto& iface =
        r.mgr->committed()
            .levels[shape.leaf_level][shape.leaf_se_of_client(5)]
            .ports[shape.leaf_port_of_client(5)];
    EXPECT_TRUE(!iface || iface->budget == 0);
}

} // namespace
} // namespace bluescale::core
