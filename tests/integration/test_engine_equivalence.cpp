// The acceptance gate for the event-driven engine: the hybrid
// skip-to-next-event scheduler and the BLUESCALE_LOCKSTEP cycle-stepped
// fallback must produce byte-identical exports -- same metrics snapshot,
// same event trace, same aggregates -- for every experiment, at any
// --threads setting. A horizon that sleeps through real work or a wake
// that fires a cycle late shows up here as a diff, not as a silent
// result shift.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/quadtree.hpp"
#include "analysis/selection_cache.hpp"
#include "core/bluescale_ic.hpp"
#include "harness/factory.hpp"
#include "harness/fig6_experiment.hpp"
#include "harness/reconfig_experiment.hpp"
#include "harness/resilience_experiment.hpp"
#include "harness/testbench.hpp"
#include "sim/fault.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/trial_runner.hpp"
#include "stats/csv.hpp"
#include "workload/taskset_gen.hpp"
#include "workload/traffic_generator.hpp"

namespace bluescale::harness {
namespace {

/// Pins the process-wide default engine for one run and always restores
/// the environment-derived default afterwards, so test order cannot leak
/// an override into unrelated suites.
class scoped_engine {
public:
    explicit scoped_engine(simulator::engine e) {
        simulator::set_default_engine(e);
    }
    ~scoped_engine() { simulator::clear_default_engine(); }
    scoped_engine(const scoped_engine&) = delete;
    scoped_engine& operator=(const scoped_engine&) = delete;
};

std::string metrics_csv(const obs::snapshot& snap) {
    std::ostringstream os;
    snap.write_csv(os);
    return os.str();
}

std::string trace_json(const obs::trace_export& trace) {
    std::ostringstream os;
    trace.write_chrome_json(os);
    return os.str();
}

fig6_config fig6_cfg(unsigned threads) {
    fig6_config cfg;
    cfg.n_clients = 16;
    cfg.trials = 4;
    cfg.measure_cycles = 8'000;
    cfg.seed = 7;
    cfg.threads = threads;
    cfg.collect_metrics = true;
    cfg.collect_trace = true;
    return cfg;
}

template <typename Result>
void expect_equal_exports(const Result& event, const Result& lockstep) {
    ASSERT_FALSE(event.metrics.empty());
    EXPECT_EQ(metrics_csv(event.metrics), metrics_csv(lockstep.metrics));
    EXPECT_EQ(trace_json(event.trace), trace_json(lockstep.trace));
}

TEST(engine_equivalence, fig6_all_designs_bit_identical) {
    for (const ic_kind kind : k_all_kinds) {
        fig6_result event_r, lockstep_r;
        {
            scoped_engine guard(simulator::engine::event);
            event_r = run_fig6(kind, fig6_cfg(1));
        }
        {
            scoped_engine guard(simulator::engine::lockstep);
            lockstep_r = run_fig6(kind, fig6_cfg(1));
        }
        SCOPED_TRACE(kind_name(kind));
        expect_equal_exports(event_r, lockstep_r);
        EXPECT_EQ(event_r.blocking_us.mean(), lockstep_r.blocking_us.mean());
        EXPECT_EQ(event_r.miss_ratio.mean(), lockstep_r.miss_ratio.mean());
    }
}

TEST(engine_equivalence, fig6_event_engine_thread_invariant) {
    // The event engine must keep the determinism contract lockstep
    // already honours: per-trial simulations are independent, so the
    // sweep's thread count cannot change a byte of the export.
    fig6_result serial, parallel;
    {
        scoped_engine guard(simulator::engine::event);
        serial = run_fig6(ic_kind::bluescale, fig6_cfg(1));
        parallel = run_fig6(ic_kind::bluescale, fig6_cfg(4));
    }
    expect_equal_exports(serial, parallel);
}

TEST(engine_equivalence, resilience_faulty_run_bit_identical) {
    // Fault campaigns exercise the wake paths idle skipping must never
    // sleep through: injected storms, link drops, retry timeouts, ECC
    // reissues.
    resilience_config cfg;
    cfg.n_clients = 16;
    cfg.trials = 3;
    cfg.measure_cycles = 8'000;
    cfg.seed = 11;
    cfg.fault_intensity = 1.0;
    cfg.threads = 4;
    cfg.collect_metrics = true;
    cfg.collect_trace = true;

    resilience_result event_r, lockstep_r;
    {
        scoped_engine guard(simulator::engine::event);
        event_r = run_resilience(ic_kind::bluescale, cfg);
    }
    {
        scoped_engine guard(simulator::engine::lockstep);
        lockstep_r = run_resilience(ic_kind::bluescale, cfg);
    }
    expect_equal_exports(event_r, lockstep_r);
    EXPECT_EQ(metrics_csv(event_r.totals), metrics_csv(lockstep_r.totals));
}

TEST(engine_equivalence, reconfig_run_bit_identical) {
    // Mid-run reconfigurations rewrite task sets and SE schedules while
    // components sleep; the admission/watchdog supervisors are the
    // components with the longest horizons, so this is the sternest test
    // of the wake protocol.
    reconfig_exp_config cfg;
    cfg.n_clients = 16;
    cfg.trials = 3;
    cfg.measure_cycles = 8'000;
    cfg.seed = 13;
    cfg.events_per_kcycle = 2.0;
    cfg.reconfig_warmup = 1'000;
    cfg.threads = 4;
    cfg.collect_metrics = true;
    cfg.collect_trace = true;

    reconfig_result event_r, lockstep_r;
    {
        scoped_engine guard(simulator::engine::event);
        event_r = run_reconfig(ic_kind::bluescale, cfg);
    }
    {
        scoped_engine guard(simulator::engine::lockstep);
        lockstep_r = run_reconfig(ic_kind::bluescale, cfg);
    }
    expect_equal_exports(event_r, lockstep_r);
    EXPECT_EQ(metrics_csv(event_r.totals), metrics_csv(lockstep_r.totals));
}

// --- saturated tree --------------------------------------------------------
//
// 1,024 clients (a depth-5 quadtree) whose tasks all release their first
// job at cycle 0: the burst backs the tree up to the leaves, most SEs
// sleep refused on a full parent port, and the run ends while the burst
// is still draining. The last 16 clients (one level-3 subtree) release a
// short-deadline request every 2,000 cycles instead: EDF drains their
// subtree between releases, so its level-2 ancestor sleeps refused with
// an empty port that a later release loads. Stall and link-drop faults
// land on sleeping elements, and the supply watchdog reads their backlog
// mid-sleep.

constexpr std::uint32_t k_sat_clients = 1024;
constexpr std::uint32_t k_sat_periodic_clients = 16;
constexpr cycle_t k_sat_cycles = 4'000;
constexpr std::uint32_t k_sat_trials = 2;

struct saturated_trial {
    obs::snapshot metrics;
    obs::trace_export trace;
    std::vector<std::string> row; ///< the trial's CSV cells
    bool feasible = false;
    std::uint64_t se_ticks = 0;
    std::uint64_t stepped = 0; ///< simulator-stepped cycles
    std::uint32_t total_ses = 0;
};

saturated_trial run_saturated_trial(bool configured, std::uint64_t seed) {
    rng gen(seed);
    const workload::taskset_params tp{.n_tasks = 4,
                                      .total_utilization = 0.0004,
                                      .min_period_units = 40,
                                      .max_period_units = 600,
                                      .write_fraction = 0.3};
    // Few distinct task sets (four burst patterns dealt round-robin, one
    // periodic): the selection cache then resolves the whole-tree
    // selection in a fraction of a second.
    const auto patterns =
        workload::make_client_tasksets(gen, 4, 0.0003, 0.0004, tp);
    const workload::memory_task_set periodic = {
        {.id = 1, .period_units = 500, .requests_per_job = 1}};
    std::vector<workload::memory_task_set> tasksets;
    for (std::uint32_t c = 0; c < k_sat_clients; ++c) {
        tasksets.push_back(c < k_sat_clients - k_sat_periodic_clients
                               ? patterns[c % patterns.size()]
                               : periodic);
    }

    sim::fault_campaign_config fc;
    fc.seed = substream(seed, 0x5A7ull);
    fc.horizon = k_sat_cycles;
    fc.events_per_kcycle = 8.0;
    fc.dram_error_weight = 0.0;
    fc.backpressure_weight = 0.0;
    fc.n_elements = analysis::make_quadtree_shape(k_sat_clients).total_ses();
    const sim::fault_campaign campaign(fc);

    testbench_options opts;
    opts.n_clients = k_sat_clients;
    opts.faults = &campaign;
    opts.watchdog = core::watchdog_config{};
    std::vector<analysis::task_set> rt_sets;
    analysis::selection_cache cache;
    opts.selection.cache = &cache;
    if (configured) {
        for (const auto& ts : tasksets) {
            rt_sets.push_back(workload::to_rt_tasks(ts));
        }
        opts.rt_sets = &rt_sets;
    }
    testbench tb(ic_kind::bluescale, opts);

    std::vector<std::unique_ptr<workload::traffic_generator>> clients;
    workload::traffic_gen_config tg;
    tg.unit_cycles = tb.unit_cycles();
    for (std::uint32_t c = 0; c < k_sat_clients; ++c) {
        clients.push_back(std::make_unique<workload::traffic_generator>(
            c, tasksets[c], tb.ic(), substream(seed, c), tg));
        auto* client = clients.back().get();
        client->bind_observability(tb.metrics());
        tb.add_client(c, *client, [client](mem_request&& r) {
            client->on_response(std::move(r));
        });
    }
    // Profiling only to read the stepped-cycle count; its wall-clock
    // metrics live in a separate registry, outside every export.
    obs::registry prof;
    tb.sim().enable_profiling(prof);
    tb.run(k_sat_cycles);

    saturated_trial out;
    out.feasible = tb.selection_feasible();
    std::uint64_t issued = 0, completed = 0, missed = 0, outstanding = 0;
    for (auto& c : clients) {
        outstanding += c->outstanding();
        c->finalize(tb.now());
        issued += c->stats().issued();
        completed += c->stats().completed();
        missed += c->stats().missed();
    }
    const auto& fabric = dynamic_cast<const core::bluescale_ic&>(tb.ic());
    std::uint64_t stall_cycles = 0;
    const auto& shape = fabric.shape();
    for (std::uint32_t l = 0; l <= shape.leaf_level; ++l) {
        for (std::uint32_t y = 0; y < shape.ses_at_level(l); ++y) {
            stall_cycles += fabric.se_at(l, y).fault_stall_cycles();
        }
    }
    out.row = {std::to_string(issued),
               std::to_string(completed),
               std::to_string(missed),
               std::to_string(outstanding),
               std::to_string(fabric.link_dropped()),
               std::to_string(stall_cycles),
               std::to_string(tb.watchdog()->report().windows_checked)};
    out.metrics = tb.metrics().take_snapshot();
    out.trace = tb.trace().export_all();
    out.se_ticks = fabric.se_ticks();
    const obs::snapshot prof_snap = prof.take_snapshot(true);
    const auto* cycles = prof_snap.find("profile/sim/cycles");
    out.stepped = cycles == nullptr ? 0 : cycles->count;
    out.total_ses = fabric.total_ses();
    return out;
}

struct saturated_exports {
    std::string metrics;
    std::string trace;
    std::string csv;
    std::vector<saturated_trial> trials;
};

saturated_exports run_saturated(bool configured, simulator::engine engine,
                                unsigned threads) {
    const scoped_engine guard(engine);
    const sim::trial_runner runner(threads);
    saturated_exports out;
    out.trials = runner.run(k_sat_trials, [&](std::uint32_t t) {
        return run_saturated_trial(configured, 71 + t);
    });
    obs::snapshot merged;
    for (const auto& t : out.trials) merged.merge(t.metrics);
    out.metrics = metrics_csv(merged);
    out.trace = trace_json(out.trials.front().trace);
    const std::string path = ::testing::TempDir() + "saturated_" +
                             (configured ? "cfg" : "free") + "_" +
                             std::to_string(static_cast<int>(engine)) + "_" +
                             std::to_string(threads) + ".csv";
    {
        stats::csv_writer csv(path, {"issued", "completed", "missed",
                                     "outstanding", "link_drops",
                                     "stall_cycles", "watchdog_windows"});
        for (const auto& t : out.trials) csv.add_row(t.row);
    }
    std::ifstream in(path);
    out.csv.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    return out;
}

class saturated_tree : public ::testing::TestWithParam<bool> {};

TEST_P(saturated_tree, exports_bit_identical_across_engines_and_threads) {
    const bool configured = GetParam();
    const auto event1 = run_saturated(configured, simulator::engine::event, 1);
    const auto event4 = run_saturated(configured, simulator::engine::event, 4);
    const auto lockstep =
        run_saturated(configured, simulator::engine::lockstep, 1);

    for (const auto& t : event1.trials) {
        EXPECT_EQ(t.feasible, configured);
        // Ends mid-saturation: the cycle-0 burst is still in flight.
        EXPECT_GT(std::stoull(t.row[3]), k_sat_clients);
        // The campaign stalled elements and the watchdog polled the
        // backlog counters mid-run.
        EXPECT_GT(std::stoull(t.row[5]), 0u);
        EXPECT_GT(std::stoull(t.row[6]), 0u);
    }

    EXPECT_EQ(event1.metrics, lockstep.metrics);
    EXPECT_EQ(event1.trace, lockstep.trace);
    EXPECT_EQ(event1.csv, lockstep.csv);
    EXPECT_EQ(event1.metrics, event4.metrics);
    EXPECT_EQ(event1.trace, event4.trace);
    EXPECT_EQ(event1.csv, event4.csv);
    if (configured) {
        EXPECT_NE(event1.trace.find("server_replenish"), std::string::npos);
    }
}

TEST_P(saturated_tree, se_ticks_follow_active_elements) {
    // Backpressure sleep: a refused SE costs nothing until its parent
    // port drains, so SE ticks stay far below one per SE per stepped
    // cycle -- and, being a deterministic work counter, do not depend on
    // the sweep's thread count.
    const bool configured = GetParam();
    const auto serial = run_saturated(configured, simulator::engine::event, 1);
    const auto parallel =
        run_saturated(configured, simulator::engine::event, 4);
    for (std::uint32_t t = 0; t < k_sat_trials; ++t) {
        const auto& a = serial.trials[t];
        ASSERT_GT(a.stepped, 0u);
        EXPECT_LE(a.se_ticks * 10, std::uint64_t{a.total_ses} * a.stepped)
            << "trial " << t << ": " << a.se_ticks << " SE ticks over "
            << a.stepped << " stepped cycles";
        EXPECT_EQ(a.se_ticks, parallel.trials[t].se_ticks);
        EXPECT_EQ(a.stepped, parallel.trials[t].stepped);
    }
}

INSTANTIATE_TEST_SUITE_P(fabric, saturated_tree, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param) {
                             return param.param ? "configured"
                                                : "unconfigured";
                         });

} // namespace
} // namespace bluescale::harness
