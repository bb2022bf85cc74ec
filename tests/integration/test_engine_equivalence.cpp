// The acceptance gate for the event-driven engine and the trial sweep:
// the hybrid skip-to-next-event scheduler and the lockstep cycle-stepped
// fallback (--lockstep) must produce byte-identical exports -- same
// aggregates, metrics snapshot and event trace -- for every experiment
// scenario (fig6, fig7, resilience, maintenance, reconfig, svc_storm,
// wcrt_validation), and so must --threads 1 and --threads 4. A horizon
// that sleeps through real work, a wake that fires a cycle late, or a
// trial that leaks state into another shows up here as a diff, not as a
// silent result shift.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/parallel_for.hpp"
#include "analysis/quadtree.hpp"
#include "analysis/selection_cache.hpp"
#include "core/bluescale_ic.hpp"
#include "harness/analysis_service_experiment.hpp"
#include "harness/factory.hpp"
#include "harness/fig6_experiment.hpp"
#include "harness/fig7_experiment.hpp"
#include "harness/maintenance_experiment.hpp"
#include "harness/reconfig_experiment.hpp"
#include "harness/resilience_experiment.hpp"
#include "harness/testbench.hpp"
#include "harness/wcrt_experiment.hpp"
#include "sim/fault.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
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

// --- scenario determinism --------------------------------------------------
//
// Every experiment scenario, rendered as everything its sweep exports,
// must come out byte-identical between the engines and between thread
// counts.

/// A sweep's exports, bit-exact: the totals and the metrics as their CSV
/// plus every value and sample in hexfloat (sample order included), and
/// the trace JSON.
std::string render(const sweep_result& r) {
    EXPECT_FALSE(r.metrics.empty());
    std::ostringstream os;
    os << std::hexfloat;
    for (const obs::snapshot* snap : {&r.totals, &r.metrics}) {
        // Before write_csv: its percentiles sort the samples in place.
        for (const auto& [name, v] : snap->entries()) {
            os << name << ' ' << v.value;
            for (double x : v.samples.samples()) os << ' ' << x;
            os << '\n';
        }
        os << metrics_csv(*snap);
    }
    os << trace_json(r.trace);
    return os.str();
}

/// Every cell of `cells` run as an exporting grid of its own (trials
/// from `seed` on `threads` workers), rendered in cell order.
std::string render_each(std::vector<sweep_cell> cells, std::uint32_t trials,
                        std::uint64_t seed, unsigned threads) {
    std::string out;
    for (auto& cell : cells) {
        out += render(run_sweep({.trials = trials,
                                 .seed = seed,
                                 .threads = threads,
                                 .metrics_cell = 0,
                                 .trace_cell = 0},
                                {std::move(cell)})
                          .front());
    }
    return out;
}

struct scenario {
    const char* name;
    /// Runs the scenario's sweep at `threads` and renders its exports.
    std::string (*run)(unsigned threads);
};

void PrintTo(const scenario& s, std::ostream* os) { *os << s.name; }

const scenario k_scenarios[] = {
    {"fig6",
     [](unsigned threads) {
         fig6_config cfg;
         cfg.scenario.measure_cycles = 8'000;
         std::vector<sweep_cell> cells;
         for (ic_kind kind : k_all_kinds) {
             cells.push_back(fig6_cell(kind, cfg));
         }
         return render_each(std::move(cells), 4, 7, threads);
     }},
    {"fig7",
     [](unsigned threads) {
         fig7_config cfg;
         cfg.measure_cycles = 10'000;
         cfg.util_lo = 0.3;
         cfg.util_hi = 0.7;
         cfg.util_step = 0.4;
         std::vector<sweep_cell> cells;
         for (ic_kind kind : k_all_kinds) {
             for (auto& cell : fig7_cells(kind, cfg)) {
                 cells.push_back(std::move(cell));
             }
         }
         return render_each(std::move(cells), 2, 7, threads);
     }},
    {"resilience",
     [](unsigned threads) {
         // Fault campaigns exercise the wake paths idle skipping must
         // never sleep through: injected storms, link drops, retry
         // timeouts, ECC reissues.
         resilience_config cfg;
         cfg.scenario.measure_cycles = 8'000;
         cfg.fault_intensity = 1.0;
         return render_each({resilience_cell(ic_kind::bluescale, cfg)}, 3,
                            11, threads);
     }},
    {"maintenance",
     [](unsigned threads) {
         // Every maintenance wake path (refresh boundary, scrub slot,
         // hammer mitigation, injected storm) in one short run; unaware
         // admission so every trial simulates.
         maintenance_exp_config cfg;
         cfg.scenario.measure_cycles = 12'000;
         cfg.maintenance_aware = false;
         memctrl_config& mc = cfg.scenario.memctrl;
         mc.timing.t_refi = 975;
         mc.timing.t_rfc = 65;
         mc.maintenance.scrub_interval = 1024;
         mc.maintenance.scrub_duration = 16;
         mc.maintenance.hammer_threshold = 128;
         mc.maintenance.hammer_mitigation_cycles = 16;
         cfg.storm_intensity = 0.4;
         const auto r = run_sweep({.trials = 3,
                                   .seed = 3,
                                   .threads = threads,
                                   .metrics_cell = 0,
                                   .trace_cell = 0},
                                  {maintenance_cell(cfg)})
                            .front();
         for (const char* name :
              {"maintenance/mem/refreshes", "maintenance/mem/scrubs",
               "maintenance/mem/hammer_mitigations",
               "maintenance/mem/maintenance_storm_cycles"}) {
             EXPECT_GT(r.totals.get(name).count, 0u) << name;
         }
         return render(r);
     }},
    {"reconfig",
     [](unsigned threads) {
         // Mid-run reconfigurations rewrite task sets and SE schedules
         // while components sleep; the admission/watchdog supervisors
         // have the longest horizons.
         reconfig_exp_config cfg;
         cfg.scenario.measure_cycles = 12'000;
         cfg.events_per_kcycle = 2.0;
         return render_each({reconfig_cell(ic_kind::bluescale, cfg)}, 3, 13,
                            threads);
     }},
    {"svc_storm",
     [](unsigned threads) {
         // Overload, worker crash/stall faults and path hazards.
         svc_storm_config cfg;
         cfg.scenario.measure_cycles = 12'000;
         cfg.requests_per_kcycle = 4.0;
         cfg.service.default_deadline = 8'000;
         cfg.worker_fault_intensity = 0.2;
         cfg.path_fault_intensity = 0.05;
         return render_each({svc_storm_cell(cfg)}, 2, 11, threads);
     }},
    {"wcrt_validation",
     [](unsigned threads) {
         // Configured fabrics under A6's task shape, with the validation
         // allowance granted to every client.
         const traffic_scenario sc = {
             .measure_cycles = 8'000,
             .taskset = {.min_period_units = 100, .max_period_units = 2000},
         };
         return render_each({wcrt_validation_cell(sc)}, 3, 7000, threads);
     }},
};

::testing::AssertionResult same_bytes(const std::string& a,
                                      const std::string& b) {
    if (a == b) return ::testing::AssertionSuccess();
    const auto at = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
    return ::testing::AssertionFailure()
           << "exports differ at byte " << (at.first - a.begin()) << " ("
           << a.size() << " vs " << b.size() << " bytes)";
}

class scenario_determinism : public ::testing::TestWithParam<scenario> {};

TEST_P(scenario_determinism, event_matches_lockstep) {
    std::string event, lockstep;
    {
        scoped_engine guard(simulator::engine::event);
        event = GetParam().run(2);
    }
    {
        scoped_engine guard(simulator::engine::lockstep);
        lockstep = GetParam().run(2);
    }
    EXPECT_TRUE(same_bytes(event, lockstep));
}

TEST_P(scenario_determinism, threads_1_match_threads_4) {
    scoped_engine guard(simulator::engine::event);
    EXPECT_TRUE(same_bytes(GetParam().run(1), GetParam().run(4)));
}

INSTANTIATE_TEST_SUITE_P(
    experiments, scenario_determinism, ::testing::ValuesIn(k_scenarios),
    [](const ::testing::TestParamInfo<scenario>& p) {
        return std::string(p.param.name);
    });

TEST(engine_equivalence, fig6_event_engine_thread_invariant) {
    // The event engine must keep the determinism contract lockstep
    // already honours: per-trial simulations are independent, so the
    // sweep's thread count cannot change a byte of one design's export.
    fig6_config cfg;
    cfg.scenario.measure_cycles = 8'000;
    scoped_engine guard(simulator::engine::event);
    EXPECT_TRUE(
        same_bytes(render_each({fig6_cell(ic_kind::bluescale, cfg)}, 4, 7, 1),
                   render_each({fig6_cell(ic_kind::bluescale, cfg)}, 4, 7, 4)));
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
    saturated_exports out;
    out.trials.resize(k_sat_trials);
    analysis::parallel_for(k_sat_trials, threads, [&](std::uint32_t t) {
        out.trials[t] = run_saturated_trial(configured, 71 + t);
    });
    obs::snapshot merged;
    for (const auto& t : out.trials) merged.merge(t.metrics);
    out.metrics = metrics_csv(merged);
    out.trace = trace_json(out.trials.front().trace);
    // ctest -j runs both saturated_tree tests at once, each in its own
    // process: the test name (which carries the parameter) keeps their
    // files apart.
    std::string test =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(test.begin(), test.end(), '/', '_');
    const std::string path = ::testing::TempDir() + "saturated_" + test +
                             "_" + std::to_string(static_cast<int>(engine)) +
                             "_" + std::to_string(threads) + ".csv";
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
    EXPECT_NE(event1.csv.find('\n'), std::string::npos); // rows written
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
