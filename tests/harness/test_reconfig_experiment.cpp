// Reconfiguration experiment determinism and plumbing: scheduled
// admission requests must preserve the trial sweep's bit-identical-for-
// any-thread-count contract, BlueScale must actually admit and commit
// (and reject infeasible churn with zero perturbation), and the baseline
// must apply everything unconditionally.
#include <gtest/gtest.h>

#include <string>

#include "../test_util.hpp"
#include "harness/reconfig_experiment.hpp"

namespace bluescale::harness {
namespace {

reconfig_exp_config small_config(double rate) {
    reconfig_exp_config cfg;
    cfg.scenario.measure_cycles = 30'000;
    cfg.events_per_kcycle = rate;
    return cfg;
}

/// 3 trials from seed 11 on `threads` workers.
sweep_result run_reconfig(ic_kind kind, const reconfig_exp_config& cfg,
                          unsigned threads) {
    return testing::run_cell({.trials = 3, .seed = 11, .threads = threads},
                             reconfig_cell(kind, cfg));
}

const obs::metric_value& get(const sweep_result& r, const char* name) {
    return r.totals.get(std::string("reconfig_exp/") + name);
}

std::uint64_t count(const sweep_result& r, const char* name) {
    return get(r, name).count;
}

/// Bitwise-equal aggregates: any divergence (scheduling, shared rng,
/// float summation order) would show up here.
void expect_identical(const sweep_result& a, const sweep_result& b) {
    EXPECT_TRUE(testing::same_snapshot(a.totals, b.totals));
}

TEST(reconfig_experiment, parallel_sweep_matches_serial) {
    auto cfg = small_config(0.5);
    // Include concurrent faults so hazard rollbacks are exercised too.
    cfg.fault_intensity = 0.3;
    const auto serial = run_reconfig(ic_kind::bluescale, cfg, 1);
    const auto parallel = run_reconfig(ic_kind::bluescale, cfg, 4);
    expect_identical(serial, parallel);
}

TEST(reconfig_experiment, baseline_parallel_sweep_matches_serial) {
    const auto serial =
        run_reconfig(ic_kind::bluetree, small_config(0.5), 1);
    const auto parallel =
        run_reconfig(ic_kind::bluetree, small_config(0.5), 4);
    expect_identical(serial, parallel);
}

TEST(reconfig_experiment, repeated_run_is_reproducible) {
    const auto a = run_reconfig(ic_kind::bluescale, small_config(0.5), 2);
    const auto b = run_reconfig(ic_kind::bluescale, small_config(0.5), 2);
    expect_identical(a, b);
}

TEST(reconfig_experiment, bluescale_admits_and_commits) {
    const auto r = run_reconfig(ic_kind::bluescale, small_config(0.5), 2);
    EXPECT_GT(count(r, "reconfig/submitted"), 0u);
    EXPECT_GT(count(r, "reconfig/admitted"), 0u);
    EXPECT_GT(count(r, "reconfig/committed"), 0u);
    EXPECT_EQ(count(r, "applied_unchecked"), 0u);
    // Every commit -- and nothing else -- swaps a live task set.
    EXPECT_EQ(count(r, "client/reconfigurations"),
              count(r, "reconfig/committed"));
    EXPECT_GT(get(r, "latency_cycles").samples.count(), 0u);
    EXPECT_GT(get(r, "latency_cycles").samples.mean(), 0.0);
    EXPECT_GT(count(r, "watchdog/windows_checked"), 0u);
}

TEST(reconfig_experiment, baseline_applies_unconditionally) {
    const auto r = run_reconfig(ic_kind::bluetree, small_config(0.5), 2);
    EXPECT_EQ(count(r, "reconfig/submitted"), 0u);
    EXPECT_EQ(count(r, "reconfig/admitted"), 0u);
    EXPECT_GT(count(r, "applied_unchecked"), 0u);
    EXPECT_EQ(count(r, "client/reconfigurations"),
              count(r, "applied_unchecked"));
    // No admission control, no watchdog: the counters stay silent.
    EXPECT_EQ(count(r, "watchdog/windows_checked"), 0u);
    EXPECT_EQ(count(r, "watchdog/shed_events"), 0u);
}

TEST(reconfig_experiment, zero_rate_means_no_requests) {
    const auto r = run_reconfig(ic_kind::bluescale, small_config(0.0), 2);
    EXPECT_EQ(count(r, "reconfig/submitted"), 0u);
    EXPECT_EQ(count(r, "reconfig/committed"), 0u);
    EXPECT_EQ(count(r, "client/reconfigurations"), 0u);
}

/// The reconfig experiment's BlueScale trial with the schedule replaced
/// by scripted joins, each demanding 160% of the whole fabric's
/// bandwidth for one client (`churn`), or with no requests at all.
sweep_result run_scripted(bool churn) {
    const traffic_scenario sc = small_config(0.0).scenario;
    return testing::run_cell(
        {.trials = 3, .seed = 11, .threads = 2},
        {"reconfig_exp/", [sc, churn](trial_record& rec) {
             testbench_options opts;
             opts.health = true;
             opts.reconfig = core::reconfig_config{};
             opts.watchdog = core::watchdog_config{};
             traffic_trial tt(rec, ic_kind::bluescale, sc, opts);
             tt.add_clients(k_recovering_client);
             tt.track_clients(k_best_effort_clients);
             testbench& tb = tt.tb();
             core::reconfig_manager& mgr = *tb.reconfig();
             for (cycle_t at = k_reconfig_warmup;
                  churn && at < sc.measure_cycles; at += 2'000) {
                 tb.run(at - tb.now());
                 const auto client =
                     static_cast<std::uint32_t>(at / 2'000 % tt.n_clients());
                 mgr.submit(client,
                            analysis::task_set{{100, 80}, {100, 80}});
             }
             tb.run(sc.measure_cycles - tb.now());

             const class_misses misses = tt.finalize(k_best_effort_clients);
             rec.counter("hard_misses").inc(misses.hard);
             rec.counter("best_effort_misses").inc(misses.best_effort);
             rec.sample("miss_ratio").add(misses.ratio());
             for (const char* component :
                  {"client.", "reconfig/", "watchdog/"}) {
                 rec.adopt(tb, component);
             }
         }});
}

TEST(reconfig_experiment, rejected_churn_is_bit_identical_to_no_requests) {
    // Every request is infeasible no matter what the other clients hold,
    // so every admission test must reject -- and a fully rejected run
    // must leave every client metric bit-identical to a run where no
    // request ever arrived.
    const auto churn = run_scripted(true);
    const auto quiet = run_scripted(false);

    EXPECT_GT(count(churn, "reconfig/submitted"), 0u);
    EXPECT_EQ(count(churn, "reconfig/rejected"),
              count(churn, "reconfig/submitted"));
    EXPECT_EQ(count(churn, "reconfig/admitted"), 0u);
    EXPECT_EQ(count(churn, "reconfig/committed"), 0u);
    EXPECT_EQ(count(churn, "client/reconfigurations"), 0u);

    // Zero perturbation, observed end to end through the whole stack.
    EXPECT_EQ(get(churn, "miss_ratio").samples.samples(),
              get(quiet, "miss_ratio").samples.samples());
    for (const char* name :
         {"hard_misses", "best_effort_misses", "watchdog/violating_windows",
          "watchdog/shed_events"}) {
        EXPECT_EQ(count(churn, name), count(quiet, name)) << name;
    }
}

} // namespace
} // namespace bluescale::harness
