// Acceptance gate for the analysis-service storm experiment: under
// overload and worker crash/stall faults, no request deadlocks or
// disappears -- every submission lands in exactly one of {committed,
// rejected(reason), expired, shed} -- and hard clients never miss. (The
// sweep's --threads and event-vs-lockstep byte identity is asserted by
// experiments/scenario_determinism.*/svc_storm.)
#include <gtest/gtest.h>

#include <string>

#include "harness/analysis_service_experiment.hpp"

namespace bluescale::harness {
namespace {

TEST(svc_storm, conserves_requests_and_protects_hard_clients) {
    // Overload + worker faults only: a fabric-side fault campaign could
    // legitimately stall a hard client's subtree, which is the supply
    // watchdog's problem, not the service's. The service-level storm
    // must never touch the fabric's hard guarantees.
    constexpr std::uint32_t trials = 2;
    svc_storm_config cfg;
    cfg.scenario.measure_cycles = 12'000;
    cfg.requests_per_kcycle = 4.0; // past the queue bound: shedding fires
    cfg.service.default_deadline = 8'000;
    cfg.worker_fault_intensity = 0.2;
    const auto r = run_sweep({.trials = trials, .seed = 11},
                             {svc_storm_cell(cfg)})
                       .front();
    const auto count = [&r](const char* name) {
        return r.totals.get(std::string("svc_exp/") + name).count;
    };
    EXPECT_EQ(count("feasible_trials"), trials);
    EXPECT_EQ(count("drained_trials"), trials);
    EXPECT_EQ(count("conserved_trials"), trials);
    EXPECT_GT(count("svc/submitted"), 0u);
    // Exactly one terminal outcome per request, summed over all trials.
    EXPECT_EQ(count("svc/submitted"),
              count("svc/shed") + count("svc/expired") +
                  count("svc/committed") + count("svc/rejected"));
    // The storm actually overloads: the bounded queue shed work, and the
    // robustness machinery saw real faults.
    EXPECT_GT(count("svc/shed"), 0u);
    EXPECT_GT(count("svc/worker_crashes") + count("svc/worker_stall_cycles"),
              0u);
    // Hard real-time clients ride through the whole storm untouched.
    EXPECT_EQ(count("hard_misses"), 0u);
}

} // namespace
} // namespace bluescale::harness
