#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "harness/wcrt_experiment.hpp"

namespace bluescale::harness {
namespace {

struct scale {
    std::uint32_t clients;
    double util_lo, util_hi;
};

// The paper's Sec. 5 promise with the constant memory/response-path
// allowance granted: a feasible selection leaves no miss beyond it. Raw
// misses (no allowance) are reported, not gated.
TEST(wcrt_validation, feasible_trials_meet_deadlines_within_allowance) {
    for (const scale& s : {scale{16, 0.70, 0.90}, scale{64, 0.50, 0.70}}) {
        const traffic_scenario sc = {
            .n_clients = s.clients,
            .measure_cycles = 4'000,
            .util_lo = s.util_lo,
            .util_hi = s.util_hi,
            .taskset = {.min_period_units = 100, .max_period_units = 2000},
        };
        const sweep_result r =
            run_sweep({.trials = 4, .seed = 7000}, {wcrt_validation_cell(sc)})
                .front();
        const auto count = [&r](const char* name) {
            return r.totals.get(std::string("wcrt/") + name).count;
        };
        EXPECT_GE(count("feasible_trials"), 1u) << s.clients << " clients";
        EXPECT_GT(count("client/completed"), 0u) << s.clients << " clients";
        EXPECT_EQ(count("client/missed_beyond_margin"), 0u)
            << s.clients << " clients";
        std::printf("%u clients: %llu raw misses of %llu completed\n",
                    s.clients,
                    static_cast<unsigned long long>(count("client/missed")),
                    static_cast<unsigned long long>(count("client/completed")));
    }
}

} // namespace
} // namespace bluescale::harness
