// Reproduces Fig. 6: interconnect-level real-time performance under
// synthetic workloads. 16 and 64 traffic generators issue randomly
// generated periodic workloads (70-90% interconnect utilization, GEDF
// request priorities); for each of the six designs the harness reports
// blocking latency and deadline miss ratio, with cross-trial variance.
//
//   $ ./bench/fig6_synthetic [--trials N] [--cycles N] [--threads N]
//                            [--seed N] [--csv out.csv]
//                            [--metrics out.csv] [--trace out.json]
//
// --csv dumps one row per (scale, design) with the raw aggregates for
// plotting; the file is byte-identical for any --threads setting.
// --metrics dumps the BlueScale design's merged obs::registry snapshot
// and --trace the event trace of its lowest-index trial that captured
// one (.json = chrome://tracing), both at the 16-generator scale; the
// metrics file is likewise byte-identical for any --threads setting.
// --profile adds each design's simulator throughput under its table and
// the whole grid's sweep wall time at the end.
#include <cstdio>
#include <string>
#include <vector>

#include "harness/bench_cli.hpp"
#include "harness/fig6_experiment.hpp"
#include "stats/table.hpp"

using namespace bluescale;
using namespace bluescale::harness;

namespace {

constexpr csv_column k_columns[] = {
    {"blocking_us", "blocking_us"},    {"blocking_sd", "blocking_us:sd"},
    {"worst_us", "worst_blocking_us"}, {"miss_ratio", "miss_ratio"},
    {"miss_sd", "miss_ratio:sd"},      {"sys_clk_mhz", "system_clock_mhz"},
};

constexpr std::uint32_t k_scales[] = {16, 64};

/// One scale's table: `next` walks its designs' results, in k_all_kinds
/// order.
void print_scale(std::uint32_t n_clients, const bench_options& opts,
                 const sweep_result*& next, stats::csv_writer* csv) {
    std::printf("\n=== Fig. 6(%c): %u traffic generators, %u trials, "
                "%llu cycles/trial, utilization 70-90%% ===\n",
                n_clients == 16 ? 'a' : 'b', n_clients, opts.trials,
                static_cast<unsigned long long>(opts.measure_cycles));

    stats::table t({"design", "blocking lat (us)", "+/- sd", "worst (us)",
                    "miss ratio", "+/- sd", "sys clk (MHz)"});
    stats::table prof_t({"design", "sim Mcyc/s", "sim wall (s)"});
    for (ic_kind kind : k_all_kinds) {
        const sweep_result& r = *next++;
        const auto& blocking = r.totals.get("fig6/blocking_us").samples;
        const auto& miss = r.totals.get("fig6/miss_ratio").samples;
        t.add_row(
            {kind_name(kind), stats::table::num(blocking.mean(), 3),
             stats::table::num(blocking.stddev(), 3),
             stats::table::num(fig6_mean(r, "worst_blocking_us"), 2),
             stats::table::pct(miss.mean(), 2),
             stats::table::pct(miss.stddev(), 2),
             stats::table::num(r.totals.get("fig6/system_clock_mhz").value,
                               0)});
        add_csv_row(csv, {std::to_string(n_clients), kind_name(kind)},
                    r.totals, "fig6/", k_columns);
        if (opts.profile) {
            const auto count = [&r](const char* name) {
                return static_cast<double>(r.profile.get(name).count);
            };
            const double sim_s = count("profile/sim/wall_ns") * 1e-9;
            const double mcyc = count("profile/sim/cycles") * 1e-6;
            prof_t.add_row(
                {kind_name(kind),
                 stats::table::num(sim_s == 0.0 ? 0.0 : mcyc / sim_s, 2),
                 stats::table::num(sim_s, 2)});
        }
    }
    t.print();
    if (opts.profile) {
        std::printf("\nsimulator profile (wall clock, nondeterministic; "
                    "see obs::k_metric_profile):\n");
        prof_t.print();
    }
}

} // namespace

int main(int argc, char** argv) {
    bench_options defaults;
    defaults.trials = 10;
    defaults.measure_cycles = 100'000;
    const auto opts = parse_bench_cli(
        argc, argv, defaults,
        "Fig. 6 reproduction: blocking latency and deadline miss ratio");

    const auto csv = open_bench_csv(opts, {"clients", "design"}, k_columns);

    std::printf("Fig. 6 reproduction: blocking latency and deadline miss "
                "ratio, six interconnects\n");

    // Both scales' designs on one grid. Obs exports cover the BlueScale
    // design at 16 generators.
    std::vector<sweep_cell> cells;
    std::size_t exported = 0;
    for (std::uint32_t n_clients : k_scales) {
        for (ic_kind kind : k_all_kinds) {
            if (n_clients == 16 && kind == ic_kind::bluescale) {
                exported = cells.size();
            }
            cells.push_back(fig6_cell(
                kind, {.scenario = {.n_clients = n_clients,
                                    .measure_cycles = opts.measure_cycles}}));
        }
    }
    const auto results = run_sweep(sweep_from(opts, exported), cells);
    write_bench_exports(opts, results[exported]);

    const sweep_result* next = results.data();
    for (std::uint32_t n_clients : k_scales) {
        print_scale(n_clients, opts, next, csv.get());
    }
    if (opts.profile) {
        std::printf("\ngrid sweep wall (s): %.2f\n",
                    static_cast<double>(
                        results[0].profile.get("profile/sweep/wall_ns").count) *
                        1e-9);
    }
    return 0;
}
