// Reproduces Fig. 6: interconnect-level real-time performance under
// synthetic workloads. 16 and 64 traffic generators issue randomly
// generated periodic workloads (70-90% interconnect utilization, GEDF
// request priorities); for each of the six designs the harness reports
// blocking latency and deadline miss ratio, with cross-trial variance.
//
//   $ ./bench/fig6_synthetic [--trials N] [--cycles N] [--threads N]
//                            [--seed N] [--csv out.csv]
//                            [--metrics out.csv] [--trace out.json]
//                            [--profile] [--lockstep]
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

#include "harness/bench_cli.hpp"
#include "harness/fig6_experiment.hpp"

using namespace bluescale;
using namespace bluescale::harness;

namespace {

constexpr report_column k_columns[] = {
    {"blocking lat (us)", "blocking_us", "blocking_us", shown::num, 3},
    {"+/- sd", "blocking_sd", "blocking_us:sd", shown::num, 3},
    {"worst (us)", "worst_us", "worst_blocking_us", shown::num, 2},
    {"miss ratio", "miss_ratio", "miss_ratio", shown::pct, 2},
    {"+/- sd", "miss_sd", "miss_ratio:sd", shown::pct, 2},
    {"sys clk (MHz)", "sys_clk_mhz", "system_clock_mhz", shown::num, 0},
};

} // namespace

int main(int argc, char** argv) {
    bench_options defaults;
    defaults.trials = 10;
    defaults.measure_cycles = 100'000;
    const auto opts = parse_bench_cli(
        argc, argv, defaults,
        "Fig. 6 reproduction: blocking latency and deadline miss ratio");

    std::printf("Fig. 6 reproduction: blocking latency and deadline miss "
                "ratio, six interconnects\n");

    // Both scales' designs on one grid. Obs exports cover the BlueScale
    // design at 16 generators.
    bench_report report{.csv_keys = {"clients", "design"}};
    for (std::uint32_t n_clients : {16u, 64u}) {
        report_section& s = report.sections.emplace_back(report_section{
            formatted("\n=== Fig. 6(%c): %u traffic generators, %u trials, "
                      "%llu cycles/trial, utilization 70-90%% ===\n",
                      n_clients == 16 ? 'a' : 'b', n_clients, opts.trials,
                      static_cast<unsigned long long>(opts.measure_cycles)),
            {"design"}, k_columns, {}});
        for (ic_kind kind : k_all_kinds) {
            s.rows.push_back(
                {fig6_cell(kind, {.scenario = {.n_clients = n_clients,
                                               .measure_cycles =
                                                   opts.measure_cycles}}),
                 {kind_name(kind)},
                 {std::to_string(n_clients), kind_name(kind)},
                 n_clients == 16 && kind == ic_kind::bluescale});
        }
    }
    run_report(opts, report);
    return 0;
}
