// Ablation A7 (DESIGN.md): Meshed BlueScale memory channels. With one
// channel the memory system saturates at 1/initiation_interval
// transactions per cycle; interleaving the address space across K
// channels multiplies the ceiling while each channel keeps BlueScale's
// per-channel scheduling. Reports sustained throughput and latency for a
// saturating streaming workload.
//
//   $ ./bench/ablation_channels [--cycles N] [--lockstep]
//
// The workload is fixed (no trials, no seed) and the table is the only
// output.
#include <cstdio>
#include <memory>
#include <vector>

#include "core/meshed_bluescale.hpp"
#include "harness/bench_cli.hpp"
#include "sim/simulator.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"

using namespace bluescale;

int main(int argc, char** argv) {
    harness::bench_options defaults;
    defaults.measure_cycles = 40'000;
    const auto opts = harness::parse_bench_cli(
        argc, argv, defaults,
        "Ablation A7: Meshed BlueScale channel count",
        harness::flag_cycles | harness::flag_lockstep);
    const cycle_t cycles = opts.measure_cycles;
    constexpr std::uint32_t n_clients = 16;

    std::printf("Ablation A7: Meshed BlueScale channel count under a "
                "saturating streaming workload (16 clients)\n\n");

    stats::table t({"channels", "serviced", "throughput (tx/cycle)",
                    "mean latency (cyc)", "p99 latency (cyc)"});
    for (std::uint32_t channels : {1u, 2u, 4u}) {
        core::meshed_config cfg;
        cfg.channels = channels;
        cfg.interleave_bytes = 64;
        core::meshed_bluescale_ic net(n_clients, cfg);

        stats::sample_set latency;
        net.set_response_handler([&](mem_request&& r) {
            latency.add(static_cast<double>(r.total_latency()));
        });

        simulator sim;
        sim.add(net);
        std::vector<std::uint64_t> next_addr(n_clients);
        for (std::uint32_t c = 0; c < n_clients; ++c) {
            next_addr[c] = static_cast<std::uint64_t>(c) << 24;
        }
        request_id_t id = 0;
        for (cycle_t now = 0; now < cycles; ++now) {
            for (client_id_t c = 0; c < n_clients; ++c) {
                if (net.client_can_accept(c)) {
                    mem_request r;
                    r.id = id++;
                    r.client = c;
                    r.addr = next_addr[c];
                    next_addr[c] += 64;
                    r.issue_cycle = now;
                    r.abs_deadline = now + 100'000;
                    r.level_deadline = r.abs_deadline;
                    net.client_push(c, std::move(r));
                }
            }
            sim.step();
        }
        t.add_row({std::to_string(channels),
                   std::to_string(net.total_serviced()),
                   stats::table::num(
                       static_cast<double>(net.total_serviced()) /
                           static_cast<double>(cycles),
                       3),
                   stats::table::num(latency.mean(), 1),
                   stats::table::num(latency.percentile(99), 1)});
    }
    t.print();
    std::printf("\nExpected: throughput ~= channels / "
                "initiation_interval, bounded by the per-cycle injection "
                "limit.\n");
    return 0;
}
