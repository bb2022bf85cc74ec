// DRAM-maintenance robustness sweep (robustness extension, not a paper
// figure): crosses refresh cadence x scrub rate x RowHammer threshold
// over the BlueScale stack, once with maintenance-UNAWARE admission (the
// paper's raw sbf) and once with the maintenance-corrected supply bound
// wired into both interface selection and the supply watchdog. A fixed
// low-rate maintenance-STORM campaign (unmodeled excess scrubbing) rides
// along so the watchdog-alarm columns separate budgeted interference
// (aware mode: no alarms) from unbudgeted interference (alarms + shed).
//
//   $ ./bench/maintenance [--trials N] [--cycles N] [--threads N]
//                         [--seed N] [--csv out.csv]
//                         [--metrics out.csv] [--trace out.json]
//
// --csv dumps one row per (mode, refresh, scrub, hammer) cell with the
// raw aggregates (rendered through obs::metric_cells off the
// experiment's metric snapshot); the file is byte-identical for any
// --threads setting. --metrics dumps the merged per-trial obs::registry
// snapshot and --trace the event trace of the first admitted trial, both
// of the aware mode at 2x refresh with scrub and hammer on.
#include <cstdio>
#include <string>
#include <vector>

#include "harness/bench_cli.hpp"
#include "harness/maintenance_experiment.hpp"
#include "stats/table.hpp"

using namespace bluescale;
using namespace bluescale::harness;

namespace {

struct refresh_point {
    const char* name;
    std::uint32_t t_refi;
    std::uint32_t t_rfc;
};
struct scrub_point {
    const char* name;
    std::uint64_t interval;
    std::uint32_t duration;
};
struct hammer_point {
    const char* name;
    std::uint64_t threshold;
    std::uint32_t mitigation;
};

// Refresh cadence: off, the DDR3-1600 preset, and a 2x-hotter device
// (halved t_refi, e.g. high-temperature operation doubling refresh rate).
constexpr refresh_point k_refresh[] = {
    {"off", 0, 0}, {"ddr3", 1950, 65}, {"2x", 975, 65}};
constexpr scrub_point k_scrub[] = {{"off", 0, 0}, {"on", 2048, 32}};
constexpr hammer_point k_hammer[] = {{"off", 0, 0}, {"on", 256, 32}};

constexpr csv_column k_columns[] = {
    {"hard_miss_ratio", "hard_miss_ratio"},
    {"hard_miss_sd", "hard_miss_ratio:sd"},
    {"be_miss_ratio", "best_effort_miss_ratio"},
    {"p99_cycles", "p99_latency_cycles"}, {"hard_misses", "hard_misses"},
    {"best_effort_misses", "best_effort_misses"}, {"refreshes", "refreshes"},
    {"scrubs", "scrubs"}, {"hammer_mitigations", "hammer_mitigations"},
    {"stolen_cycles", "maintenance_stolen_cycles"},
    {"storm_cycles", "maintenance_storm_cycles"},
    {"injected_storms", "injected_storms"},
    {"windows_checked", "windows_checked"},
    {"supply_shortfall_alarms", "supply_shortfall_alarms"},
    {"deadline_alarms", "deadline_alarms"}, {"shed_events", "shed_events"},
    {"restore_events", "restore_events"},
    {"shed_client_cycles", "shed_client_cycles"},
    {"feasible_trials", "feasible_trials"},
};

/// One mode's table: `next` walks its cells' results, in refresh x
/// scrub x hammer order.
void print_mode(bool aware, const bench_options& opts,
                const sweep_result*& next, stats::csv_writer* csv) {
    std::printf("\n=== %s admission: refresh x scrub x hammer sweep, "
                "%u trials, %llu cycles/trial ===\n",
                aware ? "maintenance-aware" : "maintenance-unaware",
                opts.trials,
                static_cast<unsigned long long>(opts.measure_cycles));

    stats::table t({"refresh", "scrub", "hammer", "hard miss", "BE miss",
                    "p99 (cyc)", "stolen (cyc)", "shortfalls", "dl alarms",
                    "shed/rest", "feas"});
    for (const auto& rf : k_refresh) {
        for (const auto& sc : k_scrub) {
            for (const auto& hm : k_hammer) {
                const sweep_result& r = *next++;
                const auto mean = [&r](const char* name) {
                    return r.totals.get(std::string("maintenance/") + name)
                        .samples.mean();
                };
                const auto total = [&r](const char* name) {
                    return std::to_string(
                        r.totals.get(std::string("maintenance/") + name)
                            .count);
                };

                t.add_row(
                    {rf.name, sc.name, hm.name,
                     stats::table::pct(mean("hard_miss_ratio"), 2),
                     stats::table::pct(mean("best_effort_miss_ratio"), 2),
                     stats::table::num(mean("p99_latency_cycles"), 1),
                     total("maintenance_stolen_cycles"),
                     total("supply_shortfall_alarms"),
                     total("deadline_alarms"),
                     total("shed_events") + "/" + total("restore_events"),
                     total("feasible_trials")});
                add_csv_row(csv,
                            {aware ? "aware" : "unaware",
                             std::to_string(rf.t_refi),
                             std::to_string(sc.interval),
                             std::to_string(hm.threshold)},
                            r.totals, "maintenance/", k_columns);
            }
        }
    }
    t.print();
}

} // namespace

int main(int argc, char** argv) {
    bench_options defaults;
    defaults.trials = 6;
    defaults.measure_cycles = 40'000;
    const auto opts = parse_bench_cli(
        argc, argv, defaults,
        "Maintenance: deadline misses and watchdog alarms under DRAM "
        "refresh/scrub/RowHammer interference");

    const auto csv = open_bench_csv(
        opts, {"mode", "t_refi", "scrub_interval", "hammer_threshold"},
        k_columns);

    std::printf("DRAM maintenance: maintenance-aware vs -unaware "
                "admission under refresh/scrub/RowHammer\n");

    // Both modes' cells on one grid.
    constexpr bool k_modes[] = {false, true};
    std::vector<sweep_cell> cells;
    for (bool aware : k_modes) {
        for (const auto& rf : k_refresh) {
            for (const auto& sc : k_scrub) {
                for (const auto& hm : k_hammer) {
                    maintenance_exp_config cfg;
                    cfg.scenario.measure_cycles = opts.measure_cycles;
                    cfg.maintenance_aware = aware;
                    memctrl_config& mc = cfg.scenario.memctrl;
                    mc.timing.t_refi = rf.t_refi;
                    mc.timing.t_rfc = rf.t_rfc;
                    mc.maintenance.scrub_interval = sc.interval;
                    mc.maintenance.scrub_duration = sc.duration;
                    mc.maintenance.hammer_threshold = hm.threshold;
                    mc.maintenance.hammer_mitigation_cycles = hm.mitigation;
                    // Fixed unmodeled-interference floor: rare short
                    // storms the corrected bound does NOT budget for, so
                    // the watchdog columns stay meaningful in aware mode
                    // too.
                    cfg.storm_intensity = 0.02;
                    cells.push_back(maintenance_cell(cfg));
                }
            }
        }
    }
    // Obs exports cover the last cell, the aware mode's heaviest: 2x
    // refresh with scrub and hammer on.
    const std::size_t exported = cells.size() - 1;
    const auto results = run_sweep(sweep_from(opts, exported), cells);
    write_bench_exports(opts, results[exported]);

    const sweep_result* next = results.data();
    for (bool aware : k_modes) print_mode(aware, opts, next, csv.get());
    return 0;
}
