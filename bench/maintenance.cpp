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
//
// --csv dumps one row per (mode, refresh, scrub, hammer) cell with the
// raw aggregates (rendered through obs::metric_cells off the
// experiment's metric snapshot); the file is byte-identical for any
// --threads setting.
#include <cstdio>
#include <string>
#include <vector>

#include "harness/bench_cli.hpp"
#include "harness/maintenance_experiment.hpp"
#include "obs/registry.hpp"
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

void run_mode(bool aware, const bench_options& opts,
              stats::csv_writer* csv) {
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
                maintenance_exp_config cfg;
                cfg.scenario.sweep = sweep_from(opts);
                cfg.scenario.measure_cycles = opts.measure_cycles;
                cfg.maintenance_aware = aware;
                memctrl_config& mc = cfg.scenario.memctrl;
                mc.timing.t_refi = rf.t_refi;
                mc.timing.t_rfc = rf.t_rfc;
                mc.maintenance.scrub_interval = sc.interval;
                mc.maintenance.scrub_duration = sc.duration;
                mc.maintenance.hammer_threshold = hm.threshold;
                mc.maintenance.hammer_mitigation_cycles = hm.mitigation;
                // Fixed unmodeled-interference floor: rare short storms
                // the corrected bound does NOT budget for, so the
                // watchdog columns stay meaningful in aware mode too.
                cfg.storm_intensity = 0.02;

                const sweep_result r = run_maintenance_experiment(cfg);
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
                if (csv != nullptr) {
                    // Raw aggregate cells come off the experiment's
                    // metric snapshot through the one exporter path; only
                    // the sweep coordinates are composed here.
                    std::vector<std::string> row{
                        aware ? "aware" : "unaware",
                        std::to_string(rf.t_refi),
                        std::to_string(sc.interval),
                        std::to_string(hm.threshold)};
                    for (auto& cell : obs::metric_cells(
                             r.totals,
                             {"maintenance/hard_miss_ratio",
                              "maintenance/hard_miss_ratio:sd",
                              "maintenance/best_effort_miss_ratio",
                              "maintenance/p99_latency_cycles",
                              "maintenance/hard_misses",
                              "maintenance/best_effort_misses",
                              "maintenance/refreshes",
                              "maintenance/scrubs",
                              "maintenance/hammer_mitigations",
                              "maintenance/maintenance_stolen_cycles",
                              "maintenance/maintenance_storm_cycles",
                              "maintenance/injected_storms",
                              "maintenance/windows_checked",
                              "maintenance/supply_shortfall_alarms",
                              "maintenance/deadline_alarms",
                              "maintenance/shed_events",
                              "maintenance/restore_events",
                              "maintenance/shed_client_cycles",
                              "maintenance/feasible_trials"})) {
                        row.push_back(std::move(cell));
                    }
                    csv->add_row(row);
                }
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
        opts, {"mode", "t_refi", "scrub_interval", "hammer_threshold",
               "hard_miss_ratio", "hard_miss_sd", "be_miss_ratio",
               "p99_cycles", "hard_misses", "best_effort_misses",
               "refreshes", "scrubs", "hammer_mitigations",
               "stolen_cycles", "storm_cycles", "injected_storms",
               "windows_checked", "supply_shortfall_alarms",
               "deadline_alarms", "shed_events", "restore_events",
               "shed_client_cycles", "feasible_trials"});

    std::printf("DRAM maintenance: maintenance-aware vs -unaware "
                "admission under refresh/scrub/RowHammer\n");
    run_mode(false, opts, csv.get());
    run_mode(true, opts, csv.get());
    return 0;
}
