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
//                         [--profile] [--lockstep]
//
// --csv dumps one row per (mode, refresh, scrub, hammer) cell with the
// raw aggregates (rendered through obs::metric_cells off the
// experiment's metric snapshot); the file is byte-identical for any
// --threads setting. --metrics dumps the merged per-trial obs::registry
// snapshot and --trace the event trace of the first admitted trial, both
// of the aware mode at 2x refresh with scrub and hammer on.
#include <cstdio>
#include <string>

#include "harness/bench_cli.hpp"
#include "harness/maintenance_experiment.hpp"

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

} // namespace

int main(int argc, char** argv) {
    bench_options defaults;
    defaults.trials = 6;
    defaults.measure_cycles = 40'000;
    const auto opts = parse_bench_cli(
        argc, argv, defaults,
        "Maintenance: deadline misses and watchdog alarms under DRAM "
        "refresh/scrub/RowHammer interference");

    std::printf("DRAM maintenance: maintenance-aware vs -unaware "
                "admission under refresh/scrub/RowHammer\n");

    // Both modes' cells on one grid, one table per mode.
    bench_report report{.csv_keys = {"mode", "t_refi", "scrub_interval",
                                     "hammer_threshold"}};
    for (bool aware : {false, true}) {
        report_section& s = report.sections.emplace_back(report_section{
            formatted("\n=== %s admission: refresh x scrub x hammer sweep, "
                      "%u trials, %llu cycles/trial ===\n",
                      aware ? "maintenance-aware" : "maintenance-unaware",
                      opts.trials,
                      static_cast<unsigned long long>(opts.measure_cycles)),
            {"refresh", "scrub", "hammer"}, k_maintenance_columns, {}});
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
                    s.rows.push_back(
                        {maintenance_cell(cfg),
                         {rf.name, sc.name, hm.name},
                         {aware ? "aware" : "unaware",
                          std::to_string(rf.t_refi),
                          std::to_string(sc.interval),
                          std::to_string(hm.threshold)}});
                }
            }
        }
    }
    // Obs exports cover the last cell, the aware mode's heaviest: 2x
    // refresh with scrub and hammer on.
    run_report(opts, report);
    return 0;
}
