// Shared command-line handling for the bench/ drivers.
//
// Every driver historically rolled its own positional atoi() parsing;
// this helper gives them one vocabulary:
//
//   --trials N     trials per configuration
//   --cycles N     simulated cycles per trial
//   --threads N    worker threads for the trial sweep (0 = all cores)
//   --seed N       base RNG seed
//   --csv PATH     also dump machine-readable rows to PATH
//   --metrics PATH dump the obs::registry snapshot (deterministic CSV)
//   --trace PATH   dump the event trace (.json = Chrome trace, else CSV)
//   --profile      report simulator wall-clock profile after the run
//   --lockstep     force the cycle-stepped fallback engine
//   --help         usage
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness/trial_sweep.hpp"
#include "sim/types.hpp"
#include "stats/csv.hpp"

namespace bluescale::harness {

struct bench_options {
    std::uint32_t trials = 10;
    cycle_t measure_cycles = 100'000;
    /// Worker threads for trial sweeps; 0 = all hardware threads.
    unsigned threads = 1;
    std::uint64_t seed = 1;
    std::string csv_path;     ///< empty = no CSV output
    std::string metrics_path; ///< empty = no metrics snapshot export
    std::string trace_path;   ///< empty = no event-trace export
    bool profile = false;     ///< wall-clock simulator profiling report
    /// Force simulator::engine::lockstep for every simulator the driver
    /// builds (equivalent to BLUESCALE_LOCKSTEP=1; exports are
    /// byte-identical either way -- this is the baseline side of the
    /// engine-equivalence contract).
    bool lockstep = false;
};

/// Parses the shared bench flags. `defaults` seeds the returned options
/// (pass the bench's historical defaults). On --help or a malformed
/// command line, prints usage for `what` and terminates the process
/// (benches are leaf executables).
[[nodiscard]] bench_options parse_bench_cli(int argc, char** argv,
                                            const bench_options& defaults,
                                            const char* what);

/// The grid settings of a driver's run_sweep: --trials, --seed,
/// --threads and --profile, and `export_cell` as the metrics_cell when
/// --metrics and the trace_cell when --trace was given.
[[nodiscard]] sweep_options
sweep_from(const bench_options& opts,
           std::optional<std::size_t> export_cell = std::nullopt);

/// One CSV column of experiment values, declared once: {header, metric},
/// where the metric is an obs::metric_cells name (":sd"-style suffixes
/// included) under the row's prefix.
using csv_column = std::pair<std::string_view, std::string_view>;

/// Opens the CSV sink when --csv was given: returns nullptr when no path
/// was requested, and exits with a diagnostic when the file cannot be
/// created (consistent across drivers). The header row is `keys` (the
/// row coordinates the driver composes) followed by each column's header.
[[nodiscard]] std::unique_ptr<stats::csv_writer>
open_bench_csv(const bench_options& opts, std::vector<std::string> keys,
               std::span<const csv_column> columns = {});

/// Writes one row when `csv` is open: `keys`, then each column's cell
/// rendered off `totals` from the metric "<prefix><metric>".
void add_csv_row(stats::csv_writer* csv, std::vector<std::string> keys,
                 const obs::snapshot& totals, std::string_view prefix,
                 std::span<const csv_column> columns);

/// Writes the exported cell's merged metrics snapshot to --metrics
/// (snapshot::write_csv's sorted, deterministic CSV, so the file is
/// byte-identical across --threads settings) and its event trace to
/// --trace (a path ending in ".json" gets Chrome trace-event JSON for
/// chrome://tracing / Perfetto, anything else the CSV form; valid but
/// empty when the build has BLUESCALE_TRACE=OFF). Exits with a diagnostic
/// when a file cannot be created.
void write_bench_exports(const bench_options& opts,
                         const sweep_result& exported);

} // namespace bluescale::harness
