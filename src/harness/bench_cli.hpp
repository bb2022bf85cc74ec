// Shared command line and report for the bench/ drivers.
//
// One flag vocabulary -- --trials, --cycles, --threads, --seed, --csv,
// --metrics, --trace, --profile and --lockstep, described by the usage
// text (--help) -- of which each driver names the flags it honours.
//
// A driver's output is one bench_report: sections of rows, each row one
// sweep cell with its key values. One column list per section renders
// both the section's table and the CSV rows off each cell's merged
// totals, so every value is declared once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "harness/trial_sweep.hpp"
#include "sim/types.hpp"

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
};

/// The flags a driver honours, as a mask for parse_bench_cli.
enum bench_flag : unsigned {
    flag_trials = 1u << 0,
    flag_cycles = 1u << 1,
    flag_threads = 1u << 2,
    flag_seed = 1u << 3,
    flag_csv = 1u << 4,
    /// --metrics, --trace and --profile: drivers whose trials run a
    /// testbench.
    flag_obs = 1u << 5,
    flag_lockstep = 1u << 6,
    k_all_flags = (1u << 7) - 1,
};

/// Parses the flags in `honoured`. `defaults` seeds the returned options
/// (pass the bench's historical defaults). --lockstep makes
/// simulator::engine::lockstep the default engine of every simulator the
/// driver builds (exports are byte-identical either way -- the baseline
/// side of the engine-equivalence contract). On --help, a malformed
/// command line or a flag outside `honoured`, prints usage for `what`
/// (listing only the honoured flags) and terminates the process (benches
/// are leaf executables).
[[nodiscard]] bench_options parse_bench_cli(int argc, char** argv,
                                            const bench_options& defaults,
                                            const char* what,
                                            unsigned honoured = k_all_flags);

/// Strict decimal parse of a flag value: digits only (no sign, no
/// blanks, no trailing characters), no overflow, and at most `max`, so
/// `-1` is rejected instead of wrapping and no value is truncated.
/// nullopt when `text` is anything else.
[[nodiscard]] std::optional<std::uint64_t> parse_uint(const char* text,
                                                      std::uint64_t max);

/// How a report column shows its value in the table.
enum class shown {
    /// The metric's value -- a sample's mean, a real, or the sample
    /// statistic a ":sd" / ":max" suffix selects -- with `precision`
    /// decimals.
    num,
    pct, ///< the same value as a percentage
    /// The counter, or the ','-separated counters ("svc/retries,
    /// svc/requeues") joined by '/' ("3/4").
    count,
    per_trial, ///< the counter over the trial count ("3/10")
};

/// One column of a report. The CSV cell is obs::metric_cells' rendering
/// of the metric (missing = "0"), whatever `as` says.
struct report_column {
    std::string_view heading; ///< table heading; empty = CSV only
    std::string_view csv;     ///< CSV header; empty = table only
    /// The metric under the row cell's prefix, in the obs::metric_cells
    /// vocabulary (":sd", ":max", ...); empty = the CSV header.
    std::string_view metric = {};
    shown as = shown::num;
    int precision = 0;
};

struct report_row {
    sweep_cell cell;
    std::vector<std::string> labels; ///< the table's key cells
    std::vector<std::string> keys = {}; ///< the CSV's; empty = labels
    /// --metrics and --trace export this row's cell (the report's last
    /// cell when no row is marked).
    bool exported = false;
    /// The earlier row, counted over the whole report in order, whose
    /// cell this row repeats: the cell runs once and both rows show its
    /// result. `cell` must then be that row's cell (it names the row's
    /// metrics).
    std::optional<std::size_t> same_as = std::nullopt;
};

struct report_section {
    std::string title; ///< printed verbatim before the table
    std::vector<std::string> label_headings;
    /// The table shows the columns with a heading, the CSV those with a
    /// header; the sections of a report with a CSV share its columns.
    std::span<const report_column> columns;
    std::vector<report_row> rows;
};

struct bench_report {
    /// The CSV's key headers; empty = the first section's label headings.
    std::vector<std::string> csv_keys = {};
    std::vector<report_section> sections = {};
};

/// The one call of a driver: runs every row's cell on one run_sweep grid
/// (--trials, --seed, --threads, --profile); writes --metrics and --trace
/// off the exported cell (snapshot::write_csv's sorted CSV, so the file
/// is byte-identical for any --threads; a trace path ending in ".json"
/// gets Chrome trace-event JSON, anything else the CSV form) and one
/// --csv row per row; prints each section's title and table, under
/// --profile followed by each row's simulator throughput, and the grid's
/// sweep wall time at the end. Exits with a diagnostic when an output
/// file cannot be created. Returns the rows' results in row order (a
/// same_as row's cell runs once; both rows get its result).
std::vector<sweep_result> run_report(const bench_options& opts,
                                     const bench_report& report);

/// `section`'s table over its rows' results (in row order), or "" when
/// no column has a heading.
[[nodiscard]] std::string render_table(const report_section& section,
                                       std::span<const sweep_result> results,
                                       std::uint32_t trials);

/// One CSV row: `keys`, then each column's cell with a CSV header.
[[nodiscard]] std::vector<std::string>
csv_row(std::span<const report_column> columns, std::vector<std::string> keys,
        const obs::snapshot& totals, std::string_view prefix);

/// printf into a string of at most 255 characters (section titles).
[[nodiscard]] std::string formatted(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace bluescale::harness
