#include "harness/bench_cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>

#include "sim/simulator.hpp"
#include "stats/csv.hpp"
#include "stats/table.hpp"

namespace bluescale::harness {

namespace {

struct flag_def {
    const char* name;
    unsigned bit;
    const char* value; ///< "N", "PATH", or nullptr for a switch
    const char* help;
};

// The numeric flags come first, in the order usage_and_exit lists their
// defaults; parse_bench_cli switches on the index.
constexpr flag_def k_flags[] = {
    {"--trials", flag_trials, "N", "trials per configuration"},
    {"--cycles", flag_cycles, "N", "simulated cycles per trial"},
    {"--threads", flag_threads, "N",
     "worker threads for the trial sweep; 0 = all cores"},
    {"--seed", flag_seed, "N", "base RNG seed"},
    {"--csv", flag_csv, "PATH", "also write machine-readable rows to PATH"},
    {"--metrics", flag_obs, "PATH",
     "write the exported cell's merged obs metrics snapshot (CSV)"},
    {"--trace", flag_obs, "PATH",
     "write the exported cell's first traced trial's event trace"
     " (.json = Chrome trace JSON, else CSV)"},
    {"--profile", flag_obs, nullptr,
     "report simulator wall-clock profile after the run"},
    {"--lockstep", flag_lockstep, nullptr,
     "force the cycle-stepped fallback engine (results are byte-identical"
     " to the event engine)"},
};

struct cli {
    const char* argv0;
    const char* what;
    const bench_options& defaults;
    unsigned honoured;

    [[noreturn]] void usage_and_exit(int code) const {
        const std::uint64_t numeric[] = {defaults.trials,
                                         defaults.measure_cycles,
                                         defaults.threads, defaults.seed};
        std::fprintf(stderr, "%s -- %s\nusage: %s [options]\n", argv0, what,
                     argv0);
        for (std::size_t i = 0; i < std::size(k_flags); ++i) {
            const flag_def& f = k_flags[i];
            if ((honoured & f.bit) == 0) continue;
            std::string arg = f.name;
            if (f.value != nullptr) (arg += ' ') += f.value;
            std::fprintf(stderr, "  %-14s %s", arg.c_str(), f.help);
            if (i < std::size(numeric)) {
                std::fprintf(stderr, " (default %llu)",
                             static_cast<unsigned long long>(numeric[i]));
            }
            std::fputc('\n', stderr);
        }
        std::exit(code);
    }

    [[noreturn]] void fail(const std::string& problem) const {
        std::fprintf(stderr, "%s: %s\n", argv0, problem.c_str());
        usage_and_exit(2);
    }

    /// parse_uint of a flag value into `field`, within the field's range.
    template <class T>
    void parse_into(T& field, const char* flag, const char* text) const {
        const std::uint64_t max = std::numeric_limits<T>::max();
        const std::optional<std::uint64_t> v = parse_uint(text, max);
        if (!v) {
            fail(formatted("%s expects an integer in [0, %llu], got '%s'",
                           flag, static_cast<unsigned long long>(max), text));
        }
        field = static_cast<T>(*v);
    }
};

} // namespace

std::optional<std::uint64_t> parse_uint(const char* text, std::uint64_t max) {
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (text[0] < '0' || text[0] > '9' || *end != '\0' || errno == ERANGE ||
        v > max) {
        return std::nullopt;
    }
    return v;
}

bench_options parse_bench_cli(int argc, char** argv,
                              const bench_options& defaults,
                              const char* what, unsigned honoured) {
    const cli c{argv[0], what, defaults, honoured};
    bench_options opts = defaults;

    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
            c.usage_and_exit(0);
        }
        const flag_def* f =
            std::find_if(std::begin(k_flags), std::end(k_flags),
                         [arg](const flag_def& d) {
                             return std::strcmp(d.name, arg) == 0;
                         });
        if (f == std::end(k_flags)) {
            c.fail(formatted(arg[0] == '-' && arg[1] != '\0'
                                 ? "unknown option '%s'"
                                 : "unexpected argument '%s'",
                             arg));
        }
        if ((honoured & f->bit) == 0) {
            c.fail(formatted("%s does not apply to this driver", arg));
        }
        const char* value = nullptr;
        if (f->value != nullptr) {
            if (i + 1 >= argc) c.fail(formatted("%s expects a value", arg));
            value = argv[++i];
        }
        switch (f - std::begin(k_flags)) {
        case 0: c.parse_into(opts.trials, arg, value); break;
        case 1: c.parse_into(opts.measure_cycles, arg, value); break;
        case 2: c.parse_into(opts.threads, arg, value); break;
        case 3: c.parse_into(opts.seed, arg, value); break;
        case 4: opts.csv_path = value; break;
        case 5: opts.metrics_path = value; break;
        case 6: opts.trace_path = value; break;
        case 7: opts.profile = true; break;
        // Applied here so every driver honours the flag without plumbing
        // it through its experiment config: all simulators the run
        // constructs pick the default engine up.
        default: simulator::set_default_engine(simulator::engine::lockstep);
        }
    }
    return opts;
}

namespace {

std::string full_name(std::string_view prefix, std::string_view metric) {
    std::string name(prefix);
    name += metric;
    return name;
}

std::string_view metric_of(const report_column& c) {
    return c.metric.empty() ? c.csv : c.metric;
}

/// The number a num/pct column shows.
double table_value(const obs::snapshot& totals, std::string_view prefix,
                   std::string_view metric) {
    const auto colon = metric.rfind(':');
    const std::string_view stat =
        colon == std::string_view::npos ? "" : metric.substr(colon + 1);
    const obs::metric_value& v =
        totals.get(full_name(prefix, metric.substr(0, colon)));
    if (stat == "sd") return v.samples.stddev();
    if (stat == "max") return v.samples.max();
    return v.kind == obs::metric_kind::real ? v.value : v.samples.mean();
}

std::string table_cell(const report_column& c, const obs::snapshot& totals,
                       std::string_view prefix, std::uint32_t trials) {
    if (c.as == shown::num || c.as == shown::pct) {
        const double v = table_value(totals, prefix, metric_of(c));
        return c.as == shown::num ? stats::table::num(v, c.precision)
                                  : stats::table::pct(v, c.precision);
    }
    std::string out;
    for (std::string_view rest = metric_of(c);;) {
        const auto comma = rest.find(',');
        out += std::to_string(
            totals.get(full_name(prefix, rest.substr(0, comma))).count);
        if (comma == std::string_view::npos) break;
        out += '/';
        rest.remove_prefix(comma + 1);
    }
    if (c.as == shown::per_trial) {
        out += '/';
        out += std::to_string(trials);
    }
    return out;
}

/// Under --profile: each row's simulator throughput and wall time.
void print_profile(const report_section& s,
                   std::span<const sweep_result> results) {
    std::vector<std::string> headings = s.label_headings;
    headings.emplace_back("sim Mcyc/s");
    headings.emplace_back("sim wall (s)");
    stats::table t(std::move(headings));
    for (std::size_t i = 0; i < results.size(); ++i) {
        const obs::snapshot& p = results[i].profile;
        const double sim_s =
            static_cast<double>(p.get("profile/sim/wall_ns").count) * 1e-9;
        const double mcyc =
            static_cast<double>(p.get("profile/sim/cycles").count) * 1e-6;
        std::vector<std::string> row = s.rows[i].labels;
        row.push_back(stats::table::num(sim_s == 0.0 ? 0.0 : mcyc / sim_s, 2));
        row.push_back(stats::table::num(sim_s, 2));
        t.add_row(std::move(row));
    }
    std::printf("\nsimulator profile (wall clock, nondeterministic; see "
                "obs::k_metric_profile):\n");
    t.print();
}

// The bench exporter endpoint: metrics and traces leave the process
// here, through the obs formatters. Exporting is the point of the flag,
// so failing to create the file is fatal.
// detlint:allow(metrics-bypass): exporter endpoint, writes obs output
std::ofstream open_export_file(const std::string& path) {
    std::ofstream os(path); // detlint:allow(metrics-bypass): same endpoint
    if (!os) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        std::exit(1);
    }
    return os;
}

void write_exports(const bench_options& opts, const sweep_result& exported) {
    if (!opts.metrics_path.empty()) {
        auto os = open_export_file(opts.metrics_path);
        exported.metrics.write_csv(os);
    }
    if (!opts.trace_path.empty()) {
        auto os = open_export_file(opts.trace_path);
        const std::string& p = opts.trace_path;
        if (p.size() >= 5 && p.compare(p.size() - 5, 5, ".json") == 0) {
            exported.trace.write_chrome_json(os);
        } else {
            exported.trace.write_csv(os);
        }
    }
}

} // namespace

std::string render_table(const report_section& section,
                         std::span<const sweep_result> results,
                         std::uint32_t trials) {
    std::vector<std::string> headings = section.label_headings;
    for (const report_column& c : section.columns) {
        if (!c.heading.empty()) headings.emplace_back(c.heading);
    }
    if (headings.size() == section.label_headings.size()) return {};
    stats::table t(std::move(headings));
    for (std::size_t i = 0; i < results.size(); ++i) {
        const report_row& row = section.rows[i];
        std::vector<std::string> cells = row.labels;
        for (const report_column& c : section.columns) {
            if (c.heading.empty()) continue;
            cells.push_back(
                table_cell(c, results[i].totals, row.cell.prefix, trials));
        }
        t.add_row(std::move(cells));
    }
    return t.to_string();
}

std::vector<std::string> csv_row(std::span<const report_column> columns,
                                 std::vector<std::string> keys,
                                 const obs::snapshot& totals,
                                 std::string_view prefix) {
    std::vector<std::string> names;
    for (const report_column& c : columns) {
        if (!c.csv.empty()) names.push_back(full_name(prefix, metric_of(c)));
    }
    for (auto& cell : obs::metric_cells(totals, names)) {
        keys.push_back(std::move(cell));
    }
    return keys;
}

std::vector<sweep_result> run_report(const bench_options& opts,
                                     const bench_report& report) {
    std::vector<sweep_cell> cells;
    std::vector<std::size_t> cell_of; ///< by row, over the whole report
    std::optional<std::size_t> exported;
    for (const report_section& s : report.sections) {
        for (const report_row& row : s.rows) {
            if (row.same_as) {
                cell_of.push_back(cell_of.at(*row.same_as));
            } else {
                cell_of.push_back(cells.size());
                cells.push_back(row.cell);
            }
            if (row.exported) exported = cell_of.back();
        }
    }
    if (!exported) exported = cell_of.back();

    std::optional<stats::csv_writer> csv;
    if (!opts.csv_path.empty()) {
        const report_section& first = report.sections.front();
        std::vector<std::string> header = report.csv_keys.empty()
                                              ? first.label_headings
                                              : report.csv_keys;
        for (const report_column& c : first.columns) {
            if (!c.csv.empty()) header.emplace_back(c.csv);
        }
        csv.emplace(opts.csv_path, std::move(header));
        if (!csv->ok()) {
            std::fprintf(stderr, "cannot write %s\n", opts.csv_path.c_str());
            std::exit(1);
        }
    }

    sweep_options grid = {.trials = opts.trials,
                          .seed = opts.seed,
                          .threads = opts.threads,
                          .profile = opts.profile};
    if (!opts.metrics_path.empty()) grid.metrics_cell = exported;
    if (!opts.trace_path.empty()) grid.trace_cell = exported;
    auto ran = run_sweep(grid, cells);
    write_exports(opts, ran[*exported]);
    // A repeating row copies the result of the row it repeats.
    std::vector<sweep_result> results;
    results.reserve(cell_of.size());
    for (const report_section& s : report.sections) {
        for (const report_row& row : s.rows) {
            results.push_back(row.same_as
                                  ? results[*row.same_as]
                                  : std::move(ran[cell_of[results.size()]]));
        }
    }

    std::span<const sweep_result> rest = results;
    for (const report_section& s : report.sections) {
        const auto mine = rest.first(s.rows.size());
        rest = rest.subspan(s.rows.size());
        std::fputs(s.title.c_str(), stdout);
        std::fputs(render_table(s, mine, opts.trials).c_str(), stdout);
        if (opts.profile) print_profile(s, mine);
        for (std::size_t i = 0; csv && i < mine.size(); ++i) {
            const report_row& row = s.rows[i];
            csv->add_row(csv_row(s.columns,
                                 row.keys.empty() ? row.labels : row.keys,
                                 mine[i].totals, row.cell.prefix));
        }
    }
    if (opts.profile) {
        std::printf(
            "\ngrid sweep wall (s): %.2f\n",
            static_cast<double>(
                results[0].profile.get("profile/sweep/wall_ns").count) *
                1e-9);
    }
    return results;
}

std::string formatted(const char* fmt, ...) {
    char buf[256];
    std::va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, args);
    va_end(args);
    return buf;
}

} // namespace bluescale::harness
