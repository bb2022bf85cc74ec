#include "harness/bench_cli.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>

#include "sim/simulator.hpp"

namespace bluescale::harness {

namespace {

[[noreturn]] void usage_and_exit(const char* argv0, const char* what,
                                 const bench_options& defaults, int code) {
    std::fprintf(
        stderr,
        "%s -- %s\n"
        "usage: %s [--trials N] [--cycles N] [--threads N] [--seed N]"
        " [--csv PATH] [--metrics PATH] [--trace PATH] [--profile]"
        " [--lockstep]\n"
        "  --trials N     trials per configuration (default %u)\n"
        "  --cycles N     simulated cycles per trial (default %llu)\n"
        "  --threads N    worker threads for the trial sweep; 0 = all cores"
        " (default %u)\n"
        "  --seed N       base RNG seed (default %llu)\n"
        "  --csv PATH     also write machine-readable rows to PATH\n"
        "  --metrics PATH write the merged obs metrics snapshot (CSV)\n"
        "  --trace PATH   write the first traced trial's event trace"
        " (.json = Chrome trace JSON, else CSV)\n"
        "  --profile      report simulator wall-clock profile after the"
        " run\n"
        "  --lockstep     force the cycle-stepped fallback engine"
        " (results are byte-identical to the event engine)\n",
        argv0, what, argv0, defaults.trials,
        static_cast<unsigned long long>(defaults.measure_cycles),
        defaults.threads,
        static_cast<unsigned long long>(defaults.seed));
    std::exit(code);
}

/// Strict decimal parse of a flag value in [0, max]: digits only (no
/// sign, no blanks, no trailing characters) and no overflow, so `-1` is
/// rejected instead of wrapping and no value is truncated by its field.
std::uint64_t parse_uint(const char* argv0, const char* what,
                         const bench_options& defaults, const char* flag,
                         const char* text, std::uint64_t max) {
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (text[0] < '0' || text[0] > '9' || *end != '\0' || errno == ERANGE ||
        v > max) {
        std::fprintf(stderr, "%s: %s expects an integer in [0, %llu], got"
                             " '%s'\n",
                     argv0, flag, static_cast<unsigned long long>(max),
                     text);
        usage_and_exit(argv0, what, defaults, 2);
    }
    return v;
}

/// parse_uint bounded by the destination field's range.
template <class T>
void parse_into(T& field, const char* argv0, const char* what,
                const bench_options& defaults, const char* flag,
                const char* text) {
    field = static_cast<T>(parse_uint(argv0, what, defaults, flag, text,
                                      std::numeric_limits<T>::max()));
}

} // namespace

bench_options parse_bench_cli(int argc, char** argv,
                              const bench_options& defaults,
                              const char* what) {
    bench_options opts = defaults;

    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        const auto value = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: %s expects a value\n", argv[0],
                             arg);
                usage_and_exit(argv[0], what, defaults, 2);
            }
            return argv[++i];
        };

        if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
            usage_and_exit(argv[0], what, defaults, 0);
        } else if (std::strcmp(arg, "--trials") == 0) {
            parse_into(opts.trials, argv[0], what, defaults, arg, value());
        } else if (std::strcmp(arg, "--cycles") == 0) {
            parse_into(opts.measure_cycles, argv[0], what, defaults, arg,
                       value());
        } else if (std::strcmp(arg, "--threads") == 0) {
            parse_into(opts.threads, argv[0], what, defaults, arg, value());
        } else if (std::strcmp(arg, "--seed") == 0) {
            parse_into(opts.seed, argv[0], what, defaults, arg, value());
        } else if (std::strcmp(arg, "--csv") == 0) {
            opts.csv_path = value();
        } else if (std::strcmp(arg, "--metrics") == 0) {
            opts.metrics_path = value();
        } else if (std::strcmp(arg, "--trace") == 0) {
            opts.trace_path = value();
        } else if (std::strcmp(arg, "--profile") == 0) {
            opts.profile = true;
        } else if (std::strcmp(arg, "--lockstep") == 0) {
            opts.lockstep = true;
        } else if (arg[0] == '-' && arg[1] != '\0') {
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0], arg);
            usage_and_exit(argv[0], what, defaults, 2);
        } else {
            std::fprintf(stderr, "%s: unexpected argument '%s'\n", argv[0],
                         arg);
            usage_and_exit(argv[0], what, defaults, 2);
        }
    }
    // Applied here so every driver honours the flag without plumbing it
    // through its experiment config: all simulators the run constructs
    // pick the default engine up.
    if (opts.lockstep) {
        simulator::set_default_engine(simulator::engine::lockstep);
    }
    return opts;
}

sweep_options sweep_from(const bench_options& opts,
                         std::optional<std::size_t> export_cell) {
    sweep_options s;
    s.trials = opts.trials;
    s.seed = opts.seed;
    s.threads = opts.threads;
    s.profile = opts.profile;
    if (!opts.metrics_path.empty()) s.metrics_cell = export_cell;
    if (!opts.trace_path.empty()) s.trace_cell = export_cell;
    return s;
}

std::unique_ptr<stats::csv_writer>
open_bench_csv(const bench_options& opts, std::vector<std::string> keys,
               std::span<const csv_column> columns) {
    if (opts.csv_path.empty()) return nullptr;
    for (const csv_column& c : columns) keys.emplace_back(c.first);
    auto csv = std::make_unique<stats::csv_writer>(opts.csv_path,
                                                   std::move(keys));
    if (!csv->ok()) {
        std::fprintf(stderr, "cannot write %s\n", opts.csv_path.c_str());
        std::exit(1);
    }
    return csv;
}

void add_csv_row(stats::csv_writer* csv, std::vector<std::string> keys,
                 const obs::snapshot& totals, std::string_view prefix,
                 std::span<const csv_column> columns) {
    if (csv == nullptr) return;
    std::vector<std::string> names;
    names.reserve(columns.size());
    for (const csv_column& c : columns) {
        std::string name(prefix);
        name += c.second;
        names.push_back(std::move(name));
    }
    for (auto& cell : obs::metric_cells(totals, names)) {
        keys.push_back(std::move(cell));
    }
    csv->add_row(keys);
}

namespace {

/// Shared open/verify for the obs exporters (consistent with
/// open_bench_csv: exporting is the point of the flag, so failing to
/// create the file is fatal).
// The bench exporter endpoint: metrics and traces leave the process
// here, through the obs formatters.
// detlint:allow(metrics-bypass): exporter endpoint, writes obs output
std::ofstream open_export_file(const std::string& path) {
    std::ofstream os(path); // detlint:allow(metrics-bypass): same endpoint
    if (!os) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        std::exit(1);
    }
    return os;
}

} // namespace

void write_bench_exports(const bench_options& opts,
                         const sweep_result& exported) {
    if (!opts.metrics_path.empty()) {
        auto os = open_export_file(opts.metrics_path);
        exported.metrics.write_csv(os);
    }
    if (!opts.trace_path.empty()) {
        auto os = open_export_file(opts.trace_path);
        const std::string& p = opts.trace_path;
        const bool json =
            p.size() >= 5 && p.compare(p.size() - 5, 5, ".json") == 0;
        if (json) {
            exported.trace.write_chrome_json(os);
        } else {
            exported.trace.write_csv(os);
        }
    }
}

} // namespace bluescale::harness
