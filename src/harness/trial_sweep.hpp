// One trial sweep for every experiment driver.
//
// An experiment is a grid: cells (a design, a scale, a utilization point,
// ...) with N independent trials in each. Each trial records its
// experiment-level values (counters and per-trial samples, under its
// cell's name prefix) into a private obs::registry through its
// trial_record, and optionally captures its testbench's registry
// snapshot, event trace and wall-clock profile. run_sweep runs every
// cell x trial pair of the grid on one analysis::parallel_for and merges
// each cell's per-trial snapshots in trial order (counters sum, samples
// append; see obs::snapshot::merge), so every sweep_result is
// byte-identical for any --threads setting. Consumers read values by
// name: obs::metric_cells for CSV cells, obs::snapshot::get for
// everything else.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace bluescale::harness {

class testbench;
struct kept_trace;

/// The grid settings: every cell of one run_sweep runs these trials.
struct sweep_options {
    std::uint32_t trials = 20;
    /// Trial t of every cell runs at seed + t.
    std::uint64_t seed = 1;
    /// Worker threads for the whole grid (0 = all hardware threads).
    /// Results are bit-identical for any setting.
    unsigned threads = 1;
    /// Wall-clock profiling (simulator per-component tick cost and the
    /// grid's sweep wall time) into each sweep_result::profile
    /// (--profile). Profile metrics are nondeterministic and never leak
    /// into metrics.
    bool profile = false;
    /// The cell whose trials' testbench registry snapshots are merged, in
    /// trial order, into its sweep_result::metrics (--metrics); none when
    /// unset.
    std::optional<std::size_t> metrics_cell = std::nullopt;
    /// The cell whose lowest-index trial that captured a trace gives its
    /// sweep_result::trace (--trace; empty when the build has
    /// BLUESCALE_TRACE=OFF); none when unset.
    std::optional<std::size_t> trace_cell = std::nullopt;
};

/// What a sweep returns for one cell.
struct sweep_result {
    /// The trials' experiment-level values ("<prefix><name>"), merged in
    /// trial order, plus any derived reals the cell's finish step sets
    /// (set_real). Always populated.
    obs::snapshot totals;
    /// Per-trial testbench registry snapshots merged in trial order (the
    /// metrics_cell only).
    obs::snapshot metrics;
    /// The lowest-index capturing trial's event trace (the trace_cell
    /// only).
    obs::trace_export trace;
    /// k_metric_profile entries (the cell's per-trial simulator costs
    /// summed in trial order, plus the whole grid's
    /// profile/sweep/wall_ns), when profiling.
    obs::snapshot profile;
};

/// One trial's sink. Single-threaded: each trial owns its record.
class trial_record {
public:
    /// Trial `index` of cell `cell`; `kept` is the grid's trace_cell
    /// trace.
    trial_record(const sweep_options& grid, std::size_t cell,
                 std::string_view prefix, std::uint32_t index,
                 kept_trace& kept);

    [[nodiscard]] std::uint32_t index() const { return index_; }
    /// A pure function of the grid seed and the trial index, so every
    /// design and thread count sees the same trial.
    [[nodiscard]] std::uint64_t seed() const { return grid_.seed + index_; }

    /// Handles to the experiment metrics "<prefix><name>". Obtaining one
    /// registers the metric, so a value a trial never adds to still
    /// exports (as zero / an empty sample set).
    [[nodiscard]] obs::counter counter(std::string_view name);
    [[nodiscard]] obs::sample sample(std::string_view name);

    /// Folds the metrics tb's registry holds under `component` into the
    /// trial's values as "<prefix><component>/<leaf>", so each value a
    /// component counts has one name and one home. A component ending in
    /// '.' names instances ("client.", "se."): their coordinates drop and
    /// their counters sum ("client.3/retries" adds to "client/retries");
    /// their samples and gauges stay behind. A singleton component's
    /// ("svc/", "mem/", ...) counters and samples come over (samples
    /// appended; no singleton registers a gauge or real). Call it once
    /// per component, when the trial's values are final.
    void adopt(testbench& tb, std::string_view component);

    /// Before the run: turns on tb's simulator profiling when the grid
    /// profiles.
    void watch(testbench& tb);
    /// Keeps tb's registry snapshot (metrics_cell), trace (trace_cell)
    /// and profile (when profiling). Call it at the point the export
    /// should reflect. The trace export is skipped once a lower-index
    /// trial of the cell has kept one.
    void capture(testbench& tb);

    /// The trial's contribution to its cell (run_sweep only).
    [[nodiscard]] sweep_result take() &&;

private:
    const sweep_options& grid_;
    std::size_t cell_;
    std::string prefix_;
    std::uint32_t index_;
    kept_trace& kept_;
    obs::registry values_;
    sweep_result out_;
};

/// One cell of a grid: a configuration's trials.
struct sweep_cell {
    /// The cell's experiment metrics are named "<prefix><name>".
    std::string prefix;
    std::function<void(trial_record&)> trial;
    /// Optional: runs on the cell's merged result (values derived from
    /// the merged totals, which must not be summed per trial), after the
    /// whole grid, in cell order.
    std::function<void(sweep_result&)> finish = {};
};

/// Runs grid.trials trials of every cell on one pool of grid.threads
/// workers and returns one sweep_result per cell, in cell order, each
/// merged in trial order.
[[nodiscard]] std::vector<sweep_result>
run_sweep(const sweep_options& grid, const std::vector<sweep_cell>& cells);

/// num / den, or 0 when den == 0.
[[nodiscard]] double ratio(std::uint64_t num, std::uint64_t den);

/// Adds the real metric `name` = v to a merged snapshot (for values
/// derived from the merged totals, which must not be summed per trial).
void set_real(obs::snapshot& snap, std::string name, double v);

} // namespace bluescale::harness
