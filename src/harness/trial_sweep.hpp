// One trial sweep for every experiment driver.
//
// An experiment runs N independent trials and reports what they
// measured. Each trial records its experiment-level values (counters and
// per-trial samples, under the experiment's name prefix) into a private
// obs::registry through its trial_record, and optionally captures its
// testbench's registry snapshot, event trace and wall-clock profile.
// run_sweep fans the trials out over a sim::trial_runner and merges the
// per-trial snapshots in trial order (counters sum, samples append; see
// obs::snapshot::merge), so the sweep_result is byte-identical for any
// --threads setting. Consumers read values by name: obs::metric_cells
// for CSV cells, obs::snapshot::get for everything else.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace bluescale::harness {

class testbench;

/// The sweep settings every experiment config embeds.
struct sweep_options {
    std::uint32_t trials = 20;
    /// Trial t runs at seed + t.
    std::uint64_t seed = 1;
    /// Worker threads for the trial sweep (0 = all hardware threads).
    /// Results are bit-identical for any setting; see sim::trial_runner.
    unsigned threads = 1;
    /// Snapshot each trial's testbench registry and merge them, in trial
    /// order, into sweep_result::metrics (--metrics).
    bool collect_metrics = false;
    /// Export the event trace of the lowest-index trial that captured
    /// into sweep_result::trace (--trace). Empty when the build has
    /// BLUESCALE_TRACE=OFF.
    bool collect_trace = false;
    /// Wall-clock profiling (simulator per-component tick cost and
    /// trial-sweep throughput) into sweep_result::profile (--profile).
    /// Profile metrics are nondeterministic and never leak into metrics.
    bool profile = false;
};

/// What a sweep returns.
struct sweep_result {
    /// The trials' experiment-level values ("<prefix><name>"), merged in
    /// trial order, plus any derived reals the experiment sets after the
    /// merge (set_real). Always populated.
    obs::snapshot totals;
    /// Per-trial testbench registry snapshots merged in trial order, when
    /// collect_metrics.
    obs::snapshot metrics;
    /// The lowest-index capturing trial's event trace, when
    /// collect_trace.
    obs::trace_export trace;
    /// k_metric_profile entries (per-trial simulator costs summed in
    /// trial order, plus the sweep totals), when profile.
    obs::snapshot profile;
};

/// One trial's sink. Single-threaded: each trial owns its record.
class trial_record {
public:
    trial_record(const sweep_options& opts, std::string_view prefix,
                 std::uint32_t index);

    [[nodiscard]] std::uint32_t index() const { return index_; }
    /// A pure function of the sweep seed and the trial index, so every
    /// design and thread count sees the same trial.
    [[nodiscard]] std::uint64_t seed() const { return opts_.seed + index_; }

    /// Handles to the experiment metrics "<prefix><name>". Obtaining one
    /// registers the metric, so a value a trial never adds to still
    /// exports (as zero / an empty sample set).
    [[nodiscard]] obs::counter counter(std::string_view name);
    [[nodiscard]] obs::sample sample(std::string_view name);

    /// Before the run: turns on tb's simulator profiling when the sweep
    /// profiles.
    void watch(testbench& tb);
    /// Keeps tb's registry snapshot, trace and profile, as the sweep
    /// options ask. Call it at the point the export should reflect.
    void capture(testbench& tb);

    /// Whether capture() kept a trace (run_sweep only).
    [[nodiscard]] bool traced() const { return traced_; }
    /// The trial's contribution to the sweep (run_sweep only).
    [[nodiscard]] sweep_result take() &&;

private:
    const sweep_options& opts_;
    std::string prefix_;
    std::uint32_t index_;
    obs::registry values_;
    sweep_result out_;
    bool traced_ = false;
};

/// Runs opts.trials trials of `trial` and merges them in trial order.
/// Experiment metrics are named "<prefix><name>".
[[nodiscard]] sweep_result
run_sweep(const sweep_options& opts, std::string_view prefix,
          const std::function<void(trial_record&)>& trial);

/// num / den, or 0 when den == 0.
[[nodiscard]] double ratio(std::uint64_t num, std::uint64_t den);

/// Adds the real metric `name` = v to a merged snapshot (for values
/// derived from the merged totals, which must not be summed per trial).
void set_real(obs::snapshot& snap, std::string name, double v);

} // namespace bluescale::harness
