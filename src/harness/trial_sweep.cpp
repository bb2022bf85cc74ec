#include "harness/trial_sweep.hpp"

#include <limits>
#include <mutex>
#include <optional>
#include <utility>

#include "analysis/parallel_for.hpp"
#include "harness/testbench.hpp"
#include "obs/profile.hpp"

namespace bluescale::harness {

/// The trace_cell's trace, from the lowest-index trial that captured one
/// so far. Its trials share it, so at most one trace per running trial
/// plus this one is alive at a time.
struct kept_trace {
    /// Keeps trial t's trace of tb unless a lower-index trial's is kept;
    /// skips the export when that is already known.
    void offer(std::uint32_t t, testbench& tb) {
        {
            const std::lock_guard<std::mutex> lock(mu);
            if (index < t) return;
        }
        obs::trace_export exported = tb.trace().export_all();
        const std::lock_guard<std::mutex> lock(mu);
        if (index < t) return;
        index = t;
        trace = std::move(exported);
    }

    std::mutex mu;
    std::uint32_t index = std::numeric_limits<std::uint32_t>::max();
    obs::trace_export trace;
};

trial_record::trial_record(const sweep_options& grid, std::size_t cell,
                           std::string_view prefix, std::uint32_t index,
                           kept_trace& kept)
    : grid_(grid), cell_(cell), prefix_(prefix), index_(index), kept_(kept) {}

obs::counter trial_record::counter(std::string_view name) {
    return values_.make_counter({prefix_, name});
}

obs::sample trial_record::sample(std::string_view name) {
    return values_.make_sample({prefix_, name});
}

void trial_record::adopt(testbench& tb, std::string_view component) {
    const bool instanced = component.ends_with('.');
    const std::string_view home = component.substr(0, component.size() - 1);
    const obs::snapshot taken = tb.metrics().take_prefix(component, !instanced);
    for (const auto& [name, v] : taken.entries()) {
        const std::string_view n = name;
        if (v.kind == obs::metric_kind::sample) {
            obs::sample s = values_.make_sample({prefix_, n});
            for (double x : v.samples.samples()) s.add(x);
        } else if (v.kind == obs::metric_kind::counter) {
            values_
                .make_counter(instanced
                                  ? obs::metric_name(prefix_, home,
                                                     n.substr(n.find('/')))
                                  : obs::metric_name(prefix_, n))
                .inc(v.count);
        }
    }
}

void trial_record::watch(testbench& tb) {
    if (grid_.profile) tb.sim().enable_profiling(tb.metrics());
}

void trial_record::capture(testbench& tb) {
    if (grid_.metrics_cell == cell_) {
        out_.metrics = tb.metrics().take_snapshot();
    }
    if (grid_.trace_cell == cell_) kept_.offer(index_, tb);
    if (grid_.profile) {
        out_.profile = tb.metrics().take_snapshot(true).profile_only();
    }
}

sweep_result trial_record::take() && {
    out_.totals = values_.take_snapshot();
    return std::move(out_);
}

std::vector<sweep_result> run_sweep(const sweep_options& grid,
                                    const std::vector<sweep_cell>& cells) {
    const std::uint32_t trials = grid.trials;
    const auto n_cells = static_cast<std::uint32_t>(cells.size());
    kept_trace kept;
    std::vector<sweep_result> out(n_cells);
    // A finished trial waits in its slot (cell-major: c * trials + t)
    // until every lower trial of its cell has merged, so each cell merges
    // in trial order -- bit-identical for any thread count -- and holds
    // only the trials that finished out of order.
    std::mutex merge_mu;
    std::vector<std::optional<sweep_result>> finished(std::size_t{n_cells} *
                                                      trials);
    std::vector<std::uint32_t> merged(n_cells, 0);
    const obs::stopwatch wall;
    analysis::parallel_for(n_cells * trials, grid.threads,
                           [&](std::uint32_t i) {
        const std::uint32_t c = i / trials;
        trial_record rec(grid, c, cells[c].prefix, i % trials, kept);
        cells[c].trial(rec);
        sweep_result one = std::move(rec).take();
        const std::lock_guard<std::mutex> lock(merge_mu);
        finished[i] = std::move(one);
        for (std::uint32_t& t = merged[c];
             t < trials && finished[std::size_t{c} * trials + t]; ++t) {
            std::optional<sweep_result>& next =
                finished[std::size_t{c} * trials + t];
            out[c].totals.merge(next->totals);
            out[c].metrics.merge(next->metrics);
            out[c].profile.merge(next->profile);
            next.reset();
        }
    });
    obs::registry sweep_prof;
    sweep_prof.make_counter("profile/sweep/wall_ns", obs::k_metric_profile)
        .inc(wall.ns());

    for (std::uint32_t c = 0; c < n_cells; ++c) {
        sweep_result& r = out[c];
        if (grid.trace_cell == c) r.trace = std::move(kept.trace);
        if (grid.profile) r.profile.merge(sweep_prof.take_snapshot(true));
        if (cells[c].finish) cells[c].finish(r);
    }
    return out;
}

double ratio(std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
}

void set_real(obs::snapshot& snap, std::string name, double v) {
    obs::registry derived;
    derived.make_real(std::move(name)).set(v);
    snap.merge(derived.take_snapshot());
}

} // namespace bluescale::harness
