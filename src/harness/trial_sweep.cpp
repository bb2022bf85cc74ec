#include "harness/trial_sweep.hpp"

#include <utility>

#include "harness/testbench.hpp"
#include "sim/trial_runner.hpp"

namespace bluescale::harness {

trial_record::trial_record(const sweep_options& opts,
                           std::string_view prefix, std::uint32_t index)
    : opts_(opts), prefix_(prefix), index_(index) {}

obs::counter trial_record::counter(std::string_view name) {
    return values_.make_counter({prefix_, name});
}

obs::sample trial_record::sample(std::string_view name) {
    return values_.make_sample({prefix_, name});
}

void trial_record::watch(testbench& tb) {
    if (opts_.profile) tb.sim().enable_profiling(tb.metrics());
}

void trial_record::capture(testbench& tb) {
    if (opts_.collect_metrics) out_.metrics = tb.metrics().take_snapshot();
    if (opts_.collect_trace) {
        out_.trace = tb.trace().export_all();
        traced_ = true;
    }
    if (opts_.profile) {
        out_.profile = tb.metrics().take_snapshot(true).profile_only();
    }
}

sweep_result trial_record::take() && {
    out_.totals = values_.take_snapshot();
    return std::move(out_);
}

sweep_result run_sweep(const sweep_options& opts, std::string_view prefix,
                       const std::function<void(trial_record&)>& trial) {
    sim::trial_runner runner(opts.threads);
    obs::registry sweep_prof;
    if (opts.profile) runner.profile_to(sweep_prof);
    auto per_trial = runner.run(opts.trials, [&](std::uint32_t t) {
        trial_record rec(opts, prefix, t);
        trial(rec);
        const bool traced = rec.traced();
        return std::pair(std::move(rec).take(), traced);
    });

    // The runner returns trials in trial order, so these merges, and the
    // pick of the first traced trial, are bit-identical for any thread
    // count.
    sweep_result out;
    bool traced = false;
    for (auto& [t, t_traced] : per_trial) {
        out.totals.merge(t.totals);
        out.metrics.merge(t.metrics);
        out.profile.merge(t.profile);
        if (t_traced && !traced) {
            out.trace = std::move(t.trace);
            traced = true;
        }
    }
    if (opts.profile) out.profile.merge(sweep_prof.take_snapshot(true));
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
