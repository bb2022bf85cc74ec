#include "harness/traffic_trial.hpp"

#include <utility>

#include "analysis/quadtree.hpp"

namespace bluescale::harness {

namespace {

testbench_options
with_demand(testbench_options opts, const traffic_scenario& s,
            const std::vector<workload::memory_task_set>& tasksets,
            const std::vector<analysis::task_set>& rt_sets) {
    opts.memctrl = s.memctrl;
    opts.n_clients = static_cast<std::uint32_t>(tasksets.size());
    opts.client_utilizations.clear();
    opts.client_utilizations.reserve(tasksets.size());
    for (const auto& ts : tasksets) {
        opts.client_utilizations.push_back(workload::utilization(ts));
    }
    opts.rt_sets = &rt_sets;
    return opts;
}

/// The concrete task set one scheduled event asks for, derived purely
/// from (trial seed, event index): every design, engine and thread count
/// resolves the same request to the same demand.
workload::memory_task_set
derive_event_taskset(const sim::reconfig_event& ev, double current_util,
                     std::uint64_t trial_seed, std::size_t event_index,
                     const workload::taskset_params& tmpl) {
    double target = 0.0;
    switch (ev.action) {
    case sim::reconfig_action::scale_up:
    case sim::reconfig_action::scale_down:
        target = current_util * ev.magnitude;
        break;
    case sim::reconfig_action::join:
        target = ev.magnitude;
        break;
    case sim::reconfig_action::leave: break;
    }
    if (target <= 0.0) return {};
    rng er(substream(trial_seed, 0xEC0Full + event_index));
    workload::taskset_params p = tmpl;
    p.total_utilization = target;
    return workload::make_taskset(er, p);
}

std::vector<workload::memory_task_set>
scenario_tasksets(const traffic_scenario& s, std::uint64_t trial_seed) {
    rng gen(trial_seed);
    return draw_tasksets(s, gen, s.n_clients);
}

} // namespace

std::vector<workload::memory_task_set>
draw_tasksets(const traffic_scenario& s, rng& gen, std::uint32_t n) {
    return workload::make_client_tasksets(gen, n, s.util_lo, s.util_hi,
                                          s.taskset);
}

std::vector<analysis::task_set>
rt_view(const std::vector<workload::memory_task_set>& tasksets) {
    std::vector<analysis::task_set> out;
    out.reserve(tasksets.size());
    for (const auto& ts : tasksets) out.push_back(workload::to_rt_tasks(ts));
    return out;
}

traffic_trial::traffic_trial(trial_record& rec, ic_kind kind,
                             const traffic_scenario& s,
                             testbench_options opts)
    : trial_seed_(rec.seed()),
      tasksets_(scenario_tasksets(s, rec.seed())),
      rt_sets_(rt_view(tasksets_)),
      tb_(kind, with_demand(std::move(opts), s, tasksets_, rt_sets_)) {
    rec.watch(tb_);
}

void traffic_trial::add_clients(
    workload::traffic_gen_config tg,
    const std::function<std::uint64_t(std::uint32_t)>& seed_of,
    const std::function<void(const mem_request&)>& tap) {
    tg.unit_cycles = tb_.unit_cycles();
    clients_.reserve(n_clients());
    for (std::uint32_t c = 0; c < n_clients(); ++c) {
        const std::uint64_t seed =
            seed_of ? seed_of(c) : substream(trial_seed_, c);
        clients_.push_back(std::make_unique<workload::traffic_generator>(
            c, tasksets_[c], tb_.ic(), seed, tg));
        auto* client = clients_.back().get();
        client->bind_observability(tb_.metrics());
        tb_.add_client(c, *client, [client, tap](mem_request&& r) {
            if (tap) tap(r);
            client->on_response(std::move(r));
        });
    }
}

void traffic_trial::track_clients(std::uint32_t best_effort) {
    auto* wd = tb_.watchdog();
    if (wd == nullptr) return;
    for (std::uint32_t c = 0; c < n_clients(); ++c) {
        auto* client = clients_[c].get();
        wd->track_client(
            c,
            is_best_effort(c, best_effort) ? core::client_class::best_effort
                                           : core::client_class::hard,
            [client] { return client->stats().missed(); },
            [client](bool on) { client->set_shed(on); });
    }
}

class_misses traffic_trial::finalize(std::uint32_t best_effort) {
    class_misses out;
    for (std::uint32_t c = 0; c < n_clients(); ++c) {
        clients_[c]->finalize(tb_.now());
        const auto& s = clients_[c]->stats();
        const std::uint64_t accounted = s.completed() + s.abandoned();
        if (is_best_effort(c, best_effort)) {
            out.best_effort += s.missed();
            out.best_effort_accounted += accounted;
        } else {
            out.hard += s.missed();
            out.hard_accounted += accounted;
        }
    }
    return out;
}

std::uint64_t traffic_trial::missed() const {
    std::uint64_t m = 0;
    for (const auto& c : clients_) m += c->stats().missed();
    return m;
}

void traffic_trial::run_schedule(
    sim::reconfig_schedule_config sc, cycle_t horizon,
    const workload::taskset_params& tmpl,
    const std::function<void(const sim::reconfig_event&,
                             workload::memory_task_set)>& submit) {
    sc.seed = substream(trial_seed_, 0x5EC0ull);
    sc.horizon = horizon;
    sc.n_clients = n_clients();
    const sim::reconfig_schedule schedule(sc);
    for (std::size_t i = 0; i < schedule.events().size(); ++i) {
        const sim::reconfig_event& ev = schedule.events()[i];
        if (ev.at >= horizon) break;
        if (ev.at > tb_.now()) tb_.run(ev.at - tb_.now());
        submit(ev, derive_event_taskset(
                       ev, workload::utilization(clients_[ev.client]->tasks()),
                       trial_seed_, i, tmpl));
    }
    if (tb_.now() < horizon) tb_.run(horizon - tb_.now());
}

sim::fault_campaign_config fabric_campaign(std::uint64_t trial_seed,
                                           std::uint32_t n_clients,
                                           cycle_t horizon,
                                           double events_per_kcycle) {
    sim::fault_campaign_config fc;
    fc.seed = substream(trial_seed, 0xFA171ull);
    fc.horizon = horizon;
    fc.events_per_kcycle = events_per_kcycle;
    fc.n_elements = analysis::make_quadtree_shape(n_clients).total_ses();
    return fc;
}

} // namespace bluescale::harness
