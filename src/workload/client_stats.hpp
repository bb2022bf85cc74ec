// Per-client measurement record shared by all client models.
//
// Redesigned as a thin view over obs::registry handles (DESIGN.md
// Sec. 11): the former public mutable fields are gone. Client models
// mutate exclusively through the record_* API -- each call is one or two
// handle increments, no lookup, no allocation -- and every consumer reads
// through the accessors. Until bound, an instance keeps its values in an
// unnamed obs::value_block; bind() re-homes the handles into a registry
// (typically the trial testbench's) so the client's counters appear in
// the unified metrics export under "<prefix>/...". Bind before the trial
// starts recording: binding re-registers fresh zero-valued metrics.
#pragma once

#include <cstdint>
#include <string>

#include "obs/registry.hpp"
#include "stats/summary.hpp"

namespace bluescale::workload {

class client_stats {
public:
    client_stats() { bind(own_, "client"); }
    client_stats(client_stats&&) = default;
    client_stats& operator=(client_stats&&) = default;

    /// Re-registers every metric under `prefix` in `reg` (e.g.
    /// "client.3"). Handles into the unnamed fallback are replaced; call
    /// before recording starts.
    void bind(obs::metric_store& reg, const std::string& prefix) {
        issued_ = reg.make_counter({prefix, "/issued"});
        completed_ = reg.make_counter({prefix, "/completed"});
        missed_ = reg.make_counter({prefix, "/missed"});
        abandoned_ = reg.make_counter({prefix, "/abandoned"});
        missed_beyond_margin_ =
            reg.make_counter({prefix, "/missed_beyond_margin"});
        retries_ = reg.make_counter({prefix, "/retries"});
        timeouts_ = reg.make_counter({prefix, "/timeouts"});
        failed_responses_ = reg.make_counter({prefix, "/failed_responses"});
        retry_exhausted_ = reg.make_counter({prefix, "/retry_exhausted"});
        stale_responses_ = reg.make_counter({prefix, "/stale_responses"});
        shed_cycles_ = reg.make_counter({prefix, "/shed_cycles"});
        shed_deferrals_ = reg.make_counter({prefix, "/shed_deferrals"});
        reconfigurations_ = reg.make_counter({prefix, "/reconfigurations"});
        latency_cycles_ = reg.make_sample({prefix, "/latency_cycles"});
        blocking_cycles_ = reg.make_sample({prefix, "/blocking_cycles"});
    }

    // --- recording API (the only mutation path) -------------------------
    void record_issue() { issued_.inc(); }
    void record_retry() { retries_.inc(); }
    void record_timeout() { timeouts_.inc(); }
    void record_retry_exhausted() { retry_exhausted_.inc(); }
    void record_stale_response() { stale_responses_.inc(); }
    void record_failed_response() { failed_responses_.inc(); }

    /// A usable response arrived: accounts completion, deadline outcome
    /// and the request's latency/blocking samples.
    void record_completion(double latency_cycles, double blocking_cycles,
                           bool missed_deadline, bool beyond_margin) {
        completed_.inc();
        if (missed_deadline) missed_.inc();
        if (beyond_margin) missed_beyond_margin_.inc();
        latency_cycles_.add(latency_cycles);
        blocking_cycles_.add(blocking_cycles);
    }

    /// `n` requests given up past their deadline (failed-and-exhausted,
    /// or unfinished at trial end); `beyond_margin_n` of them were also
    /// past deadline + validation margin. Both count as missed.
    void record_abandoned(std::uint64_t n, std::uint64_t beyond_margin_n) {
        missed_.inc(n);
        abandoned_.inc(n);
        missed_beyond_margin_.inc(beyond_margin_n);
    }

    void record_shed_cycle(bool deferred_work) {
        shed_cycles_.inc();
        if (deferred_work) shed_deferrals_.inc();
    }
    void record_reconfiguration() { reconfigurations_.inc(); }

    // --- accessors ------------------------------------------------------
    /// Requests injected into the interconnect (reissues excluded, so
    /// issued == completed + abandoned for a converged healthy run).
    [[nodiscard]] std::uint64_t issued() const { return issued_.value(); }
    /// Responses received.
    [[nodiscard]] std::uint64_t completed() const {
        return completed_.value();
    }
    /// Requests completed (or abandoned) late.
    [[nodiscard]] std::uint64_t missed() const { return missed_.value(); }
    /// Requests never completed by trial end whose deadline had passed;
    /// also counted in missed().
    [[nodiscard]] std::uint64_t abandoned() const {
        return abandoned_.value();
    }
    /// Requests later than deadline + the client's validation margin
    /// (equal to missed() at the default margin of 0).
    [[nodiscard]] std::uint64_t missed_beyond_margin() const {
        return missed_beyond_margin_.value();
    }
    /// Reissues injected after a timeout expiry or a failed response.
    [[nodiscard]] std::uint64_t retries() const { return retries_.value(); }
    /// Response-timeout expiries observed.
    [[nodiscard]] std::uint64_t timeouts() const {
        return timeouts_.value();
    }
    /// Responses that arrived flagged failed (uncorrected DRAM errors).
    [[nodiscard]] std::uint64_t failed_responses() const {
        return failed_responses_.value();
    }
    /// Requests given up after max_retries attempts (also abandoned()).
    [[nodiscard]] std::uint64_t retry_exhausted() const {
        return retry_exhausted_.value();
    }
    /// Late responses for attempts already superseded by a reissue.
    [[nodiscard]] std::uint64_t stale_responses() const {
        return stale_responses_.value();
    }
    /// Cycles spent throttled by the watchdog's overload shedding.
    [[nodiscard]] std::uint64_t shed_cycles() const {
        return shed_cycles_.value();
    }
    /// Shed cycles with released-but-unissued work pending.
    [[nodiscard]] std::uint64_t shed_deferrals() const {
        return shed_deferrals_.value();
    }
    /// Live task-set swaps applied at reconfiguration commits.
    [[nodiscard]] std::uint64_t reconfigurations() const {
        return reconfigurations_.value();
    }

    /// issue -> response, per completed request.
    [[nodiscard]] const stats::sample_set& latency_cycles() const {
        return latency_cycles_.values();
    }
    /// Priority-inversion wait, per completed request.
    [[nodiscard]] const stats::sample_set& blocking_cycles() const {
        return blocking_cycles_.values();
    }

    [[nodiscard]] double miss_ratio() const {
        const std::uint64_t accounted = completed() + abandoned();
        return accounted == 0
                   ? 0.0
                   : static_cast<double>(missed()) /
                         static_cast<double>(accounted);
    }

private:
    /// Metrics bind() registers (own_'s capacity), and how many of them
    /// are sample metrics.
    static constexpr std::size_t k_metric_count = 15;
    static constexpr std::size_t k_sample_count = 2;
    /// Unnamed storage for unbound instances (unit tests, standalone
    /// clients); moving it keeps slot addresses -- and handles -- valid.
    obs::value_block own_{k_metric_count, k_sample_count};
    obs::counter issued_;
    obs::counter completed_;
    obs::counter missed_;
    obs::counter abandoned_;
    obs::counter missed_beyond_margin_;
    obs::counter retries_;
    obs::counter timeouts_;
    obs::counter failed_responses_;
    obs::counter retry_exhausted_;
    obs::counter stale_responses_;
    obs::counter shed_cycles_;
    obs::counter shed_deferrals_;
    obs::counter reconfigurations_;
    obs::sample latency_cycles_;
    obs::sample blocking_cycles_;
};

} // namespace bluescale::workload
