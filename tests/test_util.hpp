// Shared test helpers.
#pragma once

#include <deque>
#include <utility>

#include <gtest/gtest.h>

#include "harness/trial_sweep.hpp"
#include "interconnect/interconnect.hpp"
#include "obs/registry.hpp"

namespace bluescale::testing {

/// Minimal interconnect: unbounded acceptance, completes every request a
/// fixed number of cycles after injection, no memory behind it. Lets
/// client models be tested in isolation.
class loopback_interconnect : public interconnect {
public:
    explicit loopback_interconnect(std::uint32_t n_clients,
                                   cycle_t latency = 10)
        : interconnect("loopback", n_clients), latency_(latency) {}

    [[nodiscard]] bool client_can_accept(client_id_t) const override {
        return accepting_;
    }

    void client_push(client_id_t, mem_request r) override {
        note_injected();
        if (drop_remaining_ > 0) {
            // A lost request: injected but never answered (models a link
            // eating it; exercises client timeout recovery).
            --drop_remaining_;
            note_dropped();
            return;
        }
        if (fail_remaining_ > 0) {
            --fail_remaining_;
            r.failed = true;
        }
        pending_.push_back({now_ + latency_, std::move(r)});
    }

    [[nodiscard]] std::uint32_t depth_of(client_id_t) const override {
        return 1;
    }

    void tick(cycle_t now) override {
        now_ = now;
        while (!pending_.empty() && pending_.front().first <= now) {
            mem_request r = std::move(pending_.front().second);
            pending_.pop_front();
            r.complete_cycle = now;
            deliver_response_now(std::move(r));
        }
    }

    /// Toggles acceptance to test client backpressure handling.
    void set_accepting(bool accepting) { accepting_ = accepting; }

    /// The next `n` pushed requests are silently eaten (never answered).
    void drop_next(std::uint32_t n) { drop_remaining_ = n; }
    /// The next `n` pushed requests complete with `failed = true`
    /// (uncorrected-error responses).
    void fail_next(std::uint32_t n) { fail_remaining_ = n; }

    [[nodiscard]] std::size_t pending() const { return pending_.size(); }

private:
    cycle_t latency_;
    cycle_t now_ = 0;
    bool accepting_ = true;
    std::uint32_t drop_remaining_ = 0;
    std::uint32_t fail_remaining_ = 0;
    std::deque<std::pair<cycle_t, mem_request>> pending_;
};

/// Bitwise equality of two snapshots: names, kinds, values and sample
/// sequences (a CSV diff would hide drift below its six decimals).
inline ::testing::AssertionResult same_snapshot(const obs::snapshot& a,
                                                const obs::snapshot& b) {
    if (a.entries().size() != b.entries().size()) {
        return ::testing::AssertionFailure()
               << a.entries().size() << " vs " << b.entries().size()
               << " metrics";
    }
    for (std::size_t i = 0; i < a.entries().size(); ++i) {
        const auto& [name, x] = a.entries()[i];
        const auto& y = b.entries()[i].second;
        if (name != b.entries()[i].first || x.kind != y.kind ||
            x.count != y.count || x.level != y.level ||
            x.value != y.value ||
            x.samples.samples() != y.samples.samples()) {
            return ::testing::AssertionFailure() << "metric " << name;
        }
    }
    return ::testing::AssertionSuccess();
}

/// Runs `cell` as a grid of its own.
inline harness::sweep_result run_cell(const harness::sweep_options& grid,
                                      harness::sweep_cell cell) {
    return std::move(harness::run_sweep(grid, {std::move(cell)}).front());
}

} // namespace bluescale::testing
