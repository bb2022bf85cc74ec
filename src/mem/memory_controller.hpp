// Memory controller: queues transactions from the interconnect root and
// services them against the DRAM model with bank-level parallelism.
//
// The controller starts at most one transaction every
// `initiation_interval` cycles (the command/data-bus slot -- one paper
// "time unit"); each started transaction occupies its bank for the
// DRAM-model latency and completes independently, so throughput is
// 1/initiation_interval while per-request latency is row-state dependent.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "mem/dram_model.hpp"
#include "mem/maintenance_engine.hpp"
#include "mem/request.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/component.hpp"
#include "sim/fault.hpp"
#include "sim/latched_queue.hpp"

namespace bluescale {

/// Transaction scheduling policy inside the controller.
enum class memctrl_policy : std::uint8_t {
    fcfs,    ///< strictly oldest-first
    fr_fcfs, ///< first-ready (open-row hit on a free bank) first
};

/// Request and response queue depths.
inline constexpr std::size_t k_request_queue_depth = 16;
inline constexpr std::size_t k_response_queue_depth = 16;
/// FR-FCFS starvation guard: after the queue head has been bypassed by
/// this many younger requests, it must be served next.
inline constexpr std::uint32_t k_fr_fcfs_bypass_cap = 16;

struct memctrl_config {
    memctrl_policy policy = memctrl_policy::fr_fcfs;
    /// Cycles between transaction starts (one analysis time unit).
    std::uint32_t initiation_interval = 4;
    dram_timing timing = {};
    /// Scrub / RowHammer maintenance (refresh cadence lives in `timing`).
    maintenance_config maintenance = {};
};

class memory_controller : public component {
public:
    explicit memory_controller(memctrl_config cfg = {});

    // --- request side (interconnect root pushes here) -------------------
    /// False while the request queue is full or an injected backpressure
    /// storm has the controller refusing new work.
    [[nodiscard]] bool can_accept() const {
        return !storm_active_ && in_q_.can_push();
    }
    void push(mem_request r) { in_q_.push(std::move(r)); }

    // --- response side (interconnect root drains these) -----------------
    [[nodiscard]] bool has_response() const { return !out_q_.empty(); }
    mem_request pop_response() { return out_q_.pop(); }
    /// Fires whenever a completed transaction enters the response queue,
    /// so a fabric sleeping on an empty response path is re-armed for the
    /// cycle the response becomes visible (attach_memory wires this).
    void set_response_wake(sim::wake_hook h) {
        out_q_.set_wake_hook(std::move(h));
    }

    void tick(cycle_t now) override;
    void commit() override;

    /// Event-engine horizon: per-cycle while requests are queued/staged
    /// or a storm is open; otherwise the earliest of the in-flight
    /// completions, the next fault-storm window and the next maintenance
    /// boundary. Maintenance boundaries force wakes even when idle so the
    /// engine's closed-form catch-up keeps the maintenance counters
    /// bit-identical to lockstep at any snapshot instant.
    [[nodiscard]] cycle_t next_event(cycle_t now) const override;

    /// Re-homes the service counters into `reg` under "mem/..." and
    /// attaches the trace stream; call before the trial starts.
    void bind_observability(obs::metric_store& reg, obs::tracer tracer);

    /// Consumes the campaign kinds owned by the memory side: dram_error
    /// windows corrupt completing transactions (one transparent ECC-style
    /// retry, then a failed response), backpressure_storm windows make
    /// can_accept() refuse new work, and maintenance_storm windows block
    /// every DRAM bank (excess scrubbing/mitigation).
    void inject_campaign(const sim::fault_campaign& campaign);

    [[nodiscard]] const dram_model& dram() const { return dram_; }
    [[nodiscard]] const maintenance_engine& maintenance() const {
        return maint_;
    }
    [[nodiscard]] const memctrl_config& config() const { return cfg_; }
    [[nodiscard]] std::uint64_t serviced() const { return serviced_.value(); }
    /// Transactions transparently re-serviced after a transient error.
    [[nodiscard]] std::uint64_t ecc_retries() const {
        return ecc_retries_.value();
    }
    /// Responses delivered with mem_request::failed set (retry also hit
    /// an error window; the client must recover).
    [[nodiscard]] std::uint64_t uncorrected_errors() const {
        return uncorrected_errors_.value();
    }
    /// Cycles spent refusing work inside backpressure storms.
    [[nodiscard]] std::uint64_t storm_cycles() const {
        return storm_cycles_.value();
    }
    /// True when no transaction is queued or in flight.
    [[nodiscard]] bool idle() const {
        return in_flight_.empty() && in_q_.empty();
    }

private:
    /// Index into in_q_ of the transaction to start next; -1 when none is
    /// ready (e.g. the head's bank is still busy).
    [[nodiscard]] int choose(cycle_t now) const;
    /// Younger-request grants since the current head became head.
    std::uint32_t head_bypasses_ = 0;
    [[nodiscard]] bool bank_free(const mem_request& r, cycle_t now) const;

    struct completion {
        cycle_t done;
        std::uint64_t seq;
        mem_request req;
        bool ecc_retried = false; ///< one transparent retry already spent
    };
    struct later_done {
        bool operator()(const completion& a, const completion& b) const {
            return a.done != b.done ? a.done > b.done : a.seq > b.seq;
        }
    };

    memctrl_config cfg_;
    dram_model dram_;
    maintenance_engine maint_;
    latched_queue<mem_request> in_q_;
    latched_queue<mem_request> out_q_;
    std::priority_queue<completion, std::vector<completion>, later_done>
        in_flight_;
    std::vector<cycle_t> bank_busy_until_;
    sim::fault_window error_faults_;
    sim::fault_window storm_faults_;
    bool storm_active_ = false;
    cycle_t next_start_ = 0;
    /// Metrics bind_observability registers (own_'s capacity).
    static constexpr std::size_t k_metric_count =
        4 + maintenance_engine::k_metric_count;
    /// Unnamed storage while unbound (bind_observability re-homes the
    /// handles).
    obs::value_block own_{k_metric_count};
    obs::counter serviced_;
    obs::counter ecc_retries_;
    obs::counter uncorrected_errors_;
    obs::counter storm_cycles_;
    obs::tracer trace_;
    std::uint64_t completion_seq_ = 0;
};

} // namespace bluescale
