// Memory transaction types that flow through every interconnect.
#pragma once

#include <cstddef>
#include <cstdint>

#include "obs/hop_stamps.hpp"
#include "sim/latched_queue.hpp"
#include "sim/types.hpp"

namespace bluescale {

/// Read/write direction of a transaction.
enum class mem_op : std::uint8_t { read, write };

/// One memory transaction. The same object travels up the request path,
/// through the memory controller, and back down the response path; timing
/// fields are filled in as it goes so the client can account latency and
/// deadline misses when the response arrives. Fields are ordered widest
/// first so the struct packs without padding holes (136 B; every buffer
/// slot and response queue entry holds one).
struct mem_request {
    request_id_t id = 0;
    std::uint64_t addr = 0;

    /// Cycle the client issued the request. Retried transactions keep
    /// the first attempt's issue cycle, so total_latency() measures the
    /// true issue -> usable-response time across recovery.
    cycle_t issue_cycle = 0;

    /// Task-level absolute deadline (release + period under implicit
    /// deadlines). Used for deadline-miss accounting and for EDF ordering
    /// at the leaf level.
    cycle_t abs_deadline = k_cycle_never;

    /// Deadline used for arbitration at the *current* tree level. At the
    /// leaves it equals abs_deadline; each BlueScale SE that forwards the
    /// request re-stamps it with the forwarding server job's deadline,
    /// realizing the paper's iterative compositional scheduling.
    cycle_t level_deadline = k_cycle_never;

    // --- measurement fields -------------------------------------------
    /// Cycles spent waiting at any arbitration point while a request with a
    /// *later* deadline was being granted (priority inversion; the paper's
    /// "blocking latency", Sec. 6.3).
    cycle_t blocked_cycles = 0;
    /// Cycle this request arrived at its current hop (re-stamped by each
    /// forwarding element; drives per-level latency breakdowns).
    cycle_t hop_arrival = 0;
    cycle_t mem_start = 0;      ///< cycle the memory controller began service
    cycle_t mem_done = 0;       ///< cycle the memory controller finished
    cycle_t complete_cycle = 0; ///< cycle the response reached the client

    /// Fabric-internal attribution stamps (RAB admit, per-level server
    /// grants); cleared on reissue so a retried transaction attributes
    /// its final attempt.
    obs::hop_stamps hops;

    client_id_t client = 0;  ///< issuing system-wide client (mu.x)
    std::uint32_t job = 0;   ///< job sequence number of the issuing task
    task_id_t task = 0;      ///< issuing task within the client
    mem_op op = mem_op::read;

    /// Reissue ordinal under retry recovery: 0 for the first attempt,
    /// k for the k-th reissue (saturates at 255).
    std::uint8_t attempt = 0;

    /// Set by the memory controller when a DRAM transient error survived
    /// the ECC-style retry: the payload is invalid and the client must
    /// reissue (or abandon) the transaction.
    bool failed = false;

    [[nodiscard]] cycle_t total_latency() const {
        return complete_cycle - issue_cycle;
    }

    [[nodiscard]] bool met_deadline() const {
        return complete_cycle <= abs_deadline;
    }
};

/// Charges `cycles` of priority-inversion blocking to every visible
/// request in `q` whose level deadline is earlier than the granted
/// request's (the paper's blocking-latency metric, Sec. 6.3). Every
/// arbiter that grants past a queue calls this with the cycles the grant
/// holds its slot for.
inline void charge_blocked(latched_queue<mem_request>& q,
                           cycle_t granted_deadline, cycle_t cycles) {
    for (std::size_t i = 0; i < q.size(); ++i) {
        mem_request& waiting = q.at(i);
        if (waiting.level_deadline < granted_deadline) {
            waiting.blocked_cycles += cycles;
        }
    }
}

} // namespace bluescale
