// Bank/row-aware DRAM timing model.
//
// The paper's platform has a 4 GB DRAM module behind a memory controller.
// This model captures the first-order timing behaviour that matters for
// interconnect evaluation: open-row hits are fast, row misses pay
// precharge + activate, and banks keep independent row state.
#pragma once

#include <cstdint>
#include <vector>

#include "mem/request.hpp"
#include "sim/types.hpp"

namespace bluescale {

/// Device geometry and access timing, in interconnect cycles: a DDR3
/// part behind a clock-domain crossing, quantized to the interconnect
/// clock.
inline constexpr std::uint32_t k_dram_banks = 8;
inline constexpr std::uint64_t k_row_bytes = 2048; ///< row buffer per bank
/// Bank-interleave granularity: consecutive chunks of this many bytes
/// rotate across banks (cache-line interleaving, so sequential streams
/// exploit bank-level parallelism while staying in the same row per
/// bank).
inline constexpr std::uint64_t k_bank_interleave_bytes = 64;
inline constexpr std::uint32_t k_t_cas = 5;      ///< column access (row hit)
inline constexpr std::uint32_t k_t_rcd = 5;      ///< activate-to-access
inline constexpr std::uint32_t k_t_rp = 5;       ///< precharge
inline constexpr std::uint32_t k_t_burst = 3;    ///< data transfer
inline constexpr std::uint32_t k_t_wr_extra = 2; ///< write recovery surcharge

/// Refresh timing, in interconnect cycles: every t_refi cycles the device
/// is unavailable for t_rfc cycles and all rows close (a classic
/// real-time disturbance; 0 disables refresh -- the default, so
/// experiments opt in).
struct dram_timing {
    std::uint32_t t_refi = 0;
    std::uint32_t t_rfc = 0;
};

/// Row-state classification of an access.
enum class row_outcome : std::uint8_t {
    hit,     ///< target row already open
    closed,  ///< bank idle: activate then access
    conflict ///< different row open: precharge, activate, access
};

class dram_model {
public:
    explicit dram_model(dram_timing timing = {});

    /// Bank index the address maps to (row-interleaved mapping).
    [[nodiscard]] std::uint32_t bank_of(std::uint64_t addr) const;

    /// Row index within a bank.
    [[nodiscard]] std::uint64_t row_of(std::uint64_t addr) const;

    /// What a request would hit right now, without changing state.
    [[nodiscard]] row_outcome classify(const mem_request& r) const;

    /// Latency the access would incur right now, without changing state.
    [[nodiscard]] std::uint32_t access_latency(const mem_request& r) const;

    /// Performs the access: updates the bank's open row and returns the
    /// service latency in cycles.
    std::uint32_t access(const mem_request& r);

    /// Closes one bank's row as a maintenance effect (refresh, scrub,
    /// RowHammer mitigation). Unlike a demand-driven close, the first
    /// access to the bank afterwards pays the full conflict path: the
    /// maintenance op itself issued the precharge/activate that evicted
    /// the row, so the precharge is charged to the evicted access, not
    /// amortized away as a "closed" activate.
    void close_row(std::uint32_t bank);

    /// Closes all rows (refresh effect) without clearing counters. Each
    /// bank carries the close_row() first-access conflict penalty.
    void close_all_rows();

    [[nodiscard]] const dram_timing& timing() const { return timing_; }

    // Counters for tests/reporting.
    [[nodiscard]] std::uint64_t hits() const { return hits_; }
    [[nodiscard]] std::uint64_t misses() const { return misses_; }

private:
    [[nodiscard]] std::uint32_t latency_for(row_outcome outcome,
                                            mem_op op) const;

    dram_timing timing_;
    std::vector<std::int64_t> open_row_; ///< -1 == closed
    /// Bank was closed by maintenance and not yet re-accessed: the next
    /// access pays conflict-path latency (see close_row()).
    std::vector<std::uint8_t> refresh_penalty_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace bluescale
