#include "mem/dram_model.hpp"

namespace bluescale {

dram_model::dram_model(dram_timing timing)
    : timing_(timing), open_row_(k_dram_banks, -1),
      refresh_penalty_(k_dram_banks, 0) {}

std::uint32_t dram_model::bank_of(std::uint64_t addr) const {
    return static_cast<std::uint32_t>((addr / k_bank_interleave_bytes) %
                                      k_dram_banks);
}

std::uint64_t dram_model::row_of(std::uint64_t addr) const {
    return addr / (k_row_bytes * k_dram_banks);
}

row_outcome dram_model::classify(const mem_request& r) const {
    const auto bank = bank_of(r.addr);
    const auto row = static_cast<std::int64_t>(row_of(r.addr));
    if (open_row_[bank] == row) return row_outcome::hit;
    if (open_row_[bank] < 0) {
        // A maintenance close charges the precharge it issued to the
        // first access that finds the bank emptied: conflict, not closed.
        return refresh_penalty_[bank] != 0 ? row_outcome::conflict
                                           : row_outcome::closed;
    }
    return row_outcome::conflict;
}

std::uint32_t dram_model::latency_for(row_outcome outcome, mem_op op) const {
    std::uint32_t lat = k_t_cas + k_t_burst;
    switch (outcome) {
    case row_outcome::hit:
        break;
    case row_outcome::closed:
        lat += k_t_rcd;
        break;
    case row_outcome::conflict:
        lat += k_t_rp + k_t_rcd;
        break;
    }
    if (op == mem_op::write) lat += k_t_wr_extra;
    return lat;
}

std::uint32_t dram_model::access_latency(const mem_request& r) const {
    return latency_for(classify(r), r.op);
}

std::uint32_t dram_model::access(const mem_request& r) {
    const row_outcome outcome = classify(r);
    if (outcome == row_outcome::hit) {
        ++hits_;
    } else {
        ++misses_;
    }
    const auto bank = bank_of(r.addr);
    open_row_[bank] = static_cast<std::int64_t>(row_of(r.addr));
    refresh_penalty_[bank] = 0;
    return latency_for(outcome, r.op);
}

void dram_model::close_row(std::uint32_t bank) {
    open_row_[bank] = -1;
    refresh_penalty_[bank] = 1;
}

void dram_model::close_all_rows() {
    for (std::uint32_t b = 0; b < k_dram_banks; ++b) close_row(b);
}

} // namespace bluescale
