#include <gtest/gtest.h>

#include "mem/dram_model.hpp"

namespace bluescale {
namespace {

constexpr std::uint64_t row_span = k_row_bytes * k_dram_banks;

mem_request read_at(std::uint64_t addr) {
    mem_request r;
    r.addr = addr;
    r.op = mem_op::read;
    return r;
}

mem_request write_at(std::uint64_t addr) {
    mem_request r;
    r.addr = addr;
    r.op = mem_op::write;
    return r;
}

TEST(dram_model, banks_interleave_at_line_granularity) {
    static_assert(k_dram_banks == 8 && k_bank_interleave_bytes == 64);
    dram_model d;
    for (std::uint64_t line = 0; line < 16; ++line) {
        EXPECT_EQ(d.bank_of(line * 64), line % 8);
    }
}

TEST(dram_model, rows_span_all_banks) {
    dram_model d;
    EXPECT_EQ(d.row_of(0), 0u);
    EXPECT_EQ(d.row_of(row_span - 1), 0u);
    EXPECT_EQ(d.row_of(row_span), 1u);
}

TEST(dram_model, first_access_is_closed_bank) {
    dram_model d;
    EXPECT_EQ(d.classify(read_at(0)), row_outcome::closed);
}

TEST(dram_model, second_access_same_row_hits) {
    dram_model d;
    d.access(read_at(0));
    EXPECT_EQ(d.classify(read_at(0)), row_outcome::hit);
}

TEST(dram_model, different_row_same_bank_conflicts) {
    dram_model d;
    d.access(read_at(0));
    EXPECT_EQ(d.classify(read_at(row_span)), row_outcome::conflict);
}

TEST(dram_model, sequential_lines_hit_after_warmup) {
    // Line-interleaved mapping: sequential lines rotate across banks but
    // stay in the same row per bank -> all hits after one pass.
    dram_model d;
    for (std::uint64_t line = 0; line < k_dram_banks; ++line) {
        d.access(read_at(line * 64));
    }
    for (std::uint64_t line = k_dram_banks; line < 4 * k_dram_banks; ++line) {
        EXPECT_EQ(d.classify(read_at(line * 64)), row_outcome::hit);
        d.access(read_at(line * 64));
    }
}

TEST(dram_model, latency_ordering_hit_closed_conflict) {
    dram_model d;
    const auto closed_lat = d.access_latency(read_at(0));
    d.access(read_at(0));
    const auto hit_lat = d.access_latency(read_at(0));
    const auto conflict_lat = d.access_latency(read_at(row_span));
    EXPECT_LT(hit_lat, closed_lat);
    EXPECT_LT(closed_lat, conflict_lat);
}

TEST(dram_model, latency_values_match_timing) {
    dram_model d;
    EXPECT_EQ(d.access_latency(read_at(0)),
              k_t_cas + k_t_burst + k_t_rcd); // closed
    d.access(read_at(0));
    EXPECT_EQ(d.access_latency(read_at(0)), k_t_cas + k_t_burst); // hit
    EXPECT_EQ(d.access_latency(read_at(row_span)),
              k_t_cas + k_t_burst + k_t_rp + k_t_rcd); // conflict
}

TEST(dram_model, writes_pay_recovery_surcharge) {
    dram_model d;
    EXPECT_EQ(d.access_latency(write_at(0)) - d.access_latency(read_at(0)),
              k_t_wr_extra);
}

TEST(dram_model, access_updates_open_row) {
    dram_model d;
    d.access(read_at(0));
    d.access(read_at(row_span)); // conflict, replaces open row
    EXPECT_EQ(d.classify(read_at(row_span)), row_outcome::hit);
    EXPECT_EQ(d.classify(read_at(0)), row_outcome::conflict);
}

TEST(dram_model, hit_miss_counters) {
    dram_model d;
    d.access(read_at(0)); // miss (closed)
    d.access(read_at(0)); // hit
    d.access(read_at(0)); // hit
    EXPECT_EQ(d.hits(), 2u);
    EXPECT_EQ(d.misses(), 1u);
}

TEST(dram_model, independent_bank_state) {
    dram_model d;
    d.access(read_at(0));   // bank 0
    d.access(read_at(64));  // bank 1
    EXPECT_EQ(d.classify(read_at(0)), row_outcome::hit);
    EXPECT_EQ(d.classify(read_at(64)), row_outcome::hit);
}

TEST(dram_model, refresh_close_charges_conflict_on_next_access) {
    // hit -> refresh -> miss: the refresh issued the precharge that
    // evicted the row, so the first post-refresh access pays the full
    // conflict path, not the cheaper idle-bank activate.
    dram_model d;
    d.access(read_at(0));
    EXPECT_EQ(d.classify(read_at(0)), row_outcome::hit);
    d.close_row(d.bank_of(0));
    EXPECT_EQ(d.classify(read_at(0)), row_outcome::conflict);
    EXPECT_EQ(d.access_latency(read_at(0)),
              k_t_cas + k_t_burst + k_t_rp + k_t_rcd);
    d.access(read_at(0));
    // The penalty is one-shot: the reopened row hits again.
    EXPECT_EQ(d.classify(read_at(0)), row_outcome::hit);
}

TEST(dram_model, close_all_rows_penalizes_every_bank) {
    dram_model d;
    d.access(read_at(0));  // bank 0
    d.access(read_at(64)); // bank 1
    d.close_all_rows();
    EXPECT_EQ(d.classify(read_at(0)), row_outcome::conflict);
    EXPECT_EQ(d.classify(read_at(64)), row_outcome::conflict);
    // Bank 2 was never touched but refresh precharges it all the same.
    EXPECT_EQ(d.classify(read_at(128)), row_outcome::conflict);
}

} // namespace
} // namespace bluescale
