// Heap footprint of the per-client and per-SE building blocks: the bytes
// requested through operator new that an object still holds once it is
// constructed, and the number of operator new calls its construction
// makes. This binary replaces the global operator new/delete with a
// counting pair, so the figures are what the code asks for -- the same on
// every host and allocator -- not what malloc rounds them up to. A
// mega-scale fabric builds thousands of these objects, so a few hundred
// bytes or a dozen allocations each is megabytes of heap and most of the
// assembly time before cycle 0.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "../test_util.hpp"
#include "core/scale_element.hpp"
#include "mem/request.hpp"
#include "sim/latched_queue.hpp"
#include "workload/traffic_generator.hpp"

namespace {

std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_allocations{0};

// Each block carries its requested size in a header, so delete can
// subtract exactly what new added.
constexpr std::size_t k_header = alignof(std::max_align_t);

void* counted_alloc(std::size_t n) noexcept {
    void* base = std::malloc(n + k_header);
    if (base == nullptr) return nullptr;
    *static_cast<std::size_t*>(base) = n;
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_live_bytes.fetch_add(static_cast<std::int64_t>(n),
                           std::memory_order_relaxed);
    return static_cast<char*>(base) + k_header;
}

void counted_free(void* p) noexcept {
    if (p == nullptr) return;
    void* base = static_cast<char*>(p) - k_header;
    g_live_bytes.fetch_sub(
        static_cast<std::int64_t>(*static_cast<std::size_t*>(base)),
        std::memory_order_relaxed);
    std::free(base);
}

void* counted_alloc_or_throw(std::size_t n) {
    void* p = counted_alloc(n);
    if (p == nullptr) throw std::bad_alloc();
    return p;
}

/// Bytes `make()`'s result still holds on the heap, its own block
/// included.
template <class Make>
std::int64_t held_bytes(Make make) {
    const std::int64_t before = g_live_bytes.load();
    auto obj = make();
    return g_live_bytes.load() - before;
}

/// operator new calls made while `make()` builds its result, temporaries
/// freed before it returns included.
template <class Make>
std::int64_t allocations(Make make) {
    const std::int64_t before = g_allocations.load();
    auto obj = make();
    return g_allocations.load() - before;
}

} // namespace

void* operator new(std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new[](std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
    return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
    return counted_alloc(n);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
    counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
    counted_free(p);
}

namespace bluescale {
namespace {

TEST(footprint, counting_allocator_sees_new_and_delete) {
    EXPECT_EQ(held_bytes([] { return std::make_unique<char[]>(1000); }),
              1000);
    const std::int64_t before = g_live_bytes.load();
    { auto gone = std::make_unique<char[]>(1000); }
    EXPECT_EQ(g_live_bytes.load(), before);
    EXPECT_EQ(allocations([] {
                  auto freed = std::make_unique<char[]>(8);
                  return std::make_unique<char[]>(8);
              }),
              2);
}

// Budgets sit just above today's figures (an unbound SE holds 6,256 B,
// most of it its four RAB blocks; a 4-task client holds 1,127 B), so a
// named registry per component (about 3 KB), a std::deque per task
// (about 650 B each while empty) or a stats::sample_set in every metric
// slot (80 B per counter) fails them.

auto make_unbound_scale_element() {
    // Default parameters (four 8-deep RABs); a deep-tree name, as the
    // fabric gives it.
    return std::make_unique<core::scale_element>("se.5.1023",
                                                 core::se_params{});
}

auto make_four_task_client(interconnect& net,
                           std::uint32_t requests_per_job = 2) {
    workload::memory_task_set tasks;
    tasks.reserve(4);
    for (task_id_t i = 0; i < 4; ++i) {
        tasks.push_back({.id = i,
                         .period_units = 100 + 10 * std::uint64_t{i},
                         .requests_per_job = requests_per_job});
    }
    return std::make_unique<workload::traffic_generator>(
        4095, std::move(tasks), net, /*seed=*/1);
}

TEST(footprint, unbound_scale_element) {
    const std::int64_t bytes = held_bytes(make_unbound_scale_element);
    RecordProperty("bytes", static_cast<int>(bytes));
    EXPECT_LE(bytes, 6400) << "unbound scale_element holds " << bytes
                           << " B";
}

TEST(footprint, four_task_traffic_generator) {
    testing::loopback_interconnect net(4096);
    const std::int64_t bytes =
        held_bytes([&] { return make_four_task_client(net); });
    RecordProperty("bytes", static_cast<int>(bytes));
    EXPECT_LE(bytes, 1200) << "4-task traffic_generator holds " << bytes
                           << " B";
}

// A client at its in-flight cap: each of its four jobs issues
// k_max_outstanding / 4 requests, and the loopback loses every one, so
// all of them stay in flight. Beyond an idle client it then holds its
// in-flight table (a compact record per request, not a copy of the
// request in a map node) and its drained job queues.
TEST(footprint, traffic_generator_at_outstanding_cap) {
    testing::loopback_interconnect net(4096);
    net.drop_next(workload::k_max_outstanding);
    const std::int64_t bytes = held_bytes([&] {
        auto client =
            make_four_task_client(net, workload::k_max_outstanding / 4);
        for (cycle_t now = 0; now < 2 * workload::k_max_outstanding; ++now) {
            client->tick(now);
        }
        return client;
    });
    EXPECT_EQ(net.pending(), 0u);
    RecordProperty("bytes", static_cast<int>(bytes));
    EXPECT_LE(bytes, 2300) << "a traffic_generator with "
                           << workload::k_max_outstanding
                           << " requests in flight holds " << bytes << " B";
}

// Allocation budgets: an unbound SE makes 6 (itself, its value block and
// one storage block per RAB) and a 4-task client 5. Formatting metric
// names into an unbound value block (17 strings per SE) or a std::vector
// per RAB index array (four per RAB) fails them.

TEST(footprint, unbound_scale_element_allocations) {
    const std::int64_t n = allocations(make_unbound_scale_element);
    RecordProperty("allocations", static_cast<int>(n));
    EXPECT_LE(n, 8) << "building an unbound scale_element allocates " << n
                    << " times";
}

TEST(footprint, four_task_traffic_generator_allocations) {
    testing::loopback_interconnect net(4096);
    const std::int64_t n =
        allocations([&] { return make_four_task_client(net); });
    RecordProperty("allocations", static_cast<int>(n));
    EXPECT_LE(n, 6) << "building a 4-task traffic_generator allocates " << n
                    << " times";
}

// A registered interface is one ring: the fabric builds one 4-deep
// response queue per SE (1,365 in a 4,096-client tree), so a second block
// for the staged entries is a thousand more allocations.
TEST(footprint, latched_queue_allocations) {
    const std::int64_t n =
        allocations([] { return latched_queue<mem_request>(4); });
    RecordProperty("allocations", static_cast<int>(n));
    EXPECT_EQ(n, 1) << "building a 4-deep latched_queue<mem_request> "
                       "allocates "
                    << n << " times";
}

} // namespace
} // namespace bluescale
