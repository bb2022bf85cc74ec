#include "analysis/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace bluescale::analysis {

void parallel_for(std::uint32_t n, unsigned threads,
                  const std::function<void(std::uint32_t)>& fn) {
    if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
    const unsigned workers = std::min<unsigned>(threads, n);
    if (workers <= 1) {
        for (std::uint32_t i = 0; i < n; ++i) fn(i);
        return;
    }

    std::atomic<std::uint32_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex error_mu;
    std::exception_ptr first_error;
    const auto body = [&] {
        while (!failed.load(std::memory_order_acquire)) {
            const std::uint32_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n) return;
            try {
                fn(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(error_mu);
                if (!first_error) first_error = std::current_exception();
                failed.store(true, std::memory_order_release);
            }
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (unsigned w = 1; w < workers; ++w) pool.emplace_back(body);
    body();
    for (auto& t : pool) t.join();
    if (first_error) std::rethrow_exception(first_error);
}

} // namespace bluescale::analysis
