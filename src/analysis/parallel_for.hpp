// The one index fan-out of the repo: per-SE selection within a tree level
// (analysis/tree_analysis) and the trial grid of harness::run_sweep both
// run on it.
//
// Threads claim indices in ascending order from a shared counter, so the
// order in which calls complete is unspecified. Callers keep results
// deterministic by writing index-addressed slots only and merging them in
// index order afterwards; the output is then bit-identical for any thread
// count.
#pragma once

#include <cstdint>
#include <functional>

namespace bluescale::analysis {

/// Calls fn(0) .. fn(n - 1), each at most once, on up to `threads`
/// threads (0 = all hardware threads), the calling thread among them.
/// With `threads` <= 1 the calls run inline, in index order. `fn` must be
/// safe to call concurrently for different indices. If a call throws, no
/// further index is claimed and the first exception is rethrown once
/// every thread has stopped.
void parallel_for(std::uint32_t n, unsigned threads,
                  const std::function<void(std::uint32_t)>& fn);

} // namespace bluescale::analysis
