#!/usr/bin/env bash
# Build the test suite under AddressSanitizer + UndefinedBehaviorSanitizer
# and run the allocation- and churn-heavy surfaces: the fault-injection
# campaigns, retry bookkeeping, and the reconfiguration subsystem, whose
# transactional staging/rollback swaps whole tree selections and task
# sets at runtime. A clean run demonstrates the rollback paths leak and
# corrupt nothing. It also runs the schedulability and interface-selection
# suites, whose double-to-integer casts the float-cast-overflow sanitizer
# (added to both UBSan presets in CMakeLists.txt) checks.
#
#   $ scripts/check_asan_ubsan.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
build_dir="${1:-build-asan}"

cmake -B "$build_dir" -S . -DBLUESCALE_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_dir" --target bluescale_tests \
    bluescale_resilience_tests -j"$(nproc)"

export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
export ASAN_OPTIONS="detect_leaks=1"

# Core fabric + analysis surfaces the reconfiguration layer leans on, and
# the hand-laid storage under them: each random access buffer carves its
# arrays out of one raw block (its seeded model test included), each
# latched_queue indexes one ring with wrapping head arithmetic (its ring
# cases and seeded model test included), and the metric stores hand out
# slot pointers into a registry's deque or a value_block's single
# allocation. The fig7 suites and the fig7/reconfig scenario-determinism
# cases run the experiment trial bodies whose lambdas capture per-point
# and per-trial state across the sweep's worker threads (the reconfig
# experiment's own suite runs in the resilience leg below).
"$build_dir/tests/bluescale_tests" \
    --gtest_filter='parameter_path.*:bluescale_ic.*:scale_element.*:testbench.*:random_access_buffer*:latched_queue*:fixed_queue.*:obs_value_block.*:obs_registry.*:fig7*:experiments/scenario_determinism.*/fig7:experiments/scenario_determinism.*/reconfig'

# The schedulability test and interface selection, including the budget
# kernel's property tests against the probe-by-probe search and the
# bounded period scan's against the full scan: their horizon, budget and
# budget-cap arithmetic converts doubles to integers, which the
# float-cast-overflow sanitizer checks.
"$build_dir/tests/bluescale_tests" \
    --gtest_filter='is_schedulable.*:theorem1_beta.*:*schedulability*:sufficient_portfolio.*:theorem2_max_period.*:min_budget_for_period.*:select_interface.*:*selection_optimality*:min_budget_for_supply.*:budget_kernel_property.*:bounded_scan.*'

# The whole resilience suite: fault campaigns, retries, health monitor,
# admission control, transactional rollback, watchdog shedding, and the
# parallel reconfiguration sweeps.
"$build_dir/tests/bluescale_resilience_tests"

echo "ASan/UBSan check passed."
