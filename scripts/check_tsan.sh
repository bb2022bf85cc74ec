#!/usr/bin/env bash
# Build the test suite under ThreadSanitizer and run the concurrency-
# relevant tests (the trial sweep and its cross-trial trace keeping,
# parallel fig6/fig7 grids, testbench). A clean run demonstrates the
# determinism contract is not hiding a data race: trials share no
# mutable state but the exported cell's kept trace, which is locked, so
# TSan should stay silent.
#
#   $ scripts/check_tsan.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
build_dir="${1:-build-tsan}"

cmake -B "$build_dir" -S . -DBLUESCALE_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_dir" --target bluescale_tests \
    bluescale_resilience_tests bluescale_svc_tests -j"$(nproc)"

# megascale_determinism drives the depth-8 parallel whole-tree selection
# (ordered-merge worker pool + sharded selection cache) -- the byte-
# identical-across-threads claim must hold without hiding a race. The
# parameter-path property test and the per-SE work accounting test fill
# select_tree_interfaces' per-SE work output from 4 workers.
"$build_dir/tests/bluescale_tests" \
    --gtest_filter='trial_sweep.*:rng_substream.*:testbench.*:fig6.parallel*:fig7.parallel*:export_determinism.*:experiments/scenario_determinism.*:megascale_determinism.*:parameter_path_property.*:tree_analysis_accounting.per_se_work*'

# Fault campaigns run inside parallel trial sweeps: the injection windows,
# retry bookkeeping, health monitoring and DRAM-maintenance accounting
# must all stay trial-local.
"$build_dir/tests/bluescale_resilience_tests" \
    --gtest_filter='resilience.*:maintenance_experiment.*'

# The analysis-service storm runs its trial sweep on a thread pool (its
# threads 1 vs 4 byte identity runs above, in
# experiments/scenario_determinism.*/svc_storm); the service suite
# exercises the shared obs/trace plumbing under worker faults. Both must
# be race-free for that determinism claim to mean anything.
"$build_dir/tests/bluescale_svc_tests" \
    --gtest_filter='svc_storm.*:analysis_service.conservation*'

echo "TSan check passed."
