#!/usr/bin/env bash
# Byte-identity check for the experiment bench drivers: runs every driver
# that calls run_sweep, the two tree-selection
# drivers among them (ablation A3 prints the modeled FSM price), plus
# ablation_channels (the one driver of meshed BlueScale), from two
# builds -- a reference (e.g. the parent commit) and a candidate -- at
# small --trials/--cycles, at --threads 1 and 4, and cmp's each driver's
# stdout and its --csv, --metrics and --trace files. A refactor that
# claims "same behaviour" must show no difference here.
#
#   usage: scripts/check_bench_exports.sh <ref_build> <new_build>
#
# Both arguments are CMake build trees with the bench targets built
# (their bench/<driver> binaries are run). TRIALS and CYCLES override the
# per-run size (defaults 2 and 6000). Exits 1 on the first-listed
# difference summary, 0 when every file matches.
set -euo pipefail

if [ "$#" -ne 2 ]; then
    echo "usage: $0 <ref_build> <new_build>" >&2
    exit 2
fi
ref_build="$1"
new_build="$2"
trials="${TRIALS:-2}"
cycles="${CYCLES:-6000}"

drivers=(fig6_synthetic fig7_case_study resilience maintenance reconfig
         svc_storm ablation_alpha ablation_buffer_depth ablation_memctrl
         ablation_server_policy extended_baselines
         ablation_interface_selection acceptance_ratio wcrt_validation
         latency_breakdown ablation_channels)
exports=(stdout.txt rows.csv metrics.csv trace.json)

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

run_driver() { # <build> <driver> <threads> <out_dir>
    mkdir -p "$4"
    "$1/bench/$2" --trials "$trials" --cycles "$cycles" --threads "$3" \
        --csv "$4/rows.csv" --metrics "$4/metrics.csv" \
        --trace "$4/trace.json" > "$4/stdout.txt"
}

status=0
compared=0
for threads in 1 4; do
    for driver in "${drivers[@]}"; do
        ref_out="$work/ref/$driver.$threads"
        new_out="$work/new/$driver.$threads"
        run_driver "$ref_build" "$driver" "$threads" "$ref_out"
        run_driver "$new_build" "$driver" "$threads" "$new_out"
        for f in "${exports[@]}"; do
            # A driver without that export writes the file on neither side.
            [ -e "$ref_out/$f" ] || [ -e "$new_out/$f" ] || continue
            compared=$((compared + 1))
            if ! cmp -s "$ref_out/$f" "$new_out/$f"; then
                echo "DIFF  $driver --threads $threads: $f"
                status=1
            fi
        done
        echo "ok    $driver --threads $threads"
    done
done
echo "$compared file(s) compared at --trials $trials --cycles $cycles"
if [ "$status" -ne 0 ]; then
    echo "bench exports differ" >&2
fi
exit "$status"
