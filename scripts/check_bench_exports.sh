#!/usr/bin/env bash
# Byte-identity check for the experiment bench drivers: runs every driver
# that calls run_sweep, the two tree-selection drivers among them
# (ablation A3 prints the modeled FSM price), plus ablation_channels (the
# one driver of meshed BlueScale), from two builds -- a reference (e.g.
# the parent commit) and a candidate -- at small --trials/--cycles, at
# --threads 1 and 4, and cmp's each driver's stdout and every file it was
# asked to write. A refactor that claims "same behaviour" must show no
# difference here.
#
#   usage: scripts/check_bench_exports.sh <ref_build> <new_build>
#
# Both arguments are CMake build trees with the bench targets built
# (their bench/<driver> binaries are run). TRIALS and CYCLES override the
# per-run size (defaults 2 and 6000). The drivers whose trials run a
# testbench get --csv, --metrics and --trace; the selection-only drivers,
# which refuse --metrics and --trace, get --csv only where they take it
# (A3; acceptance_ratio writes stdout alone); ablation_channels takes
# --cycles alone. A file a driver was asked to write must exist on both
# sides: a missing one is a difference. Exits 1 on any difference, 0
# when every file matches.
set -euo pipefail

if [ "$#" -ne 2 ]; then
    echo "usage: $0 <ref_build> <new_build>" >&2
    exit 2
fi
ref_build="$1"
new_build="$2"
trials="${TRIALS:-2}"
cycles="${CYCLES:-6000}"

sweep_drivers=(fig6_synthetic fig7_case_study resilience maintenance reconfig
               svc_storm ablation_alpha ablation_buffer_depth ablation_memctrl
               ablation_server_policy extended_baselines wcrt_validation
               latency_breakdown)
selection_drivers=(ablation_interface_selection acceptance_ratio)

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# Sets `args` and `files` (the outputs to compare) for <driver> <threads>
# <out_dir>.
plan() {
    files=(stdout.txt)
    case "$1" in
    ablation_channels) args=(--cycles "$cycles") ;;
    acceptance_ratio) args=(--trials "$trials" --threads "$2") ;;
    ablation_interface_selection)
        args=(--trials "$trials" --threads "$2" --csv "$3/rows.csv")
        files+=(rows.csv)
        ;;
    *)
        args=(--trials "$trials" --cycles "$cycles" --threads "$2"
              --csv "$3/rows.csv" --metrics "$3/metrics.csv"
              --trace "$3/trace.json")
        files+=(rows.csv metrics.csv trace.json)
        ;;
    esac
}

status=0
compared=0
for threads in 1 4; do
    for driver in "${sweep_drivers[@]}" "${selection_drivers[@]}" \
                  ablation_channels; do
        for side in ref new; do
            out="$work/$side/$driver.$threads"
            build="$ref_build"
            [ "$side" = new ] && build="$new_build"
            plan "$driver" "$threads" "$out"
            mkdir -p "$out"
            "$build/bench/$driver" "${args[@]}" > "$out/stdout.txt"
        done
        for f in "${files[@]}"; do
            ref_f="$work/ref/$driver.$threads/$f"
            new_f="$work/new/$driver.$threads/$f"
            compared=$((compared + 1))
            if [ ! -e "$ref_f" ] || [ ! -e "$new_f" ]; then
                echo "DIFF  $driver --threads $threads: $f missing on" \
                     "$([ -e "$ref_f" ] && echo new || echo ref) side"
                status=1
            elif ! cmp -s "$ref_f" "$new_f"; then
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
