#!/usr/bin/env bash
# Captures the committed micro-benchmark snapshot, BENCH_micro_hotpaths.json
# at the repo root: every bench/micro_hotpaths case, machine-normalized
# against the bm_sbf arithmetic kernel so two snapshots taken on different
# hardware (or a noisy CI runner) stay comparable -- the guarded quantity
# is each case's cost in bm_sbf units, not raw nanoseconds. Keys are
# sorted, values rounded, so regenerating on the same machine produces a
# minimal diff.
#
# Also captures BENCH_megascale.json from bench/megascale: the mega-scale
# whole-tree selection curves. There the guarded quantities are the
# deterministic work counters (tests_run / points_checked per depth) --
# bit-identical across machines and thread counts by construction, so the
# gate needs no normalization and no tolerance for machine noise: a drift
# means the selection algorithm itself changed its work. Wall-clock ms in
# that snapshot is trend-reading only, never gated.
#
#   $ scripts/bench_snapshot.sh [build-dir]          # refresh the snapshots
#   $ scripts/bench_snapshot.sh --only CASES [build-dir]
#   $ scripts/bench_snapshot.sh --check [build-dir]  # CI perf-smoke gate
#
# --only refreshes just the named micro cases (comma-separated; a name
# also covers its "/arg" variants, so bm_random_access_buffer_fetch is
# all four depths) and keeps every other case's committed value, so a
# refresh for one changed case does not move the guarded cases by
# machine noise and reset their gate. It runs only those cases and the
# bm_sbf baseline, stores each at the committed baseline's scale, and
# leaves BENCH_megascale.json alone.
#
# --check reruns the benches and fails (exit 1) when an idle-heavy engine
# case (the event scheduler's pop/advance and predicate-dispatch paths,
# and a 4,097-component system with about two due per cycle, whose step
# cost must follow the due components; a full scan costs ~40x) or the
# saturated-fabric step (a 1,024-client tree whose backpressured
# SEs sleep; full-tree ticking costs ~12x) or one interface selection
# (the budget kernel answers its probes from tables; full
# is_schedulable calls per probe cost ~5x) regresses more than 25%
# against the committed snapshot, or when a
# megascale work counter grows more than 25% over the committed curve
# (compared at the depths the shallow --check run shares with the
# snapshot). The full megascale refresh sweeps to depth 8/10 and takes
# minutes; --check stays shallow.
set -euo pipefail

cd "$(dirname "$0")/.."

mode="snapshot"
only=""
if [[ "${1:-}" == "--check" ]]; then
    mode="check"
    shift
elif [[ "${1:-}" == "--only" ]]; then
    mode="only"
    only="${2:?--only needs a comma-separated list of case names}"
    shift 2
fi
build_dir="${1:-build}"
snapshot="BENCH_micro_hotpaths.json"
mega_snapshot="BENCH_megascale.json"

cmake --build "$build_dir" --target micro_hotpaths megascale \
    -j"$(nproc)" >/dev/null

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT
filter="."
if [[ "$mode" == "only" ]]; then
    filter="^(bm_sbf|${only//,/|})(/|\$)"
fi
"$build_dir/bench/micro_hotpaths" --benchmark_filter="$filter" \
    --benchmark_out="$raw" --benchmark_out_format=json >/dev/null

python3 - "$raw" "$snapshot" "$mode" "$only" <<'PY'
import json
import sys

raw_path, snapshot_path, mode, only = sys.argv[1:5]

BASELINE = "bm_sbf"
# The perf-smoke gate: engine paths this PR is accountable for. Model-
# level cases (SE tick, memory controller) drift with model features and
# are recorded for trend-reading, not gated.
GUARDED_PREFIXES = (
    "bm_event_engine_pop_advance",
    "bm_run_until_template_predicate",
    "bm_saturated_fabric_step",
    "bm_event_engine_sparse",
    "bm_select_interface",
)
TOLERANCE = 0.25

with open(raw_path) as f:
    runs = [b for b in json.load(f)["benchmarks"]
            if b.get("run_type", "iteration") == "iteration"]

by_name = {b["name"]: float(b["real_time"]) for b in runs}
if BASELINE not in by_name:
    sys.exit(f"bench run is missing the {BASELINE} baseline case")
base_ns = by_name[BASELINE]

snap = {
    "schema": 1,
    "baseline_case": BASELINE,
    "baseline_ns": round(base_ns, 2),
    "cases": {
        name: {
            "ns": round(ns, 1),
            "vs_baseline": round(ns / base_ns, 3),
        }
        for name, ns in sorted(by_name.items())
        if name != BASELINE
    },
}

if mode == "snapshot":
    with open(snapshot_path, "w") as f:
        json.dump(snap, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {snapshot_path} ({len(snap['cases'])} cases, "
          f"{BASELINE} = {snap['baseline_ns']} ns)")
    sys.exit(0)

with open(snapshot_path) as f:
    committed = json.load(f)

if mode == "only":
    # Each named case keeps its fresh cost in baseline units and is
    # stored at the committed baseline's scale; every other case, and the
    # baseline itself, stays as committed.
    for want in only.split(","):
        hits = [n for n in snap["cases"]
                if n == want or n.startswith(want + "/")]
        if not hits:
            sys.exit(f"--only {want}: no such micro_hotpaths case")
        for name in hits:
            ratio = snap["cases"][name]["vs_baseline"]
            committed["cases"][name] = {
                "ns": round(ratio * committed["baseline_ns"], 1),
                "vs_baseline": ratio,
            }
            print(f"refreshed {name}: {ratio} x{BASELINE}")
    with open(snapshot_path, "w") as f:
        json.dump(committed, f, indent=2, sort_keys=True)
        f.write("\n")
    sys.exit(0)

failures = []
for name, fresh in sorted(snap["cases"].items()):
    if not name.startswith(GUARDED_PREFIXES):
        continue
    old = committed["cases"].get(name)
    if old is None:
        failures.append(f"{name}: not in committed snapshot "
                        f"(refresh {snapshot_path})")
        continue
    ratio = fresh["vs_baseline"] / old["vs_baseline"]
    verdict = "FAIL" if ratio > 1.0 + TOLERANCE else "ok"
    print(f"{verdict:4} {name}: {old['vs_baseline']} -> "
          f"{fresh['vs_baseline']} x{BASELINE} ({ratio - 1.0:+.1%})")
    if verdict == "FAIL":
        failures.append(name)

if failures:
    print(f"perf-smoke: {len(failures)} guarded case(s) regressed more "
          f"than {TOLERANCE:.0%}:")
    for f_ in failures:
        print(f"  {f_}")
    sys.exit(1)
print("perf-smoke: guarded engine cases within tolerance.")
PY

# --- mega-scale whole-tree selection ---------------------------------------

if [[ "$mode" == "only" ]]; then
    exit 0
fi
if [[ "$mode" == "snapshot" ]]; then
    # Full curves: depth 8 timing, depth 10 feasibility, depth-4 parity.
    # Takes minutes; that is the price of the committed snapshot.
    "$build_dir/bench/megascale" --json "$mega_snapshot"
    exit 0
fi

mega_raw="$(mktemp)"
trap 'rm -f "$raw" "$mega_raw"' EXIT
# The bench itself exits nonzero on a parity or determinism violation.
"$build_dir/bench/megascale" --check --json "$mega_raw"

python3 - "$mega_raw" "$mega_snapshot" <<'PY'
import json
import sys

fresh_path, snapshot_path = sys.argv[1], sys.argv[2]
# Deterministic work counters: identical on every machine and for every
# --threads (cache hits replay the miss's counters), so growth is a real
# algorithmic regression in the selection search or cache, not noise.
GUARDED_KEYS = ("tests_run", "points_checked")
TOLERANCE = 0.25

with open(fresh_path) as f:
    fresh = json.load(f)
with open(snapshot_path) as f:
    committed = json.load(f)

failures = []
for curve in ("timing", "feasibility"):
    # --check runs shallow; gate only the depths both runs share.
    for depth, got in sorted(fresh[curve].items()):
        want = committed[curve].get(depth)
        if want is None:
            continue
        for key in GUARDED_KEYS:
            old, new = want[key], got[key]
            ratio = new / old if old else (1.0 if new == 0 else 2.0)
            verdict = "FAIL" if ratio > 1.0 + TOLERANCE else "ok"
            print(f"{verdict:4} megascale {curve}/{depth}/{key}: "
                  f"{old} -> {new} ({ratio - 1.0:+.1%})")
            if verdict == "FAIL":
                failures.append(f"{curve}/{depth}/{key}")

if failures:
    print(f"perf-smoke: {len(failures)} megascale counter(s) grew more "
          f"than {TOLERANCE:.0%}:")
    for f_ in failures:
        print(f"  {f_}")
    sys.exit(1)
print("perf-smoke: megascale selection work within tolerance.")
PY
