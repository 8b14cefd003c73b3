#!/usr/bin/env bash
# Builds hitopk_e2e into build-e2e/ and runs the end-to-end benchmark.
#
#   bench/e2e/run.sh                          # every workload: untraced, then traced
#   bench/e2e/run.sh --workload replay_2k     # one workload, untraced
#   bench/e2e/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#
# Run it from anywhere; paths resolve against the repository root.  Each
# workload runs in its own process.  With --workload the run's JSON result
# is the last line on stdout (and build-e2e/results/W.json; a traced run
# also writes its spans to build-e2e/results/W.trace.json).  Without it,
# every workload runs untraced and then traced, and the two results are
# merged into build-e2e/results/W.json.  Build output goes to stderr.  Exits
# non-zero when the build fails or any check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-e2e"
results="$build/results"
workloads=(train_mstopk train_dense_fp16 replay_2k predict)

workload=""
seed=20260807
seconds=20
trace=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --workload=*) workload="${1#*=}"; shift ;;
    --seed=*) seed="${1#*=}"; shift ;;
    --seconds=*) seconds="${1#*=}"; shift ;;
    --trace=*) trace="${1#*=}"; shift ;;
    *) echo "run.sh: unknown argument: $1" >&2; exit 2 ;;
  esac
done

jobs="$(nproc 2>/dev/null || echo 1)"
(( jobs > 4 )) && jobs=4
{
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build" --target hitopk_e2e -j "$jobs"
} >&2
mkdir -p "$results"

run_one() {  # workload trace json_path
  "$build/hitopk_e2e" --workload "$1" --seed "$seed" --seconds "$seconds" \
    --trace "$2" --json "$3" --chrome "$results/$1.trace.json"
}

if [[ -n "$workload" ]]; then
  run_one "$workload" "$trace" "$results/$workload.json"
  exit $?
fi

status=0
for w in "${workloads[@]}"; do
  run_one "$w" 0 "$results/$w.e2e.json" || status=1
  run_one "$w" 1 "$results/$w.layers.json" || status=1
  python3 - "$results" "$w" "$seed" "$seconds" <<'EOF' || status=1
import json, sys
results, w, seed, seconds = sys.argv[1:]
merged = {"workload": w, "seed": int(seed), "seconds": float(seconds)}
for part, suffix in (("end_to_end", "e2e"), ("per_layer", "layers")):
    with open(f"{results}/{w}.{suffix}.json") as f:
        merged[part] = json.load(f)
with open(f"{results}/{w}.json", "w") as f:
    json.dump(merged, f, indent=1)
EOF
done
echo "results in $results (open *.trace.json in ui.perfetto.dev)"
exit "$status"
