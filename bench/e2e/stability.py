#!/usr/bin/env python3
"""Run-to-run stability of the hitopk_e2e end-to-end metrics.

  python3 bench/e2e/stability.py

One fixed procedure, through BENCHMARK.json's command:

  1. Each workload runs once traced (seed 20260807).  Its metric names and
     units must be exactly BENCHMARK.json's per_layer list.
  2. Two sets of untraced runs.  A set runs every workload 5 times on each
     of the seeds 20260807 and 1, interleaving workloads and seeds so that
     machine drift spreads evenly.  For each workload and end-to-end metric
     it prints the median and quartiles (statistics.quantiles, n=4) and the
     spread, (Q3 - Q1) / median.

It exits non-zero when any run fails a check (fail_frac = failed / attempted
must be 0), when an untraced run's metric names or units differ from
BENCHMARK.json's end_to_end list, when a spread exceeds the metric's bound,
or when a median of set 2 is worse than set 1's by more than the bound.
setup_s is exempt from the spread test, as in the benchmark's acceptance
rule: a set-up of a few milliseconds swings with the host's load.  Its
median is still held to the bound.
"""
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SEEDS = (20260807, 1)
RUNS_PER_SEED = 5
SETS = 2


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None:
        print(f"FAIL {workload} seed {seed} trace {trace}: exit "
              f"{proc.returncode}\n{proc.stderr[-2000:]}")
        return None
    return result


def names_match(result, specs, label):
    want = {m["name"]: m["unit"] for m in specs}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got == want:
        return True
    units = sorted(k for k in want if k in got and got[k] != want[k])
    print(f"FAIL {label}: metric names/units differ from BENCHMARK.json: "
          f"missing {sorted(set(want) - set(got))}, "
          f"extra {sorted(set(got) - set(want))}, unit mismatches {units}")
    return False


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    ok = True

    for w in workloads:
        result = run(bench, w, SEEDS[0], 1)
        if result is None:
            ok = False
            continue
        print(f"{w} traced: {result['failed']}/{result['attempted']} "
              "checks failed")
        ok &= result["failed"] == 0
        ok &= names_match(result, bench["per_layer"], f"{w} traced")

    set_medians = []
    for s in range(SETS):
        values = {(w, m["name"]): [] for w in workloads for m in metrics}
        attempted = failed = 0
        for _ in range(RUNS_PER_SEED):
            for seed in SEEDS:
                for w in workloads:
                    result = run(bench, w, seed, 0)
                    if result is None:
                        ok = False
                        continue
                    ok &= names_match(result, metrics, w)
                    attempted += result["attempted"]
                    failed += result["failed"]
                    for m in metrics:
                        if m["name"] in result["metrics"]:
                            values[(w, m["name"])].append(
                                result["metrics"][m["name"]]["value"])
        print(f"\n=== set {s + 1}: {RUNS_PER_SEED} runs x seeds {SEEDS} per "
              f"workload, {bench['run_seconds']} s each; fail_frac "
              f"{failed}/{attempted}")
        ok &= failed == 0
        medians = {}
        for w in workloads:
            print(w)
            for m in metrics:
                v = values[(w, m["name"])]
                if len(v) < 2:
                    print(f"  {m['name']:<12} too few runs")
                    ok = False
                    continue
                q1, med, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med
                medians[(w, m["name"])] = med
                within = spread <= m["bound"]
                exempt = m["name"] == "setup_s"
                ok &= within or exempt
                flag = ("ok" if within else
                        "exempt" if exempt else "SPREAD > BOUND")
                print(f"  {m['name']:<12} median {med:<11.6g} q1 {q1:<11.6g} "
                      f"q3 {q3:<11.6g} spread {spread:.4f} (bound "
                      f"{m['bound']:.2f}) {m['unit']:<4} {flag}")
        set_medians.append(medians)

    print("\n=== set 2 vs set 1 medians")
    for (w, name), m1 in set_medians[0].items():
        m2 = set_medians[1].get((w, name))
        if m2 is None:
            continue
        spec = next(m for m in metrics if m["name"] == name)
        worse = (m2 - m1) / m1
        if spec["better"] == "higher":
            worse = -worse
        ok &= worse <= spec["bound"]
        flag = "ok" if worse <= spec["bound"] else "WORSE THAN BOUND"
        print(f"  {w:<17} {name:<12} {m1:<11.6g} -> {m2:<11.6g} worse by "
              f"{worse:+.4f} (bound {spec['bound']:.2f}) {flag}")

    print("\nstability:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
