#!/usr/bin/env python3
"""A/B two revisions on the end-to-end benchmark, in alternating pairs.

  python3 tools/ab_e2e.py PARENT CHANGE [--workload W ...] [--pairs 10]
      [--seconds S] [--seed N] [--trace 0|1] [--scratch DIR] [--keep]
      [--json OUT] [--history PATH]

PARENT and CHANGE are local git revisions (a sha, a branch, HEAD~1).  Each
one is checked out in its own `git worktree` under --scratch (default: a
directory next to the repository) and built there once, with the cmake
commands BENCHMARK.json's run.sh uses, so the run's own build is a no-op.
Nothing is fetched and nothing in the repository's own tree is written.

Then, for each of N pairs and each workload, the two revisions each run
BENCHMARK.json's command once (--workload W --seed N --seconds S --trace T).
Odd pairs (1, 3, ...) run PARENT first and even pairs run CHANGE first, so
host drift and warm caches favour neither side.  With --trace 0 the metrics
are BENCHMARK.json's end_to_end list; with --trace 1 its per_layer list.

For every workload and metric it prints each side's median and quartiles
(statistics.quantiles, n=4, inclusive) and the change's win count: pairs in
which the change's value is strictly better, in the metric's "better"
direction.  The verdict follows one rule.  With W the wins, L the losses
(strictly worse), need = ceil(0.9 * N), shift = how much better the
change's median is than the parent's (negative when worse) and IQR the
parent's Q3 - Q1:

  improved    W >= need and shift > IQR
  worse       L >= need and -shift > IQR
  unchanged   |shift| <= IQR
  unresolved  anything else (a shift beyond the parent's spread that too
              few pairs agree with)

A run that fails (non-zero exit, no JSON, or failed > 0) is reported, and
the tool exits 1.  With --json, the table is also written as JSON.  With
--history, the same record plus a "host" entry (the CPUs this process may
run on, as nproc counts them, and whether the CPU flags list avx2 and f16c)
is appended to PATH as one line; bench/refs/BENCH_history.jsonl is the
committed trajectory of perf claims.  The
worktrees are removed at the end unless --keep is given; a kept worktree
at the right revision is reused, build included, by the next invocation.
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def checkout(rev, scratch):
    """A worktree of `rev` under `scratch`, built; returns its path."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    path = os.path.join(scratch, sha[:12])
    if os.path.isdir(path):
        if git("rev-parse", "HEAD", cwd=path) != sha:
            sys.exit(f"ab_e2e: {path} exists at another revision")
    else:
        git("worktree", "add", "--detach", path, sha)
    build = os.path.join(path, "build-e2e")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", "bench/e2e", "-B", build,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build, "--target", "hitopk_e2e",
                 "-j", jobs]):
        proc = subprocess.run(cmd, cwd=path, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit(f"ab_e2e: build of {rev} failed\n{proc.stderr[-2000:]}")
    return sha, path


def run_once(bench, path, workload, args):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=path, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None or result.get("failed", 1):
        print(f"FAIL {workload} in {path}: exit {proc.returncode}\n"
              f"{proc.stderr[-2000:]}", flush=True)
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def host():
    """nproc and the AVX2/F16C flags of the host (None where unknown)."""
    flags = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags"):
                    flags = set(line.split(":", 1)[1].split())
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)),
            "avx2": None if flags is None else "avx2" in flags,
            "f16c": None if flags is None else "f16c" in flags}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent, change, better):
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    need = math.ceil(0.9 * len(pairs))
    p_q1, p_med, p_q3 = quartiles(parent)
    shift = sign * (statistics.median(change) - p_med)
    iqr = p_q3 - p_q1
    if wins >= need and shift > iqr:
        word = "improved"
    elif losses >= need and -shift > iqr:
        word = "worse"
    elif abs(shift) <= iqr:
        word = "unchanged"
    else:
        word = "unresolved"
    return wins, word


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--seed", type=int, default=20260807)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch",
                        default=os.path.join(os.path.dirname(ROOT),
                                             "ab_e2e-worktrees"))
    parser.add_argument("--keep", action="store_true")
    parser.add_argument("--json", default=None)
    parser.add_argument("--history", default=None)
    args = parser.parse_args()
    if args.pairs < 1:
        sys.exit("ab_e2e: --pairs must be >= 1")

    bench = json.loads(git("show", f"{args.change}:BENCHMARK.json"))
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer" if args.trace else "end_to_end"]

    os.makedirs(args.scratch, exist_ok=True)
    sides = {}
    try:
        for side, rev in (("parent", args.parent), ("change", args.change)):
            sides[side] = checkout(rev, args.scratch)
        values = {w: {"parent": [], "change": []} for w in workloads}
        failures = 0
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for workload in workloads:
                got = {}
                for side in order:
                    got[side] = run_once(bench, sides[side][1], workload, args)
                if got["parent"] is None or got["change"] is None:
                    failures += 1
                    continue
                for side in order:
                    values[workload][side].append(got[side])
            print(f"pair {pair}/{args.pairs} done ({order[0]} first)",
                  flush=True)
    finally:
        if not args.keep:
            for _, path in sides.values():
                git("worktree", "remove", "--force", path)
            if not os.listdir(args.scratch):
                shutil.rmtree(args.scratch)

    print(f"\nparent {sides['parent'][0][:12]}  change "
          f"{sides['change'][0][:12]}  pairs {args.pairs}  seconds "
          f"{args.seconds:g}  seed {args.seed}  trace {args.trace}")
    header = (f"{'workload':<17} {'metric':<30} {'parent median [q1, q3]':>30}"
              f" {'change median [q1, q3]':>30} {'wins':>6}  verdict")
    print(header)
    table = []
    for workload in workloads:
        runs = values[workload]
        for metric in metrics:
            name = metric["name"]
            parent = [r[name] for r in runs["parent"] if name in r]
            change = [r[name] for r in runs["change"] if name in r]
            if not parent or len(parent) != len(change):
                continue
            if not any(parent) and not any(change):
                continue  # a per-layer metric this workload does not report
            wins, word = verdict(parent, change, metric["better"])
            p_q1, p_med, p_q3 = quartiles(parent)
            c_q1, c_med, c_q3 = quartiles(change)
            print(f"{workload:<17} {name:<30} "
                  f"{f'{p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}]':>30} "
                  f"{f'{c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}]':>30} "
                  f"{f'{wins}/{len(parent)}':>6}  {word}")
            table.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "parent": {"median": p_med, "q1": p_q1, "q3": p_q3},
                "change": {"median": c_med, "q1": c_q1, "q3": c_q3},
                "wins": wins, "pairs": len(parent), "verdict": word})
    record = {"parent": sides["parent"][0], "change": sides["change"][0],
              "pairs": args.pairs, "seconds": args.seconds, "seed": args.seed,
              "trace": args.trace, "rows": table}
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)
    if args.history:
        with open(args.history, "a") as f:
            f.write(json.dumps(dict(record, host=host())) + "\n")
    if failures:
        print(f"{failures} workload pair(s) had a failed run")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
