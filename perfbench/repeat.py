"""Repeat benchmark runs and compare two result sets.

    python3 perfbench/repeat.py run --runs 10 --out A.json [--first-seed N] [--trace 0|1]
    python3 perfbench/repeat.py compare A.json B.json

`run` starts `run.py` once per seed (seeds N, N+1, ...) for every workload
in BENCHMARK.json, each run lasting its `run_seconds`,
keeps each run's result line, prints the median, first and third quartile
and spread (quartile distance over median) of every metric, and writes all
results to `--out`.  `compare` lists, one row per workload and metric, the
two medians, the change in the worse direction as a share of the first
median, the metric's bound from BENCHMARK.json and whether the second set
stays within it; it also compares the share of failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def run_set(args) -> int:
    spec = load_spec()
    results: dict[str, list] = {}
    for name in (w["name"] for w in spec["workloads"]):
        results[name] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + [
                "--workload", name, "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            res = json.loads(lines[-1])
            res["seed"] = seed
            results[name].append(res)
            print(f"{name} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
    print_summary(results)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    return 0


def print_summary(results: dict) -> None:
    print(f"{'workload':<16} {'metric':<44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, runs in results.items():
        for metric in runs[0]["metrics"]:
            vals = [r["metrics"][metric]["value"] for r in runs]
            q1, q2, q3 = quartiles(vals)
            print(f"{name:<16} {metric:<44} {q2:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread(vals):>8.4f}")
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        print(f"{name:<16} {'(failed share; all correct)':<44} {', '.join(f'{s:.6g}' for s in shares)}; {correct}")


def compare_sets(args) -> int:
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    a = json.loads(Path(args.first).read_text())
    b = json.loads(Path(args.second).read_text())
    ok = True
    print(f"{'workload':<16} {'metric':<16} {'median A':>12} {'median B':>12} {'worse by':>9} "
          f"{'spread A':>9} {'spread B':>9} {'bound':>6}  verdict")
    for name in a:
        if name not in b:
            print(f"{name:<16} missing from {args.second}")
            ok = False
            continue
        for metric, m in bounds.items():
            va = [r["metrics"][metric]["value"] for r in a[name]]
            vb = [r["metrics"][metric]["value"] for r in b[name]]
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            sa, sb = spread(va), spread(vb)
            steady = sa <= m["bound"] and sb <= m["bound"]
            verdict = "ok" if worse <= m["bound"] and steady else "REGRESSION" if steady else "UNSTEADY"
            ok &= verdict == "ok"
            print(f"{name:<16} {metric:<16} {ma:>12.6g} {mb:>12.6g} {worse:>9.4f} "
                  f"{sa:>9.4f} {sb:>9.4f} {m['bound']:>6}  {verdict}")
        fa = sorted({r["failed"] / r["attempted"] for r in a[name]})
        fb = sorted({r["failed"] / r["attempted"] for r in b[name]})
        same = fa == fb and len(fa) == 1
        ok &= same
        print(f"{name:<16} {'failed share':<16} {fa} {fb}  {'ok' if same else 'DIFFERS'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--out", required=True)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = ap.parse_args(argv)
    return run_set(args) if args.cmd == "run" else compare_sets(args)


if __name__ == "__main__":
    sys.exit(main())
