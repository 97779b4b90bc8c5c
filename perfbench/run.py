"""Benchmark of the symrank CLI: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from `src/` and
driven through its entry point `symrank.cli.main(argv)` in this process;
each reply is captured and checked by `checks.py`.  Requests go in whole
rounds (see `workloads.py`) until `--seconds` have passed.

With `--trace 0` the last line of stdout is a JSON object holding the
end-to-end metrics: requests per second (each `main` call timed alone and
scaled to reference machine speed, median over rounds per request, summed
over the round), set-up time (median of several fresh processes that import
symrank and make the workload's one-time preparation; start-up scaled by a
fresh process that imports numpy, preparation by the loop)
and the peak resident set of this process.  With `--trace 1` untraced and
traced rounds alternate (`tracer.py`) and the line holds per-layer figures
per traced round instead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_PROBES = 7
# The machine's speed drifts by tens of percent within milliseconds and over
# minutes, as other tenants come and go.  Every timed request is therefore
# preceded by a fixed pure-Python calibration loop (and the round ends with
# one), each time is taken as its ratio to the mean of the loops around it,
# and ratios are scaled back to seconds on a machine where the loop takes
# CAL_REF_S (this machine's speed when quiet).
CAL_ITERATIONS = 40_000
CAL_REF_S = 0.0025
# Process start-up drifts with the host in its own way (exec, page faults,
# loading shared libraries), which the pure-Python loop does not follow.  The
# start-up part of each set-up probe is therefore scaled by a calibration
# process that starts an interpreter and imports numpy, to a machine where
# that takes START_REF_S.
START_CAL_ARGV = ("-c", "import numpy; print('imported')")
START_REF_S = 0.15


def calibration_s() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


@dataclass
class Round:
    wall: float = 0.0
    check_s: float = 0.0
    times: list = field(default_factory=list)  # seconds per request, in round order
    cals: list = field(default_factory=list)  # calibration seconds before each request and at the end
    ops: int = 0
    units: int = 0
    faults: list = field(default_factory=list)
    errors: list = field(default_factory=list)


def run_round(cli, requests, calibrate: bool = True) -> Round:
    r = Round()
    clock = time.perf_counter
    start = clock()
    for req in requests:
        if calibrate:
            r.cals.append(calibration_s())
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = clock()
            code = cli.main(list(req.argv))
            r.times.append(clock() - t0)
        t0 = clock()
        try:
            outcome = req.check(code, buf.getvalue())
        except (AssertionError, KeyError, IndexError, ValueError, TypeError) as exc:
            r.errors.append(f"{' '.join(req.argv)}: {type(exc).__name__}: {exc}")
        else:
            r.ops += outcome.ops
            r.units += outcome.units
            r.faults += outcome.faults
        r.check_s += clock() - t0
    if calibrate:
        r.cals.append(calibration_s())
    r.wall = clock() - start
    return r


def run_for(cli, requests, seconds: float) -> list[Round]:
    """Whole rounds until `seconds` have passed (at least one)."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        rounds.append(run_round(cli, requests))
    return rounds


def run_traced(cli, requests, seconds: float):
    """Untraced and traced rounds in turn until `seconds` have passed, so that
    both see the same warm-up and the same machine load."""
    from tracer import Tracer

    tracer = Tracer()
    run_round(cli, requests, calibrate=False)  # warm-up, so that neither side pays first-use costs
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(run_round(cli, requests, calibrate=False))
        tracer.install()
        try:
            traced.append(run_round(cli, requests, calibrate=False))
        finally:
            tracer.uninstall()
    return untraced, traced, tracer


def start_s(args: list[str]) -> tuple[float, list[list[str]]]:
    """Seconds from starting `python3 ARGS` until its first line; the words of
    each line it printed."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        first = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        lines = [first] + proc.stdout.readlines()
    if proc.returncode != 0:
        raise RuntimeError(f"python3 {' '.join(args)} failed with exit code {proc.returncode}")
    return elapsed, [line.split() for line in lines]


def setup_seconds(workload: str) -> float:
    """Time for a fresh interpreter to import symrank and make the workload's
    one-time preparation, at reference machine speed; median of several.
    The start-up part is scaled by a calibration process started just before
    the probe, the preparation by calibration loops run around it inside the
    probe."""
    scaled = []
    for _ in range(SETUP_PROBES):
        cal_start, _ = start_s(list(START_CAL_ARGV))
        probe_start, lines = start_s([str(HERE / "setup_probe.py"), workload])
        if [w[0] for w in lines] != ["imported", "ready"]:
            raise RuntimeError(f"set-up probe printed {lines}")
        prep_s, cal_s = map(float, lines[1][1:])
        scaled.append(probe_start / cal_start * START_REF_S + prep_s / cal_s * CAL_REF_S)
    return statistics.median(scaled)


def best_round_s(rounds: list[Round]) -> float:
    """Wall time of a round with each request at its fastest over the rounds."""
    return sum(min(ts) for ts in zip(*(r.times for r in rounds)))


def scaled_round_s(rounds: list[Round]) -> float:
    """Round time at reference machine speed: each request's time over the mean
    of the calibrations just before and just after it, median over the
    rounds, summed, in units of CAL_REF_S."""
    ratios = [[t / ((a + b) / 2) for t, a, b in zip(r.times, r.cals, r.cals[1:])] for r in rounds]
    return CAL_REF_S * sum(statistics.median(per_request) for per_request in zip(*ratios))


def end_to_end(rounds: list[Round], setup_s: float) -> dict:
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "requests_per_s": {"value": len(rounds[0].times) / scaled_round_s(rounds), "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mib": {"value": rss_mib, "unit": "MiB"},
    }


PER_LAYER_CALLS = (
    "primes.sieve", "primes.select_pair", "primes.verify_gaps", "curves.check_rr_hypothesis",
    "curves.family_data", "curves.genus_X0", "ntheory.factorize", "ntheory.is_prime",
    "fields.find_irreducible", "fields.is_irreducible",
)
PER_LAYER_TOTAL = (
    "primes.sieve", "primes.verify_gaps", "curves.check_rr_hypothesis", "curves.family_data",
    "ntheory.factorize", "ntheory.is_prime", "bounds.prior_bound", "fields.find_irreducible",
    "fields.invert", "multiplier.plan_evaluation", "multiplier.emit_tensor",
    "multiplier.parse_tensor",
)
PER_LAYER_SELF = (
    "primes.select_pair", "bounds.constructive_bound", "bounds.closed_form", "cli.main",
    "multiplier.build_algorithm",
)


def per_layer(tracer, traced: list[Round], untraced: list[Round]) -> dict:
    k = len(traced)
    st = tracer.stats
    c = tracer.counters
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for name in PER_LAYER_CALLS:
        put(f"{name}.calls", st[name].calls / k, "count")
    for name in PER_LAYER_TOTAL:
        put(f"{name}.total_s", st[name].total / k, "s")
    for name in PER_LAYER_SELF:
        put(f"{name}.self_s", st[name].self_time / k, "s")
    pairs = st["primes.select_pair"].calls
    put("primes.sieve.entries", c["primes.sieve.entries"] / k, "count")
    put("primes.sieve.entries_per_pair", c["primes.sieve.entries"] / pairs if pairs else 0.0, "entries/pair")
    put("curves.check_rr_hypothesis.operand_bits", c["curves.check_rr_hypothesis.operand_bits"] / k, "bits")
    moduli = st["fields.find_irreducible"].calls
    put("fields.is_irreducible.calls_per_modulus",
        st["fields.is_irreducible"].calls / moduli if moduli else 0.0, "calls/modulus")
    for mode in ("random", "exhaustive"):
        put(f"multiplier.verify.{mode}_s", c[f"multiplier.verify.{mode}_s"] / k, "s")
        put(f"multiplier.verify.{mode}_pairs", c[f"multiplier.verify.{mode}_pairs"] / k, "count")
    ex_s = c["multiplier.verify.exhaustive_s"]
    put("multiplier.verify.exhaustive_pairs_per_s",
        c["multiplier.verify.exhaustive_pairs"] / ex_s if ex_s else 0.0, "pairs/s")
    wall = sum(r.wall for r in traced)
    program_in_checks = tracer.top_level_s - sum(sum(r.times) for r in traced)
    bench_own = sum(r.check_s for r in traced) - program_in_checks
    self_sum = sum(s.self_time for s in st.values())
    put("trace.overhead_s",
        statistics.median(r.wall for r in traced) - statistics.median(r.wall for r in untraced), "s")
    put("trace.wall_s", wall / k, "s")
    put("trace.wrapped_self_s", self_sum / k, "s")
    put("trace.bench_own_s", bench_own / k, "s")
    put("trace.unaccounted_s", (wall - self_sum - bench_own) / k, "s")
    return out


def summary_lines(wl, rounds: list[Round], metrics: dict, attempted: int, failed: int) -> list[str]:
    r0 = rounds[0]
    wall_s = best_round_s(rounds)
    lines = [
        f"workload {wl.name}: {len(rounds)} rounds of {len(r0.times)} requests; "
        f"operations attempted {attempted}, failed {failed}",
        f"  wall clock, each request at its fastest: {len(r0.times) / wall_s:.6g} requests/s, "
        f"{wl.throughput} {r0.units / wall_s:.6g} {wl.unit}",
    ]
    if r0.cals:
        lines.append(f"  {wl.throughput}: {r0.units / scaled_round_s(rounds):.6g} {wl.unit} at reference speed")
    lines += [f"  {k}: {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    faults = sorted({f.key() for r in rounds for f in r.faults})
    if faults:
        lines.append(f"  known faults, {len(r0.faults)} per round, closed-form rows at (p, n, method, kind):")
        lines += [f"    {key}" for key in faults]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "symrank" / "__init__.py").is_file():
        print(f"symrank sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import symrank.cli as cli

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    setup_s = None if args.trace else setup_seconds(wl.name)
    wl.prepare()
    WORK.mkdir(exist_ok=True)
    try:
        requests = wl.requests(args.seed, WORK)
        if args.trace:
            timed, traced, tracer = run_traced(cli, requests, args.seconds)
            metrics = per_layer(tracer, traced, timed)
        else:
            timed, traced = run_for(cli, requests, args.seconds), []
            metrics = end_to_end(timed, setup_s)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    rounds = timed + traced
    errors = [e for r in rounds for e in r.errors]
    result = {
        "correct": not errors,
        "attempted": sum(r.ops for r in rounds),
        "failed": sum(len(r.faults) + len(r.errors) for r in rounds),
        "metrics": metrics,
    }
    for line in summary_lines(wl, timed, metrics, result["attempted"], result["failed"]):
        print(line)
    for e in errors[:20]:
        print(f"  CHECK FAILED: {e}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
