"""The four workloads: one round of CLI requests each, with the check of every reply.

A round is a fixed list of requests sent one after another (a closed loop,
one client).  The bound workloads do not depend on the seed; the mult
workloads pass it to `mult --seed` and to the operand-pair sample that checks
each emitted tensor.  Every round of a workload attempts the same
operations, so the share of failed operations is the same in every run.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
from checks import Fault, require

# Requests are kept short and many, so that each is timed in several rounds
# of a run and a round's sum averages over the machine's speed changes.
# bound-grid: per-p `table` requests under the dudek (CSV) and bhp (JSON)
# policies, one all-p `table` under the empirical policy (each empirical
# request pays a gap scan), and `compare` requests
GRID_P_SET = (5, 7, 11, 13, 17, 101, 1009)
GRID_TABLES = (("dudek", "csv", (2, 3000, 37)), ("bhp", "json", (3, 3000, 41)))
GRID_EMPIRICAL = ("empirical", "csv", (4, 3000, 43))
GRID_COMPARE_N = (2, 3, 10, 22, 30, 100, 777, 2500)

# bound-large-n: `bound --method all` (dudek policy), both fields
LARGE_N_CELLS = (
    (5, "p", 2_000_000), (7, "p", 1_000_000), (11, "p", 1_000_000), (11, "p", 200_000),
    (5, "p2", 600_000), (7, "p2", 500_000), (11, "p2", 400_000), (13, "p2", 300_000),
    (5, "p2", 100_000), (13, "p", 700_000),
)

# mult cells: random verification (q**(2n) > 2**24) and exhaustive (<= 2**24)
CONSTRUCT_CELLS = ((16, 4), (64, 3), (25, 4), (9, 6), (4, 8), (27, 3), (49, 3), (7, 6), (5, 8))
EXHAUSTIVE_CELLS = ((11, 3), (31, 2), (5, 4), (9, 3), (8, 3), (25, 2), (4, 4), (3, 5), (7, 3), (16, 2))
TENSOR_SAMPLES = 64


@dataclass
class Outcome:
    """What one reply contributed: operations checked, known faults among
    them, and units of work (rows, requests, algorithms or pairs)."""

    ops: int
    units: int
    faults: list[Fault] = field(default_factory=list)


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    check: Callable[[int, str], Outcome]


@dataclass(frozen=True)
class Workload:
    name: str
    throughput: str  # name and unit of `units` per second, for the summary
    unit: str
    requests: Callable[[int, Path], list[Request]]  # (seed, work dir) -> one round
    prepare: Callable[[], None]  # one-time preparation before the first request


def _expect_ok(code: int, out: str, what: str) -> None:
    require(code == 0, f"{what}: exit code {code}: {out[:300]}")


# ---------------------------------------------------------------------------
# bound-grid


def _grid_context() -> checks.GridContext:
    from symrank.primes import DEFAULT_SIEVE_LIMIT

    return checks.GridContext(checks.EMPIRICAL_FLOOR, DEFAULT_SIEVE_LIMIT)


def _expected_table_keys(n_range, p_set) -> list[tuple]:
    lo, hi, step = n_range
    keys = []
    for p in p_set:
        for n in range(lo, hi + 1, step):
            for fld in ("p2", "p"):
                for m in [f"prior_{v}" for v in checks.PRIORS[fld]] + [checks.CLOSED[fld], "constructive"]:
                    keys.append((p, n, fld, m))
    return keys


def _table_check(policy: str, fmt: str, n_range, p_set, ctx: checks.GridContext) -> Callable[[int, str], Outcome]:
    expected = _expected_table_keys(n_range, p_set)

    def check(code: int, out: str) -> Outcome:
        what = f"table {policy}"
        _expect_ok(code, out, what)
        if fmt == "csv":
            reader = csv.DictReader(io.StringIO(out))
            require(reader.fieldnames == checks.CSV_HEADER, f"{what}: header {reader.fieldnames}")
            rows = list(reader)
        else:
            rows = json.loads(out)["rows"]
        keys = [(int(r["p"]), int(r["n"]), r["field"], r["method"]) for r in rows]
        require(keys == expected, f"{what}: rows do not cover the requested grid in order")
        faults = [f for f in (checks.check_table_row(r, policy, ctx) for r in rows) if f]
        return Outcome(len(rows), len(rows), faults)

    return check


def _compare_check(p: int, n: int) -> Callable[[int, str], Outcome]:
    def check(code: int, out: str) -> Outcome:
        _expect_ok(code, out, f"compare ({p},{n})")
        count, faults = checks.check_compare(json.loads(out), p, n)
        return Outcome(count, count, faults)

    return check


def _grid_requests(seed: int, work: Path) -> list[Request]:
    ctx = _grid_context()
    tables = [(policy, fmt, rng, (p,)) for policy, fmt, rng in GRID_TABLES for p in GRID_P_SET]
    tables.append(GRID_EMPIRICAL + (GRID_P_SET,))
    reqs = [
        Request(
            ("table", "--p-set", ",".join(map(str, p_set)), "--n-range", ":".join(map(str, rng)),
             "--policy", policy, "--format", fmt),
            _table_check(policy, fmt, rng, p_set, ctx),
        )
        for policy, fmt, rng, p_set in tables
    ]
    reqs += [
        Request(("compare", "--p", str(p), "--n", str(n)), _compare_check(p, n))
        for p in GRID_P_SET
        for n in GRID_COMPARE_N
    ]
    return reqs


def _grid_prepare() -> None:
    from symrank import bounds

    bounds.default_empirical_policy()


# ---------------------------------------------------------------------------
# bound-large-n


def _bound_check(p: int, fld: str, n: int) -> Callable[[int, str], Outcome]:
    def check(code: int, out: str) -> Outcome:
        _expect_ok(code, out, f"bound ({p},{n},{fld})")
        count, faults = checks.check_bound_all(json.loads(out), p, n, fld)
        return Outcome(count, 1, faults)

    return check


def _large_n_requests(seed: int, work: Path) -> list[Request]:
    return [
        Request(
            ("bound", "--p", str(p), "--n", str(n), "--field", fld, "--method", "all"),
            _bound_check(p, fld, n),
        )
        for p, fld, n in LARGE_N_CELLS
    ]


# ---------------------------------------------------------------------------
# mult-construct and mult-exhaustive


def _mult_check(q: int, n: int, seed: int, path: Path, unit_is_pairs: bool) -> Callable[[int, str], Outcome]:
    def check(code: int, out: str) -> Outcome:
        from symrank import multiplier

        what = f"mult ({q},{n})"
        _expect_ok(code, out, what)
        doc = json.loads(out)
        checks.check_mult_report(doc, q, n, seed)
        require(doc["tensor_path"] == str(path), f"{what}: tensor path {doc['tensor_path']}")
        text = path.read_text()
        tensor = json.loads(text)
        checks.check_tensor(
            tensor, q, n, doc["rank"], doc["modulus"], f"{seed}:{q}:{n}", TENSOR_SAMPLES
        )
        algo = multiplier.parse_tensor(text)
        require(
            algo.rank == doc["rank"]
            and algo.forms.to_int_lists() == tensor["forms"]
            and algo.recon.to_int_lists() == tensor["recon"],
            f"{what}: parse_tensor does not read the emitted tensor back",
        )
        return Outcome(1, doc["verification"]["pairs_checked"] if unit_is_pairs else 1)

    return check


def _mult_requests(cells, unit_is_pairs: bool) -> Callable[[int, Path], list[Request]]:
    def requests(seed: int, work: Path) -> list[Request]:
        out = []
        for q, n in cells:
            path = work / f"tensor_{q}_{n}.json"
            argv = ("mult", "--q", str(q), "--n", str(n), "--allow-deg2", "--verify", "auto",
                    "--seed", str(seed), "--emit-tensor", str(path))
            out.append(Request(argv, _mult_check(q, n, seed, path, unit_is_pairs)))
        return out

    return requests


def _no_prepare() -> None:
    pass


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bound-grid", "grid_rows_per_s", "rows/s", _grid_requests, _grid_prepare),
        Workload("bound-large-n", "large_n_requests_per_s", "requests/s", _large_n_requests, _no_prepare),
        Workload("mult-construct", "algorithms_per_s", "algorithms/s",
                 _mult_requests(CONSTRUCT_CELLS, False), _no_prepare),
        Workload("mult-exhaustive", "verified_pairs_per_s", "pairs/s",
                 _mult_requests(EXHAUSTIVE_CELLS, True), _no_prepare),
    )
}

