"""Tests for the benchmark's checkers: real program output passes, and each
tampered output is rejected.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from checks import CheckFailure  # noqa: E402
from symrank import cli  # noqa: E402

CTX = checks.GridContext(empirical_floor=checks.EMPIRICAL_FLOOR, verified_limit=10**7)


def run_cli(*argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    assert code == 0, buf.getvalue()
    return buf.getvalue()


def table_rows(p: int, n: int, policy: str = "empirical") -> list[dict]:
    out = run_cli("table", "--p-set", str(p), "--n-range", f"{n}:{n}", "--policy", policy, "--format", "csv")
    return list(csv.DictReader(io.StringIO(out)))


def row(rows: list[dict], field: str, method: str) -> dict:
    return next(r for r in rows if r["field"] == field and r["method"] == method)


@pytest.fixture(scope="module")
def mult_4_3(tmp_path_factory):
    path = tmp_path_factory.mktemp("tensor") / "t.json"
    doc = json.loads(run_cli("mult", "--q", "4", "--n", "3", "--allow-deg2", "--emit-tensor", str(path)))
    return doc, json.loads(path.read_text())


def test_own_gap_scan_finds_the_published_floor():
    assert checks.last_gap_violation(10**6, checks.GAP_ALPHA["empirical"]) == 7


def test_empirical_floor_is_the_own_gap_scan_to_the_default_limit():
    worst = checks.last_gap_violation(10**7, checks.GAP_ALPHA["empirical"])
    floor = worst + 1
    while not checks.is_prime(floor):
        floor += 1
    assert floor == checks.EMPIRICAL_FLOOR


def test_rr_decision_matches_exact_integers():
    for q in (5, 7, 25, 49, 1009):
        for n in range(1, 40):
            for g in range(0, 400, 3):
                assert checks.rr_holds(q, n, g) == _rr_exact(q, n, g), (q, n, g)


def _rr_exact(q: int, n: int, g: int) -> bool:
    """2g+1 <= q**((n-1)/2) * (sqrt(q)-1), squared once into integers."""
    a = 2 * g + 1
    if n % 2:
        return (a + q ** ((n - 1) // 2)) ** 2 <= q**n
    d = q ** (n // 2) - a
    return d >= 0 and d * d >= q ** (n - 1)


def test_real_table_rows_pass():
    for p, n in ((5, 100), (11, 810), (13, 22), (1009, 2500)):
        for r in table_rows(p, n):
            checks.check_table_row(r, "empirical", CTX)


def test_out_of_domain_closed_form_is_a_fault():
    faults = [checks.check_table_row(r, "dudek", CTX) for r in table_rows(1009, 2, "dudek")]
    kinds = {(f.method, f.kind) for f in faults if f}
    assert ("closed_quadratic", "below 2n-1") in kinds


def test_closed_form_one_ulp_down_is_rejected():
    r = row(table_rows(5, 100), "p2", "closed_quadratic")
    checks.check_table_row(r, "empirical", CTX)
    r["value_real"] = repr(math.nextafter(float(r["value_real"]), -math.inf))
    with pytest.raises(CheckFailure):
        checks.check_table_row(r, "empirical", CTX)


def test_constructive_pair_skipping_a_prime_is_rejected():
    r = row(table_rows(5, 100), "p2", "constructive")
    assert (r["l_k"], r["l_k1"]) == ("97", "101")
    checks.check_table_row(r, "empirical", CTX)
    # 101 -> 103 passes over the prime 101; genus and value follow the new pair
    r.update(l_k1="103", genus="103", value_int="302", value_real="302.0")
    with pytest.raises(CheckFailure, match="lie between"):
        checks.check_table_row(r, "empirical", CTX)


def test_declined_row_with_large_threshold_is_rejected():
    r = row(table_rows(5, 2), "p2", "constructive")
    checks.check_table_row(r, "empirical", CTX)
    r["n"] = "100"
    with pytest.raises(CheckFailure):
        checks.check_table_row(r, "empirical", CTX)


def test_real_compare_and_bound_documents_pass():
    checks.check_compare(json.loads(run_cli("compare", "--p", "11", "--n", "30")), 11, 30)
    doc = json.loads(run_cli("bound", "--p", "7", "--n", "5000", "--field", "p", "--method", "all"))
    checks.check_bound_all(doc, 7, 5000, "p")


def test_mult_rank_differing_from_plan_cost_is_rejected(mult_4_3):
    doc, _ = mult_4_3
    checks.check_mult_report(doc, 4, 3, seed=20170223)
    bad = copy.deepcopy(doc)
    bad["rank"] += 1
    bad["verification"]["rank"] += 1
    with pytest.raises(CheckFailure, match="plan cost"):
        checks.check_mult_report(bad, 4, 3, seed=20170223)


def test_tensor_with_one_recon_entry_altered_is_rejected(mult_4_3):
    doc, tensor = mult_4_3
    checks.check_tensor(tensor, 4, 3, doc["rank"], doc["modulus"], "s", 64)
    bad = copy.deepcopy(tensor)
    bad["recon"][1][2] = (bad["recon"][1][2] + 1) % 4
    with pytest.raises(CheckFailure, match="expected"):
        checks.check_tensor(bad, 4, 3, doc["rank"], doc["modulus"], "s", 64)


def test_own_small_fields_match_the_canonical_moduli():
    assert checks.small_field(4).modulus == [1, 1, 1]
    assert checks.small_field(8).modulus == [1, 1, 0, 1]
    assert checks.small_field(9).modulus == [1, 0, 1]
