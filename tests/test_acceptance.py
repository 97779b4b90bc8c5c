"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen.  Criterion 7 is known to fail at four threshold-boundary cells where
the published closed form dips below the constructive bound; the README and
the proof_vs_closed_form selftest suite document the effect.
"""

import subprocess
import sys
import time
from fractions import Fraction

from symrank import bounds, curves, fields, multiplier, primes
from symrank.ntheory import prime_power_split


def _line(num: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'}{tail}")


def test_criterion_1_multiplication_correctness():
    t0 = time.monotonic()
    cases = [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (4, 3), (5, 3), (3, 3), (5, 4)]
    pinned_ranks = {(2, 2): 3, (3, 2): 3, (4, 2): 3, (4, 3): 5, (2, 3): 6}
    problems = []
    for q, n in cases:
        algo = multiplier.build_algorithm(q, n)
        report = multiplier.verify(algo, "exhaustive")
        if report.failures != 0:
            problems.append(f"({q},{n}) failures={report.failures}")
        if algo.rank != algo.plan.cost:
            problems.append(f"({q},{n}) rank != plan cost")
        if (q, n) in pinned_ranks and algo.rank != pinned_ranks[(q, n)]:
            problems.append(f"({q},{n}) rank={algo.rank} != {pinned_ranks[(q, n)]}")
        env = 2 * n - 1 if algo.plan.case == 1 else 3 * n
        if algo.rank > env:
            problems.append(f"({q},{n}) rank above envelope")
    elapsed = time.monotonic() - t0
    ok = not problems and elapsed < 10.0
    _line(1, "multiplication correctness", ok, f"{len(cases)} cases in {elapsed:.2f}s")
    assert not problems, problems
    assert elapsed < 10.0


def test_criterion_2_genus_families():
    t0 = time.monotonic()
    mismatches = []
    for l in primes.sieve(10**4):
        if l != 11 and curves.genus_X0(11 * l).genus != l:
            mismatches.append(("11l", l))
        if l != 23 and curves.genus_X0(23 * l).genus != 2 * l + 1:
            mismatches.append(("23l", l))
    elapsed = time.monotonic() - t0
    ok = not mismatches and elapsed < 2.0
    _line(2, "genus families", ok, f"1229 primes, {elapsed:.2f}s")
    assert mismatches == []
    assert elapsed < 2.0


def test_criterion_3_gap_verification():
    t0 = time.monotonic()
    scan = primes.verify_gaps(10**6, Fraction(2, 3))
    elapsed = time.monotonic() - t0
    ok = scan.violations == (7,) and elapsed < 5.0
    _line(3, "gap verification", ok, f"violations={list(scan.violations)}, {elapsed:.2f}s")
    assert scan.violations == (7,)
    assert elapsed < 5.0


def test_criterion_4_remark_dominance_quadratic():
    failures = [
        p for p in primes.sieve(10**4) if p >= 5 and not bounds.remark_quadratic_holds(p)
    ]
    spot = abs(float(bounds.prior_coefficient("vi", 5)) - 3.36170) < 1e-5
    new_at_5 = bounds.asymptotic_coefficient(5, "p2") == 3
    ok = not failures and spot and new_at_5
    _line(4, "remark dominance quadratic", ok, "exact rational sweep to 10**4")
    assert failures == []
    assert spot and new_at_5


def test_criterion_5_remark_dominance_prime():
    failures = [
        p for p in primes.sieve(10**4) if p >= 5 and not bounds.remark_prime_holds(p)
    ]
    spot = bounds.asymptotic_coefficient(5, "p") == 5
    spot_prior = float(bounds.prior_coefficient("iv", 5)) == 5.4
    ok = not failures and spot and spot_prior
    _line(5, "remark dominance prime", ok, "exact rational sweep to 10**4")
    assert failures == []
    assert spot and spot_prior


def test_criterion_6_constructive_pipeline():
    rq = bounds.constructive_bound(5, 100, "p2")
    rp = bounds.constructive_bound(5, 100, "p")
    r11 = bounds.constructive_bound(11, 810, "p2")
    checks = [
        (rq.witnesses.pair.l_k, rq.witnesses.pair.l_k1) == (97, 101),
        rq.value_int == 300,
        rq.witnesses.curve.n1_lower_p2 == 408 and 408 > 2 * 100 + 2 * 101 - 2 == 400,
        rp.value_int == 502,
        r11.value_int == 1822,
        r11.witnesses.curve.n1_lower_p2 == 2040 and 2040 > 2 * 810 + 2 * 203 - 2 == 2024,
    ]
    ok = all(checks)
    _line(6, "constructive pipeline", ok, "witnesses (97,101); bounds 300/502/1822")
    assert all(checks), checks


def test_criterion_7_proof_closed_form_consistency():
    """Constructive value <= closed-form value on every no-skip cell where the
    gap condition holds at the witness, for p in {5,7,13,17}, n in [20,5000].

    Known to FAIL: at the threshold-boundary cells (13,22) and (17,30) the
    published closed form undercuts the constructive bound in both fields
    (the inflation factor at 2n/(p-3) is smaller than at the witness prime,
    and with T = 3 the relative successor gap is large).
    """
    t0 = time.monotonic()
    policy = primes.GapPolicy.dudek()  # alpha = 2/3
    violations = []
    for p in (5, 7, 13, 17):
        for n in range(20, 5001):
            try:
                pair = primes.select_pair(p, n, primes.PairFamily.QUADRATIC_GENERIC)
            except primes.PairSelectionError:
                continue
            if pair.skipped:
                continue
            if pair.gap**3 > pair.l_k**2:
                continue
            cq = bounds.constructive_bound(p, n, "p2", policy)
            if cq.value_int > bounds.closed_form_quadratic(p, n, policy).value_real:
                violations.append((p, n, "p2"))
            cp = bounds.constructive_bound(p, n, "p", policy)
            if cp.value_int > bounds.closed_form_prime(p, n, policy).value_real:
                violations.append((p, n, "p"))
    elapsed = time.monotonic() - t0
    ok = not violations and elapsed < 30.0
    _line(7, "proof/closed-form consistency", ok, f"violations={violations}, {elapsed:.1f}s")
    assert elapsed < 30.0
    assert violations == [], (
        "closed form undercuts the constructive bound at threshold-boundary cells "
        f"{violations}; see README for the analysis"
    )


def test_criterion_8_closed_form_reproduction():
    r = bounds.closed_form_quadratic(5, 100, primes.GapPolicy.dudek())
    value_ok = abs(r.value_real - 316.91) <= 0.02
    flag_ok = r.valid_unconditional is False
    asym_ok = True
    for p in (5, 7, 11, 13):
        asym_ok &= bounds.asymptotic_coefficient(p, "p2") == Fraction(2 * (p - 2), p - 3)
        asym_ok &= bounds.asymptotic_coefficient(p, "p") == Fraction(3 * p - 5, p - 3)
    ok = value_ok and flag_ok and asym_ok
    _line(8, "closed-form reproduction", ok, f"value_real={r.value_real}")
    assert value_ok and flag_ok and asym_ok


def test_criterion_9_descent_and_gamma0_identities():
    descent_bad = []
    for q in range(2, 65):
        try:
            prime_power_split(q)
        except ValueError:
            continue
        lhs = fields.count_places_rational_ff(q * q, 1)
        rhs = fields.count_places_rational_ff(q, 1) + 2 * fields.count_places_rational_ff(q, 2)
        if lhs != rhs:
            descent_bad.append(q)
    gamma_bad = []
    for n in range(1, 10**4 + 1):
        d = curves.genus_X0(n)
        if 12 * d.genus - 12 + 3 * d.nu2 + 4 * d.nu3 + 6 * d.nu_inf != d.mu:
            gamma_bad.append(n)
    ok = not descent_bad and not gamma_bad
    _line(9, "descent and index identities", ok, "q <= 64; N <= 10**4")
    assert descent_bad == [] and gamma_bad == []


def _run_cli(*argv: str) -> tuple[int, bytes]:
    proc = subprocess.run(
        [sys.executable, "-m", "symrank.cli", *argv],
        capture_output=True,
        check=False,
    )
    return proc.returncode, proc.stdout


def test_criterion_10_determinism():
    commands = [
        ("selftest",),
        ("bound", "--p", "5", "--n", "100", "--field", "p2", "--method", "constructive",
         "--policy", "empirical"),
        ("gaps", "--limit", "1000000", "--alpha", "2/3"),
        ("mult", "--q", "2", "--n", "3", "--allow-deg2", "--verify", "exhaustive"),
        ("genus", "--N", "143"),
        ("compare", "--p", "5", "--n", "100"),
        ("table", "--p-set", "5,7", "--n-range", "50:100:50", "--format", "csv"),
    ]
    diffs = []
    for argv in commands:
        code1, out1 = _run_cli(*argv)
        code2, out2 = _run_cli(*argv)
        if code1 != code2 or out1 != out2:
            diffs.append(argv[0])
        if argv[0] != "selftest" and code1 != 0:
            diffs.append(f"{argv[0]} exited {code1}")
    ok = not diffs
    _line(10, "determinism", ok, f"{len(commands)} commands run twice")
    assert diffs == [], diffs
