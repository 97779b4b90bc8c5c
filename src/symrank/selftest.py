"""Invariant suites runnable from the CLI.

Each suite re-derives a property from scratch (brute-force enumeration,
independent high-precision evaluation, exhaustive checking) and compares it
against the package's primary route.  Output is deterministic: no timings, no
unseeded randomness.  Per-suite timings, when asked for, go to a separate
stream.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_right
from decimal import Decimal, getcontext
from fractions import Fraction

from . import bounds, curves, fields, multiplier, primes
from .ntheory import prime_power_split


class SelfTestFailure(AssertionError):
    pass


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise SelfTestFailure(msg)


def suite_field_axioms() -> str:
    rng = random.Random(12001)
    specs = [2, 3, 5, 4, 8, 9, 25, 49]
    trials = 40
    for q in specs:
        f = fields.make_field(q)
        for _ in range(trials):
            a, b, c = (f.random(rng) for _ in range(3))
            _check(f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c)), f"assoc fails in GF({q})")
            _check(
                f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c)),
                f"distrib fails in GF({q})",
            )
            if a:
                _check(f.mul(a, f.inv(a)) == 1, f"inverse fails in GF({q})")
    return f"{len(specs)} fields x {trials} random triples"


def suite_irreducible_search() -> str:
    cases = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 8), (3, 2), (3, 4), (4, 2), (5, 2), (5, 4), (7, 2), (9, 2)]
    for q, n in cases:
        f = fields.make_field(q)
        got = fields.find_irreducible(f, n)
        # oracle: scan candidates in canonical order, testing by trial division
        for cand in fields.all_monic_polys(f, n):
            if _brute_irreducible(f, cand):
                _check(cand == got, f"canonical irreducible mismatch at q={q}, n={n}")
                break
    return f"{len(cases)} canonical moduli match brute-force scan"


def _brute_irreducible(f, poly) -> bool:
    n = len(poly) - 1
    if n == 1:
        return True
    for d in range(1, n // 2 + 1):
        for div in fields.all_monic_polys(f, d):
            if not fields.poly_divmod(f, poly, div)[1]:
                return False
    return True


def suite_place_counts() -> str:
    checked = 0
    for q in range(2, 65):
        try:
            prime_power_split(q)
        except ValueError:
            continue
        n1_sq = fields.count_places_rational_ff(q * q, 1)
        n1 = fields.count_places_rational_ff(q, 1)
        n2 = fields.count_places_rational_ff(q, 2)
        _check(n1_sq == n1 + 2 * n2, f"descent identity fails at q={q}")
        checked += 1
    for q, d in [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (7, 2)]:
        f = fields.make_field(q)
        brute = sum(1 for poly in fields.all_monic_polys(f, d) if _brute_irreducible(f, poly))
        _check(
            brute == fields.count_places_rational_ff(q, d),
            f"place count disagrees with enumeration at q={q}, d={d}",
        )
    return f"descent identity at {checked} prime powers; 6 counts vs enumeration"


def suite_linear_solve() -> str:
    rng = random.Random(12002)
    rounds = 25
    for q in (2, 5, 9):
        f = fields.make_field(q)
        done = 0
        while done < rounds:
            n = rng.randrange(1, 6)
            m = fields.Matrix(f, [[f.random(rng) for _ in range(n)] for _ in range(n)])
            v = [f.random(rng) for _ in range(n)]
            try:
                sol = fields.solve_linear(m, fields.Matrix(f, ([x] for x in m.matvec(v))))
            except fields.SingularMatrixError:
                continue
            _check(sol.rows == [[x] for x in v], f"solve round-trip fails in GF({q})")
            done += 1
    return f"3 fields x {rounds} random systems"


def suite_sieve_counts() -> str:
    _check(primes.sieve(10) == (2, 3, 5, 7), "primes <= 10")
    _check(len(primes.sieve(100)) == 25, "pi(100)")
    _check(len(primes.sieve(10**6)) == 78498, "pi(10**6)")
    return "pi(10)=4, pi(100)=25, pi(10**6)=78498"


def suite_gap_scan() -> str:
    scan = primes.verify_gaps(10**6, Fraction(2, 3))
    _check(scan.violations == (7,), f"violations below 10**6 at 2/3: {scan.violations}")
    scan2 = primes.verify_gaps(200, Fraction(21, 40))
    _check(
        scan2.violations == (3, 7, 13, 23, 113),
        f"violations below 200 at 21/40: {scan2.violations}",
    )
    return "2/3 scan to 10**6 -> [7]; 21/40 scan to 200 -> [3, 7, 13, 23, 113]"


def suite_pair_inequalities() -> str:
    pr = primes.sieve(20000)
    cells = 0
    for p in (5, 7, 13, 17, 19):
        for n in range(p, 1501):
            for fam in (primes.PairFamily.QUADRATIC_GENERIC, primes.PairFamily.PRIME_GENERIC):
                try:
                    pair = primes.select_pair(p, n, fam)
                except primes.PairSelectionError:
                    continue
                if pair.skipped:
                    continue
                lk, lk1 = pair.l_k, pair.l_k1
                _check((p - 1) * (lk1 + 1) > 2 * n + 2 * lk1 - 2, f"strict fails p={p} n={n}")
                _check((p - 1) * (lk + 1) <= 2 * n + 2 * lk - 2, f"non-strict fails p={p} n={n}")
                _check(pr[bisect_right(pr, lk)] == lk1, f"pair not consecutive p={p} n={n}")
                cells += 1
    for n in range(11, 1501):
        for fam in (primes.PairFamily.QUADRATIC_ELEVEN, primes.PairFamily.PRIME_ELEVEN):
            try:
                pair = primes.select_pair(11, n, fam)
            except primes.PairSelectionError:
                continue
            if pair.skipped:
                continue
            lk, lk1 = pair.l_k, pair.l_k1
            _check(10 * (lk1 + 1) > n + 2 * lk1, f"strict fails p=11 n={n}")
            _check(10 * (lk + 1) <= n + 2 * lk, f"non-strict fails p=11 n={n}")
            cells += 1
    return f"{cells} no-skip cells satisfy both threshold inequalities exactly"


def suite_genus_families() -> str:
    pr = primes.sieve(10**4)
    for l in pr:
        if l != 11:
            _check(curves.genus_X0(11 * l).genus == l, f"genus(X0(11*{l}))")
        if l != 23:
            _check(curves.genus_X0(23 * l).genus == 2 * l + 1, f"genus(X0(23*{l}))")
    return f"{len(pr)} primes below 10**4, both families"


def suite_gamma0_consistency() -> str:
    for n in range(1, 10**4 + 1):
        d = curves.genus_X0(n)
        _check(
            12 * d.genus - 12 + 3 * d.nu2 + 4 * d.nu3 + 6 * d.nu_inf == d.mu,
            f"gamma0 identity fails at N={n}",
        )
    return "12g-12+3nu2+4nu3+6nu_inf == mu for all N <= 10**4"


def suite_rr_cross_check() -> str:
    rng = random.Random(12003)
    getcontext().prec = 80
    trials = 1000
    for _ in range(trials):
        q = rng.randrange(2, 10**4)
        n = rng.randrange(1, 51)
        g = rng.randrange(0, 10**4)
        exact = curves.check_rr_hypothesis(q, n, g)
        dq = Decimal(q)
        rhs = dq ** (Decimal(n - 1) / 2) * (dq.sqrt() - 1)
        _check(exact == (Decimal(2 * g + 1) <= rhs), f"rr mismatch at q={q} n={n} g={g}")
    return f"{trials} random (q, n, g) agree with 80-digit evaluation"


def suite_remark_dominance() -> str:
    count = 0
    for p in primes.sieve(10**4):
        if p < 5:
            continue
        _check(bounds.remark_quadratic_holds(p), f"quadratic remark fails at p={p}")
        _check(bounds.remark_prime_holds(p), f"prime remark fails at p={p}")
        count += 1
    return f"both dominance remarks hold for all {count} primes 5 <= p <= 10**4"


def suite_closed_form_values() -> str:
    r = bounds.closed_form_quadratic(5, 100)
    _check(abs(r.value_real - 316.8980164933093) < 1e-9, f"quad(5,100) = {r.value_real}")
    _check(r.value_int == 316 and not r.valid_unconditional, "quad(5,100) int/validity")
    rp = bounds.closed_form_prime(5, 100)
    _check(abs(rp.value_real - 535.7960329866186) < 1e-9, f"prime(5,100) = {rp.value_real}")
    r11 = bounds.closed_form_quadratic(11, 800)
    _check(abs(r11.value_real - 1840.0500851281297) < 1e-9, f"quad(11,800) = {r11.value_real}")
    _check(
        bounds.asymptotic_coefficient(5, "p2") == Fraction(3)
        and bounds.asymptotic_coefficient(5, "p") == Fraction(5)
        and bounds.asymptotic_coefficient(7, "p") == Fraction(4),
        "asymptotic coefficients",
    )
    return "frozen spot values and exact asymptotics reproduced"


def suite_constructive_witnesses() -> str:
    r = bounds.constructive_bound(5, 100, "p2")
    _check(
        r.value_int == 300
        and r.witnesses.pair.l_k == 97
        and r.witnesses.pair.l_k1 == 101
        and r.witnesses.curve.n1_lower_p2 == 408,
        "pipeline (5, 100, p2)",
    )
    rp = bounds.constructive_bound(5, 100, "p")
    _check(rp.value_int == 502, "pipeline (5, 100, p)")
    r11 = bounds.constructive_bound(11, 810, "p2")
    _check(
        r11.value_int == 1822 and r11.witnesses.curve.n1_lower_p2 == 2040,
        "pipeline (11, 810, p2)",
    )
    rs = bounds.constructive_bound(5, 8, "p2")
    _check(
        rs.value_int == 22 and rs.witnesses.pair.skipped == (5,) and len(rs.caveats) == 1,
        "pipeline skip case (5, 8, p2)",
    )
    return "witness pipelines (5,100), (11,810) and the skip case reproduce"


# Cells where the published closed form dips below the constructive bound.
# Both sit exactly on the threshold boundary (T = 3 is prime, successor 5):
# the closed form replaces the gap allowance at the witness by the smaller
# allowance at 2n/(p-3), which undercuts when the relative prime gap is large.
KNOWN_UNDERCUT_CELLS = ((13, 22), (17, 30))


def consistency_sweep() -> list[tuple[int, int, str]]:
    """Cells p in {5, 7, 13, 17}, 20 <= n <= 5000 (no skip, gap condition
    holding at the witness) where the constructive value exceeds the
    closed-form value."""
    policy = bounds.GapPolicy.dudek()
    violations = []
    for p in (5, 7, 13, 17):
        for n in range(20, 5001):
            try:
                cq = bounds.constructive_bound(p, n, "p2", policy)
            except bounds.InfeasiblePipelineError as exc:
                if exc.failed_check == "pair_selection":
                    continue
                raise
            pair = cq.witnesses.pair  # both fields are filtered on the quadratic pair
            if pair.skipped or pair.gap**3 > pair.l_k**2:  # a skip, or the gap condition fails
                continue
            if cq.value_int > bounds.closed_form_quadratic(p, n, policy).value_real:
                violations.append((p, n, "p2"))
            cp = bounds.constructive_bound(p, n, "p", policy)
            if cp.value_int > bounds.closed_form_prime(p, n, policy).value_real:
                violations.append((p, n, "p"))
    return violations


def suite_proof_vs_closed_form() -> str:
    violations = consistency_sweep()
    expected = sorted(
        (p, n, f) for (p, n) in KNOWN_UNDERCUT_CELLS for f in ("p2", "p")
    )
    _check(
        sorted(violations) == expected,
        f"undercut cells changed: {sorted(violations)} != {expected}",
    )
    return (
        "constructive <= closed form on the sweep grid except the 4 documented "
        f"boundary cells {expected}"
    )


def suite_multiplication() -> str:
    expected_rank = {
        (2, 2): 3, (3, 2): 3, (4, 2): 3, (5, 2): 3, (2, 3): 6,
        (4, 3): 5, (5, 3): 5, (3, 3): 6, (5, 4): 8,
    }
    for (q, n), rank in expected_rank.items():
        algo = multiplier.build_algorithm(q, n)
        report = multiplier.verify(algo, "exhaustive")  # raises at a failing pair
        _check(report.rank == rank == algo.plan.cost, f"rank at ({q},{n}): {report.rank}")
        _check(report.rank <= report.envelope, f"envelope exceeded at ({q},{n})")
    return f"{len(expected_rank)} algorithms verified exhaustively, ranks as expected"


def suite_tensor_roundtrip() -> str:
    for q, n in ((2, 2), (2, 3), (5, 3)):
        algo = multiplier.build_algorithm(q, n)
        blob = multiplier.emit_tensor(algo)
        again = multiplier.parse_tensor(blob)
        _check(multiplier.emit_tensor(again) == blob, f"round trip not byte-stable ({q},{n})")
        multiplier.verify(again, "exhaustive")  # raises at a failing pair
    return "3 tensors byte-stable through emit/parse and re-verified"


SUITES = (
    ("field_axioms", suite_field_axioms),
    ("irreducible_search", suite_irreducible_search),
    ("place_counts", suite_place_counts),
    ("linear_solve", suite_linear_solve),
    ("sieve_counts", suite_sieve_counts),
    ("gap_scan", suite_gap_scan),
    ("pair_inequalities", suite_pair_inequalities),
    ("genus_families", suite_genus_families),
    ("gamma0_consistency", suite_gamma0_consistency),
    ("rr_cross_check", suite_rr_cross_check),
    ("remark_dominance", suite_remark_dominance),
    ("closed_form_values", suite_closed_form_values),
    ("constructive_witnesses", suite_constructive_witnesses),
    ("proof_vs_closed_form", suite_proof_vs_closed_form),
    ("multiplication", suite_multiplication),
    ("tensor_roundtrip", suite_tensor_roundtrip),
)


def run_selftest(write, log=None) -> int:
    """Run every suite; returns 0 on full pass, 3 otherwise.  Any exception
    a suite raises is that suite's FAIL line, and the later suites still
    run.  With `log`, each suite's wall time in milliseconds goes there,
    one line per suite."""
    passed = 0
    for name, fn in SUITES:
        start = time.perf_counter()
        try:
            result = f"ok ({fn()})"
            passed += 1
        except Exception as exc:
            result = f"FAIL ({type(exc).__name__}: {exc})"
        if log is not None:
            log(f"selftest: {name} {(time.perf_counter() - start) * 1000:.1f} ms\n")
        write(f"selftest: {name} ... {result}\n")
    write(f"selftest: {passed}/{len(SUITES)} suites passed\n")
    return 0 if passed == len(SUITES) else 3
