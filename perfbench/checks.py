"""Checkers for symrank CLI output, computed apart from the program.

Every expected value here comes from the benchmark's own arithmetic: its own
primality test and prime-pair search, the published comparator coefficients
and closed forms evaluated in rational and 50-digit decimal arithmetic, its
own genus-0 plan cost and its own GF(q^n) arithmetic.  This module does not
import symrank.

A checker raises `CheckFailure` when an output is wrong.  Closed-form rows
whose number is not a valid upper bound are known faults of the program: a
number below the trivial lower bound 2n-1 (the closed forms are evaluated
outside their derivation domain, where the pair threshold is below 2), or a
number below the formula it evaluates (binary64 arithmetic rounds the
reported bound down).  The row checkers return these as `Fault` values so
that the run counts them as failed operations instead of rejecting it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from decimal import ROUND_FLOOR, Context, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

_HP = Context(prec=50)
_FLOOR15 = Context(prec=15, rounding=ROUND_FLOOR)
REL_TOL = Fraction(1, 10**9)
GAP_ALPHA = {"dudek": Fraction(2, 3), "bhp": Fraction(21, 40), "empirical": Fraction(2, 3)}
# Smallest prime above the last prime l < 10**7 whose successor gap exceeds
# l**(2/3); test_checks.py recomputes it with `last_gap_violation`.  A constant,
# so that the 10**7 sieve does not run in the measured process.
EMPIRICAL_FLOOR = 11
DEFAULT_TRIALS = 1000
EXHAUSTIVE_CAP = 1 << 24


class CheckFailure(AssertionError):
    """An output disagrees with the benchmark's own computation."""


@dataclass(frozen=True)
class Fault:
    """A closed-form row whose number is not a valid upper bound: below the
    trivial lower bound 2n-1, or below the formula it evaluates."""

    p: int
    n: int
    method: str
    value: float
    kind: str

    def key(self) -> tuple:
        return (self.p, self.n, self.method, self.kind)


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailure(msg)


# ---------------------------------------------------------------------------
# primes


def is_prime(n: int) -> bool:
    """Trial division; the benchmark's inputs keep n below about 10**7."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def threshold(p: int, n: int) -> Fraction:
    """The pair threshold T of the paper: (2n-p-1)/(p-3), or (n-p+1)/(p-3) for p = 11."""
    if p == 11:
        return Fraction(n - p + 1, p - 3)
    return Fraction(2 * n - p - 1, p - 3)


def skip_set(p: int) -> frozenset:
    """Level factors that make X0(11l) or X0(23l) degenerate."""
    return frozenset({p, 23 if p == 11 else 11})


@lru_cache(maxsize=None)
def expected_pair(p: int, n: int) -> tuple[int, int] | None:
    """(l_k, l_k1) found by stepping from floor(T), or None when T < 2."""
    t = threshold(p, n)
    if t < 2:
        return None
    skips = skip_set(p)
    lo = math.floor(t)
    while not is_prime(lo) or lo in skips:
        lo -= 1
    hi = lo + 1
    while not is_prime(hi) or hi in skips:
        hi += 1
    return lo, hi


def rr_holds(q: int, n: int, g: int) -> bool:
    """2g+1 <= q**((n-1)/2) * (sqrt(q)-1), by logarithms with exact integers near equality."""
    a = 2 * g + 1
    root = math.isqrt(q)
    if root * root == q:
        rhs_log = (n - 1) * math.log(root) + math.log(root - 1)
    else:
        rhs_log = (n - 1) / 2 * math.log(q) + math.log(math.sqrt(q) - 1)
    margin = rhs_log - math.log(a)
    if abs(margin) > 1e-9 * max(1.0, abs(rhs_log)):
        return margin > 0
    if root * root == q:
        return a <= root ** (n - 1) * (root - 1)
    # a + x <= x*sqrt(q) with x = q**((n-1)/2); squared: (a + x)**2 <= q**n
    if n % 2 == 1:
        return a + q ** ((n - 1) // 2) <= math.isqrt(q**n)
    # n even: q**(n/2) - a >= sqrt(q**(n-1)), and q**(n-1) is not a square
    return q ** (n // 2) - a >= math.isqrt(q ** (n - 1)) + 1


def last_gap_violation(limit: int, alpha: Fraction) -> int:
    """Largest prime l < limit whose successor gap exceeds l**alpha (numpy sieve)."""
    import numpy as np

    top = limit + 2000
    flags = np.ones(top + 1, dtype=bool)
    flags[:2] = False
    for i in range(2, math.isqrt(top) + 1):
        if flags[i]:
            flags[i * i :: i] = False
    primes = np.flatnonzero(flags)
    c, d = alpha.numerator, alpha.denominator
    ls = primes[:-1][primes[:-1] < limit]
    gaps = primes[1 : len(ls) + 1] - ls
    # gap**d > l**c in exact integers; candidates are screened in floats first
    cand = ls[gaps.astype(float) ** d > ls.astype(float) ** c * (1 - 1e-9)]
    worst = 0
    for l in cand.tolist():
        nxt = int(primes[np.searchsorted(primes, l) + 1])
        if (nxt - l) ** d > l**c:
            worst = l
    return worst


# ---------------------------------------------------------------------------
# bound values


@lru_cache(maxsize=None)
def prior_coefficient(variant: str, p: int) -> Fraction:
    """Published per-n coefficients of the comparator bounds, at q = p."""
    q = p
    if variant == "iii":
        return 3 * (1 + Fraction(4, 3) * p / (q - 3 + 2 * (p - 1) * Fraction(q, q + 1)))
    if variant == "iv":
        return 3 * (1 + Fraction(8, 3 * p - 5))
    if variant == "v":
        return 2 * (1 + p / (q - 3 + (p - 1) * Fraction(q, q + 1)))
    if variant == "vi":
        return 2 * (1 + 2 / (p - Fraction(33, 16)))
    raise CheckFailure(f"unknown prior variant {variant!r}")


CSV_HEADER = [
    "p", "n", "field", "method", "value_real", "value_int", "valid",
    "policy", "l_k", "l_k1", "genus", "caveats",
]
PRIORS = {"p2": ("v", "vi"), "p": ("iii", "iv")}
CLOSED = {"p2": "closed_quadratic", "p": "closed_prime"}


@lru_cache(maxsize=None)
def closed_form_value(p: int, n: int, field: str, alpha: Fraction) -> Decimal:
    """The paper's closed form at (p, n), with eps = x**(alpha-1) to 50 digits."""
    with localcontext(_HP):
        x = Fraction(n if p == 11 else 2 * n, p - 3)
        log_x = Decimal(x.numerator).ln() - Decimal(x.denominator).ln()
        e1 = 1 + ((Decimal(alpha.numerator) / alpha.denominator - 1) * log_x).exp()
        k = Decimal(p - 3)
        if field == "p2":
            lead = 2 * (1 + e1 / k) * n
            return lead - e1 * (p + 1) / k - 1 if p != 11 else lead - 2 * e1 * (p - 1) / k
        lead = 3 * (1 + Decimal(4) / 3 * e1 / k) * n
        return lead - 2 * e1 * (p + 1) / k if p != 11 else lead - 4 * e1 * (p - 1) / k + 1


def check_round_up_15(value: float, what: str) -> Decimal:
    """The reported float must be a 15-significant-digit decimal rounded up to a
    float (the float itself when exact, else its upward neighbour); returns it."""
    require(isinstance(value, float) and math.isfinite(value), f"{what}: value {value!r} is not a float")
    d = _FLOOR15.plus(Decimal(value))
    f = float(d)
    if Decimal(f) < d:
        f = math.nextafter(f, math.inf)
    require(f == value, f"{what}: {value!r} is not a 15-digit decimal rounded up")
    return d


def check_value_int(value_real: float, value_int, what: str) -> None:
    require(value_int == math.floor(value_real), f"{what}: value_int {value_int!r} != floor({value_real!r})")


def check_prior(p: int, n: int, field: str, method: str, value_real: float, value_int, what: str) -> None:
    variant = method.removeprefix("prior_")
    require(variant in PRIORS[field], f"{what}: prior {method} does not belong to field {field}")
    exact = prior_coefficient(variant, p) * n
    check_round_up_15(value_real, what)
    got = Fraction(value_real)
    require(got >= exact, f"{what}: {value_real!r} rounds the published {float(exact)!r} down")
    require(got - exact <= REL_TOL * exact, f"{what}: {value_real!r} is far above {float(exact)!r}")
    check_value_int(value_real, value_int, what)


def check_closed(
    p: int, n: int, field: str, method: str, value_real: float, value_int, alpha: Fraction, what: str
) -> Fault | None:
    require(method == CLOSED[field], f"{what}: method {method} does not belong to field {field}")
    exact = closed_form_value(p, n, field, alpha)
    d = check_round_up_15(value_real, what)
    tol = Decimal("1e-9") * max(Decimal(1), abs(exact))
    require(abs(d - exact) <= tol, f"{what}: {value_real!r} differs from the formula {exact:.20} by more than 1e-9")
    check_value_int(value_real, value_int, what)
    kinds = []
    if value_real < 2 * n - 1:
        kinds.append("below 2n-1")
    if Decimal(value_real) < exact - abs(exact) * Decimal("1e-40"):
        kinds.append("below the formula")
    return Fault(p, n, method, value_real, " and ".join(kinds)) if kinds else None


def empirical_valid(p: int, n: int, floor_x: int, verified_limit: int) -> bool:
    """Validity of a closed form under the empirical policy with floor x_alpha = floor_x."""
    if p == 11:
        floor_n = Fraction((p - 3) * floor_x + (p - 1))
    else:
        floor_n = Fraction(p - 3, 2) * floor_x + Fraction(p + 1, 2)
    return n >= floor_n and threshold(p, n) <= verified_limit


def constructive_value(field: str, n: int, g: int) -> int:
    return 2 * n + g - 1 if field == "p2" else 3 * n + 2 * g


def check_constructive(
    p: int, n: int, field: str, l_k: int, l_k1: int, genus: int, skipped, value_int: int, what: str
) -> None:
    """Witness pair, genus, point count, RR inequality and value of a constructive row."""
    t = threshold(p, n)
    require(l_k <= t < l_k1, f"{what}: pair ({l_k}, {l_k1}) does not bracket T = {t}")
    require(is_prime(l_k) and is_prime(l_k1), f"{what}: pair ({l_k}, {l_k1}) is not prime")
    skips = skip_set(p)
    require(l_k not in skips and l_k1 not in skips, f"{what}: pair ({l_k}, {l_k1}) uses a degenerate level")
    between = [m for m in range(l_k + 1, l_k1) if is_prime(m)]
    require(
        all(m in skips for m in between) and sorted(skipped) == between,
        f"{what}: primes {between} lie between {l_k} and {l_k1}, listed skips {sorted(skipped)}",
    )
    expect_g = 2 * l_k1 + 1 if p == 11 else l_k1
    require(genus == expect_g, f"{what}: genus {genus} != {expect_g}")
    n1 = (2 if p == 11 else 1) * (p - 1) * (l_k1 + 1)
    require(n1 > 2 * n + 2 * genus - 2, f"{what}: point count {n1} <= 2n+2g-2")
    require(rr_holds(p * p if field == "p2" else p, n, genus), f"{what}: RR inequality fails")
    require(value_int == constructive_value(field, n, genus), f"{what}: value {value_int} is not the envelope")
    require(value_int >= 2 * n - 1, f"{what}: value {value_int} below 2n-1")


def check_declined(p: int, n: int, reason: str, what: str) -> None:
    require(threshold(p, n) < 2, f"{what}: declined ({reason}) although T = {threshold(p, n)} >= 2")


_SKIP_PREFIX = "constructive-with-caveat: skipped degenerate level factor(s) "


def skips_from_caveats(caveats: str) -> list[int]:
    """The skipped level factors a row's caveat lists, or []."""
    if _SKIP_PREFIX not in caveats:
        return []
    listed = caveats.split(_SKIP_PREFIX, 1)[1].split("]", 1)[0].lstrip("[")
    return [int(x) for x in listed.split(",") if x.strip()]


# ---------------------------------------------------------------------------
# table rows and command documents


@dataclass(frozen=True)
class GridContext:
    """Facts a table row is checked against: the empirical floor found by the
    benchmark's own gap scan (EMPIRICAL_FLOOR), and the sieve range it covers."""

    empirical_floor: int
    verified_limit: int


def _as_int(v):
    return int(v) if isinstance(v, str) else v


def _as_float(v):
    return float(v) if isinstance(v, str) else v


def _as_bool(v):
    if isinstance(v, str):
        require(v in ("True", "False"), f"bad boolean {v!r}")
        return v == "True"
    return v


def check_table_row(row: dict, policy: str, ctx: GridContext) -> Fault | None:
    """One row of `table` output (CSV strings or JSON values)."""
    p, n, field, method = _as_int(row["p"]), _as_int(row["n"]), row["field"], row["method"]
    what = f"table {policy} ({p},{n},{field},{method})"
    require(field in PRIORS, f"{what}: bad field")
    valid = _as_bool(row["valid"])
    if method.startswith("prior_"):
        check_prior(p, n, field, method, _as_float(row["value_real"]), _as_int(row["value_int"]), what)
        require(valid is True, f"{what}: prior marked invalid")
        return None
    if method.startswith("closed_"):
        require(row["policy"] == policy, f"{what}: policy {row['policy']!r}")
        fault = check_closed(
            p, n, field, method, _as_float(row["value_real"]), _as_int(row["value_int"]),
            GAP_ALPHA[policy], what,
        )
        expect_valid = policy == "empirical" and empirical_valid(p, n, ctx.empirical_floor, ctx.verified_limit)
        require(valid is expect_valid, f"{what}: valid={valid}, expected {expect_valid}")
        return fault
    require(method == "constructive", f"{what}: unknown method")
    require(row["policy"] == "empirical", f"{what}: constructive rows run under the empirical policy")
    if row["value_real"] == "":
        require(row["caveats"] == "infeasible: pair_selection", f"{what}: declined with {row['caveats']!r}")
        require(valid is False, f"{what}: declined row marked valid")
        check_declined(p, n, row["caveats"], what)
        return None
    value_int = _as_int(row["value_int"])
    require(_as_float(row["value_real"]) == float(value_int), f"{what}: value_real != value_int")
    require(valid is True, f"{what}: certified row marked invalid")
    check_constructive(
        p, n, field, _as_int(row["l_k"]), _as_int(row["l_k1"]), _as_int(row["genus"]),
        skips_from_caveats(row["caveats"]), value_int, what,
    )
    require(expected_pair(p, n) == (_as_int(row["l_k"]), _as_int(row["l_k1"])), f"{what}: not the expected pair")
    return None


def check_compare(doc: dict, p: int, n: int) -> tuple[int, list[Fault]]:
    """A `compare` document: every entry, the ranking and the exact coefficients.
    Returns (entries checked, faults)."""
    what = f"compare ({p},{n})"
    # the document's "p" key holds the GF(p) block, so only n is echoed
    require(doc["n"] == n, f"{what}: echoes n = {doc['n']}")
    faults: list[Fault] = []
    count = 0
    pair = expected_pair(p, n)
    for field in ("p2", "p"):
        block = doc[field]
        methods = block["methods"]
        names = sorted(e["method"] for e in methods)
        expect = sorted([f"prior_{v}" for v in PRIORS[field]] + [CLOSED[field], "constructive"])
        require(names == expect, f"{what}: methods {names}")
        ranked = [e for e in methods if "value_real" in e]
        by_value = sorted(ranked, key=lambda e: (e["value_real"], e["method"]))
        require(ranked == by_value, f"{what}: {field} methods are not ranked by value")
        require(block["smallest"] == (ranked[0]["method"] if ranked else None), f"{what}: smallest")
        for e in methods:
            count += 1
            tag = f"{what} {field} {e['method']}"
            m = e["method"]
            if m.startswith("prior_"):
                check_prior(p, n, field, m, e["value_real"], e["value_int"], tag)
                require(Fraction(e["coefficient"]) == prior_coefficient(m[6:], p), f"{tag}: coefficient")
            elif m.startswith("closed_"):
                fault = check_closed(p, n, field, m, e["value_real"], e["value_int"], GAP_ALPHA["dudek"], tag)
                require(e["valid_unconditional"] is False, f"{tag}: dudek closed form marked valid")
                if fault:
                    faults.append(fault)
            elif e.get("infeasible"):
                check_declined(p, n, e["reason"], tag)
            else:
                # compare reports no witnesses: check the value against the expected pair
                require(pair is not None, f"{tag}: certified although T < 2")
                l_k, l_k1 = pair
                skipped = [m for m in range(l_k + 1, l_k1) if is_prime(m)]
                require(bool(e["caveats"]) == bool(skipped), f"{tag}: caveats {e['caveats']}")
                genus = 2 * l_k1 + 1 if p == 11 else l_k1
                check_constructive(p, n, field, l_k, l_k1, genus, skipped, e["value_int"], tag)
    asym = doc["asymptotic"]
    require(Fraction(asym["p2"]["new"]) == Fraction(2 * (p - 2), p - 3), f"{what}: p2 coefficient")
    require(Fraction(asym["p"]["new"]) == Fraction(3 * p - 5, p - 3), f"{what}: p coefficient")
    for field in ("p2", "p"):
        for v in PRIORS[field]:
            require(Fraction(asym[field][f"prior_{v}"]) == prior_coefficient(v, p), f"{what}: prior_{v}")
    return count, faults


def check_bound_all(doc: dict, p: int, n: int, field: str) -> tuple[int, list[Fault]]:
    """A `bound --method all` document under the default (dudek) policy."""
    what = f"bound ({p},{n},{field})"
    require((doc["p"], doc["n"], doc["field"]) == (p, n, field), f"{what}: echo")
    closed, cons = doc["reports"]
    require(closed["policy"]["name"] == "dudek", f"{what}: policy")
    fault = check_closed(
        p, n, field, closed["method"], closed["value_real"], closed["value_int"],
        Fraction(closed["policy"]["alpha"]), what,
    )
    require(closed["valid_unconditional"] is False, f"{what}: dudek closed form marked valid")
    if "error" in cons:
        check_declined(p, n, cons.get("failed_check", ""), what)
        return 2, [fault] if fault else []
    w = cons["witnesses"]
    require(Fraction(w["threshold"]) == threshold(p, n), f"{what}: threshold {w['threshold']}")
    require(w["gap"] == w["l_k1"] - w["l_k"], f"{what}: gap")
    require(w["N"] == (23 if p == 11 else 11) * w["l_k1"], f"{what}: level N")
    require(w["n1_lower"] == (2 if p == 11 else 1) * (p - 1) * (w["l_k1"] + 1), f"{what}: n1")
    require(all(c["passed"] for c in w["checks"]), f"{what}: a recorded check failed")
    require(cons["value_real"] == float(cons["value_int"]), f"{what}: value_real")
    check_constructive(p, n, field, w["l_k"], w["l_k1"], w["genus"], w["skipped"], cons["value_int"], what)
    require(expected_pair(p, n) == (w["l_k"], w["l_k1"]), f"{what}: not the expected pair")
    return 2, [fault] if fault else []


# ---------------------------------------------------------------------------
# multiplication algorithms


def plan_cost(q: int, n: int) -> tuple[int, int]:
    """(rank, envelope) of the greedy genus-0 plan, from the place counts
    N1 = q+1 and N2 = (q*q-q)/2 of the rational function field."""
    need = 2 * n - 1
    n1 = q + 1
    if need <= n1:
        return need, 2 * n - 1
    n2 = (q * q - q) // 2
    require(n1 + 2 * n2 >= need, f"GF({q}^{n}) has too few places of degree <= 2")
    slots = n1 - (need - n1) % 2
    return slots + 3 * ((need - slots) // 2), 3 * n


def check_mult_report(doc: dict, q: int, n: int, seed: int) -> None:
    """Mode, pair count, failures, rank and envelope of a `mult` report."""
    what = f"mult ({q},{n})"
    require((doc["q"], doc["n"]) == (q, n), f"{what}: echo")
    v = doc["verification"]
    exhaustive = q ** (2 * n) <= EXHAUSTIVE_CAP
    require(v["mode"] == ("exhaustive" if exhaustive else "random"), f"{what}: mode {v['mode']}")
    require(v["pairs_checked"] == (q ** (2 * n) if exhaustive else DEFAULT_TRIALS), f"{what}: pairs {v['pairs_checked']}")
    require(v["failures"] == 0, f"{what}: {v['failures']} failures")
    if not exhaustive:
        require(v.get("seed") == seed, f"{what}: seed {v.get('seed')}")
    rank, env = plan_cost(q, n)
    require(doc["rank"] == rank and v["rank"] == rank, f"{what}: rank {doc['rank']} != plan cost {rank}")
    require(doc["plan"]["cost"] == rank, f"{what}: plan cost {doc['plan']['cost']}")
    require(doc["envelope"]["value"] == env and v["envelope"] == env, f"{what}: envelope {doc['envelope']}")
    require(2 * n - 1 <= rank <= env, f"{what}: rank {rank} outside [2n-1, {env}]")


class SmallField:
    """GF(q) on integer codes sum(c_i * p**i), from the canonical modulus:
    the monic irreducible of degree s over GF(p) with the smallest code."""

    def __init__(self, q: int):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        s = round(math.log(q, p))
        require(p**s == q, f"{q} is not a prime power")
        self.q, self.p, self.s = q, p, s
        self.modulus = _smallest_irreducible(p, s) if s > 1 else None
        digits = [self._digits(c) for c in range(q)]
        self.add = [[self._code([(x + y) % p for x, y in zip(a, b)]) for b in digits] for a in digits]
        self.mul = [[self._code(self._mul_digits(a, b)) for b in digits] for a in digits]
        self.neg = [row.index(0) for row in self.add]

    def _digits(self, code: int) -> list[int]:
        out = []
        for _ in range(self.s):
            out.append(code % self.p)
            code //= self.p
        return out

    def _code(self, digits) -> int:
        return sum(c * self.p**i for i, c in enumerate(digits))

    def _mul_digits(self, a, b) -> list[int]:
        p, s = self.p, self.s
        prod = [0] * (2 * s - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        if s == 1:
            return prod
        for k in range(2 * s - 2, s - 1, -1):
            c = prod[k]
            if c:
                for j in range(s + 1):
                    prod[k - s + j] = (prod[k - s + j] - c * self.modulus[j]) % p
        return prod[:s]


@lru_cache(maxsize=None)
def small_field(q: int) -> SmallField:
    return SmallField(q)


def _smallest_irreducible(p: int, s: int) -> list[int]:
    """Monic irreducible of degree s over GF(p) with the smallest code, by
    checking for monic factors of degree <= s/2."""
    def polys(deg):
        for code in range(p**deg):
            yield [(code // p**i) % p for i in range(deg)] + [1]

    def divides(f, g):
        r = list(g)
        for k in range(len(g) - len(f), -1, -1):
            c = r[k + len(f) - 1]
            if c:
                for j, fj in enumerate(f):
                    r[k + j] = (r[k + j] - c * fj) % p
        return not any(r[: len(f) - 1])

    for cand in polys(s):
        if cand[0] == 0:
            continue
        if not any(divides(f, cand) for d in range(1, s // 2 + 1) for f in polys(d)):
            return cand
    raise CheckFailure(f"no irreducible of degree {s} over GF({p})")


def ext_mul(base: SmallField, modulus: list[int], x: list[int], y: list[int]) -> list[int]:
    """Schoolbook product of two GF(q^n) elements reduced by the monic modulus."""
    n = len(modulus) - 1
    add, mul, neg = base.add, base.mul, base.neg
    prod = [0] * (2 * n - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                prod[i + j] = add[prod[i + j]][mul[a][b]]
    for k in range(2 * n - 2, n - 1, -1):
        c = prod[k]
        if c:
            for j in range(n + 1):
                prod[k - n + j] = add[prod[k - n + j]][mul[neg[c]][modulus[j]]]
    return prod[:n]


def check_tensor(doc: dict, q: int, n: int, rank: int, modulus: list[int], seed: str, samples: int) -> None:
    """The emitted decomposition multiplies `samples` seeded operand pairs
    exactly like GF(q)[u]/modulus."""
    what = f"tensor ({q},{n})"
    require((doc["q"], doc["n"], doc["rank"]) == (q, n, rank), f"{what}: header")
    require(doc["modulus"] == modulus and len(modulus) == n + 1 and modulus[-1] == 1, f"{what}: modulus")
    forms, recon = doc["forms"], doc["recon"]
    require(len(forms) == rank and all(len(r) == n for r in forms), f"{what}: forms shape")
    require(len(recon) == n and all(len(r) == rank for r in recon), f"{what}: recon shape")
    require(all(0 <= c < q for r in forms + recon for c in r), f"{what}: entry out of range")
    base = small_field(q)
    add, mul = base.add, base.mul
    rng = random.Random(seed)

    def apply(rows, vec):
        out = []
        for r in rows:
            acc = 0
            for c, v in zip(r, vec):
                acc = add[acc][mul[c][v]]
            out.append(acc)
        return out

    for _ in range(samples):
        x = [rng.randrange(q) for _ in range(n)]
        y = [rng.randrange(q) for _ in range(n)]
        fx, fy = apply(forms, x), apply(forms, y)
        got = apply(recon, [mul[a][b] for a, b in zip(fx, fy)])
        want = ext_mul(base, modulus, x, y)
        require(got == want, f"{what}: x={x} y={y} gives {got}, expected {want}")
