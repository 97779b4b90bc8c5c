"""Upper bounds for the symmetric tensor rank of multiplication in
GF(p^n)/GF(p) and GF(p^(2n))/GF(p^2), p >= 5 prime.

Three kinds of bounds are produced and compared:

* genus envelopes: 2n+g-1 (enough rational places) and 3n+2g (degree-2
  places allowed), the shapes every other bound here instantiates;
* previously published uniform bounds (variants i..vi), kept as exact
  rational coefficients times n, used as comparators;
* the new closed forms and their constructive counterpart.  The closed forms
  depend on a gap policy through the inflation factor
  eps = (2n/(p-3))**(alpha-1) (generic) or (n/(p-3))**(alpha-1) (p = 11); the
  constructive pipeline instead selects an explicit prime pair, builds the
  curve-family data for the successor prime, verifies the point-count and
  genus hypotheses outright, and returns the envelope bound with the full
  witness trail.  Constructive bounds are therefore unconditional whenever
  their recorded checks pass, no matter how astronomical the policy floor is.

Floating point discipline: eps is computed in binary64 and rounded up one
ulp; reported value_real is rounded up at 15 significant digits; value_int is
its floor (sound because ranks are integers).  Asymptotic coefficients are
exact rationals, never float limits.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from decimal import ROUND_CEILING, Context, Decimal
from fractions import Fraction
from functools import lru_cache

from .curves import CurveFamilyData, check_rr_hypothesis, family_data
from .ntheory import is_prime, prime_power_split
from .primes import (
    DEFAULT_SIEVE_LIMIT,
    GapPolicy,
    PairFamily,
    PairSelectionError,
    PrimePair,
    check_characteristic,
    policy_floor,
    select_pair,
)

QUADRATIC = "p2"
PRIME = "p"
FLOAT_N_LIMIT = 1 << 1000  # closed forms and priors are binary64, which ends at 2**1024

_CTX15 = Context(prec=15, rounding=ROUND_CEILING)


class InfeasiblePipelineError(ValueError):
    """The constructive pipeline cannot certify a bound; names the failure."""

    def __init__(self, p: int, n: int, field: str, failed_check: str, detail: str):
        super().__init__(f"constructive pipeline infeasible at {failed_check}: {detail}")
        self.p = p
        self.n = n
        self.field = field
        self.failed_check = failed_check
        self.detail = detail

    def to_json_dict(self) -> dict:
        return {
            "error": "infeasible",
            "reason": self.detail,
            "failed_check": self.failed_check,
            "p": self.p,
            "n": self.n,
            "field": self.field,
        }


def round_up_15(x: float) -> float:
    """Round up (toward +inf) at 15 significant decimal digits.

    The result, as a float, never falls below the decimal ceiling (binary
    re-rounding is corrected upward), so it always dominates the input.
    """
    ceiling = _CTX15.plus(Decimal(x))
    out = float(ceiling)
    if Decimal(out) < ceiling:
        out = math.nextafter(out, math.inf)
    return out


def envelope(case: int, n: int, g: int) -> int:
    """Genus envelopes: case 1 gives 2n+g-1, case 2 gives 3n+2g."""
    if n <= 1 or g < 0:
        raise ValueError("envelope requires n > 1 and g >= 0")
    if case == 1:
        return 2 * n + g - 1
    if case == 2:
        return 3 * n + 2 * g
    raise ValueError(f"case must be 1 or 2, got {case}")


# ---------------------------------------------------------------------------
# previously published bounds (comparators)

# the comparators each target field's new bounds are ranked against; iii and
# v are instantiated at q = p
COMPARATORS = {QUADRATIC: ("v", "vi"), PRIME: ("iii", "iv")}


@dataclass(frozen=True)
class PriorBound:
    variant: str  # "i".."vi"
    q: int  # field the bound speaks about (q or p per variant)
    p: int
    n: int
    coefficient: Fraction
    value_real: float


@lru_cache(maxsize=256)
def prior_coefficient(variant: str, q_or_p: int) -> Fraction:
    """Exact per-n coefficient of a published comparator bound.

    Variants i and ii are fixed decimal constants for q = 2 and q = 3.
    Variants iii and v take a prime power q >= 4 (p is recovered from q);
    variants iv and vi take a prime p >= 5.
    """
    if variant == "i":
        if q_or_p != 2:
            raise ValueError("variant i is stated for q = 2 only")
        return Fraction(1546, 100)
    if variant == "ii":
        if q_or_p != 3:
            raise ValueError("variant ii is stated for q = 3 only")
        return Fraction(7732, 1000)
    if variant in ("iii", "v"):
        q = q_or_p
        if q < 4:
            raise ValueError(f"variant {variant} requires q >= 4")
        p, _ = prime_power_split(q)
        if variant == "iii":
            return 3 * (1 + Fraction(4, 3) * p / (q - 3 + 2 * (p - 1) * Fraction(q, q + 1)))
        return 2 * (1 + p / (q - 3 + (p - 1) * Fraction(q, q + 1)))
    if variant in ("iv", "vi"):
        p = q_or_p
        if p < 5 or not is_prime(p):
            raise ValueError(f"variant {variant} requires a prime p >= 5")
        if variant == "iv":
            return 3 * (1 + Fraction(8, 3 * p - 5))
        return 2 * (1 + Fraction(2) / (p - Fraction(33, 16)))
    raise ValueError(f"unknown variant {variant!r}")


def prior_bound(variant: str, q_or_p: int, n: int) -> PriorBound:
    coeff = prior_coefficient(variant, q_or_p)
    if variant in ("iii", "v"):
        p, _ = prime_power_split(q_or_p)
        q = q_or_p
    else:
        p = q = q_or_p
    # the correctly rounded quotient of integers, which is float(coeff * n)
    return PriorBound(variant, q, p, n, coeff, round_up_15(coeff.numerator * n / coeff.denominator))


# ---------------------------------------------------------------------------
# the eps inflation factor and the closed forms


@dataclass(frozen=True)
class EpsilonSpec:
    p: int
    n: int
    alpha: Fraction
    family: str  # "generic" | "eleven"
    value: float


def epsilon(p: int, n: int, alpha, family: str) -> EpsilonSpec:
    """eps = (2n/(p-3))**(alpha-1) (generic) or (n/(p-3))**(alpha-1) (eleven).

    Computed in binary64 and rounded up one ulp; eps enters every bound with
    a positive sign, so rounding up is the conservative direction.
    """
    if p < 5 or n < 1:
        raise ValueError("epsilon requires p >= 5 and n >= 1")
    if family not in ("generic", "eleven"):
        raise ValueError(f"unknown family kind {family!r}")
    alpha = Fraction(alpha)
    num = 2 * n if family == "generic" else n
    base = num / (p - 3)
    if base == 1.0:
        value = 1.0  # exact: 1**x == 1
    else:
        value = math.nextafter(base ** float(alpha - 1), math.inf)
    return EpsilonSpec(p, n, alpha, family, value)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Witnesses:
    pair: PrimePair
    curve: CurveFamilyData
    checks: tuple[CheckResult, ...]

    def to_json_dict(self) -> dict:
        return {
            "l_k": self.pair.l_k,
            "l_k1": self.pair.l_k1,
            "threshold": str(self.pair.threshold),
            "gap": self.pair.gap,
            "skipped": list(self.pair.skipped),
            "N": self.curve.N,
            "genus": self.curve.genus,
            "n1_lower": self.curve.n1_lower_p2,
            "checks": [c.to_json_dict() for c in self.checks],
        }


@dataclass(frozen=True)
class BoundReport:
    p: int
    n: int
    field: str  # "p2" | "p"
    method: str
    value_real: float
    value_int: int
    valid_unconditional: bool
    policy: GapPolicy
    witnesses: Witnesses | None = None
    caveats: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "field": self.field,
            "method": self.method,
            "value_real": self.value_real,
            "value_int": self.value_int,
            "valid_unconditional": self.valid_unconditional,
            "policy": self.policy.to_json_dict(),
            "witnesses": self.witnesses.to_json_dict() if self.witnesses else None,
            "caveats": list(self.caveats),
        }


def _pair_family(field: str, p: int) -> PairFamily:
    if field == QUADRATIC:
        return PairFamily.QUADRATIC_ELEVEN if p == 11 else PairFamily.QUADRATIC_GENERIC
    if field == PRIME:
        return PairFamily.PRIME_ELEVEN if p == 11 else PairFamily.PRIME_GENERIC
    raise ValueError(f"field must be {QUADRATIC!r} or {PRIME!r}, got {field!r}")


def _validity(policy: GapPolicy, fam: PairFamily, p: int, n: int) -> tuple[bool, list[str]]:
    floor = policy_floor(policy, fam, p)
    caveats: list[str] = []
    valid = floor.satisfied_by(n)
    if policy.name == "bhp":
        caveats.append("validity floor for the 21/40 gap exponent has never been published")
    elif policy.name == "dudek":
        if not valid:
            caveats.append(
                f"unconditional validity requires n >= {floor.render()}, far beyond this n"
            )
    elif policy.name == "empirical":
        threshold = fam.threshold(p, n)
        if not valid:
            caveats.append(f"unconditional validity requires n >= {floor.render()}")
        elif threshold > policy.verified_limit:
            valid = False
            caveats.append(
                f"witness threshold {float(threshold):.1f} exceeds the sieve-verified range "
                f"{policy.verified_limit}"
            )
        else:
            caveats.append(
                f"conditional on sieve range: gap condition verified up to {policy.verified_limit}"
            )
    return valid, caveats


def check_cell(p: int, n: int, method: str = "all") -> None:
    """The argument checks a bound method makes before it reads its policy,
    in their order: p, then n >= 1 for the closed form and n > 1 for the
    constructive route ("all" runs both, closed first), then n below
    FLOAT_N_LIMIT for the closed form."""
    check_characteristic(p)
    if n < 1 and method != "constructive":
        raise ValueError("n must be >= 1")
    if n <= 1 and method != "closed":
        raise ValueError("n must be > 1")
    if n >= FLOAT_N_LIMIT and method != "constructive":
        raise ValueError("n must be below 2**1000: closed-form and prior bounds are binary64 floats")


def _closed_form(p: int, n: int, field: str, policy: GapPolicy | None) -> BoundReport:
    """The closed form of either target field; the wrappers below state them."""
    check_cell(p, n, "closed")
    policy = policy or GapPolicy.dudek()
    fam = _pair_family(field, p)
    kind = "eleven" if p == 11 else "generic"
    eps = epsilon(p, n, policy.alpha, kind).value
    if field == QUADRATIC:
        method = "closed_quadratic"
        if p != 11:
            value = 2 * (1 + (1 + eps) / (p - 3)) * n - (1 + eps) * (p + 1) / (p - 3) - 1
        else:
            value = 2 * (1 + (1 + eps) / (p - 3)) * n - 2 * (1 + eps) * (p - 1) / (p - 3)
    else:
        method = "closed_prime"
        four_thirds = 4.0 / 3.0
        if p != 11:
            value = 3 * (1 + four_thirds * (1 + eps) / (p - 3)) * n - 2 * (1 + eps) * (p + 1) / (p - 3)
        else:
            value = (
                3 * (1 + four_thirds * (1 + eps) / (p - 3)) * n
                - 4 * (1 + eps) * (p - 1) / (p - 3)
                + 1
            )
    value_real = round_up_15(value)
    valid, caveats = _validity(policy, fam, p, n)
    return BoundReport(
        p, n, field, method, value_real, math.floor(value_real),
        valid, policy, None, tuple(caveats),
    )


def closed_form_quadratic(p: int, n: int, policy: GapPolicy | None = None) -> BoundReport:
    """Closed-form bound for GF(p^2)-coefficient extensions of degree n.

    Generic p: 2*(1 + (1+eps)/(p-3))*n - (1+eps)*(p+1)/(p-3) - 1.
    p = 11:    2*(1 + (1+eps)/(p-3))*n - 2*(1+eps)*(p-1)/(p-3).
    """
    return _closed_form(p, n, QUADRATIC, policy)


def closed_form_prime(p: int, n: int, policy: GapPolicy | None = None) -> BoundReport:
    """Closed-form bound for GF(p)-coefficient extensions of degree n.

    Generic p: 3*(1 + (4/3)(1+eps)/(p-3))*n - 2*(1+eps)*(p+1)/(p-3).
    p = 11:    3*(1 + (4/3)(1+eps)/(p-3))*n - 4*(1+eps)*(p-1)/(p-3) + 1
    (the trailing +1 is reproduced exactly as published; compare_all exposes
    how it sits against the constructive route).
    """
    return _closed_form(p, n, PRIME, policy)


def asymptotic_coefficient(p: int, field: str) -> Fraction:
    """Exact limiting coefficient of the new bounds: 2(p-2)/(p-3) for the
    quadratic case, (3p-5)/(p-3) for the prime case."""
    check_characteristic(p)
    if field == QUADRATIC:
        return Fraction(2 * (p - 2), p - 3)
    if field == PRIME:
        return Fraction(3 * p - 5, p - 3)
    raise ValueError(f"field must be {QUADRATIC!r} or {PRIME!r}")


# ---------------------------------------------------------------------------
# the constructive pipeline


def constructive_bound(
    p: int,
    n: int,
    field: str = QUADRATIC,
    policy: GapPolicy | None = None,
) -> BoundReport:
    """Envelope bound certified by an explicit witness chain.

    Selects the prime pair for (p, n), takes the curve-family member at the
    successor prime (genus g'), and verifies the envelope hypotheses against
    it: the family point-count lower bound must exceed 2n+2g'-2 (over GF(p^2)
    for the quadratic target, via descent over GF(p) for the prime target),
    and the genus/field-size inequality must hold.  On success the bound is
    2n+g'-1 (quadratic) or 3n+2g' (prime), with every check recorded.  Any
    failure raises InfeasiblePipelineError naming the failing check.
    """
    check_cell(p, n, "constructive")
    policy = policy or GapPolicy.dudek()
    fam = _pair_family(field, p)
    try:
        pair = select_pair(p, n, fam)
    except PairSelectionError as exc:
        raise InfeasiblePipelineError(p, n, field, "pair_selection", str(exc)) from exc
    curve = family_data(p, pair.l_k1)
    g = curve.genus
    requirement = 2 * n + 2 * g - 2
    if field == QUADRATIC:
        n1, q_for_rr, n1_over = curve.n1_lower_p2, p * p, f"N1 lower bound over GF({p}^2)"
    else:
        n1, q_for_rr, n1_over = curve.n1_2n2_lower_p, p, f"N1+2*N2 lower bound over GF({p})"
    checks = [
        CheckResult("point_count", n1 > requirement, f"{n1_over}: {n1} > 2n+2g-2 = {requirement}")
    ]
    rr_ok = check_rr_hypothesis(q_for_rr, n, g)
    checks.append(
        CheckResult(
            "rr_hypothesis",
            rr_ok,
            f"2g+1 = {2 * g + 1} <= {q_for_rr}**(({n}-1)/2) * (sqrt({q_for_rr})-1)",
        )
    )
    if field == PRIME:
        checks.append(
            CheckResult(
                "non_special_divisor",
                True,
                f"a non-special divisor of degree g-1 = {g - 1} exists for p >= 5 (known result)",
            )
        )
    for check in checks:
        if not check.passed:
            raise InfeasiblePipelineError(p, n, field, check.name, check.detail)
    bound = envelope(1, n, g) if field == QUADRATIC else envelope(2, n, g)
    caveats = []
    if pair.skipped:
        caveats.append(
            "constructive-with-caveat: skipped degenerate level factor(s) "
            f"{list(pair.skipped)}; selected pair is not consecutive"
        )
    return BoundReport(
        p, n, field, "constructive", float(bound), bound, True, policy,
        Witnesses(pair, curve, tuple(checks)), tuple(caveats),
    )


@lru_cache(maxsize=None)
def empirical_policy(alpha: Fraction, limit: int) -> GapPolicy:
    """Empirical policy with the floor established by sieve up to limit.

    Built once per (alpha, limit) per process: the gap scan behind it is the
    most expensive step of any bound request that uses it.
    """
    return GapPolicy.empirical_from_sieve(alpha, limit)


def default_empirical_policy(limit: int = DEFAULT_SIEVE_LIMIT) -> GapPolicy:
    """Empirical 2/3 policy with the floor established by sieve up to limit."""
    return empirical_policy(Fraction(2, 3), limit)


# ---------------------------------------------------------------------------
# one bound cell, and the side-by-side comparison


def evaluate_cell(
    p: int, n: int, field: str, policy: GapPolicy
) -> tuple[BoundReport, BoundReport | InfeasiblePipelineError]:
    """The closed form of the cell (p, n, field) and its constructive bound,
    or the error declining it, both under policy.

    `bound --method all`, `table` and `compare` all evaluate cells here.
    """
    closed_form = closed_form_quadratic if field == QUADRATIC else closed_form_prime
    closed = closed_form(p, n, policy)
    try:
        return closed, constructive_bound(p, n, field, policy)
    except InfeasiblePipelineError as exc:
        return closed, exc


def _remark_holds(p: int, field: str) -> bool:
    new = asymptotic_coefficient(p, field)
    return all(new < prior_coefficient(variant, p) for variant in COMPARATORS[field])


def remark_quadratic_holds(p: int) -> bool:
    """Exact form of the quadratic-case dominance remark: the new asymptotic
    coefficient 2(p-2)/(p-3) is smaller than those of comparators v and vi."""
    return _remark_holds(p, QUADRATIC)


def remark_prime_holds(p: int) -> bool:
    """Exact form of the prime-case dominance remark: (3p-5)/(p-3) against
    comparators iii and iv."""
    return _remark_holds(p, PRIME)


def _entry_from_report(r: BoundReport) -> dict:
    return {
        "method": r.method,
        "value_real": r.value_real,
        "value_int": r.value_int,
        "valid_unconditional": r.valid_unconditional,
        "caveats": list(r.caveats),
    }


def _entry_from_prior(pb: PriorBound) -> dict:
    return {
        "method": f"prior_{pb.variant}",
        "value_real": pb.value_real,
        "value_int": math.floor(pb.value_real),
        "coefficient": str(pb.coefficient),
    }


def compare_all(p: int, n: int) -> dict:
    """Evaluate every applicable method for both target fields and rank them.

    Both routes run under the 2/3 symbolic-floor policy: the reply renders
    no policy, so no gap scan is paid for one.  Methods are ordered by value,
    a declined constructive route last; the smallest is flagged per field.
    The asymptotic block holds the exact coefficients of the new bounds and
    of each field's comparators.
    """
    check_cell(p, n)
    policy = GapPolicy.dudek()
    # the "p" key holds the GF(p) block, so the prime itself goes under "prime"
    result: dict = {"prime": p, PRIME: None, "n": n}
    asym = {}
    for field, variants in COMPARATORS.items():
        entries = [_entry_from_prior(prior_bound(variant, p, n)) for variant in variants]
        closed, constructive = evaluate_cell(p, n, field, policy)
        entries.append(_entry_from_report(closed))
        declined = []
        if isinstance(constructive, BoundReport):
            entries.append(_entry_from_report(constructive))
        else:
            declined.append({"method": "constructive", "infeasible": True, "reason": constructive.detail})
        entries.sort(key=lambda e: (e["value_real"], e["method"]))
        result[field] = {"methods": entries + declined, "smallest": entries[0]["method"]}
        new_coeff = asymptotic_coefficient(p, field)
        block = {"new": str(new_coeff), "new_value": float(new_coeff)}
        coeffs = [prior_coefficient(variant, p) for variant in variants]
        for variant, c in zip(variants, coeffs):
            block[f"prior_{variant}"] = str(c)
            block[f"prior_{variant}_value"] = float(c)
        block["dominates_priors"] = _remark_holds(p, field)
        asym[field] = block
    result["asymptotic"] = asym
    return result
