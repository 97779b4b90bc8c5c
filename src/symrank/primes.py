"""Prime navigation, gap-condition scanning, and selection of the consecutive
prime pair that realizes the bound pipeline's threshold inequalities.

Neighbouring primes are found by stepping with the deterministic
Miller-Rabin test (`prev_prime`, `next_prime`), so pair selection costs about
one prime gap of primality tests and no table.  The Eratosthenes sieve keeps
one flag per odd number.  The exhaustive gap scan never stores the primes:
a record search on the flags finds the largest gap G, and only the primes
below the cutoff where l**alpha reaches G are tested one by one.

`prev_prime`, `next_prime` and `policy_floor` are pure, and a sweep asks them
the same questions cell after cell, so each is a bounded `functools.lru_cache`
(sizes in `PRIME_STEP_CACHE` and `POLICY_FLOOR_CACHE`).  The public name is
the cache itself.  `check_characteristic` and `is_prime` are not memoized:
every public entry validates p afresh, and a bad argument is never cached,
because `lru_cache` stores only returned values.

A gap policy is a pair (alpha, x_alpha) asserting that consecutive primes
satisfy l_{k+1} - l_k <= l_k**alpha from x_alpha on.  Three policies are
supported: the Baker-Harman-Pintz exponent 21/40 (whose validity floor has
never been published), Dudek's exponent 2/3 with the explicit floor
exp(exp(33.3)), and an empirical policy whose floor is established by an
exhaustive sieve scan up to a stated limit.  exp(exp(33.3)) is kept as its
text throughout: it is around 10**(1.2*10**14) and must never be materialized.

All gap comparisons are exact: with alpha = c/d in lowest terms, gap <=
l**alpha is decided as gap**d <= l**c, by bit lengths, by integer powers
while they are small, and past that by certified high-precision logarithms,
so no exponent, however large its numerator or denominator, builds a huge
power.
"""

from __future__ import annotations

import enum
import time
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass, field
from decimal import MAX_EMAX, Context, Decimal
from fractions import Fraction
from functools import cache, cached_property, lru_cache, partial
from itertools import chain, compress, pairwise

from .ntheory import PrimalityLimitError, is_prime

DEFAULT_SIEVE_LIMIT = 10_000_000
# the flags take (limit + 1) // 2 bytes and crossing off the multiples of 3
# a transient third of that, so the cap means about 0.67 GB at peak
SIEVE_MEMORY_CAP = 1_000_000_000
DUDEK_X_ALPHA_EXPR = "exp(exp(33.3))"
# a gap comparison builds its two powers exactly only while they have at most
# this many bits together; larger ones are compared by their logarithms (see
# `_exceeds`), which costs about as much as two powers of this total size
EXACT_POWER_BITS = 16384
# cache bounds, above the distinct keys of a selftest run plus a bound-grid
# benchmark round (prev_prime 5.0k + 0.7k, next_prime 0.7k + 0.3k,
# policy_floor 9 + 42): an LRU smaller than a sweep's cycle never hits
PRIME_STEP_CACHE = 8192
POLICY_FLOOR_CACHE = 256


class PairSelectionError(ValueError):
    """Pair selection cannot proceed (threshold below 2, or a pair past the
    primality test's proven limit)."""


def check_characteristic(p: int) -> None:
    """Reject p unless it is a prime >= 5, the characteristics the bounds cover."""
    if p < 5 or not is_prime(p):
        raise ValueError(f"p must be a prime >= 5, got {p}")


@lru_cache(maxsize=PRIME_STEP_CACHE)
def prev_prime(x: int) -> int:
    """Largest prime <= x."""
    if x < 2:
        raise ValueError(f"no prime <= {x}")
    while not is_prime(x):
        x -= 1
    return x


@lru_cache(maxsize=PRIME_STEP_CACHE)
def next_prime(x: int) -> int:
    """Smallest prime > x."""
    x += 1
    while not is_prime(x):
        x += 1
    return x


def _sieve_flags(limit: int) -> bytearray:
    """One flag per odd number up to `limit`: flags[i] is set iff 2i+1 is prime."""
    size = (limit + 1) // 2
    flags = bytearray([1]) * size
    flags[0] = 0
    i = 1
    while (p := 2 * i + 1) * p <= limit:
        if flags[i]:
            # the odd multiples of p from p*p on sit p indices apart
            flags[p * p // 2 :: p] = bytes(len(range(p * p // 2, size, p)))
        i += 1
    return flags


def _flagged(flags: bytearray, count: int | None = None) -> Iterator[int]:
    """2, then the odd primes flagged in `flags[:count]`, ascending."""
    n = len(flags) if count is None else count
    return chain((2,), compress(range(1, 2 * n, 2), flags))


def _check_sieve_limit(limit: int) -> None:
    if limit < 2:
        raise ValueError("sieve limit must be >= 2")
    if limit > SIEVE_MEMORY_CAP:
        raise ValueError(f"sieve limit {limit} exceeds memory cap {SIEVE_MEMORY_CAP}")


def sieve(limit: int) -> tuple[int, ...]:
    """All primes <= limit, ascending, by Eratosthenes: an oracle independent
    of the Miller-Rabin stepping that pair selection uses."""
    _check_sieve_limit(limit)
    return tuple(_flagged(_sieve_flags(limit)))


def fraction_text(x: Fraction) -> str:
    """str(x), also when a term has more digits than int() converts to text
    (its limit, 4300 by default): Decimal renders an int of any length."""
    try:
        return str(x)
    except ValueError:  # past the limit
        num = str(Decimal(x.numerator))
        return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"


@dataclass(frozen=True)
class GapScan:
    """Result of scanning successor gaps against l**alpha below a limit."""

    limit: int
    alpha: Fraction
    violations: tuple[int, ...]
    max_gap_seen: int
    runtime_ms: float

    def to_json_dict(self, include_timing: bool = True) -> dict:
        out = {
            "limit": self.limit,
            "alpha": fraction_text(self.alpha),
            "violations": list(self.violations),
            "max_gap_seen": self.max_gap_seen,
        }
        if include_timing:
            out["runtime_ms"] = self.runtime_ms
        return out


def check_gap_scan(limit: int, alpha: Fraction) -> None:
    """The argument checks of verify_gaps, in their order, without the scan."""
    if limit < 3:
        raise ValueError("gap scan limit must be >= 3")
    if not 0 < Fraction(alpha) < 1:
        raise ValueError("alpha must lie in (0, 1)")
    _check_sieve_limit(limit)


def _largest_gap(flags: bytearray, end: int) -> int:
    """The largest gap between consecutive primes up to 2*end + 1, where
    flags[end] is set and end >= 1.

    Consecutive odd primes at indices a < b lie 2(b - a) apart with b - a - 1
    unset flags between them, and every maximal run of unset flags in
    flags[1:end] has a prime on each side (flags[1] is the prime 3), so for
    end > 1 the largest gap is 2(R + 1), R the longest run; for end = 1 it is
    the gap 2 -> 3.  The search keeps `run`, the longest run in flags[1:pos],
    with flags[pos] set.  `find(bytes(run + 1), pos, end)` is the first start
    j of a longer run inside flags[pos:end].  flags[j - 1] is set: j > pos,
    and an unset flags[j - 1] would start such a run at j - 1.  So that run
    is maximal, it ends at the next set flag k, its length k - j beats `run`,
    and the invariant holds again at pos = k.  When find fails no run in
    flags[pos:end] is longer, so run = R.  Each step sets a new record, so
    Python steps once per record gap.
    """
    run, pos = 0, 1
    while (j := flags.find(bytes(run + 1), pos, end)) >= 0:
        pos = flags.find(1, j, end + 1)
        run = pos - j
    return 2 * (run + 1) if end > 1 else 1


def _exceeds(x: int, d: int, y: int, c: int) -> bool:
    """Whether x**d > y**c, for x, y >= 1 and coprime c, d >= 1, without
    building powers of more than EXACT_POWER_BITS bits together.

    With kx, ky the bit lengths, 2**(kx-1) <= x < 2**kx, so d*(kx-1) >= c*ky
    gives x**d > y**c and d*kx <= c*(ky-1) gives x**d < y**c.  Otherwise,
    when d*kx + c*ky <= EXACT_POWER_BITS, the powers are compared exactly.
    Past that, d*ln(x) and c*ln(y) are compared in Decimal at rising
    precision P: `ln` and the product are each correctly rounded, so each
    computed side s lies within |s| * 10**(2-P) of its true value, and once
    the two computed sides differ by more than the sum of those radii the
    sign is certain.

    This ends because the powers differ there.  Equal powers with c, d
    coprime mean x = t**c and y = t**d for an integer t >= 2 (x = 1 is
    settled first), so c < kx, d < ky and d*kx + c*ky < 2*kx*ky: within the
    budget for all x, y < 2**90, and every operand here is below 2**31.  A
    gap never ties anyway: 1 <= gap < l with l prime, so l divides l**c but
    not gap**d.
    """
    if x == 1:
        return False
    kx, ky = x.bit_length(), y.bit_length()
    if d * (kx - 1) >= c * ky:
        return True
    if d * kx <= c * (ky - 1):
        return False
    if d * kx + c * ky <= EXACT_POWER_BITS:
        return x**d > y**c
    prec = 20
    while True:
        ctx = Context(prec=prec, Emax=MAX_EMAX)
        a = Fraction(ctx.multiply(d, ctx.ln(x)))
        b = Fraction(ctx.multiply(c, ctx.ln(y)))
        if abs(a - b) * 10 ** (prec - 2) > abs(a) + abs(b):
            return a > b
        prec *= 2


def _cutoff(g: int, c: int, d: int, limit: int) -> int:
    """min(limit, the least b >= 1 with b**c >= g**d): a binary search on
    b -> not g**d > b**c, which is False up to that b and True from it on."""
    return 1 + bisect_left(range(1, limit), True, key=lambda b: not _exceeds(g, d, b, c))


def verify_gaps(limit: int, alpha: Fraction) -> GapScan:
    """Every prime l < limit whose successor gap exceeds l**alpha.

    The comparison is exact: gap**d <= l**c with alpha = c/d in lowest terms,
    decided by `_exceeds`, which never builds a power past a fixed size.
    The successor of the largest prime below `limit` is always included in the
    scan; when it lies past `limit` it comes from `next_prime`.

    No Python loop runs over all the primes.  The largest scanned gap G comes
    from a record search on the sieve flags (`_largest_gap`) and the tail gap.
    Then only the primes l below the cutoff b are walked, the least integer
    with b**c >= G**d: from b on, gap**d <= G**d <= b**c <= l**c, so no
    larger prime can be a violation.  By the same argument a prime l with
    successor gap g is a violation exactly when l is below g's own cutoff,
    which is found once per distinct gap, so no power is compared per prime.
    """
    check_gap_scan(limit, alpha)
    alpha = Fraction(alpha)
    start = time.monotonic()
    c, d = alpha.numerator, alpha.denominator
    flags = _sieve_flags(limit)
    last = flags.rfind(1)
    top = 2 * last + 1  # the largest prime <= limit
    tail = [next_prime(top)] if top < limit else []
    max_gap = max([_largest_gap(flags, last)] + [t - top for t in tail])
    stop = _cutoff(max_gap, c, d, limit)
    # the primes below stop and the successor of the last of them (with
    # stop <= 2 the pair 2 -> 3, whose gap 1 is no violation)
    succ = flags.find(1, stop // 2)
    walk = _flagged(flags, succ + 1) if succ >= 0 else chain(_flagged(flags), tail)
    cutoff = cache(partial(_cutoff, c=c, d=d, limit=stop))  # every walked l is below stop
    violations = tuple(l for l, l1 in pairwise(walk) if l < cutoff(l1 - l))
    runtime_ms = (time.monotonic() - start) * 1000.0
    return GapScan(limit, alpha, violations, max_gap, runtime_ms)


# the fixed exponent and the floor's text of each named policy
_NAMED_POLICIES = {
    "bhp": (Fraction(21, 40), "unknown"),
    "dudek": (Fraction(2, 3), DUDEK_X_ALPHA_EXPR),
}


@dataclass(frozen=True)
class GapPolicy:
    """The (alpha, x_alpha) pair justifying the gap condition in the pipeline."""

    name: str  # "bhp" | "dudek" | "empirical"
    alpha: Fraction
    x_alpha: int | None = None  # empirical: the sieve-established floor
    verified_limit: int | None = None  # empirical: sieve-checked up to here

    def __post_init__(self):
        if self.name in _NAMED_POLICIES:
            alpha = _NAMED_POLICIES[self.name][0]
            if self.alpha != alpha or self.x_alpha is not None:
                raise ValueError(f"{self.name} policy requires alpha={alpha} and x_alpha None")
        elif self.name == "empirical":
            if not 0 < self.alpha < 1:
                raise ValueError("empirical alpha must lie in (0, 1)")
            if not isinstance(self.x_alpha, int) or self.verified_limit is None:
                raise ValueError("empirical policy requires an integer floor and a sieve limit")
        else:
            raise ValueError(f"unknown policy name {self.name!r}")

    def __hash__(self):
        # cache keys hash the policy once per cell of a sweep; its Fractions
        # are hashed once per policy instead
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.name, self.alpha, self.x_alpha, self.verified_limit))

    # bhp() and dudek() return one shared instance each, so that the cache
    # keys holding them (`policy_floor`) match by identity instead of by
    # comparing their fields

    @classmethod
    def bhp(cls) -> "GapPolicy":
        return _BHP

    @classmethod
    def dudek(cls) -> "GapPolicy":
        return _DUDEK

    @classmethod
    def empirical(cls, alpha, floor: int, verified_limit: int) -> "GapPolicy":
        return cls("empirical", Fraction(alpha), floor, verified_limit)

    @classmethod
    def empirical_from_sieve(cls, alpha, limit: int) -> "GapPolicy":
        """Empirical policy whose floor is the smallest prime from which the
        gap condition is violation-free up to `limit`."""
        scan = verify_gaps(limit, Fraction(alpha))
        floor = next_prime(scan.violations[-1]) if scan.violations else 2
        return cls.empirical(alpha, floor, limit)

    def to_json_dict(self) -> dict:
        x_alpha = _NAMED_POLICIES[self.name][1] if self.x_alpha is None else str(self.x_alpha)
        out = {"name": self.name, "alpha": fraction_text(self.alpha), "x_alpha": x_alpha}
        if self.verified_limit is not None:
            out["verified_limit"] = self.verified_limit
        return out


_BHP = GapPolicy("bhp", _NAMED_POLICIES["bhp"][0])
_DUDEK = GapPolicy("dudek", _NAMED_POLICIES["dudek"][0])


class PairFamily(enum.Enum):
    """Which threshold inequality governs the pair, by target field and level.

    Generic families use the level-11 curve family (valid for p != 11) and the
    threshold (2n-p-1)/(p-3); eleven families use the level-23 family for
    p = 11 and the threshold (n-p+1)/(p-3).  Degenerate level factors are
    skipped during selection: l = p (bad reduction) always, l = 11 in generic
    families and l = 23 in eleven families (level not squarefree).
    """

    QUADRATIC_GENERIC = "quadratic-generic"
    QUADRATIC_ELEVEN = "quadratic-eleven"
    PRIME_GENERIC = "prime-generic"
    PRIME_ELEVEN = "prime-eleven"

    @property
    def is_eleven(self) -> bool:
        return self in (PairFamily.QUADRATIC_ELEVEN, PairFamily.PRIME_ELEVEN)

    def validate_p(self, p: int) -> None:
        check_characteristic(p)
        if self.is_eleven and p != 11:
            raise ValueError(f"{self.value} family requires p = 11")
        if not self.is_eleven and p == 11:
            raise ValueError(f"{self.value} family requires p != 11")

    def threshold_terms(self, p: int, n: int) -> tuple[int, int]:
        """Numerator and positive denominator of the threshold, unreduced."""
        return (n - p + 1 if self.is_eleven else 2 * n - p - 1), p - 3

    def threshold(self, p: int, n: int) -> Fraction:
        return Fraction(*self.threshold_terms(p, n))

    def skip_set(self, p: int) -> frozenset[int]:
        return frozenset({p, 23 if self.is_eleven else 11})


@dataclass(frozen=True)
class PrimePair:
    """Consecutive primes realizing l_k <= T < l_{k+1}, with any skips noted.

    When `skipped` is nonempty the two primes are not literally consecutive:
    degenerate level factors between them were passed over.
    """

    l_k: int
    l_k1: int
    threshold: Fraction
    gap: int
    skipped: tuple[int, ...] = field(default=())


def select_pair(p: int, n: int, family: PairFamily) -> PrimePair:
    """The prime pair realizing the family's threshold inequalities.

    l_k is the largest non-degenerate prime <= T and l_{k+1} the next
    non-degenerate prime after it; the threshold comparison is exact rational
    arithmetic, and l_k = T is accepted (the defining inequality at l_k is
    non-strict).  Both primes are found by stepping from floor(T) with the
    deterministic primality test, so every integer passed over is proven
    composite or a listed skip.  floor(T) and T < 2 (that is, floor(T) < 2)
    are decided in integers; the exact T is kept for the pair and its
    messages.
    """
    family.validate_p(p)
    num, den = family.threshold_terms(p, n)
    floor_t = num // den
    threshold = Fraction(num, den)
    if floor_t < 2:
        raise PairSelectionError(
            f"n too small for family: threshold {threshold} < 2 (p={p}, n={n}, {family.value})"
        )
    skips = family.skip_set(p)
    skipped = []
    try:
        l_k = prev_prime(floor_t)
        while l_k in skips:
            skipped.append(l_k)
            l_k = prev_prime(l_k - 1)
        l_k1 = next_prime(l_k)
        while l_k1 in skips:
            skipped.append(l_k1)
            l_k1 = next_prime(l_k1)
    except PrimalityLimitError as exc:
        raise PairSelectionError(
            f"n too large for family: primes near threshold {threshold} cannot be proven, "
            f"{exc} (p={p}, n={n}, {family.value})"
        ) from exc
    assert l_k <= threshold < l_k1
    return PrimePair(l_k, l_k1, threshold, l_k1 - l_k, tuple(sorted(set(skipped))))


@lru_cache(maxsize=POLICY_FLOOR_CACHE)
def policy_floor(policy: GapPolicy, family: PairFamily, p: int) -> int | str:
    """The n-threshold above which the closed-form bound is unconditional.

    Generic families require n >= (p-3)/2 * x_alpha + (p+1)/2; eleven families
    require n >= (p-3) * x_alpha + (p-1).  An empirical floor gives an int;
    the floors of bhp and dudek give their text, which no n meets.
    """
    family.validate_p(p)
    a, b = (p - 3, p - 1) if family.is_eleven else ((p - 3) // 2, (p + 1) // 2)
    if policy.x_alpha is not None:
        return a * policy.x_alpha + b
    if policy.name == "bhp":
        return "unknown"
    return f"{DUDEK_X_ALPHA_EXPR}+{b}" if a == 1 else f"{a}*{DUDEK_X_ALPHA_EXPR}+{b}"
