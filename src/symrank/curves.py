"""Genus and rational-point data for the two modular-curve families the bound
pipeline relies on, plus the general genus formula for X0(N) as a cross-check.

The two families are X0(11*l) with genus l (for prime l not in {11, p}) and
X0(23*l) with genus 2l+1 (for prime l not in {23, 11}), reduced modulo the
working characteristic p.  Their supersingular points give lower bounds on
the number of points rational over GF(p^2): (p-1)(l+1) for the first family
and 2(p-1)(l+1) for the second.  Descending to GF(p), the identity
N1(over p^2) = N1(over p) + 2*N2(over p) turns the same number into a lower
bound on N1 + 2*N2.  Both closed-form genus facts are cross-checked against
the general formula on every construction.

No exact point counts are computed here, only the family lower bounds.

`family_data` is pure and a sweep asks for the same (p, l) cell after cell,
so it is a bounded `functools.lru_cache` (`FAMILY_DATA_CACHE` entries) whose
public name is the cache itself.  A hit skips the checks of p and l; a
rejected argument is never cached, so it is rejected on every call.
`check_characteristic` itself is not memoized.
"""

from __future__ import annotations

from functools import lru_cache

from .ntheory import factorize, is_prime
from .primes import check_characteristic
from .record import Record

_set = object.__setattr__  # stores a field of a Record, which refuses plain assignment

# above the distinct (p, l) of a selftest run plus a bound-grid benchmark
# round (1.3k + 0.6k)
FAMILY_DATA_CACHE = 4096


class Gamma0Data(Record):
    """Index, elliptic point counts, cusp count and genus of X0(N)."""

    __slots__ = _fields = ("N", "mu", "nu2", "nu3", "nu_inf", "genus")

    def __init__(self, N: int, mu: int, nu2: int, nu3: int, nu_inf: int, genus: int):
        _set(self, "N", N)
        _set(self, "mu", mu)
        _set(self, "nu2", nu2)
        _set(self, "nu3", nu3)
        _set(self, "nu_inf", nu_inf)
        _set(self, "genus", genus)

    def to_json_dict(self) -> dict:
        return self._asdict()


def _sym_minus_one(p: int) -> int:
    # (-1 | p) by residue class mod 4, with the p = 2 convention 0
    if p == 2:
        return 0
    return 1 if p % 4 == 1 else -1


def _sym_minus_three(p: int) -> int:
    # (-3 | p) by residue class mod 3, with the p = 3 convention 0
    if p == 3:
        return 0
    return 1 if p % 3 == 1 else -1


def genus_X0(N: int) -> Gamma0Data:
    """Genus of the modular curve X0(N) from index and torsion data.

    mu is the index of Gamma_0(N); nu2 and nu3 count elliptic points of order
    2 and 3; nu_inf counts cusps; the genus follows from
    genus = 1 + mu/12 - nu2/4 - nu3/3 - nu_inf/2.  Exact arithmetic for all
    N >= 1, including the 4|N and 9|N degenerate rules.
    """
    if N < 1:
        raise ValueError("level must be >= 1")
    return _gamma0_data(N, factorize(N) if N > 1 else {})


def _gamma0_data(N: int, fac: dict[int, int]) -> Gamma0Data:
    """genus_X0 from the factorization {prime: exponent} of N.

    Every count derives from `fac`.  The cusp count
    sum over d | N of phi(gcd(d, N/d)) is multiplicative, so it is the
    product over p**e || N of sum_{k<=e} phi(p**min(k, e-k)).
    """
    mu = N
    for p in fac:
        mu = mu // p * (p + 1)
    if N % 4 == 0:
        nu2 = 0
    else:
        nu2 = 1
        for p in fac:
            nu2 *= 1 + _sym_minus_one(p)
    if N % 9 == 0:
        nu3 = 0
    else:
        nu3 = 1
        for p in fac:
            nu3 *= 1 + _sym_minus_three(p)
    nu_inf = 1
    for p, e in fac.items():
        local = 0
        for k in range(e + 1):
            m = min(k, e - k)
            local += p ** (m - 1) * (p - 1) if m else 1  # phi(p**m)
        nu_inf *= local
    twelve_g = 12 + mu - 3 * nu2 - 4 * nu3 - 6 * nu_inf
    if twelve_g % 12 or twelve_g < 0:
        raise AssertionError(f"genus formula produced {twelve_g}/12 for N={N}")
    return Gamma0Data(N, mu, nu2, nu3, nu_inf, twelve_g // 12)


class CurveFamilyData(Record):
    """One member of a curve family, reduced mod p, with its point bounds.

    n1_lower_p2 bounds the number of degree-1 places over GF(p^2);
    n1_2n2_lower_p bounds N1 + 2*N2 over GF(p) and equals n1_lower_p2 by the
    descent identity.
    """

    __slots__ = _fields = ("family", "l", "N", "genus", "p", "n1_lower_p2", "n1_2n2_lower_p")

    def __init__(self, family: str, l: int, N: int, genus: int, p: int, n1_lower_p2: int, n1_2n2_lower_p: int):
        _set(self, "family", family)  # "11l" | "23l"
        _set(self, "l", l)
        _set(self, "N", N)
        _set(self, "genus", genus)
        _set(self, "p", p)
        _set(self, "n1_lower_p2", n1_lower_p2)
        _set(self, "n1_2n2_lower_p", n1_2n2_lower_p)
        if n1_2n2_lower_p != n1_lower_p2:
            raise AssertionError("descent identity violated")

    def to_json_dict(self) -> dict:
        return self._asdict()


@lru_cache(maxsize=FAMILY_DATA_CACHE)
def family_data(p: int, l: int) -> CurveFamilyData:
    """Family member for characteristic p and level factor l.

    p != 11 selects the 11l family (genus l, N1 over GF(p^2) at least
    (p-1)(l+1)); p = 11 selects the 23l family (genus 2l+1, bound
    2(p-1)(l+1)).  Degenerate l (= p, or the family's fixed factor) is
    rejected.  The genus closed form is cross-checked against the Gamma_0
    formula, fed the known factorization {fixed factor: 1, l: 1} (l is a
    prime other than the fixed factor), so no trial division runs.
    """
    check_characteristic(p)
    if not is_prime(l):
        raise ValueError(f"level factor must be prime, got {l}")
    if p == 11:
        if l in (23, 11):
            raise ValueError(f"degenerate level factor l={l} for the 23l family")
        family, fixed, genus = "23l", 23, 2 * l + 1
        n1 = 2 * (p - 1) * (l + 1)
    else:
        if l in (11, p):
            raise ValueError(f"degenerate level factor l={l} for the 11l family (p={p})")
        family, fixed, genus = "11l", 11, l
        n1 = (p - 1) * (l + 1)
    N = fixed * l
    check = _gamma0_data(N, {fixed: 1, l: 1}).genus
    if check != genus:
        raise AssertionError(f"family genus {genus} disagrees with formula {check} at N={N}")
    return CurveFamilyData(family, l, N, genus, p, n1, n1)


def check_rr_hypothesis(q: int, n: int, g: int) -> bool:
    """Decide 2g+1 <= q**((n-1)/2) * (sqrt(q)-1) exactly, in integers.

    For q >= 4, sqrt(q)-1 >= 1 and q**((n-1)/2) >= 2**(k*(n-1)/2) with
    k = q.bit_length()-1, so (2g+1).bit_length() <= k*(n-1)//2 proves the
    inequality from bit lengths alone.  That settles the bound pipeline's
    cases, where g grows linearly in n and the right side exponentially,
    without building q**n.  Otherwise the single half-integer power is
    isolated and the inequality squared once: for odd n it becomes
    (2g+1 + q**((n-1)/2))**2 <= q**n; for even n it becomes
    q**(n/2) - (2g+1) >= 0 and (q**(n/2) - (2g+1))**2 >= q**(n-1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if q < 2 or g < 0:
        raise ValueError("q must be >= 2 and g >= 0")
    a = 2 * g + 1
    if q >= 4 and a.bit_length() <= (q.bit_length() - 1) * (n - 1) // 2:
        return True
    if n % 2 == 1:
        m = (n - 1) // 2
        return (a + q**m) ** 2 <= q**n
    lhs = q ** (n // 2) - a
    return lhs >= 0 and lhs * lhs >= q ** (n - 1)
