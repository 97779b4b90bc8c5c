"""Elementary integer number theory shared across the package.

Everything here is exact integer arithmetic.  The primality test is the
deterministic Miller-Rabin variant with the first 13 prime bases (2..41),
which is proven correct for all n below psi_13 = 3317044064679887385961981,
about 3.3 * 10**24 (Sorenson & Webster, "Strong pseudoprimes to twelve prime
bases", Math. Comp. 2017).  The first 12 bases alone stop at
psi_12 = 318665857834031151167461, which is itself a strong pseudoprime to
all of them.
"""

from __future__ import annotations

# Witnesses proving Miller-Rabin deterministic for n < PRIMALITY_LIMIT (psi_13).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

PRIMALITY_LIMIT = 3_317_044_064_679_887_385_961_981


class PrimalityLimitError(ValueError):
    """is_prime was asked about an n at or past its proven limit."""


def is_prime(n: int) -> bool:
    """Deterministic primality test for n below the Miller-Rabin witness limit."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True  # a composite below 43**2 has a prime factor <= 41
    if n >= PRIMALITY_LIMIT:
        raise PrimalityLimitError(f"primality test limited to n < {PRIMALITY_LIMIT}")
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def mobius(n: int) -> int:
    fac = factorize(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


def iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0 and k >= 1, exactly: integer Newton
    steps down from a power of two above the root."""
    if n < 2 or k == 1:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def prime_power_split(q: int) -> tuple[int, int]:
    """Write q = p**s with p prime, or raise ValueError.

    Orders below 2**16 are split by `factorize` (at most 2**8 trial
    divisions), which keeps that traced layer on the path of `mult` and
    `prior_bound`.  Above that, by unique factorization q = p**s for exactly one s <=
    log2(q), the one whose integer s-th root is exact and prime, so at most
    log2(q) root extractions and prime tests decide it.  A prime q at or
    above the primality test's limit is refused by that test."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    if q < 1 << 16:
        fac = factorize(q)
        if len(fac) == 1:
            ((p, s),) = fac.items()
            return p, s
    else:
        for s in range(q.bit_length() - 1, 0, -1):
            p = iroot(q, s)
            if p**s == q and is_prime(p):
                return p, s
    raise ValueError(f"{q} is not a prime power")
