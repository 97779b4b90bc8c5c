"""A schoolbook reference for GF(p^k) and towers over it, on canonical codes.

It is written apart from `symrank.fields` (and imports nothing from it), so
the tests can hold the library's arithmetic to something other than itself.
A code is read as in the library: the residue for a prime field, the base-q
digits of the coefficients, low degree first, for an extension.  Products
are reduced by long division by the modulus, not by precomputed powers, and
no operation here needs an inverse.
"""


class PrimeOracle:
    def __init__(self, p: int):
        self.order = p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.order

    def neg(self, a: int) -> int:
        return -a % self.order

    def mul(self, a: int, b: int) -> int:
        return a * b % self.order


class ExtOracle:
    """The base oracle's polynomials modulo a monic modulus (base codes, low
    degree first)."""

    def __init__(self, base, modulus):
        self.base = base
        self.modulus = list(modulus)
        self.degree = len(self.modulus) - 1
        self.order = base.order**self.degree

    def coeffs(self, a: int) -> list:
        out = []
        for _ in range(self.degree):
            out.append(a % self.base.order)
            a //= self.base.order
        return out

    def code(self, coeffs) -> int:
        return sum(c * self.base.order**i for i, c in enumerate(coeffs))

    def add(self, a: int, b: int) -> int:
        return self.code([self.base.add(x, y) for x, y in zip(self.coeffs(a), self.coeffs(b))])

    def neg(self, a: int) -> int:
        return self.code([self.base.neg(x) for x in self.coeffs(a)])

    def mul(self, a: int, b: int) -> int:
        F, n = self.base, self.degree
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(self.coeffs(a)):
            for j, y in enumerate(self.coeffs(b)):
                prod[i + j] = F.add(prod[i + j], F.mul(x, y))
        for top in range(2 * n - 2, n - 1, -1):  # subtract prod[top] * u**(top-n) * modulus
            c = prod[top]
            for j, m in enumerate(self.modulus):
                prod[top - n + j] = F.add(prod[top - n + j], F.neg(F.mul(c, m)))
        return self.code(prod[:n])


def oracle_of(field):
    """The oracle for a library field, read from its description alone: its
    prime, or its base and modulus."""
    if hasattr(field, "modulus"):
        return ExtOracle(oracle_of(field.base), field.modulus)
    return PrimeOracle(field.order)


def rank(F, rows) -> int:
    """Rank of a list of code rows, by division-free elimination."""
    rows = [list(r) for r in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            f, p = rows[i][c], rows[r][c]
            if f:  # rows[i] = p * rows[i] - f * rows[r]
                rows[i] = [F.add(F.mul(p, x), F.neg(F.mul(f, y))) for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def matmul(F, a, b) -> list:
    """Product of two matrices given as lists of code rows."""
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for x, brow in zip(row, b):
            acc = [F.add(s, F.mul(x, y)) for s, y in zip(acc, brow)]
        out.append(acc)
    return out
