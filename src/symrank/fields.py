"""Exact arithmetic in prime fields, one-step extension towers, polynomials
and dense linear algebra over them.

Every field value is an integer, the canonical code of its element; no
object wraps it.

* In a prime field the code is the residue in [0, p).
* In an extension of degree n over a field of order q it is
  sum(c_i * q**i), where the c_i are the codes of the coefficients of the
  representative polynomial, low degree first: the code's base-q digits.

Codes order the elements and serialize them; 0 is zero and 1 is one.  A
polynomial over a field is a tuple of codes, low degree first, with no
trailing zeros; () is the zero polynomial.

An extension computes on its codes in one of two ways, chosen once by
make_field from its order.  At or below CODE_TABLE_CAP elements make_field
builds a _SmallExtension, whose every operation is a lookup in list tables
built on construction and kept for the process.  Every other extension,
above the cap or built directly as an ExtensionField (an algorithm's own
GF(q^n) among them), multiplies digit lists modulo its modulus, by the
same modular product that the modulus search runs, on its base field's
axpy.

Every field class has the same four row kernels on lists of codes: scale,
axpy (xs[start + k] += c * ys[k], in place), dot and entrywise.  A prime
field reduces once per result entry, an extension with tables reads its
table rows, and on digits the field's own add and mul run.  The dense
linear algebra below and the modulus search run only on them, so no
method call is made per entry except in an extension on digits.  A
Matrix holds its rows, lists of codes that the kernels take as they are;
invert eliminates in place on a copy of the n-wide rows and solve_linear
is invert(m) @ rhs.

The canonical modulus of an extension of degree n is the monic irreducible
polynomial of degree n whose integer code (the code vector read as base-q
digits, low to high) is smallest.  That makes every derived object, tensors
included, reproducible byte for byte.  The search walks the candidates in
that order and tests them by Ben-Or's gcd test.  Rules proven in the
docstrings of irreducible_polys, _candidates and _affine_exponents skip
reducible candidates untested without changing the order, among them whole
rows of affine p-polynomials (and of GF(4)-affine quartics u**4 + c_1 u +
c_0 over GF(2**k), k even) and, in fields of at most CODE_TABLE_CAP
elements, the constant terms that give a candidate a root.  Listing those
takes a pass over the field, so above the cap nothing is sieved.  Over a
field of odd order the test itself first rejects a candidate whose
discriminant has the wrong quadratic character (Stickelberger's parity,
proven in _irreducible), which decides degree 2 alone.

All arithmetic is exact; there is no floating point in this module.  Moduli
are limited to p < 2**61 so residues stay single-word with double-width
intermediate products.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache, partial

from .ntheory import PRIMALITY_LIMIT, is_prime, mobius, prime_power_split

MAX_PRIME = 1 << 61
# extensions with at most this many elements compute in code tables, and the
# modulus search sieves roots over fields of at most this many
CODE_TABLE_CAP = 256


class SingularMatrixError(ValueError):
    """Raised when Gaussian elimination finds no pivot; carries the column."""

    def __init__(self, pivot_col: int):
        super().__init__(f"singular matrix: no pivot in column {pivot_col}")
        self.pivot_col = pivot_col


class PrimeField:
    """The field of integers modulo a prime p, 2 <= p < 2**61."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not (2 <= p < MAX_PRIME):
            raise ValueError(f"prime modulus out of supported range: {p}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    @property
    def order(self) -> int:
        return self.p

    @property
    def char(self) -> int:
        return self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def pow(self, a: int, k: int) -> int:
        return pow(a, k, self.p)

    def random(self, rng) -> int:
        return rng.randrange(self.p)

    # row kernels: one reduction per result entry
    def scale(self, c: int, xs: Sequence[int]) -> list:
        p = self.p
        return [c * x % p for x in xs]

    def axpy(self, c: int, xs: list, ys: Sequence[int], start: int = 0) -> None:
        p = self.p
        for k, y in enumerate(ys, start):
            xs[k] = (xs[k] + c * y) % p

    def dot(self, xs: Sequence[int], ys: Sequence[int]) -> int:
        return sum(map(operator.mul, xs, ys)) % self.p

    def entrywise(self, xs: Sequence[int], ys: Sequence[int]) -> list:
        p = self.p
        return [x * y % p for x, y in zip(xs, ys)]

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


def _digits(code: int, q: int, n: int) -> list[int]:
    """The n base-q digits of code, low first."""
    out = []
    for _ in range(n):
        code, c = divmod(code, q)
        out.append(c)
    return out


def _check_codes(field, codes) -> None:
    """Reject a value that is not an int in [0, field.order): bools and
    floats compare equal to codes, and lookups would wrap other ints."""
    order = field.order
    for c in codes:
        if type(c) is not int or not 0 <= c < order:
            raise ValueError(f"code {c!r} out of range for {field}")


class ExtensionField:
    """A degree-n extension of a base field in polynomial basis, on codes.

    A supplied modulus (base codes, low degree first) must be monic
    irreducible of degree n over the base, and is verified on construction;
    by default the canonical modulus is found.  Arithmetic works on the
    digits of the codes over the base, at every order; make_field builds
    the fields of at most CODE_TABLE_CAP elements as _SmallExtension,
    whose operations are table lookups.
    """

    __slots__ = ("base", "degree", "modulus", "order", "_negf")

    def __init__(self, base, degree: int, modulus: Sequence | None = None):
        if degree < 1:
            raise ValueError("extension degree must be >= 1")
        self.base = base
        self.degree = degree
        self.order = base.order**degree
        if modulus is None:
            modulus = find_irreducible(base, degree)
        else:
            modulus = tuple(modulus)
            _check_codes(base, modulus)
            if len(modulus) != degree + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree equal to the extension degree")
            if not is_irreducible(base, modulus):
                raise ValueError("modulus is reducible over the base field")
        self.modulus = modulus
        self._negf = [base.neg(c) for c in modulus[:degree]]  # u**n = -(low part)

    @property
    def char(self) -> int:
        return self.base.char

    def digits(self, a: int) -> list[int]:
        """The base codes of a's coefficients, low degree first."""
        return _digits(a, self.base.order, self.degree)

    def from_digits(self, coeffs: Sequence[int]) -> int:
        """The code of the element with these coefficients (base codes, low
        degree first, at most n of them)."""
        q = self.base.order
        code = 0
        for c in reversed(coeffs):
            code = code * q + c
        return code

    def add(self, a: int, b: int) -> int:
        bf = self.base
        return self.from_digits([bf.add(x, y) for x, y in zip(self.digits(a), self.digits(b))])

    def sub(self, a: int, b: int) -> int:
        bf = self.base
        return self.from_digits([bf.sub(x, y) for x, y in zip(self.digits(a), self.digits(b))])

    def neg(self, a: int) -> int:
        return self.from_digits([self.base.neg(x) for x in self.digits(a)])

    def mul(self, a: int, b: int) -> int:
        q, n = self.base.order, self.degree
        return self.from_digits(_mulmod(self.base.axpy, self._negf, _digits(a, q, n), _digits(b, q, n)))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in {self}")
        return self.pow(a, self.order - 2)

    def pow(self, a: int, k: int) -> int:
        result = 1
        while k:
            if k & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            k >>= 1
        return result

    def random(self, rng) -> int:
        return self.from_digits([self.base.random(rng) for _ in range(self.degree)])

    # row kernels (the same four in every field class), here on the field's
    # own operations, skipping the products with a zero factor
    def scale(self, c: int, xs: Sequence[int]) -> list:
        mul = self.mul
        return [mul(c, x) if x else 0 for x in xs]

    def axpy(self, c: int, xs: list, ys: Sequence[int], start: int = 0) -> None:
        """xs[start + k] += c * ys[k] for every k, in place."""
        add, mul = self.add, self.mul
        for k, y in enumerate(ys, start):
            if y:
                xs[k] = add(xs[k], mul(c, y))

    def dot(self, xs: Sequence[int], ys: Sequence[int]) -> int:
        add, mul = self.add, self.mul
        acc = 0
        for x, y in zip(xs, ys):
            if x and y:
                acc = add(acc, mul(x, y))
        return acc

    def entrywise(self, xs: Sequence[int], ys: Sequence[int]) -> list:
        mul = self.mul
        return [mul(x, y) if x and y else 0 for x, y in zip(xs, ys)]

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and other.degree == self.degree
            and other.base == self.base
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("GFext", self.base, self.degree, self.modulus))

    def __repr__(self):
        return f"GF({self.base.order}^{self.degree})"


class _SmallExtension(ExtensionField):
    """An extension with at most CODE_TABLE_CAP elements, as make_field
    builds it: every operation is a lookup in its list tables, which are
    built on construction."""

    __slots__ = ("_add", "_mul", "_neg", "_inv")

    def __init__(self, base, degree: int, modulus: Sequence | None = None):
        super().__init__(base, degree, modulus)
        self._add, self._mul, self._neg, self._inv = _list_tables(self)

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in {self}")
        return self._inv[a]

    # row kernels: list-table lookups, no call per entry.  (On a 2-core
    # x86-64 host, Python 3.11.7, comprehensions beat chaining the rows
    # through map and operator.getitem, and axpy's loop in place beats a
    # comprehension assigned to its window: 0.31 against 0.78 us on 4
    # codes, 2.0 against 2.2 us on 40.)
    def scale(self, c: int, xs: Sequence[int]) -> list:
        row = self._mul[c]
        return [row[x] for x in xs]

    def axpy(self, c: int, xs: list, ys: Sequence[int], start: int = 0) -> None:
        row, add = self._mul[c], self._add
        for k, y in enumerate(ys, start):
            xs[k] = add[xs[k]][row[y]]

    def dot(self, xs: Sequence[int], ys: Sequence[int]) -> int:
        add, mul, acc = self._add, self._mul, 0
        for x, y in zip(xs, ys):
            acc = add[acc][mul[x][y]]
        return acc

    def entrywise(self, xs: Sequence[int], ys: Sequence[int]) -> list:
        mul = self._mul
        return [mul[x][y] for x, y in zip(xs, ys)]


@lru_cache(maxsize=None)
def make_field(q: int) -> PrimeField | ExtensionField:
    """The field with q elements over its canonical (smallest-code) modulus."""
    if q < PRIMALITY_LIMIT and is_prime(q):  # trial division would take sqrt(q) steps
        return PrimeField(q)
    p, s = prime_power_split(q)
    return (_SmallExtension if q <= CODE_TABLE_CAP else ExtensionField)(PrimeField(p), s)


# ---------------------------------------------------------------------------
# code tables of small extensions: one set per field that make_field makes


def _list_tables(field: ExtensionField) -> tuple[list, list, list, list]:
    """Add rows, mul rows, negations and inverses (the inverse of 0 reads 0)
    of an extension with at most CODE_TABLE_CAP elements over its prime
    base, as Python lists.  It adds digitwise mod p and multiplies through
    logarithms to a generator.
    """
    q = field.order
    if q > CODE_TABLE_CAP:
        raise ValueError(f"code tables are built only for q <= {CODE_TABLE_CAP}, got {q}")
    p = field.base.order
    add_rows = digit_add = [[(a + b) % p for b in range(p)] for a in range(p)]
    m = p  # add_rows covers codes below m; extend it by one digit at a time
    while m < q:
        add_rows = [
            [add_rows[a % m][b % m] + m * digit_add[a // m][b // m] for b in range(m * p)]
            for a in range(m * p)
        ]
        m *= p
    exp = _generator_powers(field)
    log = [0] * q
    for k, c in enumerate(exp):
        log[c] = k
    mul_rows = [[exp[(log[a] + log[b]) % (q - 1)] if a and b else 0 for b in range(q)] for a in range(q)]
    negs = [row.index(0) for row in add_rows]
    invs = [0] + [row.index(1) for row in mul_rows[1:]]
    return add_rows, mul_rows, negs, invs


def _generator_powers(field: ExtensionField) -> list[int]:
    """g**k for k < q-1, g the smallest-code generator of the multiplicative
    group, by digit arithmetic (the tables it fills do not exist yet)."""
    for g in range(1, field.order):
        powers = [1]
        cur = g
        while cur != 1:
            powers.append(cur)
            cur = ExtensionField.mul(field, cur, g)
        if len(powers) == field.order - 1:
            return powers
    raise AssertionError("unreachable: the multiplicative group is cyclic")


# ---------------------------------------------------------------------------
# polynomials over an arbitrary field (coefficient tuples, low degree
# first, trailing zeros trimmed) and the irreducibility test


def _trim(coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def poly_divmod(field, a: tuple, b: tuple) -> tuple[tuple, tuple]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    db = len(b) - 1
    # a monic divisor, such as every modulus, needs no inverse (without
    # code tables an extension inverts by a whole exponentiation)
    lead_inv = 1 if b[-1] == 1 else field.inv(b[-1])
    quot = [0] * max(0, len(a) - db)
    for i in range(len(a) - db - 1, -1, -1):
        f = rem[i + db]
        if not f:
            continue
        f = field.mul(f, lead_inv)
        quot[i] = f
        for j, c in enumerate(b):
            rem[i + j] = field.sub(rem[i + j], field.mul(f, c))
    return _trim(quot), _trim(rem[:db])


def power_rows(field, modulus: tuple, count: int) -> list[list]:
    """u**j mod the monic modulus as coefficient lists of its degree, for
    0 <= j < count."""
    n = len(modulus) - 1
    negf = [field.neg(c) for c in modulus[:n]]  # u**n = -(low part)
    cur = [1] + [0] * (n - 1)
    rows = []
    for _ in range(count):
        rows.append(cur)
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            field.axpy(top, cur, negf)
    return rows


def is_irreducible(field, poly: tuple) -> bool:
    """Irreducibility over the field, by gcd with x**(q**d) - x for d <= n/2.

    x**(q**d) - x is the product of all monic irreducibles of degree dividing
    d, so a nontrivial gcd at any d <= n/2 is exactly a proper factor.  The
    test runs on the monic multiple.  For odd q it is preceded by the parity
    of the number of irreducible factors, read from the quadratic character
    of the discriminant (see _irreducible); at degree 2 that is the whole
    test.
    """
    n = len(poly) - 1
    if n < 1:
        return False
    if n == 1:
        return True
    if not poly[-1]:
        raise ValueError("polynomial must have nonzero leading coefficient")
    if poly[-1] != 1:  # on digits an extension inverts by exponentiation
        poly = field.scale(field.inv(poly[-1]), poly)
    return _irreducible(field, poly)


def find_irreducible(field, n: int) -> tuple:
    """The canonical monic irreducible of degree n: smallest integer code,
    the first polynomial of irreducible_polys.  Deterministic, and existence
    is guaranteed for every q and n >= 1."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    return next(irreducible_polys(field, n))


def _is_pth_power(poly, p: int) -> bool:
    """Whether every nonzero coefficient sits at an exponent divisible by p.
    Over a perfect field of characteristic p such a polynomial is a p-th
    power, so it is reducible."""
    return not any(c for e, c in enumerate(poly) if e % p)


# is_irreducible's steps on code lists, on the field's row kernels (f monic
# of degree n, a residue mod f n codes, negf the negated low coefficients of
# f, so that u**n = negf)


def _irreducible(field, f: Sequence[int]) -> bool:
    """is_irreducible's test for a monic code sequence f of degree n >= 2.

    Over a field of odd order q it first rejects f when the quadratic
    character D**((q-1)/2) of its discriminant D is not (-1)**(n-1); that
    covers D = 0, whose character is 0.  This is Stickelberger's parity
    theorem (1897; Swan, Pacific J. Math. 12, 1962): a squarefree f with r
    irreducible factors has D**((q-1)/2) = (-1)**(n-r).  Its n roots are
    distinct and D = delta**2, delta the product of a_i - a_j over i < j.
    Frobenius x -> x**q permutes the roots in r cycles, one per factor,
    so with sign (-1)**(n-r), and maps delta to that sign times delta.
    Hence D**((q-1)/2) = delta**(q-1) = delta**q / delta = (-1)**(n-r),
    where delta != -delta because q is odd.  An irreducible f has r = 1.
    At degree 2, r is 1 or 2 for a squarefree f, so the character decides
    and no gcd is taken.  The candidates it lets through go to Ben-Or.
    """
    n = len(f) - 1
    q = field.order
    if q % 2:
        if field.pow(_discriminant(field, f), q // 2) != (1 if n % 2 else field.neg(1)):
            return False
        if n == 2:
            return True
    negf = [field.neg(c) for c in f[:n]]
    w = [0, 1] + [0] * (n - 2)  # x
    for _ in range(n // 2):
        w = _powmod(field.axpy, negf, w, q)
        if not _resultant(field, f, [w[0], field.sub(w[1], 1), *w[2:]]):
            return False
    return True


def _mulmod(axpy, negf: list, a: list, b: list) -> list:
    """a * b mod f: one axpy per nonzero row of the product and of the
    reduction."""
    n = len(negf)
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            axpy(ai, prod, b, i)
    for k in range(2 * n - 2, n - 1, -1):  # u**k = u**(k-n) * (-low part of f)
        c = prod[k]
        if c:
            axpy(c, prod, negf, k - n)
    del prod[n:]
    return prod


def _powmod(axpy, negf: list, a: list, e: int) -> list:
    out = a
    for bit in bin(e)[3:]:  # left to right, below the leading one
        out = _mulmod(axpy, negf, out, out)
        if bit == "1":
            out = _mulmod(axpy, negf, out, a)
    return out


def _resultant(field, a: Sequence[int], b: Sequence[int]) -> int:
    """Res(a, b) for a monic code sequence a of degree >= 1 and a code list
    b of lower degree, which may carry trailing zeros: 0 exactly when a and
    b share a factor of degree >= 1 (b = 0 shares all of a).  By Euclid on
    code lists, with Res(a, b) = (-1)**(deg a deg b) *
    lead(b)**(deg a - deg r) * Res(b, r) for r = a mod b, down to
    Res(a, c) = c**(deg a) for a constant c.  Each divisor is scaled once by
    -1/lead, so every row of a division is one axpy by the top coefficient
    it cancels."""
    a, b = list(a), list(_trim(b))
    res, odd = 1, 0
    while len(b) > 1:
        da, db, lead = len(a) - 1, len(b) - 1, b[-1]
        divisor = field.scale(field.neg(field.inv(lead)), b)
        for i in range(da - db, -1, -1):  # a mod b, in place
            c = a[i + db]
            if c:
                field.axpy(c, a, divisor, i)
        del a[db:]
        while a and not a[-1]:
            a.pop()
        for _ in range(da - len(a) + 1):  # lead(b)**(deg a - deg r)
            res = field.mul(res, lead)
        odd ^= da * db % 2
        a, b = b, a
    if not b:
        return 0
    res = field.mul(res, field.pow(b[0], len(a) - 1))
    return field.neg(res) if odd else res


def _discriminant(field, f: Sequence[int]) -> int:
    """The discriminant (-1)**(n(n-1)/2) Res(f, f') of a monic code sequence
    f of degree n >= 2, 0 exactly when f has a repeated factor.  Codes below
    p are the prime field, so the coefficient k f_k of f' is (k mod p) times
    f_k."""
    n = len(f) - 1
    p = field.char
    res = _resultant(field, f, field.entrywise([k % p for k in range(1, n + 1)], f[1:]))
    return field.neg(res) if n * (n - 1) // 2 % 2 else res


def count_places_rational_ff(q: int, d: int) -> int:
    """Number of degree-d places of the rational function field over GF(q).

    d == 1 counts the q affine points plus infinity; d >= 2 counts monic
    irreducible polynomials of degree d via the necklace formula.
    """
    prime_power_split(q)  # validates q
    if d < 1:
        raise ValueError("place degree must be >= 1")
    if d == 1:
        return q + 1
    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            total += mobius(e) * q ** (d // e)
    return total // d


# ---------------------------------------------------------------------------
# dense matrices over a field


class Matrix:
    """Dense matrix of field codes, held as its rows: `rows` is a list of
    code lists, copied on construction, and `cols` is their common width.
    The height is len(rows).  Its operations run the field's row kernels on
    these lists, and invert and select_independent_rows eliminate on
    copies, so no operation changes an operand."""

    __slots__ = ("field", "rows", "cols")

    def __init__(self, field, rows: Iterable[Sequence[int]]):
        self.field = field
        self.rows = [list(row) for row in rows]
        self.cols = len(self.rows[0]) if self.rows else 0
        if any(len(row) != self.cols for row in self.rows):
            raise ValueError("ragged rows")

    def __eq__(self, other):
        return isinstance(other, Matrix) and other.field == self.field and other.rows == self.rows

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != len(other.rows):
            raise ValueError("shape mismatch")
        axpy = self.field.axpy
        out = []
        for row in self.rows:
            acc = [0] * other.cols
            for a, orow in zip(row, other.rows):
                if a:
                    axpy(a, acc, orow)
            out.append(acc)
        return Matrix(self.field, out)

    def matvec(self, vec: Sequence) -> list:
        if len(vec) != self.cols:
            raise ValueError("shape mismatch")
        dot = self.field.dot
        return [dot(row, vec) for row in self.rows]

    def to_int_lists(self) -> list[list[int]]:
        """The rows as fresh lists."""
        return [row[:] for row in self.rows]


def invert(m: Matrix) -> Matrix:
    """The inverse of a square matrix, by Gauss-Jordan elimination in place
    on a copy of its rows, with first-nonzero pivoting: the first row at or
    below the diagonal with a nonzero entry is the pivot.  Raises
    SingularMatrixError naming the first column without a pivot, the first
    column that depends on the columns before it.

    Once column k is eliminated, the working rows hold in that column what
    the identity beside them would hold: the result is the inverse of the
    matrix with its rows swapped as the pivots chose, whose columns are
    swapped back at the end.
    """
    n = len(m.rows)
    if n != m.cols:
        raise ValueError("invert expects a square matrix")
    f = m.field
    rows = m.to_int_lists()
    swaps = []
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            raise SingularMatrixError(col)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            swaps.append((col, pivot))
        prow = rows[col]
        inv = f.inv(prow[col])
        prow[col] = 1
        prow = rows[col] = f.scale(inv, prow)
        for r, row in enumerate(rows):
            factor = row[col]
            if factor and r != col:
                row[col] = 0
                f.axpy(f.neg(factor), row, prow)
    for col, pivot in reversed(swaps):
        for row in rows:
            row[col], row[pivot] = row[pivot], row[col]
    return Matrix(f, rows)


def solve_linear(m: Matrix, rhs: Matrix) -> Matrix:
    """Solve m @ x = rhs for a square m, as invert(m) @ rhs; a singular m
    raises invert's SingularMatrixError."""
    if len(rhs.rows) != len(m.rows):
        raise ValueError("rhs row count mismatch")
    return invert(m) @ rhs


def select_independent_rows(m: Matrix, need: int) -> list[int]:
    """Indices of the first `need` linearly independent rows, in order.

    Greedy: rows are taken in their given order; a row joins the basis iff it
    does not reduce to zero against the rows already kept.
    """
    f = m.field
    basis: list[tuple[int, list]] = []  # (pivot col, reduced row)
    picked: list[int] = []
    for i, row in enumerate(m.to_int_lists()):
        for pc, brow in basis:
            factor = row[pc]
            if factor:
                f.axpy(f.neg(factor), row, brow)
        pc = next((j for j, x in enumerate(row) if x), None)
        if pc is None:
            continue
        basis.append((pc, f.scale(f.inv(row[pc]), row)))
        picked.append(i)
        if len(picked) == need:
            return picked
    raise SingularMatrixError(need - 1)


def all_monic_polys(field, degree: int) -> Iterator[tuple]:
    """Monic degree-d polynomials in canonical (integer code) order."""
    q = field.order
    for code in range(q**degree):
        yield (*_digits(code, q, degree), 1)


def irreducible_polys(field, degree: int) -> Iterator[tuple]:
    """Monic irreducible degree-d polynomials in canonical order.

    A monic candidate c_0 + c_1 u + ... + u**d is ranked by the integer
    sum(c_i * q**i) and the candidates are walked in that order, lazily in q.
    Degree 1 yields every monic linear.  From degree 2 on, _candidates
    gives the walk one row c_1 ... c_{d-1} at a time and leaves out the
    candidates its rules prove reducible; over GF(2**k) the quadratics are
    decided by the trace rule of _binary_quadratic_candidates instead.  The
    remaining candidates are tested by is_irreducible's test, _irreducible,
    which for odd q decides the quadratics by the discriminant's quadratic
    character, the counterpart of the trace rule.

    Over a field of at most CODE_TABLE_CAP elements the walk also sieves
    roots.  For a fixed row, the candidate with constant term c_0 has a root
    a exactly when c_0 = -(a**d + c_{d-1} a**(d-1) + ... + c_1 a), a != 0
    since c_0 != 0.  At a row's first rejected candidate those c_0 are
    listed, by one Horner pass over the field on its row kernels
    (_rooted_constants), and the rest of the row skips them untested; a row
    whose candidates up to the wanted one are irreducible lists nothing.
    Above the cap nothing is sieved: the list costs a pass over all of
    GF(q) per row, which would make the degree-2 search over GF(65537)
    hundreds of times slower and the one over GF(2**61 - 1) endless.
    """
    q = field.order
    if degree < 1:
        return
    if degree == 1:
        yield from ((c0, 1) for c0 in range(q))
        return
    sieve = q <= CODE_TABLE_CAP
    test = partial(_irreducible, field)
    if degree == 2 and field.char == 2:
        yield from filter(test, _binary_quadratic_candidates(field))
        return
    for rest, c0s in _candidates(field, degree):
        rooted = None  # the row's constants with a root, listed at its first rejection
        for c0 in c0s:
            if rooted is not None and c0 in rooted:
                continue
            candidate = (c0, *rest)
            if test(candidate):
                yield candidate
            elif sieve and rooted is None:
                rooted = _rooted_constants(field, rest)


def _rooted_constants(field, rest: tuple) -> set:
    """The c_0 != 0 for which c_0 + c_1 u + ... + u**d has a root, given
    rest = (c_1, ..., c_{d-1}, 1): -(a**d + ... + c_1 a) over a != 0, by
    Horner's rule run on every a at once."""
    xs = range(1, field.order)
    ones = [1] * len(xs)
    acc = list(xs)  # 1 * a
    for c in reversed(rest[:-1]):  # c_{d-1}, ..., c_1
        field.axpy(c, acc, ones)
        acc = field.entrywise(acc, xs)
    return set(field.scale(field.neg(1), acc))


def _candidates(field, degree: int) -> Iterator[tuple[tuple, range]]:
    """The monic candidates of degree d >= 2 in canonical order, as rows:
    (c_1, ..., c_{d-1}, 1) with the range of c_0 to walk.  Left out, all
    reducible:

    * c_0 = 0, divisible by u;
    * p-th powers (_is_pth_power), whole rows, since c_0 cannot change it;
    * over GF(p**k), the polynomials over the prime field GF(p) when d and
      k share a factor.  A polynomial over GF(p) factors there into
      irreducibles of degrees d_i, and over GF(p**k) each of them splits
      into gcd(d_i, k) factors.  The codes below p are the prime field, so
      over GF(p**2) at even degree this drops the first p - 1 candidates of
      a row with every c_i < p;
    * affine p-polynomials at the degrees _affine_exponents proves them
      reducible, whole rows: over GF(2**k) at degree 8 the first q**2, and
      at degree 4 with k even the first q, u**4 + c_1 u + c_0.
    """
    q, p = field.order, field.char
    split = q > p and math.gcd(degree, prime_power_split(q)[1]) > 1
    affine = _affine_exponents(degree, p, q)
    for high in range(q ** (degree - 1)):  # c_1, ..., c_{d-1} as one code
        rest = (*_digits(high, q, degree - 1), 1)
        if _is_pth_power((0, *rest), p):  # c_0 cannot change it
            continue
        if affine and not any(c for e, c in enumerate(rest, 1) if e not in affine):
            continue
        yield rest, range(p if split and max(rest) < p else 1, q)


def _affine_exponents(degree: int, p: int, q: int | None = None) -> frozenset:
    """The exponents 1, p, ..., p**k = d at which an affine p-polynomial of
    degree d over GF(q) (GF(p) by default) may have terms, when every such
    polynomial is reducible: d = p**k with k >= 2, except d = 4 in
    characteristic 2.  There the exponents are 1 and 4 when GF(4) lies in
    GF(q), that is q = 2**k with k even.  Empty otherwise.

    Such a candidate is A = L + c_0, L = sum c_{p**i} u**(p**i) additive.
    With c_1 = 0 it is a p-th power; otherwise L is separable, so its roots
    form a GF(p)-space U of dimension k (L is GF(p)-linear) and the roots
    of A a coset b + U.  Frobenius x -> x**q maps U onto itself (L has
    coefficients in GF(q)), so on the coset it acts as the affine map
    g: v -> Mv + w of U, M its restriction to U and w = b**q - b in U.  A is
    irreducible iff g permutes its p**k roots in one cycle.  If it does,
    g**(p**k) = 1 gives M**(p**k) = 1, so N = M - 1 is nilpotent with
    N**k = 0, and with m = p**(k-1) >= k the linear part of g**m is
    (1 + N)**m = 1 + N**m = 1 and its translation part is
    (1 + M + ... + M**(m-1)) w = N**(m-1) w.  That is 0 when m - 1 >= k, i.e.
    p**(k-1) >= k + 1, which holds unless p = 2 and k = 2; then g**m = 1
    with m < p**k, so g is no such cycle and A is reducible.  At d = 4 over
    GF(2) and GF(4), 1 of 8 and 12 of 64 such candidates are irreducible.

    At d = 4 in characteristic 2 with GF(4) in GF(q), the same holds for
    A = u**4 + c_1 u + c_0, c_1 != 0.  L = u**4 + c_1 u is GF(4)-linear
    (a**4 = a on GF(4)) and separable, so its roots form a 1-dimensional
    GF(4)-space U.  Frobenius fixes GF(4), so on U it is GF(4)-linear:
    multiplication by some mu in GF(4)*, and on the roots b + U of A it is
    g: v -> mu v + w.  If mu != 1, g fixes v = w / (1 - mu), a root in
    GF(q).  If mu = 1, g is a translation, of order at most 2.  Either way
    g has no 4-cycle, so A is reducible.  Over GF(2) and GF(8), where
    Frobenius is only semilinear on U, u**4 + u + 1 is irreducible.
    """
    k, m = 0, 1
    while m < degree:
        k, m = k + 1, m * p
    if m != degree or k < 2:
        return frozenset()
    if (p, k) == (2, 2):  # the GF(4)-affine rows, when q = 2**j with j even
        return frozenset((1, 4)) if (q or p).bit_length() % 2 else frozenset()
    return frozenset(p**i for i in range(k + 1))


def _binary_quadratic_candidates(field) -> Iterator[tuple]:
    """_candidates at degree 2 over GF(2**k), keeping only the irreducibles.

    u**2 + c_1 u + c_0 with c_1 = 0 is a square.  Otherwise u = c_1 v turns
    it into c_1**2 (v**2 + v + c_0/c_1**2), and v**2 + v + a is irreducible
    exactly when the absolute trace of a is 1 (Artin-Schreier), so no
    polynomial arithmetic rejects the others.  In characteristic 2 codes add
    by XOR and the trace is additive: the trace of a code is the parity of
    the traces of its bits, each computed once, when a code first needs it.
    """
    k = field.order.bit_length() - 1
    bit_traces: list[int] = []  # of the codes 1, 2, 4, ..., each the code 0 or 1

    def trace(a: int) -> int:
        while a >> len(bit_traces):
            b = t = 1 << len(bit_traces)
            for _ in range(k - 1):
                b = field.mul(b, b)
                t ^= b
            bit_traces.append(t)
        return sum(t for i, t in enumerate(bit_traces) if a >> i & 1) & 1

    for c1 in range(1, field.order):
        scale = field.inv(field.mul(c1, c1))
        for c0 in range(1, field.order):
            if trace(c0 if scale == 1 else field.mul(c0, scale)):  # Tr(c_0/c_1**2)
                yield (c0, c1, 1)
