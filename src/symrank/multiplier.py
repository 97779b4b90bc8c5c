"""Executable symmetric multiplication algorithms for GF(q^n)/GF(q) built
from the rational function field (genus 0).

An element x of GF(q^n) is a polynomial f_x of degree < n over GF(q).  The
product x*y is recovered from joint evaluations of the degree <= 2n-2
polynomial f_x * f_y at an evaluation plan worth at least 2n-1 degrees:

* a rational node a contributes the single symmetric form f(a);
* the place at infinity contributes the leading coefficient coeff_{n-1}(f)
  (for the product polynomial, the coefficient at 2n-2 is exactly the product
  of the operands' leading coefficients, one bilinear form);
* a degree-2 place pi (a monic irreducible quadratic) contributes the residue
  f mod pi in GF(q^2) = GF(q)[t]/pi; the residue product is expanded through
  the canonical rank-3 symmetric algorithm for GF(q^2)/GF(q) (itself built
  here recursively from three rational slots), so the place costs 3 products
  for 2 degrees of evaluation.

Interpolation inverts the joint-evaluation map on polynomials of degree
<= 2n-2 (injective as soon as the plan's total degree reaches 2n-1), and a
final reduction mod the extension's defining polynomial sends the product
polynomial back to coordinates.  Both operands pass through the same linear
forms, so the emitted tensor decomposition is symmetric by construction.

Everything is canonical (node order, place order, modulus choice, pivoting),
so emitted tensors are byte-stable across runs.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from . import jsonout
from .fields import (
    CODE_TABLE_CAP,
    ExtensionField,
    Matrix,
    PrimeField,
    _check_codes,
    _list_tables,
    invert,
    irreducible_polys,
    is_irreducible,
    make_field,
    power_rows,
    select_independent_rows,
)

EXHAUSTIVE_PAIR_CAP = 1 << 24  # exhaustive verification iff q**(2n) <= this
DEFAULT_SEED = 20170223
DEFAULT_TRIALS = 1000
EXHAUSTIVE_CHUNK = 1 << 14  # about this many exhaustive-mode pairs per pass
LAZY_BITS = 16  # carry-free values and their sums, in both verification modes, are uint16
RANDOM_CHUNK = EXHAUSTIVE_CHUNK // 2  # random-mode pairs per pass: 2^14 x and y codes


class InfeasiblePlanError(ValueError):
    """No evaluation plan meets the required degree; cites the failed
    point-count hypothesis at genus 0."""

    def __init__(self, q: int, n: int, allow_deg2: bool, capacity: int, required: int):
        self.q = q
        self.n = n
        self.allow_deg2 = allow_deg2
        self.capacity = capacity
        self.required = required
        if allow_deg2:
            hypothesis = (
                f"N1 + 2*N2 = {capacity} must exceed 2n-2 = {2 * n - 2} "
                f"(degree-1 and degree-2 places of the rational function field over GF({q}))"
            )
        else:
            hypothesis = (
                f"N1 = {capacity} must exceed 2n-2 = {2 * n - 2} "
                f"(rational places of the rational function field over GF({q}))"
            )
        super().__init__(f"no feasible evaluation plan for q={q}, n={n}: {hypothesis}")
        self.hypothesis = hypothesis

    def to_json_dict(self) -> dict:
        return {
            "error": "infeasible",
            "reason": self.hypothesis,
            "q": self.q,
            "n": self.n,
            "allow_deg2": self.allow_deg2,
            "required_degree": self.required,
            "capacity": self.capacity,
        }


class VerificationError(AssertionError):
    """A built algorithm disagreed with reference multiplication."""

    def __init__(self, q: int, n: int, x_code: int, y_code: int, expected: int, got: int):
        super().__init__(
            f"multiplication mismatch in GF({q}^{n}): x={x_code}, y={y_code}, "
            f"expected code {expected}, got {got}"
        )
        self.q = q
        self.n = n
        self.x_code = x_code
        self.y_code = y_code
        self.expected = expected
        self.got = got

    def to_json_dict(self) -> dict:
        return {
            "error": "verification_failure",
            "reason": str(self),
            "q": self.q,
            "n": self.n,
            "x": self.x_code,
            "y": self.y_code,
            "expected": self.expected,
            "got": self.got,
        }


@dataclass(frozen=True)
class EvalPlan:
    """Which places of the rational function field the construction
    consumes; a plan is checked once, on construction."""

    q: int
    n: int
    rational_nodes: tuple  # base-field codes, in order
    use_infinity: bool
    deg2_places: tuple  # monic irreducible quadratics, canonical order
    total_degree: int

    def __post_init__(self):
        # bools and floats compare equal to the ints they stand for, so only
        # the type tells them apart; emit_tensor would write them as given.
        # Lists would leave the plan unhashable and unequal to its parsed copy
        typed = (("q", int), ("n", int), ("rational_nodes", tuple), ("use_infinity", bool),
                 ("deg2_places", tuple), ("total_degree", int))
        for name, kind in typed:
            value = getattr(self, name)
            if type(value) is not kind:
                raise ValueError(f"plan {name} must be of type {kind.__name__}, got {value!r}")
        for pi in self.deg2_places:
            if type(pi) is not tuple:
                raise ValueError(f"a degree-2 place must be a tuple of codes, got {pi!r}")
        if self.total_degree != self.rational_slots + 2 * len(self.deg2_places):
            raise ValueError("plan total_degree is inconsistent with its places")
        if self.total_degree < 2 * self.n - 1:
            raise ValueError("plan total degree is below 2n-1")
        base = make_field(self.q)
        _check_codes(base, itertools.chain(self.rational_nodes, *self.deg2_places))
        if len(set(self.rational_nodes)) != len(self.rational_nodes):
            raise ValueError("rational nodes must be distinct")
        if len(set(self.deg2_places)) != len(self.deg2_places):
            raise ValueError("degree-2 places must be distinct")
        for pi in self.deg2_places:
            if len(pi) != 3 or pi[-1] != 1 or not is_irreducible(base, pi):
                raise ValueError("degree-2 places must be monic irreducible quadratics")

    @property
    def rational_slots(self) -> int:
        return len(self.rational_nodes) + (1 if self.use_infinity else 0)

    @property
    def cost(self) -> int:
        return self.rational_slots + 3 * len(self.deg2_places)

    @property
    def case(self) -> int:
        return 1 if not self.deg2_places else 2

    @property
    def contributions(self) -> tuple[int, ...]:  # per-place product counts, plan order
        return (1,) * self.rational_slots + (3,) * len(self.deg2_places)

    def to_json_dict(self) -> dict:
        return {
            "rational_nodes": list(self.rational_nodes),
            "use_infinity": self.use_infinity,
            "deg2_places": [list(pi) for pi in self.deg2_places],
            "total_degree": self.total_degree,
            "cost": self.cost,
        }


def plan_evaluation(q: int, n: int, allow_deg2: bool = True) -> EvalPlan:
    """Greedy minimal-cost plan covering 2n-1 degrees of evaluation.

    Rational slots (nodes in code order, then infinity) cost 1 per degree and
    are preferred; degree-2 places cost 3 per 2 degrees.  When the remainder
    past the rational capacity is odd, one rational slot is dropped so no
    degree is wasted (cost drops by 1).  Infeasibility mirrors the genus-0
    point-count hypotheses exactly.
    """
    if n < 1:
        raise ValueError("plan_evaluation requires n >= 1")
    base = make_field(q)
    required = 2 * n - 1
    rational_capacity = q + 1
    if required <= rational_capacity:
        slots = required
        deg2_count = 0
    else:
        n2_capacity = (q * q - q) // 2
        if not allow_deg2 or rational_capacity + 2 * n2_capacity < required:
            cap = rational_capacity + (2 * n2_capacity if allow_deg2 else 0)
            raise InfeasiblePlanError(q, n, allow_deg2, cap, required)
        deficit = required - rational_capacity
        slots = rational_capacity - (1 if deficit % 2 else 0)
        deg2_count = (required - slots) // 2
    nodes = tuple(range(min(slots, q)))
    use_infinity = slots > q
    places = tuple(itertools.islice(irreducible_polys(base, 2), deg2_count))
    assert len(places) == deg2_count
    return EvalPlan(q, n, nodes, use_infinity, places, required)


@dataclass(frozen=True)
class BilinearAlgorithm:
    """A symmetric decomposition of the multiplication tensor of GF(q^n)/GF(q).

    For all x, y:  recon @ ((forms @ x) .* (forms @ y))  ==  x * y,
    with the same forms applied to both operands.
    """

    ext: ExtensionField
    plan: EvalPlan
    rank: int
    forms: Matrix  # rank x n over the base field
    recon: Matrix  # n x rank over the base field

    def __post_init__(self):
        c, n = self.plan.cost, self.ext.degree
        shape = (self.rank, self.forms.rows, self.forms.cols, self.recon.rows, self.recon.cols)
        if shape != (c, c, n, n, c):
            raise ValueError(f"a plan of cost {c} at n = {n} needs rank {c}, {c} x {n} forms, {n} x {c} recon")
        _check_codes(self.base, itertools.chain(self.forms.entries, self.recon.entries))

    @property
    def base(self) -> PrimeField | ExtensionField:
        return self.ext.base

    @property
    def contributions(self) -> tuple[int, ...]:  # per-place product counts, plan order
        return self.plan.contributions

    @property
    def q(self) -> int:
        return self.base.order

    @property
    def n(self) -> int:
        return self.ext.degree

    def envelope(self) -> int:
        """The genus-0 envelope the rank is accounted against."""
        n = self.n
        return 2 * n - 1 if self.plan.case == 1 else 3 * n


def build_algorithm(
    q: int,
    n: int,
    plan: EvalPlan | None = None,
    modulus: tuple | None = None,
) -> BilinearAlgorithm:
    """Construct and assemble the symmetric decomposition for GF(q^n)/GF(q).

    The defining modulus defaults to the canonical irreducible of degree n.
    The interpolation system is inverted on the first full-rank square row
    subsystem in canonical order (for the canonical plans the system is
    square already), which cannot be singular for distinct places.
    """
    base = make_field(q)
    if plan is None:
        plan = plan_evaluation(q, n, allow_deg2=True)
    elif (plan.q, plan.n) != (q, n):
        raise ValueError("plan does not match the requested field")
    ext = ExtensionField(base, n, modulus)
    forms, recon = _interpolate(base, plan, ext.modulus)
    assert forms.rows >= 2 * n - 1  # classical lower bound, structural here
    return BilinearAlgorithm(ext, plan, forms.rows, forms, recon)


def _interpolate(base, plan: EvalPlan, modulus: tuple) -> tuple[Matrix, Matrix]:
    """The forms and recon matrices of a plan over `base`, for the extension
    by `modulus`.

    A degree-2 place composes the residue map with the canonical rank-3
    algorithm of its residue field, built here from a rational-only plan on 3
    slots (feasible for every q since q+1 >= 3, and never recursing further).
    """
    n = plan.n
    prod_len = 2 * n - 1
    rank = plan.cost

    forms_rows: list[list] = []
    eval_rows: list[list] = []  # joint-evaluation functionals on product coeffs
    s_rows: list[list] = []  # the same functionals' values from the pointwise products

    def s_row(values: list) -> list:
        # values at the product columns of the place whose forms come next
        row = [0] * rank
        row[len(forms_rows) : len(forms_rows) + len(values)] = values
        return row

    for a in plan.rational_nodes:
        powers = [base.pow(a, j) for j in range(prod_len)]
        s_rows.append(s_row([1]))
        forms_rows.append(powers[:n])
        eval_rows.append(powers)
    if plan.use_infinity:
        s_rows.append(s_row([1]))
        forms_rows.append([0] * (n - 1) + [1])
        eval_rows.append([0] * (prod_len - 1) + [1])
    for pi in plan.deg2_places:
        sub_forms, sub_recon = _interpolate(base, plan_evaluation(plan.q, 2, allow_deg2=False), pi)
        res = power_rows(base, pi, prod_len)  # u**j mod pi, 2 coords each
        s_rows += [s_row(row) for row in sub_recon.to_int_lists()]
        # compose the three sub-forms with the residue map: rows over x coords
        for s0, s1 in sub_forms.to_int_lists():
            forms_rows.append([base.add(base.mul(s0, r0), base.mul(s1, r1)) for r0, r1 in res[:n]])
        eval_rows.extend(map(list, zip(*res)))

    picked = select_independent_rows(Matrix.from_rows(base, eval_rows), prod_len)
    square = Matrix.from_rows(base, [eval_rows[i] for i in picked])
    s_picked = Matrix.from_rows(base, [s_rows[i] for i in picked])
    # reduction of product coefficients mod the defining polynomial
    reduce_q = Matrix.from_rows(base, list(zip(*power_rows(base, modulus, prod_len))))
    return Matrix.from_rows(base, forms_rows), reduce_q @ invert(square) @ s_picked


def multiply(algo: BilinearAlgorithm, x: int, y: int) -> int:
    """Multiply element codes through the decomposition: forms, pointwise
    products, recon."""
    ext, base = algo.ext, algo.base
    for v in (x, y):
        if type(v) is not int or not 0 <= v < ext.order:
            raise ValueError(f"operand {v!r} is not an element code of {ext}")
    fx = algo.forms.matvec(ext.digits(x))
    fy = algo.forms.matvec(ext.digits(y))
    w = [base.mul(a, b) for a, b in zip(fx, fy)]
    return ext.from_digits(algo.recon.matvec(w))


@dataclass(frozen=True)
class VerificationReport:
    mode: str  # "exhaustive" | "random"
    pairs_checked: int
    failures: int
    rank: int
    envelope: int
    seed: int | None = None

    def to_json_dict(self) -> dict:
        out = asdict(self)
        if self.seed is None:
            del out["seed"]
        return out


def verify(
    algo: BilinearAlgorithm,
    mode: str = "auto",
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
) -> VerificationReport:
    """Check the decomposition against reference (schoolbook) multiplication.

    Exhaustive over all q**(2n) operand pairs when that count is at most
    2**24 (and "auto" resolves accordingly); otherwise a seeded stream of
    random pairs.  Any mismatch raises VerificationError carrying the
    offending pair, the first one in code order or stream order.  Over base
    fields with q <= CODE_TABLE_CAP both modes are vectorized on uint16
    arrays of base-field values in a carry-free form (`_LazySum`): each
    coordinate of x*y minus the tensor route's product is summed by integer
    adds (XOR in characteristic 2) and reduced once, and a pair passes iff
    every coordinate is 0.  The exhaustive check gathers its terms from
    per-x row tables over all y (`_exhaustive_check`); random mode computes
    them pair by pair (`_random_check`).  Above the cap each pair goes
    through the scalar routes.
    """
    q, n = algo.q, algo.n
    pair_count = q ** (2 * n)
    if mode == "auto":
        mode = "exhaustive" if pair_count <= EXHAUSTIVE_PAIR_CAP else "random"
    if mode == "exhaustive":
        if pair_count > EXHAUSTIVE_PAIR_CAP:
            raise ValueError(
                f"exhaustive verification capped at {EXHAUSTIVE_PAIR_CAP} pairs; "
                f"q**(2n) = {pair_count}"
            )
        if q <= CODE_TABLE_CAP:
            _exhaustive_check(algo)
        else:
            _scalar_check(algo, itertools.product(range(algo.ext.order), repeat=2))
        return VerificationReport("exhaustive", pair_count, 0, algo.rank, algo.envelope())
    if mode != "random":
        raise ValueError(f"unknown verification mode {mode!r}")
    if trials < 1:
        raise ValueError("random verification needs at least one trial")
    codes = _seeded_codes(random.Random(seed), algo.ext.order)
    if q <= CODE_TABLE_CAP:
        _random_check(algo, codes, trials)
    else:
        stream = itertools.islice(codes, 2 * trials)
        _scalar_check(algo, zip(stream, stream))
    return VerificationReport("random", trials, 0, algo.rank, algo.envelope(), seed)


def _seeded_codes(rng: random.Random, order: int) -> Iterator[int]:
    """The codes rng.randrange(order) would draw, one after another: the
    random-mode operand stream (x, then y, per trial), on which reported
    first failures depend.  randrange's own getrandbits rejection is inlined,
    which leaves the stream as it is and saves its Python frames."""
    getrandbits = rng.getrandbits
    k = order.bit_length()
    while True:
        r = getrandbits(k)
        if r < order:
            yield r


def _mismatch(algo: BilinearAlgorithm, x: int, y: int) -> VerificationError:
    """The error for a failing pair, both products taken by the scalar routes."""
    return VerificationError(algo.q, algo.n, x, y, algo.ext.mul(x, y), multiply(algo, x, y))


def _scalar_check(algo: BilinearAlgorithm, pairs) -> None:
    """Check (x code, y code) pairs one at a time, in the given order."""
    ext = algo.ext
    for x, y in pairs:
        if multiply(algo, x, y) != ext.mul(x, y):
            raise _mismatch(algo, x, y)


# ---------------------------------------------------------------------------
# the vectorized kernel: both routes on uint16 arrays of base-field values,
# summed carry-free and reduced once per sum


def _code_digits(codes: np.ndarray, q: int, n: int) -> list[np.ndarray]:
    """Base-q digits, low first, of element codes: n intp arrays shaped like
    codes (object codes, past int64, are split first and then cast)."""
    out = []
    for _ in range(n):
        out.append((codes % q).astype(np.intp, copy=False))
        codes = codes // q
    return out


def _first_nonzero(sums: list[np.ndarray]) -> np.ndarray | None:
    """Index, first in C order, where some of the arrays sums is nonzero;
    None when all are zero."""
    # the passing case compares byte images, which pages in no numpy
    # comparison or reduction code (it shows in peak RSS)
    zero = bytes(sums[0].nbytes)
    if all(s.tobytes() == zero for s in sums):
        return None
    return np.argwhere(np.any(sums, axis=0))[0]


def _exhaustive_check(algo: BilinearAlgorithm) -> None:
    """All pairs, x-major in code order: chunks of about EXHAUSTIVE_CHUNK
    pairs, B x codes against all q**n y codes in code order.

    Every term of either route depends on x only through one base-field
    code, so it is tabulated once over all y as a (q, q**n) row table, and a
    chunk gathers one row per x:

    * the tensor route's term recon[j][k]*(phi_k(x)*phi_k(y)) is row
      phi_k(x) of T_jk, T_jk[a] = mul(recon[j][k], mul(a, phi_k(Y)));
    * the reference x*y = sum over j' of y_j'*(x*u**j') has coordinate j
      the sum over j' of row M_x[j][j'] of S_j', S_j'[c] = mul(c, Y_j'),
      where M_x[j][j'] = sum over i of x_i*R[i+j'][j] comes from the
      reduction rows R[k] = u**k mod modulus.

    Coordinate j of x*y minus the tensor route's product is the lazy sum of
    its n reference terms and its nnz(recon[j]) tensor terms, stored
    negated, and the pair passes iff that sum is 0 in every coordinate.
    Rows j with equal recon[j][k] share T_jk, so there are at most
    nnz(recon) + n tables.  They hold uint16 values, q * q**n * 2 bytes
    each: at most 3.5 MiB in all at (q, n) = (64, 2).
    """
    q, n, qn = algo.q, algo.n, algo.ext.order
    red = power_rows(algo.base, algo.ext.modulus, 2 * n - 1)  # R[k] = u**k mod modulus
    terms = [[(c, k) for k, c in enumerate(row) if c] for row in algo.recon.to_int_lists()]
    lazy = _LazySum(algo.base, n + max(map(len, terms)))
    coeffs = _code_digits(np.arange(qn, dtype=np.intp), q, n)
    # the form values index every chunk's gathers, so they are cast once
    phi = [f.astype(np.intp) for f in lazy.linear(algo.forms.to_int_lists(), coeffs)]
    m_rows = [[red[i + jp][j] for i in range(n)] for j in range(n) for jp in range(n)]
    m_x = [f.astype(np.intp) for f in lazy.linear(m_rows, coeffs)]  # M_x[j][j'] at j*n + j'
    s = [lazy.prod.take(y, axis=1) for y in coeffs]  # S_j'
    tables = {}  # -T_jk by (recon[j][k], k), shared by rows j
    for c, k in set(itertools.chain(*terms)):
        tables[c, k] = lazy.prod[algo.base.neg(c)].take(lazy.mul).take(phi[k], axis=1)
    coord_terms = [
        list(zip(m_x[j * n : (j + 1) * n], s)) + [(phi[k], tables[c, k]) for c, k in row]
        for j, row in enumerate(terms)
    ]
    rows = max(1, EXHAUSTIVE_CHUNK // qn)
    for start in range(0, qn, rows):
        chunk = slice(start, start + rows)
        bad = _first_nonzero([lazy.sum(t, chunk) for t in coord_terms])
        if bad is not None:
            bx, by = bad
            raise _mismatch(algo, start + int(bx), int(by))


def _random_check(algo: BilinearAlgorithm, stream: Iterator[int], trials: int) -> None:
    """`trials` pairs from the stream (x, then y, per trial), RANDOM_CHUNK at
    a time, each pair on its own.

    Coordinate j of x*y minus the tensor route's product is the lazy sum of
    the schoolbook products x_i*y_i' of degree j, the high convolution sums
    (degrees n..2n-2, each folded to a code) times their reduction rows
    R[k][j], and the tensor terms recon[j][k]*w_k, stored negated, where
    w_k = phi_k(x)*phi_k(y).  The pair passes iff every coordinate is 0.
    """
    q, n, base = algo.q, algo.n, algo.base
    forms = algo.forms.to_int_lists()
    red = power_rows(base, algo.ext.modulus, 2 * n - 1)  # R[k] = u**k mod modulus
    terms = [[(base.neg(c), k) for k, c in enumerate(row) if c] for row in algo.recon.to_int_lists()]
    lazy = _LazySum(base, 2 * n - 1 + max(map(len, terms)))
    prod, mul = lazy.prod.ravel(), lazy.mul.ravel()  # at a*q + b
    dtype = np.int64 if algo.ext.order <= 1 << 63 else object  # larger codes stay Python ints
    for start in range(0, trials, RANDOM_CHUNK):
        count = min(RANDOM_CHUNK, trials - start)
        codes = np.fromiter(itertools.islice(stream, 2 * count), dtype=dtype, count=2 * count)
        # every x, then every y: the digits and form values of both operands
        # in one pass each, split into contiguous halves
        coeffs = _code_digits(np.concatenate((codes[0::2], codes[1::2])), q, n)
        x, y = [c[:count] for c in coeffs], [c[count:] for c in coeffs]
        w = [mul.take(f[:count] * q + f[count:]) for f in lazy.linear(forms, coeffs)]

        def products(d):  # x_i*y_i' over i + i' = d
            return (prod.take(x[i] * q + y[d - i]) for i in range(max(0, d - n + 1), min(d, n - 1) + 1))

        high = {d: lazy.total(products(d)) for d in range(n, 2 * n - 1)}
        sums = [
            lazy.total(itertools.chain(
                products(j),
                (lazy.prod[red[d][j]].take(h) for d, h in high.items() if red[d][j]),
                (lazy.prod[c].take(w[k]) for c, k in row),
            ))
            for j, row in enumerate(terms)
        ]
        bad = _first_nonzero(sums)
        if bad is not None:
            (i,) = bad
            raise _mismatch(algo, int(codes[2 * i]), int(codes[2 * i + 1]))


class _LazySum:
    """Sums of base-field values as plain integers, reduced lazily.

    The base field has order q = p**m, and its codes add digitwise mod p in
    base p.  A value c = sum of d_i*p**i is stored carry-free as spread[c] =
    sum of d_i*2**(bits*i), in uint16: a sum of such values keeps each digit
    sum in its own bits-wide field while no field passes 2**bits - 1, and
    the lookup fold[s] sends a sum to the code of the field sum.
    bits = bit_length(terms*(p-1)) lets a field hold `terms` terms, so a sum
    of at most that many is folded once, at the end.  Where bits*m would
    pass LAZY_BITS, bits shrinks to fit and a longer sum is refolded,
    spread[fold[s]], each time a field is full.  Exhaustive mode's
    canonical algorithms never need that (the widest, over GF(3**5) at
    n = 1, takes 15 bits); random mode's longer sums can.

    In characteristic 2, bits = 1 and XOR is the field addition on codes,
    so spread is the identity and no sum is ever folded.
    """

    def __init__(self, field: PrimeField | ExtensionField, terms: int):
        p = field.char
        self.bits = 1 if p == 2 else min((terms * (p - 1)).bit_length(), LAZY_BITS // _digit_count(field))
        self.capacity = ((1 << self.bits) - 1) // (p - 1)  # terms a field holds
        self.mul, self.spread, self.fold, self.prod = _lazy_tables(field, self.bits)

    def total(self, values: Iterable[np.ndarray]) -> np.ndarray:
        """The codes of the sums of carry-free values, given as at least one
        fresh uint16 array, which the sum may overwrite."""
        values = iter(values)
        acc = next(values)
        if self.fold is None:
            for v in values:
                np.bitwise_xor(acc, v, out=acc)
            return acc
        held = 1
        for v in values:
            if held == self.capacity:
                acc, held = self.spread.take(self.fold.take(acc)), 1
            np.add(acc, v, out=acc)
            held += 1
        return self.fold.take(acc)

    def linear(self, matrix: list[list[int]], coeffs: list[np.ndarray]) -> list[np.ndarray]:
        """The codes of the linear forms given by the rows of matrix at
        coefficient codes."""
        return [
            self.total(self.prod[c].take(v) for c, v in zip(row, coeffs) if c)
            if any(row) else np.zeros(len(coeffs[0]), np.uint16)
            for row in matrix
        ]

    def sum(self, terms: list, chunk: slice) -> np.ndarray:
        """The codes of the sums over (x index, row table) terms of each
        table's rows at the chunk's x indices."""
        return self.total(table.take(index[chunk], axis=0) for index, table in terms)


@lru_cache(maxsize=None)
def _lazy_tables(field: PrimeField | ExtensionField, bits: int) -> tuple:
    """mul, spread, fold and prod = spread[mul] of a base field with at most
    CODE_TABLE_CAP elements, for fields `bits` wide, as read-only uint16
    arrays; mul and prod are (q, q).  fold is None in characteristic 2."""
    mul = np.array(_list_tables(field)[1], dtype=np.uint16)
    q, p, m = field.order, field.char, _digit_count(field)
    spread = sum(d << bits * i for i, d in enumerate(_code_digits(np.arange(q), p, m))).astype(np.uint16)
    fold = None
    if p != 2:  # built in uint16: at (27, 3) in random mode it has 2**15 entries
        sums, mask = np.arange(1 << bits * m, dtype=np.uint16), (1 << bits) - 1
        fold = sum((sums >> bits * i & mask) % p * p**i for i in range(m))
    tables = (mul, spread, fold, spread.take(mul))
    for t in tables:
        if t is not None:
            t.setflags(write=False)
    return tables


def _digit_count(field: PrimeField | ExtensionField) -> int:
    """m, for a field of order p**m."""
    return next(m for m in itertools.count(1) if field.char**m >= field.order)


def emit_tensor(algo: BilinearAlgorithm) -> str:
    """Serialize the decomposition as canonical JSON (byte-stable)."""
    doc = {
        "q": algo.q,
        "n": algo.n,
        "modulus": list(algo.ext.modulus),
        "rank": algo.rank,
        "forms": algo.forms.to_int_lists(),
        "recon": algo.recon.to_int_lists(),
        "ledger": {
            "plan": algo.plan.to_json_dict(),
            "contributions": list(algo.contributions),
        },
    }
    return jsonout.dumps(doc) + "\n"


def parse_tensor(text: str) -> BilinearAlgorithm:
    """Rebuild an algorithm from emit_tensor output; verify() re-checks it.

    Codes, q, n, rank, total_degree and the ledger's cost and contributions
    must be JSON integers, use_infinity a boolean, and the ledger must agree
    with the plan; EvalPlan, ExtensionField and BilinearAlgorithm check the
    rest, code ranges included, as they are built."""
    doc = json.loads(text)
    q, n = _json_typed(doc["q"], int, "q"), _json_typed(doc["n"], int, "n")
    base = make_field(q)

    def codes(values) -> tuple:
        return tuple(_json_typed(c, int, "code") for c in values)

    modulus = codes(doc["modulus"])
    ledger = doc["ledger"]
    plan = EvalPlan(
        q,
        n,
        codes(ledger["plan"]["rational_nodes"]),
        _json_typed(ledger["plan"]["use_infinity"], bool, "use_infinity"),
        tuple(map(codes, ledger["plan"]["deg2_places"])),
        _json_typed(ledger["plan"]["total_degree"], int, "total_degree"),
    )
    cost = _json_typed(ledger["plan"]["cost"], int, "cost")
    contributions = tuple(_json_typed(c, int, "contribution") for c in ledger["contributions"])
    if cost != plan.cost or contributions != plan.contributions:
        raise ValueError("tensor ledger is inconsistent: cost or contributions disagree with its plan")
    ext = ExtensionField(base, n, modulus)
    forms = Matrix.from_rows(base, [codes(row) for row in doc["forms"]])
    recon = Matrix.from_rows(base, [codes(row) for row in doc["recon"]])
    return BilinearAlgorithm(ext, plan, _json_typed(doc["rank"], int, "rank"), forms, recon)


def _json_typed(value, kind: type, what: str):
    """`value`, if its type is exactly `kind`: JSON's true is no integer and
    1.0 no code, though Python compares them equal to 1."""
    if type(value) is not kind:
        raise ValueError(f"tensor {what} must be of type {kind.__name__}, got {value!r}")
    return value
