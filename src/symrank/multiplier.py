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
from typing import Iterator

import numpy as np

from . import jsonout
from .fields import (
    CODE_TABLE_CAP,
    ExtensionField,
    Field,
    FieldElement,
    Matrix,
    _code_tables,
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
    """Which places of the rational function field the construction consumes."""

    q: int
    n: int
    rational_nodes: tuple  # base-field codes, in order
    use_infinity: bool
    deg2_places: tuple  # monic irreducible quadratics, canonical order
    total_degree: int

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
    if n < 2:
        raise ValueError("plan_evaluation requires n >= 2")
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
    total = len(nodes) + (1 if use_infinity else 0) + 2 * deg2_count
    assert total == required
    return EvalPlan(q, n, nodes, use_infinity, places, total)


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

    @property
    def base(self) -> Field:
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
    _check_plan(base, n, plan)
    ext = ExtensionField(base, n, modulus)
    forms, recon = _interpolate(base, plan, ext.modulus)
    assert forms.rows >= 2 * n - 1  # classical lower bound, structural here
    return BilinearAlgorithm(ext, plan, forms.rows, forms, recon)


def _check_plan(base: Field, n: int, plan: EvalPlan) -> None:
    """Reject a supplied or read plan that does not fit the degree-n extension of base."""
    if plan.q != base.order or plan.n != n:
        raise ValueError("plan does not match the requested field")
    if plan.total_degree != plan.rational_slots + 2 * len(plan.deg2_places):
        raise ValueError("plan total_degree is inconsistent with its places")
    if plan.total_degree < 2 * n - 1:
        raise ValueError("plan total degree is below 2n-1")
    if len(set(plan.rational_nodes)) != len(plan.rational_nodes):
        raise ValueError("rational nodes must be distinct")
    if len(set(plan.deg2_places)) != len(plan.deg2_places):
        raise ValueError("degree-2 places must be distinct")
    for pi in plan.deg2_places:
        if len(pi) != 3 or pi[-1] != base.one or not is_irreducible(base, pi):
            raise ValueError("degree-2 places must be monic irreducible quadratics")


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
        row = [base.zero] * rank
        row[len(forms_rows) : len(forms_rows) + len(values)] = values
        return row

    for a in plan.rational_nodes:
        powers = [base.pow(a, j) for j in range(prod_len)]
        s_rows.append(s_row([base.one]))
        forms_rows.append(powers[:n])
        eval_rows.append(powers)
    if plan.use_infinity:
        s_rows.append(s_row([base.one]))
        forms_rows.append([base.zero] * (n - 1) + [base.one])
        eval_rows.append([base.zero] * (prod_len - 1) + [base.one])
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


def multiply(algo: BilinearAlgorithm, x: FieldElement, y: FieldElement) -> FieldElement:
    """Multiply through the decomposition: forms, pointwise products, recon."""
    if x.field != algo.ext or y.field != algo.ext:
        raise ValueError("operands do not live in the algorithm's extension")
    return FieldElement(algo.ext, _apply(algo, x.value, y.value))


def _apply(algo: BilinearAlgorithm, x: int, y: int) -> int:
    ext, base = algo.ext, algo.base
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
    fields with q <= CODE_TABLE_CAP both modes are vectorized on code
    tables: the exhaustive check gathers each term of both routes from a
    per-x row table over all y (`_exhaustive_check`), random mode runs the
    pairwise kernel (`_CodeKernel.first_mismatch`).  Above the cap each pair
    goes through the scalar routes.
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
    return VerificationError(algo.q, algo.n, x, y, algo.ext.mul(x, y), _apply(algo, x, y))


def _scalar_check(algo: BilinearAlgorithm, pairs) -> None:
    """Check (x code, y code) pairs one at a time, in the given order."""
    ext = algo.ext
    for x, y in pairs:
        if _apply(algo, x, y) != ext.mul(x, y):
            raise _mismatch(algo, x, y)


# ---------------------------------------------------------------------------
# the integer-code kernel: both routes as 1-D lookups in flat tables over
# canonical base-field codes


def _code_digits(codes: np.ndarray, q: int, n: int) -> list[np.ndarray]:
    """Base-q digits, low first, of element codes: n intp arrays shaped like
    codes (object codes, past int64, are split first and then cast)."""
    out = []
    for _ in range(n):
        out.append((codes % q).astype(np.intp, copy=False))
        codes = codes // q
    return out


def _first_difference(ref: list[np.ndarray], got: list[np.ndarray]) -> np.ndarray | None:
    """Index, first in C order, where the coordinate arrays ref and got
    differ; None when they agree everywhere."""
    # the passing case compares byte images, which pages in no numpy
    # comparison or reduction code (it shows in peak RSS)
    if all(r.tobytes() == g.tobytes() for r, g in zip(ref, got)):
        return None
    return np.argwhere(np.any([r != g for r, g in zip(ref, got)], axis=0))[0]


class _CodeKernel:
    """An algorithm's tensor route, checked against the reference route, as
    lookups in its base field's flat code tables.

    A table is indexed by a*q + b.  Left operands a are kept pre-scaled
    (code*q), so an index is one add: `add` returns pre-scaled sums, `mul`
    plain products, and `mac` fuses add(a, mul(c, b)) for a constant c into
    one pre-scaled lookup in a table of c.  Accumulators start at 0, so a
    first index is b alone.  Values are lists of per-coordinate arrays.

    Random verification runs both routes pairwise on aligned (T,) arrays
    (`first_mismatch`).  The exhaustive check only takes the linear values
    of every element from here and gathers the rest from row tables (see
    `_exhaustive_check`).
    """

    def __init__(self, algo: BilinearAlgorithm, pairs: int):
        self.q = q = algo.q
        self.add, self.mul = _code_tables(algo.base)
        self.forms = algo.forms.to_int_lists()  # rank x n
        self.recon = algo.recon.to_int_lists()  # n x rank
        self.red = power_rows(algo.base, algo.ext.modulus, 2 * algo.n - 1)  # R[k] = u**k mod modulus
        # a fused table pays for its q*q entries only over at least as many
        # pairs; below that a product is a lookup in a row of mul
        self.fuse = q * q <= pairs
        self._mac: dict[int, np.ndarray] = {}

    def mac(self, acc: np.ndarray | None, c: int, b: np.ndarray) -> np.ndarray:
        """add(acc, mul(c, b)), pre-scaled, acc None reading 0: one lookup in
        the fused table of c, built on its first use."""
        q = self.q
        row = self.mul[c * q : (c + 1) * q]  # mul(c, b) at b
        if not self.fuse:
            m = row.take(b)
            return self.add.take(m if acc is None else acc + m)
        table = self._mac.get(c)
        if table is None:
            table = self._mac[c] = self.add.take(np.arange(0, q * q, q)[:, None] + row).ravel()
        return table.take(b if acc is None else acc + b)

    def linear_values(self, matrix: list[list[int]], coeffs: list[np.ndarray]) -> list[np.ndarray]:
        """The linear forms given by the rows of matrix at plain coefficient
        codes, pre-scaled."""
        out = []
        for row in matrix:
            acc = None
            for fij, v in zip(row, coeffs):
                if fij:
                    acc = self.mac(acc, fij, v)
            out.append(np.zeros_like(coeffs[0]) if acc is None else acc)
        return out

    def reference(self, x: list[np.ndarray], y: list[np.ndarray]) -> list[np.ndarray]:
        """Schoolbook convolution of coefficient codes (x pre-scaled, y plain),
        then reduction by the rows u**k mod modulus; pre-scaled."""
        n = len(x)
        conv: list = [None] * (2 * n - 1)
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                m = self.mul.take(xi + yj)
                acc = conv[i + j]
                conv[i + j] = self.add.take(m if acc is None else acc + m)
        out = conv[:n]
        for k, row in enumerate(self.red[n:], n):
            hk = conv[k] // self.q
            for j, rkj in enumerate(row):
                if rkj:
                    out[j] = self.mac(out[j], rkj, hk)
        return out

    def first_mismatch(self, x, y, fx, fy) -> np.ndarray | None:
        """Index, first in C order, where the pointwise products of the form
        values fx (pre-scaled) and fy (plain), reconstructed, differ from the
        reference product of x (pre-scaled) and y (plain); None when they
        agree everywhere."""
        ref = self.reference(x, y)
        got: list = [None] * len(ref)
        for k, (fxk, fyk) in enumerate(zip(fx, fy)):
            wk = self.mul.take(fxk + fyk)
            for j, row in enumerate(self.recon):
                if row[k]:
                    got[j] = self.mac(got[j], row[k], wk)
        got = [np.zeros_like(r) if g is None else g for r, g in zip(ref, got)]
        return _first_difference(ref, got)


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

    The terms of a coordinate are summed by lookups in the add table, the
    first from a pre-scaled table so that the sums come out pre-scaled.
    Rows j with equal recon[j][k] share T_jk (pre-scaled or not), so there
    are at most nnz(recon) + n tables.  They hold uint16 codes (pre-scaled
    ones are below q*q <= 2**16), q * q**n * 2 bytes each: at most 3.5 MiB
    in all at (q, n) = (64, 2).
    """
    q, n, qn = algo.q, algo.n, algo.ext.order
    kernel = _CodeKernel(algo, qn * qn)
    coeffs = _code_digits(np.arange(qn, dtype=np.intp), q, n)
    phi = [f // q for f in kernel.linear_values(kernel.forms, coeffs)]
    m_rows = [[kernel.red[i + jp][j] for i in range(n)] for j in range(n) for jp in range(n)]
    m_x = [f // q for f in kernel.linear_values(m_rows, coeffs)]  # M_x[j][j'] at j*n + j'
    add = kernel.add.astype(np.uint16)
    mul = kernel.mul.astype(np.uint16).reshape(q, q)
    s = [mul.take(y, axis=1) for y in coeffs]  # S_j'
    s[0] *= q  # the first term of every reference coordinate
    ref_terms = [list(zip(m_x[j * n : (j + 1) * n], s)) for j in range(n)]
    got_terms = []
    tables = {}  # T_jk by (recon[j][k], k, pre-scaled), shared by rows j
    for row in kernel.recon:
        terms = []
        for k, c in enumerate(row):
            if c:
                key = (c, k, not terms)
                if key not in tables:
                    composed = mul[c].take(mul)  # mul(c, mul(a, b)) at [a, b]
                    if not terms:
                        composed *= q
                    tables[key] = composed.take(phi[k], axis=1)
                terms.append((phi[k], tables[key]))
        got_terms.append(terms or [(np.zeros(qn, np.intp), np.zeros((1, qn), np.uint16))])
    rows = max(1, EXHAUSTIVE_CHUNK // qn)
    for start in range(0, qn, rows):
        chunk = slice(start, start + rows)
        bad = _first_difference(
            [_gather_sum(add, terms, chunk) for terms in ref_terms],
            [_gather_sum(add, terms, chunk) for terms in got_terms],
        )
        if bad is not None:
            bx, by = bad
            raise _mismatch(algo, start + int(bx), int(by))


def _gather_sum(add: np.ndarray, terms: list, chunk: slice) -> np.ndarray:
    """The sum, pre-scaled, over (x index, row table) terms of each table's
    rows at the chunk's x indices."""
    acc = None
    for index, table in terms:
        rows = table.take(index[chunk], axis=0)
        acc = rows if acc is None else add.take(acc + rows)
    return acc


def _random_check(algo: BilinearAlgorithm, stream: Iterator[int], trials: int) -> None:
    """`trials` pairs from the stream (x, then y, per trial), RANDOM_CHUNK at
    a time."""
    kernel = _CodeKernel(algo, trials)
    q = algo.q
    dtype = np.int64 if algo.ext.order <= 1 << 63 else object  # larger codes stay Python ints
    for start in range(0, trials, RANDOM_CHUNK):
        count = min(RANDOM_CHUNK, trials - start)
        codes = np.fromiter(itertools.islice(stream, 2 * count), dtype=dtype, count=2 * count)
        # every x, then every y: the digits and form values of both operands
        # in one pass each, split into contiguous halves
        coeffs = _code_digits(np.concatenate((codes[0::2], codes[1::2])), q, algo.n)
        phi = kernel.linear_values(kernel.forms, coeffs)
        for c in coeffs:  # x pre-scaled, y plain, in place
            c[:count] *= q
        for f in phi:
            f[count:] //= q
        bad = kernel.first_mismatch(
            [c[:count] for c in coeffs],
            [c[count:] for c in coeffs],
            [f[:count] for f in phi],
            [f[count:] for f in phi],
        )
        if bad is not None:
            (i,) = bad
            raise _mismatch(algo, int(codes[2 * i]), int(codes[2 * i + 1]))


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

    Every base-field code in the document is type- and range-checked here,
    the one place where codes come from outside; q, n, rank and total_degree
    must be JSON integers and use_infinity a boolean, and the ledger and
    shapes must fit the plan."""
    doc = json.loads(text)
    q, n = _json_typed(doc["q"], int, "q"), _json_typed(doc["n"], int, "n")
    base = make_field(q)

    def codes(values) -> tuple:
        values = tuple(values)
        for c in values:
            if not 0 <= _json_typed(c, int, "code") < q:
                raise ValueError(f"code {c} out of range for {base}")
        return values

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
    _check_plan(base, n, plan)
    if ledger["plan"]["cost"] != plan.cost or tuple(ledger["contributions"]) != plan.contributions:
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
