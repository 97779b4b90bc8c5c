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

verify checks that decomposition on the n(n+1)/2 basis pairs (u**i, u**j),
i <= j; both products are bilinear and symmetric, so that certifies all
q**(2n) operand pairs.

Everything is canonical (node order, place order, modulus choice, pivoting),
so emitted tensors are byte-stable across runs.
"""

from __future__ import annotations

import itertools
import json

from . import jsonout
from .fields import (
    ExtensionField,
    Matrix,
    PrimeField,
    _check_codes,
    invert,
    irreducible_polys,
    is_irreducible,
    make_field,
    power_rows,
    select_independent_rows,
)
from .record import Record

_set = object.__setattr__  # stores a field of a Record, which refuses plain assignment

EXHAUSTIVE_PAIR_CAP = 1 << 24  # exhaustive verification iff q**(2n) <= this
DEFAULT_SEED = 20170223
DEFAULT_TRIALS = 1000


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


class EvalPlan(Record):
    """Which places of the rational function field the construction
    consumes; a plan is checked once, on construction."""

    __slots__ = _fields = ("q", "n", "rational_nodes", "use_infinity", "deg2_places", "total_degree")

    def __init__(
        self, q: int, n: int, rational_nodes: tuple, use_infinity: bool, deg2_places: tuple, total_degree: int
    ):
        _set(self, "q", q)
        _set(self, "n", n)
        _set(self, "rational_nodes", rational_nodes)  # base-field codes, in order
        _set(self, "use_infinity", use_infinity)
        _set(self, "deg2_places", deg2_places)  # monic irreducible quadratics, canonical order
        _set(self, "total_degree", total_degree)
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


class BilinearAlgorithm(Record):
    """A symmetric decomposition of the multiplication tensor of GF(q^n)/GF(q).

    For all x, y:  recon @ ((forms @ x) .* (forms @ y))  ==  x * y,
    with the same forms applied to both operands.
    """

    __slots__ = _fields = ("ext", "plan", "rank", "forms", "recon")

    def __init__(self, ext: ExtensionField, plan: EvalPlan, rank: int, forms: Matrix, recon: Matrix):
        _set(self, "ext", ext)
        _set(self, "plan", plan)
        _set(self, "rank", rank)
        _set(self, "forms", forms)  # rank x n over the base field
        _set(self, "recon", recon)  # n x rank over the base field
        c, n = self.plan.cost, self.ext.degree
        shape = (self.rank, len(self.forms.rows), self.forms.cols, len(self.recon.rows), self.recon.cols)
        if shape != (c, c, n, n, c):
            raise ValueError(f"a plan of cost {c} at n = {n} needs rank {c}, {c} x {n} forms, {n} x {c} recon")
        _check_codes(self.base, itertools.chain(*self.forms.rows, *self.recon.rows))

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
    The interpolation system has one row per evaluation degree.  A plan
    with exactly 2n-1 degrees, such as every plan of plan_evaluation, gives
    a square system, regular for distinct places, which is inverted as it
    is; a plan with surplus degrees is inverted on its first full-rank
    square row subsystem in canonical order.
    """
    base = make_field(q)
    if plan is None:
        plan = plan_evaluation(q, n, allow_deg2=True)
    elif (plan.q, plan.n) != (q, n):
        raise ValueError("plan does not match the requested field")
    ext = ExtensionField(base, n, modulus)
    forms, recon = _interpolate(base, plan, ext.modulus)
    rank = len(forms.rows)
    assert rank >= 2 * n - 1  # classical lower bound, structural here
    return BilinearAlgorithm(ext, plan, rank, forms, recon)


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
    if plan.deg2_places:
        sub_plan = plan_evaluation(plan.q, 2, allow_deg2=False)
    for pi in plan.deg2_places:
        sub_forms, sub_recon = _interpolate(base, sub_plan, pi)
        res = power_rows(base, pi, prod_len)  # u**j mod pi, 2 coords each
        s_rows += [s_row(row) for row in sub_recon.rows]
        # compose the three sub-forms with the residue map: rows over x coords
        res0, res1 = map(list, zip(*res))
        for s0, s1 in sub_forms.rows:
            row = base.scale(s0, res0[:n])
            base.axpy(s1, row, res1[:n])
            forms_rows.append(row)
        eval_rows += [res0, res1]

    if len(eval_rows) > prod_len:  # a plan with surplus degrees
        picked = select_independent_rows(Matrix(base, eval_rows), prod_len)
        eval_rows = [eval_rows[i] for i in picked]
        s_rows = [s_rows[i] for i in picked]
    # reduction of product coefficients mod the defining polynomial
    reduce_q = Matrix(base, zip(*power_rows(base, modulus, prod_len)))
    inverse = invert(Matrix(base, eval_rows))
    return Matrix(base, forms_rows), reduce_q @ inverse @ Matrix(base, s_rows)


def multiply(algo: BilinearAlgorithm, x: int, y: int) -> int:
    """Multiply element codes through the decomposition: forms, pointwise
    products, recon."""
    ext, base = algo.ext, algo.base
    for v in (x, y):
        if type(v) is not int or not 0 <= v < ext.order:
            raise ValueError(f"operand {v!r} is not an element code of {ext}")
    fx = algo.forms.matvec(ext.digits(x))
    fy = algo.forms.matvec(ext.digits(y))
    return ext.from_digits(algo.recon.matvec(base.entrywise(fx, fy)))


class VerificationReport(Record):
    __slots__ = _fields = ("mode", "pairs_checked", "failures", "rank", "envelope", "seed")

    def __init__(self, mode: str, pairs_checked: int, failures: int, rank: int, envelope: int, seed: int | None = None):
        _set(self, "mode", mode)  # "exhaustive" | "random"
        _set(self, "pairs_checked", pairs_checked)
        _set(self, "failures", failures)
        _set(self, "rank", rank)
        _set(self, "envelope", envelope)
        _set(self, "seed", seed)

    def to_json_dict(self) -> dict:
        out = self._asdict()
        if self.seed is None:
            del out["seed"]
        return out


def verify(
    algo: BilinearAlgorithm,
    mode: str = "auto",
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
) -> VerificationReport:
    """Check the decomposition against reference (schoolbook) multiplication
    on every operand pair, through the basis pairs.

    Both products are GF(q)-bilinear and symmetric in the operands, so the
    algorithm is right on all q**(2n) pairs iff it is right on the basis
    pairs (u**i, u**j), i <= j: the tensor identity sum_k recon[c][k] *
    forms[k][i] * forms[k][j] = (u**(i+j) mod modulus)[c], checked by
    `_first_basis_failure` in O(n**3 * rank) base-field operations.  Any
    mismatch raises VerificationError carrying a pair and both products,
    taken by the scalar routes:

    * "exhaustive" (allowed while q**(2n) <= 2**24; "auto" picks it then)
      reports the first failing pair in code order, x-major.  The x with
      D(x, .) = 0, D the reference minus the algorithm, form a subspace, so
      the first code outside it is the basis code q**i, and likewise for y:
      that pair is the first failing basis pair (q**i, q**j).
    * "random" reports the first failing pair of `trials` pairs drawn from
      random.Random(seed), x then y per trial; the stream is drawn only when
      the identity fails.  If none of those pairs fails, the first failing
      basis pair is reported instead: a wrong algorithm never passes.
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
        report = VerificationReport("exhaustive", pair_count, 0, algo.rank, algo.envelope())
    elif mode == "random":
        if trials < 1:
            raise ValueError("random verification needs at least one trial")
        report = VerificationReport("random", trials, 0, algo.rank, algo.envelope(), seed)
    else:
        raise ValueError(f"unknown verification mode {mode!r}")
    bad = _first_basis_failure(algo)
    if bad is None:
        return report
    if mode == "random":
        # the operand stream (x, then y, per trial) on which a reported first
        # failure depends; imported here, as no passing request draws it
        import random

        rng, order = random.Random(seed), algo.ext.order
        _scalar_check(algo, ((rng.randrange(order), rng.randrange(order)) for _ in range(trials)))
    i, j = bad
    raise _mismatch(algo, q**i, q**j)


def _first_basis_failure(algo: BilinearAlgorithm) -> tuple[int, int] | None:
    """The first (i, j), i <= j, i-major, at which the tensor route's product
    of u**i and u**j differs from u**(i+j) mod modulus; None if there is none.

    Every recon row is scaled by the form values at u**i once, and each
    coordinate at u**j is then one dot product in the field with the form
    values there: both are row kernels of the base field (entrywise, dot),
    with no method call per entry except in an extension above the table
    cap.
    """
    base, n = algo.base, algo.n
    red = power_rows(base, algo.ext.modulus, 2 * n - 1)  # u**k mod modulus
    at_basis = list(zip(*algo.forms.rows))  # the form values at u**i
    for i in range(n):
        scaled = [base.entrywise(row, at_basis[i]) for row in algo.recon.rows]
        for j in range(i, n):
            if [base.dot(row, at_basis[j]) for row in scaled] != red[i + j]:
                return i, j
    return None


def _mismatch(algo: BilinearAlgorithm, x: int, y: int) -> VerificationError:
    """The error for a failing pair, both products taken by the scalar routes."""
    return VerificationError(algo.q, algo.n, x, y, algo.ext.mul(x, y), multiply(algo, x, y))


def _scalar_check(algo: BilinearAlgorithm, pairs) -> None:
    """Check (x code, y code) pairs one at a time, in the given order."""
    ext = algo.ext
    for x, y in pairs:
        if multiply(algo, x, y) != ext.mul(x, y):
            raise _mismatch(algo, x, y)


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
    forms = Matrix(base, map(codes, doc["forms"]))
    recon = Matrix(base, map(codes, doc["recon"]))
    return BilinearAlgorithm(ext, plan, _json_typed(doc["rank"], int, "rank"), forms, recon)


def _json_typed(value, kind: type, what: str):
    """`value`, if its type is exactly `kind`: JSON's true is no integer and
    1.0 no code, though Python compares them equal to 1."""
    if type(value) is not kind:
        raise ValueError(f"tensor {what} must be of type {kind.__name__}, got {value!r}")
    return value
