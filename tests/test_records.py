"""The contract of the value types: repr, equality and hashing by fields,
immutability, copy and pickle, and construction by position or keyword.

Each case is one representative instance, the names of its fields in order,
and one field with a value that passes the type's checks but differs."""

import copy
import pickle
import re
from fractions import Fraction

import pytest

from symrank import fields
from symrank.bounds import BoundReport, CheckResult, Witnesses, epsilon, prior_bound
from symrank.curves import family_data, genus_X0
from symrank.multiplier import build_algorithm, plan_evaluation, verify
from symrank.primes import GapPolicy, GapScan, PairFamily, PrimePair, select_pair

PAIR = select_pair(5, 100, PairFamily.QUADRATIC_GENERIC)
CURVE = family_data(5, PAIR.l_k)
CHECK = CheckResult("gap", True, "ok")
ALGO = build_algorithm(2, 2)

CASES = {
    "GapScan": (
        GapScan(100, Fraction(2, 3), (7, 23), 8, 0.5),
        "GapScan(limit=100, alpha=Fraction(2, 3), violations=(7, 23), max_gap_seen=8, runtime_ms=0.5)",
        ("limit", "alpha", "violations", "max_gap_seen", "runtime_ms"),
        ("runtime_ms", 0.75),
    ),
    "GapPolicy": (
        GapPolicy("empirical", Fraction(1, 2), 11, 1000),
        "GapPolicy(name='empirical', alpha=Fraction(1, 2), x_alpha=11, verified_limit=1000)",
        ("name", "alpha", "x_alpha", "verified_limit"),
        ("verified_limit", 2000),
    ),
    "PrimePair": (
        PAIR,
        "PrimePair(l_k=97, l_k1=101, threshold=Fraction(97, 1), gap=4, skipped=())",
        ("l_k", "l_k1", "threshold", "gap", "skipped"),
        ("skipped", (11,)),
    ),
    "Gamma0Data": (
        genus_X0(55),
        "Gamma0Data(N=55, mu=72, nu2=0, nu3=0, nu_inf=4, genus=5)",
        ("N", "mu", "nu2", "nu3", "nu_inf", "genus"),
        ("genus", 6),
    ),
    "CurveFamilyData": (
        CURVE,
        "CurveFamilyData(family='11l', l=97, N=1067, genus=97, p=5, n1_lower_p2=392, n1_2n2_lower_p=392)",
        ("family", "l", "N", "genus", "p", "n1_lower_p2", "n1_2n2_lower_p"),
        ("genus", 98),
    ),
    "PriorBound": (
        prior_bound("iv", 5, 100),
        "PriorBound(variant='iv', q=5, p=5, n=100, coefficient=Fraction(27, 5), value_real=540.0)",
        ("variant", "q", "p", "n", "coefficient", "value_real"),
        ("value_real", 541.0),
    ),
    "EpsilonSpec": (
        epsilon(5, 100, Fraction(2, 3), "generic"),
        "EpsilonSpec(p=5, n=100, alpha=Fraction(2, 3), family='generic', value=0.21544346900318842)",
        ("p", "n", "alpha", "family", "value"),
        ("family", "eleven"),
    ),
    "CheckResult": (
        CHECK,
        "CheckResult(name='gap', passed=True, detail='ok')",
        ("name", "passed", "detail"),
        ("passed", False),
    ),
    "Witnesses": (
        Witnesses(PAIR, CURVE, (CHECK,)),
        "Witnesses(pair=PrimePair(l_k=97, l_k1=101, threshold=Fraction(97, 1), gap=4, skipped=()), "
        "curve=CurveFamilyData(family='11l', l=97, N=1067, genus=97, p=5, n1_lower_p2=392, n1_2n2_lower_p=392), "
        "checks=(CheckResult(name='gap', passed=True, detail='ok'),))",
        ("pair", "curve", "checks"),
        ("checks", ()),
    ),
    "BoundReport": (
        BoundReport(5, 100, "p2", "closed_quadratic", 316.9, 316, False, GapPolicy.dudek()),
        "BoundReport(p=5, n=100, field='p2', method='closed_quadratic', value_real=316.9, value_int=316, "
        "valid_unconditional=False, policy=GapPolicy(name='dudek', alpha=Fraction(2, 3), x_alpha=None, "
        "verified_limit=None), witnesses=None, caveats=())",
        ("p", "n", "field", "method", "value_real", "value_int", "valid_unconditional", "policy", "witnesses",
         "caveats"),
        ("caveats", ("x",)),
    ),
    "EvalPlan": (
        plan_evaluation(2, 2),
        "EvalPlan(q=2, n=2, rational_nodes=(0, 1), use_infinity=True, deg2_places=(), total_degree=3)",
        ("q", "n", "rational_nodes", "use_infinity", "deg2_places", "total_degree"),
        ("rational_nodes", (1, 0)),
    ),
    "BilinearAlgorithm": (
        ALGO,
        # Matrix has the default repr, which shows its address
        re.compile(
            r"BilinearAlgorithm\(ext=GF\(2\^2\), plan=EvalPlan\(q=2, n=2, rational_nodes=\(0, 1\), "
            r"use_infinity=True, deg2_places=\(\), total_degree=3\), rank=3, "
            r"forms=<symrank\.fields\.Matrix object at 0x[0-9a-f]+>, "
            r"recon=<symrank\.fields\.Matrix object at 0x[0-9a-f]+>\)"
        ),
        ("ext", "plan", "rank", "forms", "recon"),
        ("forms", fields.Matrix(ALGO.base, ALGO.forms.rows[::-1])),
    ),
    "VerificationReport": (
        verify(ALGO),
        "VerificationReport(mode='exhaustive', pairs_checked=16, failures=0, rank=3, envelope=3, seed=None)",
        ("mode", "pairs_checked", "failures", "rank", "envelope", "seed"),
        ("seed", 7),
    ),
}
# a Matrix compares by value and so has no hash, and an ExtensionField
# cannot be rebuilt by deepcopy or pickle
UNHASHABLE = {"BilinearAlgorithm"}
NOT_PICKLABLE = {"BilinearAlgorithm"}


def rebuilt(obj, names, **changes):
    """A new instance of obj's type from its fields, passed by keyword."""
    return type(obj)(**{name: changes.get(name, getattr(obj, name)) for name in names})


@pytest.fixture(params=sorted(CASES))
def case(request):
    return request.param, *CASES[request.param]


def test_repr(case):
    _, obj, text, _, _ = case
    if isinstance(text, re.Pattern):
        assert text.fullmatch(repr(obj))
    else:
        assert repr(obj) == text


def test_equal_by_fields(case):
    name, obj, _, names, (field, value) = case
    twin = rebuilt(obj, names)
    assert twin is not obj and twin == obj and not twin != obj
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(twin) == hash(obj)
    other = rebuilt(obj, names, **{field: value})
    assert other != obj and not other == obj
    assert obj != tuple(getattr(obj, n) for n in names)
    assert obj.__eq__(object()) is NotImplemented


def test_frozen(case):
    _, obj, _, names, (field, value) = case
    before = [getattr(obj, n) for n in names]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(obj, field, value)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert [getattr(obj, n) for n in names] == before


def test_copy_and_pickle(case):
    name, obj, _, _, _ = case
    copies = [copy.copy(obj)]
    if name not in NOT_PICKLABLE:
        copies += [copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))]
    for dup in copies:
        assert type(dup) is type(obj) and dup == obj
        if name not in UNHASHABLE:
            assert hash(dup) == hash(obj)


def test_positional_arity(case):
    _, obj, _, names, _ = case
    values = [getattr(obj, n) for n in names]
    assert type(obj)(*values) == obj
    with pytest.raises(TypeError):
        type(obj)(*values, None)
    with pytest.raises(TypeError):
        type(obj)(values[0])


def test_keyword_defaults():
    assert GapPolicy(name="dudek", alpha=Fraction(2, 3)) == GapPolicy.dudek()
    assert PrimePair(l_k=7, l_k1=11, threshold=Fraction(8), gap=4).skipped == ()
    report = BoundReport(5, 100, "p2", "closed_quadratic", 316.9, 316, False, GapPolicy.dudek())
    assert (report.witnesses, report.caveats) == (None, ())
    assert verify(ALGO, mode="exhaustive").seed is None
