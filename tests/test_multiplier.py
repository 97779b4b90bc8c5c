import hashlib
import json
import math
import random
import tracemalloc

import pytest
from gf_oracle import ExtOracle, oracle_of

from symrank import fields, multiplier
from symrank.fields import make_field, poly_eval
from symrank.multiplier import (
    BilinearAlgorithm,
    EvalPlan,
    InfeasiblePlanError,
    VerificationError,
    build_algorithm,
    emit_tensor,
    multiply,
    parse_tensor,
    plan_evaluation,
    verify,
)


def corrupted(algo, j=0, k=0, matrix="recon"):
    """A copy of algo with recon[j, k] (or forms[j, k]) moved by one."""
    base = algo.base
    forms, recon = algo.forms.to_int_lists(), algo.recon.to_int_lists()
    m = recon if matrix == "recon" else forms
    m[j][k] = base.add(m[j][k], 1)
    return BilinearAlgorithm(
        algo.ext, algo.plan, algo.rank, fields.Matrix(base, forms), fields.Matrix(base, recon)
    )


def code_order_pairs(order):
    """Every operand pair, x-major in code order: exhaustive mode's order."""
    return ((xc, yc) for xc in range(order) for yc in range(order))


def seeded_pairs(order, seed, trials):
    """The random-mode operand stream: x, then y, per trial, as randrange
    draws it."""
    rng = random.Random(seed)
    for _ in range(trials):
        xc = rng.randrange(order)
        yc = rng.randrange(order)
        yield xc, yc


def in_both_modes(cells):
    """Parameters for a test run in exhaustive mode, under the cell's plain
    id, and in random mode, under that id and "-random"."""
    return [
        pytest.param(*cell, mode, id="-".join(map(str, cell)) + ("-random" if mode == "random" else ""))
        for mode in ("exhaustive", "random")
        for cell in cells
    ]


def checked_pairs(algo, mode, seed):
    """The pairs verify(algo, mode, seed=seed) checks, in its order, at the
    default trial count."""
    if mode == "exhaustive":
        return code_order_pairs(algo.ext.order)
    return seeded_pairs(algo.ext.order, seed, multiplier.DEFAULT_TRIALS)


def scalar_first_failure(algo, pairs):
    """(x, y, expected, got) codes at the first pair where the scalar tensor
    route disagrees with ext.mul, or None."""
    ext = algo.ext
    for xc, yc in pairs:
        expected = ext.mul(xc, yc)
        got = multiply(algo, xc, yc)
        if got != expected:
            return xc, yc, expected, got
    return None


def reported(exc_info):
    err = exc_info.value
    return err.x_code, err.y_code, err.expected, err.got


def seeded_corruptions(algo, seed, per_matrix=3):
    """Copies of algo with one seeded entry of forms, then of recon, moved
    by one, per_matrix of each."""
    rng = random.Random(seed)
    for matrix, rows, cols in (("forms", algo.rank, algo.n), ("recon", algo.n, algo.rank)):
        for _ in range(per_matrix):
            yield corrupted(algo, rng.randrange(rows), rng.randrange(cols), matrix)


def canonical_cells(max_pairs):
    """Every (q, n) with a canonical plan and q**(2n) <= max_pairs."""
    cells = []
    for q in range(2, math.isqrt(max_pairs) + 1):
        try:
            make_field(q)
        except ValueError:  # not a prime power
            continue
        for n in range(1, max_pairs.bit_length()):
            if q ** (2 * n) > max_pairs:
                break
            try:
                plan_evaluation(q, n)
            except InfeasiblePlanError:
                continue
            cells.append((q, n))
    return cells


# the cells of the benchmark's mult-construct workload
CONSTRUCT_CELLS = [(16, 4), (64, 3), (25, 4), (9, 6), (4, 8), (27, 3), (49, 3), (7, 6), (5, 8)]


class TestPlanEvaluation:
    def test_f2_quadratic_rational_only(self):
        plan = plan_evaluation(2, 2, False)
        assert plan.rational_nodes == (0, 1)
        assert plan.use_infinity is True
        assert plan.deg2_places == ()
        assert plan.total_degree == 3 and plan.cost == 3 and plan.case == 1

    def test_f2_cubic_needs_one_quadratic_place(self):
        plan = plan_evaluation(2, 3, True)
        assert plan.rational_nodes == (0, 1) and plan.use_infinity
        assert plan.deg2_places == ((1, 1, 1),)
        assert plan.total_degree == 5 and plan.cost == 6 and plan.case == 2

    def test_f2_quartic_infeasible(self):
        with pytest.raises(InfeasiblePlanError) as exc:
            plan_evaluation(2, 4, True)
        assert exc.value.capacity == 5 and exc.value.required == 7
        assert "N1 + 2*N2" in str(exc.value)

    def test_rational_only_infeasible_cites_n1(self):
        with pytest.raises(InfeasiblePlanError) as exc:
            plan_evaluation(2, 3, False)
        assert "N1 = 3" in str(exc.value)

    def test_f4_quadratic_skips_infinity(self):
        plan = plan_evaluation(4, 2, True)
        assert len(plan.rational_nodes) == 3 and not plan.use_infinity
        assert plan.cost == 3

    def test_f5_quartic_drops_slot_for_parity(self):
        # 2n-1 = 7, capacity 6: odd deficit drops one rational slot
        plan = plan_evaluation(5, 4, True)
        assert plan.rational_nodes == (0, 1, 2, 3, 4)
        assert not plan.use_infinity
        assert len(plan.deg2_places) == 1
        assert plan.total_degree == 7 and plan.cost == 8

    def test_f3_cubic(self):
        plan = plan_evaluation(3, 3, True)
        assert plan.cost == 6 and plan.total_degree == 5

    def test_feasibility_matches_place_counts(self):
        # rational-only plans exist iff q+1 >= 2n-1; mixed iff q+1+2*N2 >= 2n-1
        for q in (2, 3, 4, 5):
            n2 = (q * q - q) // 2
            for n in range(2, 12):
                need = 2 * n - 1
                for allow in (False, True):
                    cap = q + 1 + (2 * n2 if allow else 0)
                    if cap >= need:
                        assert plan_evaluation(q, n, allow).total_degree == need
                    else:
                        with pytest.raises(InfeasiblePlanError):
                            plan_evaluation(q, n, allow)

    def test_degree_one_is_a_single_node(self):
        # GF(q^1) = GF(q) needs 2n-1 = 1 degree: one rational node, rank 1
        for q in (2, 5, 257):
            assert plan_evaluation(q, 1) == EvalPlan(q, 1, (0,), False, (), 1)
        with pytest.raises(ValueError, match="requires n >= 1"):
            plan_evaluation(2, 0, True)

    def test_inconsistent_total_degree_refused(self):
        # two nodes and infinity give 3 degrees, not 4; parse_tensor refuses
        # such a ledger, so no algorithm may be built on it either
        with pytest.raises(ValueError, match="total_degree is inconsistent"):
            EvalPlan(2, 2, (0, 1), True, (), 4)

    @pytest.mark.parametrize(
        "args,reason",
        [
            ((5, 2, (0, 1), 1, (), 3), "use_infinity must be of type bool, got 1"),
            ((5, 2, (0, 1, 2), False, (), 3.0), "total_degree must be of type int, got 3.0"),
            ((5, 2, (0, 1, 2), False, (), True), "total_degree must be of type int, got True"),
            ((True, 1, (0,), False, (), 1), "q must be of type int, got True"),
            ((5, 2.0, (0, 1, 2), False, (), 3), "n must be of type int, got 2.0"),
        ],
        ids=["integer-use-infinity", "float-total-degree", "bool-total-degree", "bool-q", "float-n"],
    )
    def test_fields_of_the_wrong_type_refused(self, args, reason):
        # each compares equal to the valid value it stands for, so the plan
        # used to build and verify, and parse_tensor then refused its tensor
        with pytest.raises(ValueError, match=f"plan {reason}"):
            EvalPlan(*args)

    @pytest.mark.parametrize(
        "args,reason",
        [
            ((5, 2, [0, 1, 2], False, (), 3), r"rational_nodes must be of type tuple, got \[0, 1, 2\]"),
            ((5, 2, (0, 1, 2), False, [], 3), r"deg2_places must be of type tuple, got \[\]"),
        ],
        ids=["list-nodes", "list-places"],
    )
    def test_lists_of_places_refused(self, args, reason):
        # a plan on lists built, verified and emitted a tensor, but it was
        # unhashable and unequal to the plan parsed back from that tensor
        with pytest.raises(ValueError, match=f"plan {reason}"):
            EvalPlan(*args)

    def test_place_given_as_a_list_refused(self):
        with pytest.raises(ValueError, match=r"degree-2 place must be a tuple of codes, got \[1, 1, 1\]"):
            EvalPlan(2, 3, (0, 1), True, ([1, 1, 1],), 5)


class TestBuild:
    def test_f4_tensor_matches_hand_interpolation(self):
        algo = build_algorithm(2, 2)
        assert algo.rank == 3
        assert algo.forms.to_int_lists() == [[1, 0], [1, 1], [0, 1]]
        assert algo.recon.to_int_lists() == [[1, 0, 1], [1, 1, 0]]
        assert algo.contributions == (1, 1, 1)

    def test_f2_cubic_contributions(self):
        algo = build_algorithm(2, 3)
        assert algo.rank == 6
        assert algo.contributions == (1, 1, 1, 3)

    def test_rank_counts_and_lower_bound(self):
        for q, n in ((2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (4, 3), (5, 3), (3, 3), (5, 4)):
            algo = build_algorithm(q, n)
            assert algo.rank == algo.plan.cost == sum(algo.contributions)
            assert algo.rank >= 2 * n - 1
            assert algo.rank <= algo.envelope()

    def test_overdetermined_plan_still_works(self):
        # four nodes for n = 2 over GF(5): one more degree than needed
        plan = EvalPlan(5, 2, (0, 1, 2, 3), False, (), 4)
        algo = build_algorithm(5, 2, plan)
        assert algo.rank == 4
        assert verify(algo, "exhaustive").failures == 0

    def test_only_surplus_plans_pick_rows(self, monkeypatch):
        # a plan of exactly 2n-1 degrees is a square, regular system
        picks = []
        real = multiplier.select_independent_rows
        monkeypatch.setattr(
            multiplier, "select_independent_rows", lambda m, need: picks.append(need) or real(m, need)
        )
        for q, n in [(9, 6), (4, 8), (5, 2)]:
            build_algorithm(q, n)
        assert picks == []
        build_algorithm(5, 2, EvalPlan(5, 2, (0, 1, 2, 3), False, (), 4))
        assert picks == [3]

    @pytest.mark.parametrize(
        "plan,rank,digest",
        [
            # rows [0, 1, 3] are kept: one row of the place is dropped
            (
                EvalPlan(2, 2, (0,), True, ((1, 1, 1),), 4),
                5,
                "f4cf7a461cf4672bf35a0675e4f0c0be1c2235244ccc7b728fa8e937774074ff",
            ),
            # the second place is dropped whole
            (
                EvalPlan(3, 3, (0, 1), True, ((1, 0, 1), (2, 1, 1)), 7),
                9,
                "c1fe3b040b145f5a4fdf7f67a403cf5e104257e491699cab28fa92623bb64d19",
            ),
        ],
    )
    def test_overdetermined_plans_drop_place_rows(self, plan, rank, digest):
        # the digests were computed by an S matrix scattered into zeros and
        # then sliced to the selected rows
        algo = build_algorithm(plan.q, plan.n, plan)
        assert algo.rank == rank
        assert verify(algo, "exhaustive").failures == 0
        assert hashlib.sha256(emit_tensor(algo).encode()).hexdigest() == digest

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            build_algorithm(5, 3, plan_evaluation(5, 2, False))
        with pytest.raises(ValueError):
            build_algorithm(5, 2, EvalPlan(5, 2, (0, 1), False, (), 2))
        with pytest.raises(ValueError):
            build_algorithm(5, 2, EvalPlan(5, 2, (0, 0, 1), False, (), 3))
        with pytest.raises(ValueError):
            build_algorithm(5, 2, EvalPlan(5, 2, (0, 1), False, (), 3))  # lying degree

    @pytest.mark.parametrize(
        "make",
        [
            lambda: fields.ExtensionField(make_field(5), 2, (-3, 0, 1)),
            lambda: fields.ExtensionField(make_field(4), 2, (1, 9, 1)),
            lambda: fields.ExtensionField(make_field(5), 2, (True, 0, 1)),
            lambda: build_algorithm(5, 2, EvalPlan(5, 2, (0, 1, 7), False, (), 3)),
            lambda: build_algorithm(4, 3, EvalPlan(4, 3, (0, 1, 2, 3, 7), False, (), 5)),
        ],
        ids=["negative-modulus-code", "modulus-code-past-base", "bool-modulus-code",
             "node-past-prime-field", "node-past-extension-base"],
    )
    def test_library_route_codes_checked(self, make):
        # the types that hold codes check them, not only parse_tensor
        with pytest.raises(ValueError, match="code .* out of range for GF"):
            make()

    def test_deterministic_rebuild(self):
        a = emit_tensor(build_algorithm(3, 3))
        b = emit_tensor(build_algorithm(3, 3))
        assert a == b

    def test_node_forms_are_evaluations(self):
        # row for a rational node applied to coords == evaluating the
        # representative polynomial at the node
        algo = build_algorithm(5, 3)
        base = algo.base
        rng = random.Random(41)
        for _ in range(50):
            coeffs = algo.ext.digits(algo.ext.random(rng))
            fx = algo.forms.matvec(coeffs)
            for i, a in enumerate(algo.plan.rational_nodes):
                assert fx[i] == poly_eval(base, coeffs, a)


# canonical modulus codes and the sha256 of emit_tensor, as computed by the
# tuple-valued modulus search and interpolation that preceded the code tables
# (and, after them, by a separate code form of each small field)
GOLDEN_TENSORS = [
    ((16, 4), [4, 2, 1, 0, 1], "c3c309836c79e8db3b3c082a3dfcf640b28284b55797c33bdcaf76e0deecdedd"),
    ((64, 3), [2, 0, 0, 1], "20209062fa3c50c7555f7f2352984dc27af78c79c18224e3d61e8a1abcadde4e"),
    ((25, 4), [5, 0, 0, 0, 1], "b003f5f2497167bf30e464f297cb59c0de992c328fc747150e3be91237f870e1"),
    ((9, 6), [4, 0, 1, 0, 0, 0, 1], "fa628bec3e778335d431294bd0c9f4f3c13c216145466e92506556553f6ed2fd"),
    ((4, 8), [2, 1, 0, 1, 0, 0, 0, 0, 1], "495150db4b1e3e2de6984ad5975763bb69068fc4d0b5c29850cb126b8bef396e"),
    ((27, 3), [9, 2, 0, 1], "1acfc12dc20b9ed1929692498538388189afcb8e467d1886d714367f79b0af5b"),
    ((49, 3), [2, 0, 0, 1], "76056351e7f8430a1701a168665898f6f77fb438978aa118dc6cf4ac5aaadbcc"),
    ((7, 6), [2, 0, 0, 0, 0, 0, 1], "c43d50c87f2409725a336c5f1c0059754c1c02be04a5551d08e6d5bc71593d8f"),
    ((5, 8), [2, 0, 0, 0, 0, 0, 0, 0, 1], "b7f93ace77d9a3f492a1b33fa1c10a0e9abdb3e3f363695d26c09f10c16ff46c"),
    ((16, 8), [2, 1, 0, 1, 0, 0, 0, 0, 1], "c1260ad08b3ff42522b632410abc3281f521ebdc33545d69dabaa112f8f9c563"),
    ((32, 5), [6, 0, 1, 0, 0, 1], "72da35ebb1d5854f4a3d342aa50069107b051d5a87b78cac223ea1277be81094"),
    ((8, 8), [3, 2, 0, 1, 0, 0, 0, 0, 1], "cf341ef627637113ef4f84a60d97e26da645673c36f079c7affc896dd5be8693"),
    ((16, 6), [13, 2, 1, 0, 0, 0, 1], "9e9df1bc9e0ddd1bdb22dd3cbc7f33e0616fe2a07cd65c7cc00034e855c600c4"),
    # the row kernels of a prime base (a 39 x 39 system), an odd-characteristic
    # table base and a digit base above the table cap
    ((251, 20), [3, 1] + [0] * 18 + [1], "58d93a5686d43afcb0e49db5424975aecd9be6e15835712a37c05dc5cc9b444f"),
    ((125, 8), [2, 0, 0, 0, 0, 0, 0, 0, 1], "b81a4acb24872291f14e63154d1c7b3b034a30cdbdc72441317daf9d20712718"),
    ((289, 3), [19, 0, 0, 1], "05cb86f487819f625f56cad977eaa4e9a67df2e82658fbe40e066a11f972e339"),
]


class TestGoldenTensors:
    @pytest.mark.parametrize(
        "cell,modulus,digest", GOLDEN_TENSORS, ids=[f"{q}-{n}" for (q, n), _, _ in GOLDEN_TENSORS]
    )
    def test_modulus_and_tensor_bytes(self, cell, modulus, digest):
        algo = build_algorithm(*cell)
        assert list(algo.ext.modulus) == modulus
        assert hashlib.sha256(emit_tensor(algo).encode()).hexdigest() == digest

    @pytest.mark.parametrize("q,n", [(4, 3), (9, 3), (16, 4), (2, 3), (4, 8)])
    def test_interpolation_on_codes_matches_raw_values(self, q, n):
        # recon((forms x) * (forms y)) is x*y in the oracle's GF(q^n), on
        # seeded pairs and the pairs of basis monomials
        algo = build_algorithm(q, n)
        F = oracle_of(algo.base)
        E = ExtOracle(F, algo.ext.modulus)
        forms = algo.forms.rows
        recon = algo.recon.rows

        def dot(row, vec):
            acc = 0
            for a, b in zip(row, vec):
                acc = F.add(acc, F.mul(a, b))
            return acc

        rng = random.Random(q * 100 + n)
        monomials = [q**i for i in range(n)]
        pairs = [(rng.randrange(E.order), rng.randrange(E.order)) for _ in range(100)]
        for x, y in pairs + [(a, b) for a in monomials for b in monomials]:
            fx = [dot(row, E.coeffs(x)) for row in forms]
            fy = [dot(row, E.coeffs(y)) for row in forms]
            w = [F.mul(a, b) for a, b in zip(fx, fy)]
            assert E.code([dot(row, w) for row in recon]) == E.mul(x, y), (x, y)

    def test_reducible_place_rejected(self):
        with pytest.raises(ValueError):
            build_algorithm(2, 3, EvalPlan(2, 3, (0, 1), True, ((1, 0, 1),), 5))


class TestMultiply:
    def test_f4_square_example(self):
        algo = build_algorithm(2, 2)
        assert multiply(algo, 3, 3) == 2  # (1 + t)^2 = t

    def test_unit_and_zero_laws(self):
        algo = build_algorithm(5, 3)
        ext = algo.ext
        for code in range(0, ext.order, 17):
            assert multiply(algo, code, 1) == code
            assert multiply(algo, code, 0) == 0

    def test_commutativity_random(self):
        algo = build_algorithm(4, 3)
        ext = algo.ext
        rng = random.Random(5150)
        for _ in range(100):
            x = rng.randrange(ext.order)
            y = rng.randrange(ext.order)
            assert multiply(algo, x, y) == multiply(algo, y, x)

    def test_agrees_with_reference_random(self):
        algo = build_algorithm(5, 4)
        ext = algo.ext
        rng = random.Random(31337)
        for _ in range(200):
            xv, yv = ext.random(rng), ext.random(rng)
            assert multiply(algo, xv, yv) == ext.mul(xv, yv)

    @pytest.mark.parametrize("x", [4, -1, 1.0, True], ids=["past-order", "negative", "float", "bool"])
    def test_non_code_operand_rejected(self, x):
        # GF(2^2) codes are 0..3; the digits of 4 would silently drop its high digit
        algo = build_algorithm(2, 2)
        with pytest.raises(ValueError, match="not an element code of GF"):
            multiply(algo, 1, x)
        with pytest.raises(ValueError, match="not an element code of GF"):
            multiply(algo, x, 1)

    def test_wrong_field_rejected(self):
        # codes of GF(5) and GF(2^4) that lie past the order of GF(2^2)
        algo = build_algorithm(2, 2)
        for x, y in ((1, make_field(5).order - 1), (make_field(16).order - 1, 2)):
            with pytest.raises(ValueError, match="not an element code of GF"):
                multiply(algo, x, y)

    @pytest.mark.parametrize("q,n", [(3, 2), (4, 2), (4, 3), (5, 3), (9, 2), (16, 2), (31, 2)])
    def test_scalar_loop_agrees_with_exhaustive_verify(self, q, n):
        # the scalar route over every pair reaches the same verdict as the
        # exhaustive check, and for a corrupted algorithm that check
        # reports the scalar loop's first failure in code order
        algo = build_algorithm(q, n)
        every_pair = [(xc, yc) for xc in range(algo.ext.order) for yc in range(algo.ext.order)]
        assert scalar_first_failure(algo, every_pair) is None
        assert verify(algo, "exhaustive").failures == 0
        bad = corrupted(algo, n - 1, algo.rank - 1)
        with pytest.raises(VerificationError) as exc:
            verify(bad, "exhaustive")
        assert reported(exc) == scalar_first_failure(bad, every_pair)


class TestVerify:
    def test_exhaustive_f4(self):
        report = verify(build_algorithm(2, 2), "exhaustive")
        assert report.pairs_checked == 16 and report.failures == 0
        assert report.rank == 3 and report.envelope == 3

    def test_exhaustive_f9(self):
        report = verify(build_algorithm(3, 2), "exhaustive")
        assert report.pairs_checked == 81 and report.rank == 3

    def test_auto_picks_exhaustive_then_random(self):
        assert verify(build_algorithm(2, 3)).mode == "exhaustive"
        big = build_algorithm(7, 5)  # 7**10 pairs > 2**24
        report = verify(big, trials=50)
        assert report.mode == "random" and report.pairs_checked == 50
        assert report.seed is not None

    def test_forced_exhaustive_beyond_cap_rejected(self):
        big = build_algorithm(7, 5)
        with pytest.raises(ValueError):
            verify(big, "exhaustive")

    def test_random_reproducible(self):
        algo = build_algorithm(5, 3)
        a = verify(algo, "random", trials=64, seed=11)
        b = verify(algo, "random", trials=64, seed=11)
        assert a == b

    def test_corrupted_recon_detected_exhaustive(self):
        bad = corrupted(build_algorithm(2, 2))
        with pytest.raises(VerificationError) as exc:
            verify(bad, "exhaustive")
        doc = exc.value.to_json_dict()
        assert doc["error"] == "verification_failure" and "reason" in doc

    def test_corrupted_recon_detected_random(self):
        # prime and extension bases, codes past int64 (251**8) and a base
        # above the table cap: the reported pair and both products are the
        # scalar loop's first failure in stream order
        for q, n in ((5, 3), (4, 4), (9, 3), (251, 8), (257, 2)):
            bad = corrupted(build_algorithm(q, n), 1, 2)
            with pytest.raises(VerificationError) as exc:
                verify(bad, "random", trials=500, seed=3)
            first = scalar_first_failure(bad, seeded_pairs(bad.ext.order, 3, 500))
            assert reported(exc) == first

    @pytest.mark.parametrize("q,n", [(5, 3), (4, 4), (9, 3), (251, 8), (257, 2)])
    def test_corrupted_forms_detected_random(self, q, n):
        # a moved forms entry is reported at the scalar loop's first failure
        # in stream order
        bad = corrupted(build_algorithm(q, n), 1, n - 1, "forms")
        with pytest.raises(VerificationError) as exc:
            verify(bad, "random", trials=500, seed=3)
        assert reported(exc) == scalar_first_failure(bad, seeded_pairs(bad.ext.order, 3, 500))

    @pytest.mark.parametrize(
        "q,n,i,j",
        [(2, 2, 0, 0), (5, 3, 1, 0), (4, 3, 4, 2), (9, 3, 4, 2), (11, 3, 1, 0),
         (25, 2, 2, 1), (27, 2, 2, 1), (49, 2, 2, 1), (64, 2, 2, 1)],
    )
    def test_corrupted_forms_detected_exhaustive(self, q, n, i, j):
        # forms[i, j] moved by one (over GF(2), (0, 0) leaves a zero row); a
        # move that only scales a row by -1 would leave the algorithm correct
        bad = corrupted(build_algorithm(q, n), i, j, "forms")
        with pytest.raises(VerificationError) as exc:
            verify(bad, "exhaustive")
        assert reported(exc) == scalar_first_failure(bad, code_order_pairs(bad.ext.order))

    @pytest.mark.parametrize("q,n,mode", in_both_modes([(25, 2), (27, 2), (49, 2), (64, 2)]))
    @pytest.mark.parametrize("j", [0, 1])
    def test_corrupted_recon_over_extension_bases(self, q, n, j, mode):
        # odd characteristic bases of 2 and 3 digit fields, and XOR over
        # GF(64): a moved recon entry of the last slot is reported at the
        # scalar loop's first failure in code order or stream order
        algo = build_algorithm(q, n)
        assert verify(algo, mode, seed=3).failures == 0
        bad = corrupted(algo, j, algo.rank - 1)
        with pytest.raises(VerificationError) as exc:
            verify(bad, mode, seed=3)
        assert reported(exc) == scalar_first_failure(bad, checked_pairs(bad, mode, 3))

    @pytest.mark.parametrize("q", [2, 5, 16, 256])
    def test_exhaustive_degree_one(self, q):
        # n = 1 has one basis pair; the report still counts all q**2 pairs,
        # and a corrupted algorithm is reported at its first failure
        line = build_algorithm(q, 1, EvalPlan(q, 1, (0,), False, (), 1))
        report = verify(line, "exhaustive")
        assert report.pairs_checked == q * q and report.failures == 0
        bad = corrupted(line)
        with pytest.raises(VerificationError) as exc:
            verify(bad, "exhaustive")
        assert reported(exc) == scalar_first_failure(bad, code_order_pairs(q))

    def test_exhaustive_above_table_cap(self):
        # 4093**2 = 16,752,649 pairs is within the exhaustive cap; the scalar
        # routes over every pair took about 113 s, the basis pair takes one
        line = build_algorithm(4093, 1)
        assert 4093**2 <= multiplier.EXHAUSTIVE_PAIR_CAP
        report = verify(line, "exhaustive")
        assert report.mode == "exhaustive" and report.pairs_checked == 4093**2
        assert verify(line).mode == "exhaustive"
        bad = corrupted(line)
        with pytest.raises(VerificationError) as exc:
            verify(bad, "exhaustive")
        # reached after 4,095 pairs of the code order: every (0, y), then (1, 0)
        first = scalar_first_failure(bad, code_order_pairs(bad.ext.order))
        assert first[:2] == (1, 1)
        assert reported(exc) == first

    def test_random_mode_reports_a_basis_pair_when_the_stream_passes(self):
        # rank 1 over GF(4) with recon moved to 0 fails every pair of nonzero
        # codes; seed 1 draws the one trial (1, 0), which passes, and the
        # first failing basis pair is reported instead of a passing report
        bad = corrupted(build_algorithm(4, 1))
        (pair,) = seeded_pairs(bad.ext.order, 1, 1)
        assert 0 in pair and scalar_first_failure(bad, [pair]) is None
        with pytest.raises(VerificationError) as exc:
            verify(bad, "random", trials=1, seed=1)
        assert reported(exc) == scalar_first_failure(bad, code_order_pairs(bad.ext.order))
        assert reported(exc)[:2] == (1, 1)

    def test_above_table_cap_runs_scalar_routes(self):
        algo = build_algorithm(257, 2)
        assert algo.q > fields.CODE_TABLE_CAP
        report = verify(algo, "random", trials=50)
        assert report.mode == "random" and report.pairs_checked == 50
        # only n = 1 keeps q**(2n) within the exhaustive cap above q = 256
        line = build_algorithm(257, 1, EvalPlan(257, 1, (0,), False, (), 1))
        report = verify(line)
        assert report.mode == "exhaustive" and report.pairs_checked == 257**2

    def test_trial_count_validation(self):
        with pytest.raises(ValueError):
            verify(build_algorithm(2, 2), "random", trials=0)
        with pytest.raises(ValueError):
            verify(build_algorithm(2, 2), "sometimes")


class TestFirstBasisFailure:
    """The first failing pair of a wrong algorithm is a basis pair, and
    both modes report the pair a scalar loop over their pairs stops at."""

    @pytest.mark.parametrize("q,n", canonical_cells(2**12), ids=lambda v: str(v))
    def test_exhaustive_reports_the_code_order_first_failure(self, q, n):
        algo = build_algorithm(q, n)
        assert verify(algo, "exhaustive").failures == 0
        basis_pairs = {(q**i, q**j) for i in range(n) for j in range(i, n)}
        for bad in seeded_corruptions(algo, q * 100 + n):
            first = scalar_first_failure(bad, code_order_pairs(bad.ext.order))
            if first is None:  # the move left the algorithm correct
                assert verify(bad, "exhaustive").failures == 0
                continue
            with pytest.raises(VerificationError) as exc:
                verify(bad, "exhaustive")
            assert reported(exc) == first
            assert first[:2] in basis_pairs

    @pytest.mark.parametrize("q,n", CONSTRUCT_CELLS + [(257, 2), (251, 8)], ids=lambda v: str(v))
    def test_random_reports_the_stream_first_failure(self, q, n):
        algo = build_algorithm(q, n)
        for bad in seeded_corruptions(algo, q * 100 + n):
            first = scalar_first_failure(bad, seeded_pairs(bad.ext.order, 5, multiplier.DEFAULT_TRIALS))
            if first is None:  # no stream pair fails: the move left it correct
                assert verify(bad, "random", seed=5).failures == 0
                continue
            with pytest.raises(VerificationError) as exc:
                verify(bad, "random", seed=5)
            assert reported(exc) == first


class TestRowTableKernel:
    """Corruption and memory checks of verify; the class keeps the name of
    the numpy kernel it once tested so that the test ids stay stable."""

    def test_dense_recon_past_the_field_width(self):
        # 28 rational slots over GF(27) and a recon of all ones: every
        # coordinate sums 28 tensor terms
        algo = build_algorithm(27, 2, EvalPlan(27, 2, tuple(range(27)), True, (), 28))
        dense = fields.Matrix(algo.base, [[1] * algo.rank] * 2)
        bad = BilinearAlgorithm(algo.ext, algo.plan, algo.rank, algo.forms, dense)
        with pytest.raises(VerificationError) as exc:
            verify(bad, "exhaustive")
        assert reported(exc) == scalar_first_failure(bad, code_order_pairs(bad.ext.order))

    def test_random_mode_memory(self):
        # the identity holds, so no operand pair is drawn
        algo = build_algorithm(4, 8)
        tracemalloc.start()
        try:
            verify(algo, "random")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 512 * 2**10

    def test_row_tables_memory(self):
        # the basis pairs hold a few lists of n codes, not tables over all pairs
        algo = build_algorithm(64, 2)
        tracemalloc.start()
        try:
            verify(algo, "exhaustive")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


class TestCodeTables:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 25, 27, 32, 49, 64, 81, 251, 256])
    def test_tables_match_scalar_arithmetic(self, q):
        # the list tables that small fields compute in and the modulus
        # search walks, against the scalar arithmetic of the oracle
        F = oracle_of(make_field(q))
        add, mul, neg, inv = fields._list_tables(make_field(q))
        assert add == [[F.add(a, b) for b in range(q)] for a in range(q)]
        assert mul == [[F.mul(a, b) for b in range(q)] for a in range(q)]
        assert neg == [F.neg(a) for a in range(q)]
        assert inv[0] == 0 and all(F.mul(a, inv[a]) == 1 for a in range(1, q))

    def test_no_tables_above_cap(self):
        with pytest.raises(ValueError, match="code tables are built only for q <= 256"):
            fields._list_tables(make_field(257))

    def test_tables_built_on_first_use(self, monkeypatch):
        # GF(4^4) has 256 elements, so it computes by table lookups; building
        # and verifying an algorithm on it never reads its own tables
        built = []
        real = fields._list_tables
        monkeypatch.setattr(fields, "_list_tables", lambda f: built.append(f) or real(f))
        algo = build_algorithm(4, 4)
        verify(algo)
        assert algo.ext.order == fields.CODE_TABLE_CAP
        assert algo.ext not in built
        assert algo.ext.mul(2, 3) == oracle_of(algo.ext).mul(2, 3)
        assert algo.ext in built


class TestTensorSerialization:
    def test_round_trip_reverifies(self):
        algo = build_algorithm(2, 3)
        blob = emit_tensor(algo)
        again = parse_tensor(blob)
        assert emit_tensor(again) == blob
        assert verify(again, "exhaustive").failures == 0

    def test_emitted_fields(self):
        algo = build_algorithm(2, 2)
        doc = json.loads(emit_tensor(algo))
        assert doc["q"] == 2 and doc["n"] == 2
        assert doc["rank"] == 3
        assert doc["modulus"] == [1, 1, 1]
        assert len(doc["forms"]) == 3 and len(doc["forms"][0]) == 2
        assert len(doc["recon"]) == 2 and len(doc["recon"][0]) == 3
        assert doc["ledger"]["contributions"] == [1, 1, 1]

    def test_tampered_tensor_fails_verification(self):
        doc = json.loads(emit_tensor(build_algorithm(2, 3)))
        doc["recon"][0][0] ^= 1
        with pytest.raises(VerificationError):
            verify(parse_tensor(json.dumps(doc)), "exhaustive")

    @pytest.mark.parametrize(
        "key", ["modulus", "rational_nodes", "deg2_places", "forms", "recon"]
    )
    def test_out_of_range_codes_rejected(self, key):
        # GF(4) codes run below 4; one code of 4 under the key is rejected
        doc = json.loads(emit_tensor(build_algorithm(4, 4)))
        plan = doc["ledger"]["plan"]
        holder = {
            "modulus": doc["modulus"], "rational_nodes": plan["rational_nodes"],
            "deg2_places": plan["deg2_places"][0], "forms": doc["forms"][-1],
            "recon": doc["recon"][0],
        }[key]
        holder[0] = 4
        with pytest.raises(ValueError, match="code 4 out of range for GF"):
            parse_tensor(json.dumps(doc))

    def test_rank_consistency_checked(self):
        doc = json.loads(emit_tensor(build_algorithm(2, 2)))
        doc["rank"] = 4
        with pytest.raises(ValueError):
            parse_tensor(json.dumps(doc))

    @pytest.mark.parametrize(
        "tamper,reason",
        [
            (lambda d: d["ledger"]["plan"].update(rational_nodes=[0, 0]), "rational nodes must be distinct"),
            (lambda d: d["ledger"]["plan"].update(deg2_places=[[1, 0, 1]]), "monic irreducible quadratics"),
            (lambda d: d["ledger"]["plan"].update(total_degree=42), "total_degree is inconsistent"),
            (lambda d: d["ledger"]["plan"].update(cost=7), "cost or contributions disagree"),
            (lambda d: d["ledger"].update(contributions=[9, 9, 9, 9]), "cost or contributions disagree"),
            (lambda d: [row.append(0) for row in d["forms"]], "needs rank 6, 6 x 3 forms"),
            (lambda d: d["recon"].append([0] * 6), "needs rank 6, 6 x 3 forms"),
            # rank and matrices agree with each other, not with the plan
            (lambda d: [d["forms"].append([0] * 3), [row.append(0) for row in d["recon"]],
                        d.update(rank=7)], "needs rank 6, 6 x 3 forms"),
        ],
        ids=["duplicate-node", "reducible-place", "total-degree", "cost", "contributions",
             "forms-extra-column", "recon-extra-row", "rank-beyond-plan"],
    )
    def test_ledger_and_shapes_must_fit_the_plan(self, tamper, reason):
        # GF(2^3): nodes 0 and 1, infinity and the place u^2 + u + 1, cost 6
        doc = json.loads(emit_tensor(build_algorithm(2, 3)))
        assert doc["ledger"]["contributions"] == [1, 1, 1, 3]
        tamper(doc)
        with pytest.raises(ValueError, match=reason):
            parse_tensor(json.dumps(doc))

    @pytest.mark.parametrize(
        "tamper,what",
        [
            (lambda d: d.update(q=2.0), "q"),
            (lambda d: d.update(n=3.0), "n"),
            (lambda d: d.update(rank=6.0), "rank"),
            (lambda d: d["forms"][0].__setitem__(0, 1.0), "code"),
            (lambda d: d["forms"][0].__setitem__(0, True), "code"),
            (lambda d: d["ledger"]["plan"].update(total_degree=5.0), "total_degree"),
            (lambda d: d["ledger"]["plan"].update(use_infinity=1), "use_infinity"),
            (lambda d: d["ledger"]["plan"].update(cost=6.0), "cost"),
            (lambda d: d["ledger"]["contributions"].__setitem__(0, True), "contribution"),
            (lambda d: d["ledger"]["contributions"].__setitem__(3, 3.0), "contribution"),
        ],
        ids=["float-q", "float-n", "float-rank", "float-code", "bool-code",
             "float-total-degree", "integer-use-infinity", "float-cost",
             "bool-contribution", "float-contribution"],
    )
    def test_values_of_the_wrong_json_type_rejected(self, tamper, what):
        # each compares equal to the valid value it replaces, so a range or
        # equality check alone lets it through
        doc = json.loads(emit_tensor(build_algorithm(2, 3)))
        tamper(doc)
        with pytest.raises(ValueError, match=f"tensor {what} must be of type"):
            parse_tensor(json.dumps(doc))

    def test_directly_constructed_algorithm_round_trips(self):
        # the ledger is the plan's own: a constructed algorithm cannot carry
        # contributions that its emitted tensor would then fail to parse with
        algo = build_algorithm(2, 3)
        direct = BilinearAlgorithm(algo.ext, algo.plan, algo.rank, algo.forms, algo.recon)
        blob = emit_tensor(direct)
        assert blob == emit_tensor(algo)
        assert emit_tensor(parse_tensor(blob)) == blob
        with pytest.raises(TypeError):
            BilinearAlgorithm(algo.ext, algo.plan, algo.rank, algo.forms, algo.recon, (9, 9, 9, 9))

    def test_wrong_shapes_rejected_on_construction(self):
        # the (4,3) tensor with one column too many in forms and one row too
        # many in recon once passed exhaustive verification
        algo = build_algorithm(4, 3)
        forms = fields.Matrix(algo.base, [row + [0] for row in algo.forms.rows])
        recon = fields.Matrix(algo.base, algo.recon.rows + [[0] * algo.rank])
        with pytest.raises(ValueError, match="needs rank 5, 5 x 3 forms, 3 x 5 recon"):
            BilinearAlgorithm(algo.ext, algo.plan, algo.rank, forms, recon)
