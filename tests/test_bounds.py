import hashlib
import json
import math
import random
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest

from symrank.bounds import (
    InfeasiblePipelineError,
    asymptotic_coefficient,
    closed_form_prime,
    closed_form_quadratic,
    compare_all,
    constructive_bound,
    empirical_policy,
    envelope,
    epsilon,
    prior_bound,
    prior_coefficient,
    remark_prime_holds,
    remark_quadratic_holds,
    round_up_15,
)
from symrank.primes import GapPolicy, PairFamily, policy_floor


def exact_eps(p, n, family):
    getcontext().prec = 60
    base = Decimal(2 * n if family == "generic" else n) / Decimal(p - 3)
    return Decimal(1) / (base ** (Decimal(1) / Decimal(3)))


def exact_closed_quadratic(p, n):
    e = exact_eps(p, n, "eleven" if p == 11 else "generic")
    if p != 11:
        return 2 * (1 + (1 + e) / (p - 3)) * n - (1 + e) * (p + 1) / Decimal(p - 3) - 1
    return 2 * (1 + (1 + e) / (p - 3)) * n - 2 * (1 + e) * (p - 1) / Decimal(p - 3)


def exact_closed_prime(p, n):
    e = exact_eps(p, n, "eleven" if p == 11 else "generic")
    f43 = Decimal(4) / Decimal(3)
    if p != 11:
        return 3 * (1 + f43 * (1 + e) / (p - 3)) * n - 2 * (1 + e) * (p + 1) / Decimal(p - 3)
    return 3 * (1 + f43 * (1 + e) / (p - 3)) * n - 4 * (1 + e) * (p - 1) / Decimal(p - 3) + 1


class TestEnvelope:
    def test_values(self):
        assert envelope(1, 2, 0) == 3
        assert envelope(2, 3, 0) == 9
        assert envelope(1, 100, 101) == 300

    def test_domain(self):
        with pytest.raises(ValueError):
            envelope(3, 10, 0)
        with pytest.raises(ValueError):
            envelope(1, 1, 0)


class TestPriorBounds:
    def test_exact_coefficients(self):
        assert prior_coefficient("iv", 5) == Fraction(27, 5)
        assert prior_coefficient("vi", 5) == Fraction(158, 47)
        assert prior_coefficient("iii", 5) == Fraction(69, 13)
        assert prior_coefficient("v", 5) == Fraction(31, 8)
        assert prior_coefficient("i", 2) == Fraction(773, 50)
        assert prior_coefficient("ii", 3) == Fraction(1933, 250)

    def test_value_example(self):
        pb = prior_bound("i", 2, 10)
        assert abs(pb.value_real - 154.6) < 1e-9

    def test_value_is_the_rounded_product(self):
        for variant, q_or_p in (("iii", 7), ("iii", 25), ("iv", 13), ("v", 101), ("vi", 1009)):
            coeff = prior_coefficient(variant, q_or_p)
            for n in (*range(1, 3001, 7), 10**9 + 7, 2**60 + 1):
                assert prior_bound(variant, q_or_p, n).value_real == round_up_15(float(coeff * n))

    def test_prime_power_variants_take_q(self):
        pb = prior_bound("iii", 25, 10)  # q = 25 = 5**2
        assert pb.p == 5 and pb.q == 25
        assert pb.coefficient == 3 * (1 + Fraction(4, 3) * 5 / (25 - 3 + 2 * 4 * Fraction(25, 26)))

    def test_domains(self):
        with pytest.raises(ValueError):
            prior_coefficient("i", 3)
        with pytest.raises(ValueError):
            prior_coefficient("iii", 3)
        with pytest.raises(ValueError):
            prior_coefficient("iv", 4)
        with pytest.raises(ValueError):
            prior_coefficient("vi", 3)
        with pytest.raises(ValueError):
            prior_coefficient("vii", 5)


class TestEpsilon:
    def test_generic_value(self):
        eps = epsilon(5, 100, Fraction(2, 3), "generic")
        assert abs(eps.value - 0.2154434690031884) < 1e-12
        assert Decimal(eps.value) >= exact_eps(5, 100, "generic")  # rounded up

    def test_eleven_value_matches(self):
        eps = epsilon(11, 800, Fraction(2, 3), "eleven")
        assert abs(eps.value - 0.2154434690031884) < 1e-12

    def test_unit_base_is_exact(self):
        assert epsilon(5, 1, Fraction(2, 3), "generic").value == 1.0

    def test_in_unit_interval_above_floor(self):
        for p in (5, 7, 13):
            for n in range((p - 3) // 2, 2000, 97):
                if n < 1:
                    continue
                v = epsilon(p, n, Fraction(2, 3), "generic").value
                assert 0 < v <= 1.0 or n < (p - 3) // 2

    def test_exponent_matches_fraction_arithmetic(self):
        # epsilon takes alpha - 1 from alpha's numerator and denominator; the
        # reference is the Fraction expression it replaced
        rng = random.Random(29)
        alphas = ["2/3", 0.5, Fraction(21, 40)]
        for _ in range(3000):
            d = rng.randint(2, 10 ** rng.randint(1, 40))
            alphas.append(Fraction(rng.randint(1, d - 1), d))
        for alpha in alphas:
            p = rng.choice((5, 7, 11, 13, 1009))
            n = rng.randint(1, 10 ** rng.randint(1, 15))
            for family in ("generic", "eleven"):
                base = (2 * n if family == "generic" else n) / (p - 3)
                want = 1.0 if base == 1.0 else math.nextafter(base ** float(Fraction(alpha) - 1), math.inf)
                eps = epsilon(p, n, alpha, family)
                assert (eps.alpha, eps.value) == (Fraction(alpha), want)

    def test_domain(self):
        with pytest.raises(ValueError):
            epsilon(3, 10, Fraction(2, 3), "generic")
        with pytest.raises(ValueError):
            epsilon(5, 10, Fraction(2, 3), "weird")


class TestClosedForms:
    def test_quadratic_5_100(self):
        r = closed_form_quadratic(5, 100)
        assert abs(r.value_real - 316.8980164933093) < 1e-9
        assert r.value_int == 316
        assert r.valid_unconditional is False
        assert r.field == "p2" and r.method == "closed_quadratic"

    def test_prime_5_100(self):
        r = closed_form_prime(5, 100)
        assert abs(r.value_real - 535.7960329866186) < 1e-9
        assert r.value_int == 535

    def test_quadratic_11_800(self):
        r = closed_form_quadratic(11, 800)
        assert abs(r.value_real - 1840.0500851281297) < 1e-9
        assert r.value_int == 1840

    def test_prime_11_branch(self):
        # p = 11 uses the eleven-family eps and the printed trailing +1
        r = closed_form_prime(11, 810)
        assert abs(r.value_real - 2916.8212786316115) < 1e-8

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_rounding_slack_vs_high_precision(self, p):
        """value_real stays within a hair of the 60-digit evaluation, on the
        conservative side up to float evaluation noise, and the integer bound
        never flips."""
        for n in range(20, 3000, 211):
            for report, exact_fn in (
                (closed_form_quadratic(p, n), exact_closed_quadratic),
                (closed_form_prime(p, n), exact_closed_prime),
            ):
                exact = exact_fn(p, n)
                diff = Decimal(report.value_real) - exact
                assert abs(diff) < Decimal("1e-8")
                assert diff > Decimal("-1e-10")  # at most eval noise below
                assert report.value_int == int(exact.to_integral_value(rounding="ROUND_FLOOR"))

    @pytest.mark.parametrize("p", [5, 11])
    def test_strictly_increasing_in_n(self, p):
        prev_q = prev_p = -1.0
        for n in range(4, 3000):
            vq = closed_form_quadratic(p, n).value_real
            vp = closed_form_prime(p, n).value_real
            assert vq > prev_q and vp > prev_p
            prev_q, prev_p = vq, vp

    def test_value_int_is_floor(self):
        for p in (5, 7, 11, 13):
            for n in (10, 100, 999):
                for r in (closed_form_quadratic(p, n), closed_form_prime(p, n)):
                    assert r.value_int == math.floor(r.value_real)
                    assert r.value_int <= r.value_real < r.value_int + 1

    def test_policy_validity_flags(self):
        dudek = closed_form_quadratic(5, 100, GapPolicy.dudek())
        assert not dudek.valid_unconditional
        assert any("exp(exp(33.3))" in c for c in dudek.caveats)
        bhp = closed_form_quadratic(5, 100, GapPolicy.bhp())
        assert not bhp.valid_unconditional
        emp = closed_form_quadratic(5, 100, GapPolicy.empirical(Fraction(2, 3), 11, 10**6))
        assert emp.valid_unconditional
        assert any("sieve" in c for c in emp.caveats)

    def test_empirical_validity_needs_covered_witness_range(self):
        # n large enough that the witness threshold exceeds the sieve range
        policy = GapPolicy.empirical(Fraction(2, 3), 11, 1000)
        r = closed_form_quadratic(5, 2000, policy)  # threshold ~ 1997 > 1000
        assert not r.valid_unconditional
        assert any("exceeds the sieve-verified range" in c for c in r.caveats)

    def test_domain(self):
        with pytest.raises(ValueError):
            closed_form_quadratic(4, 100)
        with pytest.raises(ValueError):
            closed_form_prime(3, 100)

    def test_bhp_alpha_changes_epsilon(self):
        r_bhp = closed_form_quadratic(5, 100, GapPolicy.bhp())
        r_dud = closed_form_quadratic(5, 100, GapPolicy.dudek())
        # 21/40 < 2/3 makes eps smaller, so the bhp-form bound is smaller
        assert r_bhp.value_real < r_dud.value_real


class TestAsymptotics:
    def test_exact_coefficients(self):
        assert asymptotic_coefficient(5, "p2") == Fraction(3)
        assert asymptotic_coefficient(5, "p") == Fraction(5)
        assert asymptotic_coefficient(7, "p") == Fraction(4)
        for p in (5, 7, 11, 13):
            assert asymptotic_coefficient(p, "p2") == Fraction(2 * (p - 2), p - 3)
            assert asymptotic_coefficient(p, "p") == Fraction(3 * p - 5, p - 3)

    def test_remarks_hold_on_sample(self):
        for p in (5, 7, 11, 13, 9973):
            assert remark_quadratic_holds(p)
            assert remark_prime_holds(p)

    def test_spot_decimal_values(self):
        assert abs(float(prior_coefficient("vi", 5)) - 3.36170) < 1e-5
        assert float(prior_coefficient("iv", 5)) == 5.4


class TestConstructive:
    def test_quadratic_5_100(self):
        r = constructive_bound(5, 100, "p2")
        assert r.value_int == 300 and r.value_real == 300.0
        w = r.witnesses
        assert (w.pair.l_k, w.pair.l_k1) == (97, 101)
        assert w.curve.genus == 101 and w.curve.n1_lower_p2 == 408
        assert "408 > 2n+2g-2 = 400" in w.checks[0].detail
        assert all(c.passed for c in w.checks)
        assert r.valid_unconditional and r.caveats == ()

    def test_prime_5_100(self):
        r = constructive_bound(5, 100, "p")
        assert r.value_int == 502
        names = [c.name for c in r.witnesses.checks]
        assert names == ["point_count", "rr_hypothesis", "non_special_divisor"]

    def test_quadratic_11_810(self):
        r = constructive_bound(11, 810, "p2")
        assert r.value_int == 1822
        assert r.witnesses.curve.genus == 203
        assert "2040 > 2n+2g-2 = 2024" in r.witnesses.checks[0].detail

    def test_skip_case_carries_caveat(self):
        r = constructive_bound(5, 8, "p2")
        assert r.value_int == 2 * 8 + 7 - 1 == 22
        assert r.witnesses.pair.skipped == (5,)
        assert any("constructive-with-caveat" in c for c in r.caveats)

    def test_infeasible_small_n(self):
        with pytest.raises(InfeasiblePipelineError) as exc:
            constructive_bound(5, 3, "p2")
        assert exc.value.failed_check == "pair_selection"
        doc = exc.value.to_json_dict()
        assert doc["error"] == "infeasible" and "reason" in doc

    def test_domain(self):
        with pytest.raises(ValueError):
            constructive_bound(4, 100, "p2")
        with pytest.raises(ValueError):
            constructive_bound(5, 1, "p2")
        with pytest.raises(ValueError):
            constructive_bound(5, 100, "p3")

    def test_witness_epsilon_dominates_formula_epsilon(self):
        """At the witness, eps(l_k) >= eps_p(n): the witness prime sits below
        2n/(p-3), and x**(alpha-1) is decreasing."""
        for p in (5, 7, 13, 17):
            for n in range(20, 2000, 13):
                try:
                    r = constructive_bound(p, n, "p2")
                except InfeasiblePipelineError:
                    continue
                lk = r.witnesses.pair.l_k
                assert lk <= Fraction(2 * n, p - 3)
                eps_lk = lk ** (-1 / 3)
                eps_pn = epsilon(p, n, Fraction(2, 3), "generic").value
                assert eps_lk >= eps_pn * (1 - 1e-12)


class TestCompareAll:
    def test_5_100_quadratic_ordering(self):
        doc = compare_all(5, 100)
        quad = doc["p2"]
        assert quad["smallest"] == "constructive"
        methods = [e["method"] for e in quad["methods"]]
        assert methods == ["constructive", "closed_quadratic", "prior_vi", "prior_v"]
        values = [e["value_real"] for e in quad["methods"]]
        assert values[0] == 300.0
        assert abs(values[1] - 316.8980164933093) < 1e-9
        assert abs(values[2] - 336.17021276595745) < 1e-6
        assert values == sorted(values)

    def test_5_100_prime_ordering(self):
        doc = compare_all(5, 100)
        prime = doc["p"]
        assert prime["smallest"] == "constructive"
        methods = [e["method"] for e in prime["methods"]]
        # at n = 100 the eps inflation still lets prior_iii beat the closed form
        assert methods == ["constructive", "prior_iii", "closed_prime", "prior_iv"]

    def test_asymptotic_block(self):
        doc = compare_all(5, 100)
        asym = doc["asymptotic"]
        assert asym["p2"]["new"] == "3"
        assert abs(asym["p2"]["prior_vi_value"] - 3.3617021276595743) < 1e-12
        assert asym["p2"]["dominates_priors"] is True
        assert asym["p"]["new"] == "5"
        assert asym["p"]["dominates_priors"] is True

    def test_prime_named_apart_from_field_blocks(self):
        # "p" holds the GF(p) block, so the prime itself is under "prime"
        doc = compare_all(7, 60)
        assert list(doc) == ["prime", "p", "n", "p2", "asymptotic"]
        assert doc["prime"] == 7 and doc["n"] == 60
        assert set(doc["p"]) == set(doc["p2"]) == {"methods", "smallest"}

    def test_infeasible_constructive_reported(self):
        doc = compare_all(5, 4)
        quad = doc["p2"]
        entry = [e for e in quad["methods"] if e["method"] == "constructive"][0]
        assert entry.get("infeasible") is True


class TestRounding:
    def test_round_up_15(self):
        assert round_up_15(316.89801649330927) >= 316.89801649330927
        assert round_up_15(300.0) == 300.0
        assert round_up_15(1.0000000000000002) >= 1.0000000000000002


class TestReportSchema:
    def test_closed_form_json_keys(self):
        doc = closed_form_quadratic(5, 100).to_json_dict()
        assert list(doc) == [
            "p", "n", "field", "method", "value_real", "value_int",
            "valid_unconditional", "policy", "witnesses", "caveats",
        ]
        assert doc["witnesses"] is None
        assert list(doc["policy"]) == ["name", "alpha", "x_alpha"]

    def test_constructive_json_witness_keys(self):
        doc = constructive_bound(5, 100, "p").to_json_dict()
        w = doc["witnesses"]
        assert set(w) >= {"l_k", "l_k1", "N", "genus", "n1_lower", "checks"}
        assert all(set(c) == {"name", "passed", "detail"} for c in w["checks"])
        assert doc["policy"]["x_alpha"] == "exp(exp(33.3))"


# sha256 of the policy surface: each policy's JSON, and for every p and field
# the policy floor's text and both closed forms' validity flags and caveats at
# n = floor - 1 and n = floor of each empirical floor, and at an n whose
# witness threshold lies past both sieve-verified ranges
POLICY_SURFACE_SHA256 = "22c30de6fa669de5790a2c592c422b9b04400a6c653b86e80129919d878da6b2"


def test_policy_surface_digest():
    policies = [
        GapPolicy.dudek(),
        GapPolicy.bhp(),
        empirical_policy(Fraction(2, 3), 10**5),
        empirical_policy(Fraction(2, 3), 10**7),
        empirical_policy(Fraction(21, 40), 10**7),
    ]
    h = hashlib.sha256()
    for policy in policies:
        h.update(json.dumps(policy.to_json_dict()).encode())
    for p in (5, 7, 11, 13, 17, 101, 1009):
        for closed, generic, eleven in (
            (closed_form_quadratic, PairFamily.QUADRATIC_GENERIC, PairFamily.QUADRATIC_ELEVEN),
            (closed_form_prime, PairFamily.PRIME_GENERIC, PairFamily.PRIME_ELEVEN),
        ):
            family = eleven if p == 11 else generic
            floors = [str(policy_floor(policy, family, p)) for policy in policies]
            ns = {2 * (p - 3) * 10**7 + 2 * p}
            ns.update(int(f) + k for f in floors if f.isdigit() for k in (-1, 0))
            for policy, floor in zip(policies, floors):
                for n in sorted(ns):
                    r = closed(p, n, policy)
                    doc = [p, n, family.value, floor, r.valid_unconditional, list(r.caveats)]
                    h.update(json.dumps(doc).encode())
    assert h.hexdigest() == POLICY_SURFACE_SHA256
