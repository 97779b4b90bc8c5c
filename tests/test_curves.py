import random
from decimal import Decimal, getcontext
from math import gcd

import pytest

from symrank.bounds import constructive_bound
from symrank.curves import _gamma0_data, check_rr_hypothesis, family_data, genus_X0
from symrank.primes import sieve


def phi(m):
    """Euler's totient by counting: the oracle for small m."""
    return sum(1 for a in range(1, m + 1) if gcd(a, m) == 1)


class TestGenusX0:
    def test_eleven_times_thirteen(self):
        data = genus_X0(143)
        assert data.genus == 13
        assert (data.mu, data.nu2, data.nu3, data.nu_inf) == (168, 0, 0, 4)

    def test_twentythree_times_five(self):
        assert genus_X0(115).genus == 11

    def test_level_eleven(self):
        data = genus_X0(11)
        assert (data.mu, data.nu2, data.nu3, data.nu_inf, data.genus) == (12, 0, 0, 2, 1)

    def test_known_small_levels(self):
        # hand-evaluated via the index/torsion formula
        assert genus_X0(1).genus == 0
        assert genus_X0(2).genus == 0
        assert genus_X0(10).genus == 0
        assert genus_X0(22).genus == 2
        assert genus_X0(37).genus == 2
        assert genus_X0(49).genus == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            genus_X0(0)

    def test_family_closed_forms_to_1000(self):
        for l in sieve(1000):
            if l != 11:
                assert genus_X0(11 * l).genus == l
                assert _gamma0_data(11 * l, {11: 1, l: 1}) == genus_X0(11 * l)
            if l != 23:
                assert genus_X0(23 * l).genus == 2 * l + 1
                assert _gamma0_data(23 * l, {23: 1, l: 1}) == genus_X0(23 * l)

    def test_consistency_identity_sample(self):
        for n in range(1, 2001):
            d = genus_X0(n)
            assert 12 * d.genus - 12 + 3 * d.nu2 + 4 * d.nu3 + 6 * d.nu_inf == d.mu
            # nu_inf is the sum over divisors k of n of phi(gcd(k, n/k))
            cusps = sum(phi(gcd(k, n // k)) for k in range(1, n + 1) if n % k == 0)
            assert d.nu_inf == cusps


class TestFamilyData:
    def test_generic_example(self):
        fd = family_data(5, 97)
        assert fd.family == "11l" and fd.N == 1067
        assert fd.genus == 97
        assert fd.n1_lower_p2 == 4 * 98 == 392
        assert fd.n1_2n2_lower_p == 392

    def test_eleven_example(self):
        fd = family_data(11, 97)
        assert fd.family == "23l" and fd.N == 2231
        assert fd.genus == 2 * 97 + 1 == 195
        assert fd.n1_lower_p2 == 2 * 10 * 98 == 1960

    def test_degenerate_levels_rejected(self):
        with pytest.raises(ValueError):
            family_data(5, 5)  # l = p
        with pytest.raises(ValueError):
            family_data(7, 11)  # l = 11 in the 11l family
        with pytest.raises(ValueError):
            family_data(11, 23)  # l = 23 in the 23l family
        with pytest.raises(ValueError):
            family_data(11, 11)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            family_data(4, 7)
        with pytest.raises(ValueError):
            family_data(3, 7)  # p < 5
        with pytest.raises(ValueError):
            family_data(5, 9)  # l not prime

    def test_large_level_needs_no_factorization(self):
        # the genus cross-check of X0(11*l) must not trial-divide 11*l
        # (O(sqrt l): minutes at this n)
        report = constructive_bound(5, 10**20)
        assert report.witnesses.pair.l_k1 == 100000000000000000039
        assert report.witnesses.curve.genus == 100000000000000000039
        assert report.value_int == 2 * 10**20 + 100000000000000000039 - 1

    def test_json_shape(self):
        doc = family_data(5, 13).to_json_dict()
        assert doc == {
            "family": "11l",
            "l": 13,
            "N": 143,
            "genus": 13,
            "p": 5,
            "n1_lower_p2": 56,
            "n1_2n2_lower_p": 56,
        }


class TestRrHypothesis:
    def test_examples(self):
        assert check_rr_hypothesis(25, 2, 0) is True
        assert check_rr_hypothesis(25, 100, 101) is True
        assert check_rr_hypothesis(4, 2, 3) is False

    def test_tight_cases(self):
        # q=4, n=2: rhs = 2; 2g+1 <= 2 only for no g (odd vs even), so g=0 holds via 1 <= 2
        assert check_rr_hypothesis(4, 2, 0) is True
        assert check_rr_hypothesis(4, 2, 1) is False
        # q=9, n=1: rhs = sqrt(9)-1 = 2: g=0 passes, g=1 fails
        assert check_rr_hypothesis(9, 1, 0) is True
        assert check_rr_hypothesis(9, 1, 1) is False

    def test_against_high_precision(self):
        getcontext().prec = 80
        rng = random.Random(777)
        for _ in range(1000):
            q = rng.randrange(2, 10**4)
            n = rng.randrange(1, 51)
            g = rng.randrange(0, 10**4)
            dq = Decimal(q)
            rhs = dq ** (Decimal(n - 1) / 2) * (dq.sqrt() - 1)
            assert check_rr_hypothesis(q, n, g) == (Decimal(2 * g + 1) <= rhs)

    def test_matches_squared_decision_at_boundaries(self):
        """The bit-length shortcut never changes the exact decision, including
        q in {2, 3}, where sqrt(q)-1 < 1 and it must not apply."""

        def squared(q, n, g):
            a = 2 * g + 1
            if n % 2 == 1:
                return (a + q ** ((n - 1) // 2)) ** 2 <= q**n
            lhs = q ** (n // 2) - a
            return lhs >= 0 and lhs * lhs >= q ** (n - 1)

        for q in (2, 3, 4, 5, 7, 8, 9, 25, 49, 121, 169, 289):
            k = q.bit_length() - 1
            for n in range(1, 40):
                lo, hi = 0, q ** (n // 2 + 1)  # squared(q, n, hi) is False
                while hi - lo > 1:  # last g that passes, or 0
                    mid = (lo + hi) // 2
                    lo, hi = (mid, hi) if squared(q, n, mid) else (lo, mid)
                shortcut_edge = 2 ** (k * (n - 1) // 2) // 2  # first g it cannot settle
                for centre in (0, lo, shortcut_edge):
                    for g in range(max(centre - 3, 0), centre + 4):
                        assert check_rr_hypothesis(q, n, g) == squared(q, n, g), (q, n, g)

    def test_domain(self):
        with pytest.raises(ValueError):
            check_rr_hypothesis(25, 0, 1)
        with pytest.raises(ValueError):
            check_rr_hypothesis(1, 2, 1)
        with pytest.raises(ValueError):
            check_rr_hypothesis(25, 2, -1)
