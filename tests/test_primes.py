import math
import random
from bisect import bisect_left, bisect_right
from decimal import Decimal, getcontext
from fractions import Fraction
from functools import cache
from itertools import accumulate, pairwise

import pytest

from symrank import primes
from symrank.ntheory import is_prime
from symrank.primes import (
    GapPolicy,
    PairFamily,
    PairSelectionError,
    next_prime,
    policy_floor,
    prev_prime,
    select_pair,
    sieve,
    verify_gaps,
)


class TestSieve:
    def test_small(self):
        assert sieve(10) == (2, 3, 5, 7)

    def test_counts(self):
        assert len(sieve(100)) == 25
        assert len(sieve(10**6)) == 78498

    def test_every_small_limit_against_is_prime(self):
        # the odd-only flags hold (limit + 1) // 2 entries: odd and even limits
        for limit in range(2, 2001):
            assert sieve(limit) == tuple(filter(is_prime, range(limit + 1))), limit

    def test_limits(self):
        with pytest.raises(ValueError):
            sieve(1)
        with pytest.raises(ValueError):
            sieve(10**9 + 1)

    def test_lookups(self):
        # stepping by primality test agrees with the sieve, through is_prime's
        # trial-division range (below 43**2) and the selftest pair sweep's range
        ps = sieve(20100)
        assert ps[-1] > next_prime(20000)
        for x in range(2, 20001):
            i = bisect_right(ps, x)
            assert prev_prime(x) == ps[i - 1], x
            assert next_prime(x) == ps[i], x
        assert next_prime(0) == next_prime(1) == 2
        with pytest.raises(ValueError):
            prev_prime(1)


_ALPHAS = [Fraction(2, 3), Fraction(21, 40), Fraction(1, 2), Fraction(1, 3), Fraction(1, 10),
           Fraction(9, 10), Fraction(99, 100)]


def _reference_walk(ps, alpha):
    """The pair-by-pair scan: (l, gap, gap**d > l**c) for consecutive primes of
    ps, in integers (each gap's power is built once)."""
    c, d = alpha.numerator, alpha.denominator
    gap_power = cache(lambda gap: gap**d)
    return [(l, l1 - l, gap_power(l1 - l) > l**c) for l, l1 in pairwise(ps)]


def _reference_scans(ps, alpha):
    """limit -> (violations, max_gap_seen) of the walk over the primes l < limit,
    for every limit up to ps[-1] (so every scanned l has its successor in ps)."""
    walk = _reference_walk(ps, alpha)
    bad = [l for l, _, violated in walk if violated]
    maxima = list(accumulate((gap for _, gap, _ in walk), max))

    def scan(limit):
        return tuple(bad[: bisect_left(bad, limit)]), maxima[bisect_left(ps, limit) - 1]

    return scan


class TestVerifyGaps:
    def test_two_thirds_to_1e5(self):
        assert verify_gaps(10**5, Fraction(2, 3)).violations == (7,)

    def test_small_limit_empty(self):
        assert verify_gaps(5, Fraction(2, 3)).violations == ()

    def test_bhp_exponent_to_200(self):
        # frozen from an independent sieve oracle: exact integer comparison
        # gap**40 <= l**21 flags 3 and 13 as well (2**120 > 3**63 etc.)
        scan = verify_gaps(200, Fraction(21, 40))
        assert scan.violations == (3, 7, 13, 23, 113)

    def test_scan_walks_the_flags_without_a_prime_table(self, monkeypatch):
        def no_table(limit):
            raise AssertionError("gap scan built a prime table")

        monkeypatch.setattr(primes, "sieve", no_table)
        assert verify_gaps(10**5, Fraction(2, 3)).violations == (7,)
        assert verify_gaps(200, Fraction(21, 40)).violations == (3, 7, 13, 23, 113)

    def test_max_gap_and_json(self):
        scan = verify_gaps(100, Fraction(2, 3))
        assert scan.max_gap_seen == 8  # gap 89 -> 97
        assert scan.to_json_dict() == {
            "limit": 100,
            "alpha": "2/3",
            "violations": [7],
            "max_gap_seen": 8,
        }

    def test_scan_is_a_value(self):
        # the scan reads no clock: two scans of one input are equal
        first, second = verify_gaps(10**5, Fraction(2, 3)), verify_gaps(10**5, Fraction(2, 3))
        assert first == second and hash(first) == hash(second)

    @pytest.mark.parametrize("alpha", [Fraction(2, 3), Fraction(21, 40)])
    def test_monotone_in_limit(self, alpha):
        v1 = set(verify_gaps(10**3, alpha).violations)
        v2 = set(verify_gaps(10**4, alpha).violations)
        v3 = set(verify_gaps(10**5, alpha).violations)
        assert v1 <= v2 <= v3

    @pytest.mark.parametrize("alpha", _ALPHAS)
    def test_matches_reference_scan_every_small_limit(self, alpha):
        # the successor of the last prime below the limit may lie past it
        reference = _reference_scans(sieve(3100), alpha)
        for limit in range(3, 3001):
            scan = verify_gaps(limit, alpha)
            assert (scan.violations, scan.max_gap_seen) == reference(limit), limit

    @pytest.mark.parametrize("alpha", _ALPHAS)
    def test_matches_reference_scan_random_limits(self, alpha):
        reference = _reference_scans(sieve(10**6 + 200), alpha)
        rng = random.Random(2400)
        for limit in [rng.randrange(3, 10**6 + 1) for _ in range(12)] + [10**6]:
            scan = verify_gaps(limit, alpha)
            assert (scan.violations, scan.max_gap_seen) == reference(limit), limit

    def test_reference_cases_reach_every_branch(self):
        ps = sieve(3100)
        # a prime limit: the scan has no tail
        assert 2999 in ps
        # a tail gap that is the largest: 1327 -> 1361 is 34, and no gap
        # between primes below 1327 exceeds 22
        assert max(l1 - l for l, l1 in pairwise(ps) if l1 <= 1327) == 22
        assert next_prime(1327) == 1361
        for limit in (1328, 1330, 1360):
            assert verify_gaps(limit, Fraction(2, 3)).max_gap_seen == 34
        # a cutoff past the limit: 34**10 > 3000, so every prime below the
        # limit is tested, and 1/10 flags some of them
        scan = verify_gaps(3000, Fraction(1, 10))
        assert scan.max_gap_seen**10 > 3000 and scan.violations

    def test_pair_loop_stops_at_the_cutoff(self, monkeypatch):
        # the largest gap below 10**6 is 114 (492113 -> 492227), and 1218 is
        # the least B with B**2 >= 114**3: no prime from 1218 on can have a
        # gap above l**(2/3), so only the primes below 1218 are tested
        visited = []
        walk_pairs = primes.pairwise

        def spy(walk):
            for pair in walk_pairs(walk):
                visited.append(pair[0])
                yield pair

        monkeypatch.setattr(primes, "pairwise", spy)
        scan = verify_gaps(10**6, Fraction(2, 3))
        assert (scan.violations, scan.max_gap_seen) == ((7,), 114)
        assert 1217**2 < 114**3 <= 1218**2
        assert visited == list(sieve(1217))

    def test_huge_exponent_terms_match_the_integer_scan(self):
        # large numerators and denominators leave the integer path: bit
        # lengths or certified logarithms decide, with the same answers
        rng = random.Random(2500)
        alphas = [Fraction(1, 1000), Fraction(999, 1000), Fraction(1, 65536)]
        while len(alphas) < 6:  # mid-range exponents, which some primes violate
            d = rng.randrange(4, 4097)
            alphas.append(Fraction(rng.randrange(d // 4, d // 2), d))
        alphas.append(Fraction(434, 1713))  # 2,466 violations below 10**5
        ps = sieve(10**5 + 200)
        for alpha in alphas:
            reference = _reference_scans(ps, alpha)
            for limit in [rng.randrange(3, 10**5) for _ in range(3)] + [10**5]:
                scan = verify_gaps(limit, alpha)
                assert (scan.violations, scan.max_gap_seen) == reference(limit), (alpha, limit)

    def test_astronomical_exponent_terms(self):
        # each of these once built a power of about 10**12 bits or a float
        # of 10**400; every prime but 2 violates a tiny exponent
        scan = verify_gaps(100, Fraction(1, 10**12))
        assert scan.violations == sieve(100)[1:] and scan.max_gap_seen == 8
        assert verify_gaps(100, Fraction(10**12 - 1, 10**12)).violations == ()
        assert verify_gaps(10, Fraction(1, 10**400)).violations == (3, 5, 7)
        # the only gap below 3 is 1, and 1**d <= 1**c whatever the terms
        assert verify_gaps(3, Fraction(10**20 - 1, 10**20)).violations == ()

    def test_exceeds_by_logarithms(self, monkeypatch):
        # with no exact budget every case the bit lengths leave open goes
        # through the logarithms, near-ties included (ties are excluded: an
        # exact tie needs the budget)
        monkeypatch.setattr(primes, "EXACT_POWER_BITS", 0)
        rng = random.Random(2501)
        cases = [(3, 10**50, 3, 10**50 - 1), (3, 10**50 - 1, 3, 10**50)]
        for _ in range(400):
            d = rng.randrange(1, 300)
            c = rng.randrange(1, 300)
            while math.gcd(c, d) != 1:
                c = rng.randrange(1, 300)
            t = rng.randrange(2, 6)
            x, y = t**c + rng.choice((-1, 0, 1)), t**d + rng.choice((-1, 0, 1))
            if x**d != y**c:
                cases.append((x, d, y, c))
        for _ in range(400):
            d = rng.randrange(1, 5000)
            c = rng.randrange(1, 5000)
            while math.gcd(c, d) != 1:
                c = rng.randrange(1, 5000)
            cases.append((rng.randrange(1, 2**30), d, rng.randrange(1, 2**30), c))
        for x, d, y, c in cases:
            if (x, d) == (3, 10**50) or (y, c) == (3, 10**50):
                expected = d > c
            else:
                expected = x**d > y**c
            assert primes._exceeds(x, d, y, c) == expected, (x, d, y, c)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            verify_gaps(100, Fraction(3, 2))
        with pytest.raises(ValueError):
            verify_gaps(2, Fraction(2, 3))

    def test_exact_comparison_matches_high_precision(self):
        """The integer decision gap**d <= l**c agrees with 50-digit logs."""
        getcontext().prec = 50
        ps = sieve(10**6)
        rng = random.Random(4242)
        idx = rng.sample(range(len(ps) - 1), 10**4)
        for alpha in (Fraction(2, 3), Fraction(21, 40)):
            c, d = alpha.numerator, alpha.denominator
            for i in idx[:5000]:
                l = ps[i]
                gap = ps[i + 1] - l
                exact = gap**d > l**c
                approx = Decimal(gap).ln() * d > Decimal(l).ln() * c
                assert exact == approx, (l, gap, alpha)


class TestSelectPair:
    def test_basic_example(self):
        pair = select_pair(5, 100, PairFamily.QUADRATIC_GENERIC)
        assert (pair.l_k, pair.l_k1) == (97, 101)
        assert pair.threshold == Fraction(97)
        assert pair.gap == 4 and pair.skipped == ()

    def test_eleven_example(self):
        pair = select_pair(11, 810, PairFamily.QUADRATIC_ELEVEN)
        assert pair.threshold == Fraction(100)
        assert (pair.l_k, pair.l_k1) == (97, 101)

    def test_skip_example(self):
        pair = select_pair(5, 8, PairFamily.QUADRATIC_GENERIC)
        assert pair.threshold == Fraction(5)
        assert (pair.l_k, pair.l_k1) == (3, 7)
        assert pair.skipped == (5,)

    def test_threshold_boundary_is_non_strict(self):
        # T lands exactly on a prime: that prime is taken as l_k
        pair = select_pair(13, 22, PairFamily.QUADRATIC_GENERIC)
        assert pair.threshold == Fraction(3)
        assert (pair.l_k, pair.l_k1) == (3, 5)

    def test_n_too_small(self):
        with pytest.raises(PairSelectionError):
            select_pair(5, 3, PairFamily.QUADRATIC_GENERIC)

    def test_past_primality_limit(self):
        # psi_13 bounds the proven primality test; n - 3 is the generic
        # threshold for p = 5.  Past it l_k cannot be found; just below it
        # l_k is found but the search for l_{k+1} crosses the limit.
        psi13 = 3317044064679887385961981
        for n in (10**25, psi13 + 2):
            with pytest.raises(PairSelectionError, match=str(psi13)):
                select_pair(5, n, PairFamily.QUADRATIC_GENERIC)

    def test_family_p_consistency(self):
        with pytest.raises(ValueError):
            select_pair(11, 100, PairFamily.QUADRATIC_GENERIC)
        with pytest.raises(ValueError):
            select_pair(5, 100, PairFamily.QUADRATIC_ELEVEN)
        with pytest.raises(ValueError):
            select_pair(4, 100, PairFamily.QUADRATIC_GENERIC)

    def test_generic_inequalities_full_sweep(self):
        """Both proof-side inequalities hold exactly whenever no skip occurred."""
        ps = sieve(50000)
        for p in (5, 7, 13, 17, 19):
            for n in range(p, 5001):
                for fam in (PairFamily.QUADRATIC_GENERIC, PairFamily.PRIME_GENERIC):
                    try:
                        pair = select_pair(p, n, fam)
                    except PairSelectionError:
                        continue
                    if pair.skipped:
                        continue
                    lk, lk1 = pair.l_k, pair.l_k1
                    i = bisect_right(ps, int(pair.threshold))
                    assert (lk, lk1) == ps[i - 1 : i + 1]
                    assert (p - 1) * (lk1 + 1) > 2 * n + 2 * lk1 - 2
                    assert (p - 1) * (lk + 1) <= 2 * n + 2 * lk - 2

    def test_eleven_inequalities_full_sweep(self):
        ps = sieve(50000)
        p = 11
        for n in range(p, 5001):
            for fam in (PairFamily.QUADRATIC_ELEVEN, PairFamily.PRIME_ELEVEN):
                try:
                    pair = select_pair(p, n, fam)
                except PairSelectionError:
                    continue
                if pair.skipped:
                    continue
                lk, lk1 = pair.l_k, pair.l_k1
                assert (p - 1) * (lk1 + 1) > n + 2 * lk1
                assert (p - 1) * (lk + 1) <= n + 2 * lk
                assert ps[bisect_right(ps, lk)] == lk1

    def test_pair_brackets_threshold_even_with_skips(self):
        for p in (5, 7, 13):
            for n in range(p, 2001, 7):
                try:
                    pair = select_pair(p, n, PairFamily.QUADRATIC_GENERIC)
                except PairSelectionError:
                    continue
                assert pair.l_k <= pair.threshold < pair.l_k1


class TestPolicies:
    def test_dudek_floor_is_symbolic(self):
        floor = policy_floor(GapPolicy.dudek(), PairFamily.QUADRATIC_GENERIC, 5)
        assert floor == "exp(exp(33.3))+3"
        assert GapPolicy.dudek().x_alpha is None

    def test_dudek_floor_eleven(self):
        floor = policy_floor(GapPolicy.dudek(), PairFamily.QUADRATIC_ELEVEN, 11)
        assert floor == "8*exp(exp(33.3))+10"

    def test_bhp_floor_is_unknown(self):
        floor = policy_floor(GapPolicy.bhp(), PairFamily.PRIME_GENERIC, 7)
        assert floor == "unknown"
        assert GapPolicy.bhp().x_alpha is None

    def test_empirical_floor(self):
        policy = GapPolicy.empirical(Fraction(2, 3), 11, 10**6)
        floor = policy_floor(policy, PairFamily.QUADRATIC_GENERIC, 5)
        assert type(floor) is int and floor == 14

    def test_empirical_from_sieve(self):
        policy = GapPolicy.empirical_from_sieve(Fraction(2, 3), 10**5)
        assert policy.x_alpha == 11
        assert policy.verified_limit == 10**5

    def test_named_policies_are_shared(self):
        assert GapPolicy.dudek() is GapPolicy.dudek()
        assert GapPolicy.bhp() is GapPolicy.bhp()
        assert GapPolicy.dudek() == GapPolicy("dudek", Fraction(2, 3), None)
        assert GapPolicy.bhp() == GapPolicy("bhp", Fraction(21, 40), None)

    def test_policy_invariants(self):
        with pytest.raises(ValueError):
            GapPolicy("bhp", Fraction(2, 3), None)
        with pytest.raises(ValueError):
            GapPolicy("dudek", Fraction(2, 3), 5)
        with pytest.raises(ValueError):
            GapPolicy("empirical", Fraction(2, 3), 11)  # no limit
        with pytest.raises(ValueError):
            GapPolicy("empirical", Fraction(2, 3), None, 10**6)  # no floor
        with pytest.raises(ValueError):
            GapPolicy("chebyshev", Fraction(1, 2), None)

    def test_policy_json(self):
        assert GapPolicy.dudek().to_json_dict() == {
            "name": "dudek",
            "alpha": "2/3",
            "x_alpha": "exp(exp(33.3))",
        }
        assert GapPolicy.bhp().to_json_dict()["alpha"] == "21/40"
        assert GapPolicy.bhp().to_json_dict()["x_alpha"] == "unknown"
        assert GapPolicy.empirical(Fraction(2, 3), 11, 10**6).to_json_dict() == {
            "name": "empirical",
            "alpha": "2/3",
            "x_alpha": "11",
            "verified_limit": 10**6,
        }
