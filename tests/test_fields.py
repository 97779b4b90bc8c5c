import hashlib
import itertools
import math
import random

import pytest
from gf_oracle import ExtOracle, PrimeOracle, matmul, oracle_of, rank

from symrank.fields import (
    CODE_TABLE_CAP,
    ExtensionField,
    Matrix,
    PrimeField,
    SingularMatrixError,
    _SmallExtension,
    all_monic_polys,
    count_places_rational_ff,
    find_irreducible,
    invert,
    irreducible_polys,
    is_irreducible,
    make_field,
    poly_divmod,
    select_independent_rows,
    solve_linear,
)
from symrank.ntheory import prime_power_split


def brute_irreducible(f, poly):
    """Trial division by every monic polynomial of degree <= n/2."""
    n = len(poly) - 1
    if n == 1:
        return True
    for d in range(1, n // 2 + 1):
        for div in all_monic_polys(f, d):
            if not poly_divmod(f, poly, div)[1]:
                return False
    return True


class TestFindIrreducible:
    def test_degree_one(self):
        f2 = make_field(2)
        assert find_irreducible(f2, 1) == (0, 1)

    def test_smallest_over_f2(self):
        f2 = make_field(2)
        assert find_irreducible(f2, 2) == (1, 1, 1)

    def test_smallest_over_f5(self):
        f5 = make_field(5)
        assert find_irreducible(f5, 2) == (2, 0, 1)

    def test_extension_base_above_table_cap(self):
        # GF(289) = GF(17^2) has no code tables: u + 0*x + x**2, the first
        # candidate with c_0 != 0 (code 17, the code of u) that is irreducible
        f = make_field(289)
        assert f.order > CODE_TABLE_CAP
        assert find_irreducible(f, 2) == (17, 0, 1)

    def test_pth_powers_skipped_above_table_cap(self, monkeypatch):
        # over GF(512) each x^2 + c is the square (x + sqrt c)^2: the search
        # tests none of the 511 and only its answer
        import symrank.fields as fields_mod

        f = make_field(512)  # its own modulus search runs the same test
        tested = []
        real = fields_mod._irreducible
        monkeypatch.setattr(
            fields_mod, "_irreducible", lambda f, poly: tested.append(poly) or real(f, poly)
        )
        assert find_irreducible(f, 2) == (1, 1, 1)
        assert tested == [(1, 1, 1)]
        assert find_irreducible(make_field(1024), 2) == (128, 1, 1)

    @pytest.mark.parametrize("q,n", [(4, 2), (16, 2), (9, 3), (2, 4)])
    def test_pth_powers_skipped_in_tables(self, monkeypatch, q, n):
        # a candidate whose nonzero coefficients all sit at exponents
        # divisible by the characteristic is never tested
        import symrank.fields as fields_mod

        p = make_field(q).char
        tested = []
        real = fields_mod._irreducible
        monkeypatch.setattr(
            fields_mod, "_irreducible", lambda fld, f: tested.append(f) or real(fld, f)
        )
        got = find_irreducible(make_field(q), n)
        assert tested and tuple(tested[-1]) == got
        assert all(any(c for e, c in enumerate(f) if e % p) for f in tested)

    @pytest.mark.parametrize(
        "q,n",
        [(2, 2), (2, 4), (2, 8), (2, 16), (3, 3), (3, 10), (4, 2), (5, 3), (7, 2), (9, 2)],
    )
    def test_minimal_and_irreducible(self, q, n):
        f = make_field(q)
        got = find_irreducible(f, n)
        assert len(got) == n + 1 and got[-1] == 1
        assert is_irreducible(f, got)
        # nothing earlier in canonical order is irreducible
        for cand in all_monic_polys(f, n):
            if cand == got:
                break
            assert not brute_irreducible(f, cand)

    @pytest.mark.parametrize("q,n", [(2, 6), (2, 16), (3, 4), (5, 4), (4, 3)])
    def test_agrees_with_brute_force(self, q, n):
        # exhaustive factor check up to the q**n = 2**16 verification boundary
        f = make_field(q)
        assert brute_irreducible(f, find_irreducible(f, n))


# sha256 of repr of the canonical moduli and of the first degree-2 places,
# as computed by the search that had its own candidate loops
CANONICAL_MODULI_DIGEST = "6579c8573ff59eed1cbd6f3003bb9f023e711dd2e0bb13916aaca4aaff288fb9"
FIRST_PLACES_DIGEST = "41fdab0a50f60b15200f0fdc1142b03b2e2e2109011674a8f1b558d916ce9170"
# the same for the moduli above the code-table cap, as computed by the
# polynomial-tuple routines; cells whose search took over 50 ms are left out
ABOVE_CAP_MODULI_DIGEST = "c5d488149ec374ad8929be9e514126f8a0e149c263138b1e7e1669c1b133985a"
SLOW_ABOVE_CAP_CELLS = {(343, 4), (512, 3), (1024, 4), (4096, 4)}
# the same for every q <= 32 at 4 <= n <= 8, as computed by the walk that
# sent every candidate left by the p-th-power and prime-field rules to the test
DEGREE_4_TO_8_MODULI_DIGEST = "f9f7977ffc4cbe0670a986dcaa795117b48b3476f75039f4af5bd612cd5f316f"


def is_prime_power(q):
    try:
        prime_power_split(q)
    except ValueError:
        return False
    return True


class TestIrreducibleWalk:
    def test_canonical_moduli_pinned(self):
        qs = [q for q in range(2, 257) if is_prime_power(q)]
        moduli = [(q, n, find_irreducible(make_field(q), n)) for q in qs for n in (2, 3)]
        assert hashlib.sha256(repr(moduli).encode()).hexdigest() == CANONICAL_MODULI_DIGEST

    def test_canonical_moduli_to_degree_8_pinned(self):
        qs = [q for q in range(2, 33) if is_prime_power(q)]
        moduli = [(q, n, find_irreducible(make_field(q), n)) for q in qs for n in range(4, 9)]
        assert hashlib.sha256(repr(moduli).encode()).hexdigest() == DEGREE_4_TO_8_MODULI_DIGEST

    def test_degree_8_moduli_past_the_affine_rows_pinned(self):
        # both sit at c_3 = 1, just past the q**2 affine rows; the walk that
        # tested those rows took 1.4 s and 15 s on them
        assert find_irreducible(make_field(32), 8) == (2, 1, 0, 1, 0, 0, 0, 0, 1)
        assert find_irreducible(make_field(64), 8) == (3, 1, 0, 1, 0, 0, 0, 0, 1)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_walk_yields_what_testing_every_candidate_yields(self, q, d):
        f = make_field(q)
        every = filter(lambda c: is_irreducible(f, c), all_monic_polys(f, d))
        assert list(itertools.islice(irreducible_polys(f, d), 40)) == list(
            itertools.islice(every, 40)
        )

    def test_first_degree_two_places_pinned(self):
        places = [
            (q, tuple(itertools.islice(irreducible_polys(make_field(q), 2), 4)))
            for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64)
        ]
        assert hashlib.sha256(repr(places).encode()).hexdigest() == FIRST_PLACES_DIGEST

    def test_moduli_above_table_cap_pinned(self):
        cells = [(q, n) for q in (257, 289, 343, 512, 961, 1009, 1024, 4096) for n in (2, 3, 4)]
        moduli = [
            (q, n, find_irreducible(make_field(q), n))
            for q, n in cells
            if (q, n) not in SLOW_ABOVE_CAP_CELLS
        ]
        assert hashlib.sha256(repr(moduli).encode()).hexdigest() == ABOVE_CAP_MODULI_DIGEST

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_walk_is_trial_division_in_code_order(self, q, d):
        f = make_field(q)
        expected = [c for c in all_monic_polys(f, d) if brute_irreducible(f, c)]
        assert list(irreducible_polys(f, d)) == expected
        if d == 1:
            assert expected[0] == (0, 1)  # x itself
            assert list(irreducible_polys(f, 0)) == []

    @pytest.mark.parametrize("q,d", [(9, 2), (9, 4), (25, 2), (27, 3), (49, 2), (289, 2)])
    def test_walk_skips_prime_field_polys_when_degrees_share_a_factor(self, q, d):
        # a polynomial over GF(p) of degree d splits over GF(p**k) when
        # gcd(d, k) > 1; the walk skips those untested and yields the same
        # irreducibles as testing every candidate
        f = make_field(q)
        assert not any(is_irreducible(f, c) for c in all_monic_polys(make_field(f.char), d))
        every = filter(lambda c: is_irreducible(f, c), all_monic_polys(f, d))
        assert list(itertools.islice(irreducible_polys(f, d), 40)) == list(
            itertools.islice(every, 40)
        )

    def test_large_prime_field_skips_trial_division(self, monkeypatch):
        # make_field is cached, so the uncached function is called
        import symrank.fields as fields_mod

        def no_split(q):
            raise AssertionError(f"trial division of {q}")

        monkeypatch.setattr(fields_mod, "prime_power_split", no_split)
        assert fields_mod.make_field.__wrapped__(2**61 - 1).order == 2**61 - 1
        with pytest.raises(ValueError, match="prime modulus out of supported range"):
            fields_mod.make_field.__wrapped__(2305843009213693967)  # first prime above 2^61
        with pytest.raises(AssertionError):
            fields_mod.make_field.__wrapped__(4)  # composite orders are still split
        monkeypatch.undo()
        f4 = fields_mod.make_field.__wrapped__(4)
        assert (f4.order, f4.modulus) == (4, (1, 1, 1))
        # above the primality test's limit and free of its bases 2..41, so
        # is_prime would refuse it: it is split instead
        assert fields_mod.make_field.__wrapped__(43**16).order == 43**16


def affine_polys(f, d):
    """Every c_0 + sum c_{p**i} u**(p**i), monic of degree d = p**k."""
    p = f.char
    exps = [0] + [p**i for i in range(d.bit_length()) if p**i < d]
    for coeffs in itertools.product(range(f.order), repeat=len(exps)):
        poly = [0] * d + [1]
        for e, c in zip(exps, coeffs):
            poly[e] = c
        yield tuple(poly)


def has_root(f, poly):
    """Whether some a in the field is a root, by Horner in the oracle."""
    F = oracle_of(f)
    for a in range(f.order):
        acc = 0
        for c in reversed(poly):
            acc = F.add(F.mul(acc, a), c)
        if not acc:
            return True
    return False


class TestAffineRows:
    """An affine p-polynomial of degree p**k, k >= 2, is reducible, except
    at degree 4 in characteristic 2 (proof in fields._affine_exponents)."""

    @pytest.mark.parametrize(
        "q,d,count", [(2, 8, 16), (4, 8, 256), (8, 8, 4096), (2, 16, 32), (3, 9, 27), (9, 9, 729), (5, 25, 125)]
    )
    def test_none_is_irreducible(self, q, d, count):
        import symrank.fields as fields_mod

        f = make_field(q)
        polys = list(affine_polys(f, d))
        assert len(polys) == count
        assert not any(is_irreducible(f, c) for c in polys)
        assert fields_mod._affine_exponents(d, f.char)

    @pytest.mark.parametrize("q,irreducible", [(2, 1), (4, 12)])
    def test_degree_4_in_characteristic_2_is_the_exception(self, q, irreducible):
        import symrank.fields as fields_mod

        f = make_field(q)
        found = [c for c in affine_polys(f, 4) if is_irreducible(f, c)]
        assert len(found) == irreducible
        assert set(found) <= set(irreducible_polys(f, 4))
        assert not fields_mod._affine_exponents(4, 2)


class TestRootSieve:
    @pytest.mark.parametrize(
        "q,d", [(2, 8), (4, 8), (3, 9), (16, 4), (4, 4), (9, 6), (27, 3), (5, 4), (25, 2)]
    )
    def test_skipped_candidates_have_a_root_or_are_affine(self, monkeypatch, q, d):
        # spy on the test: up to the walk's fifth answer, every candidate
        # it leaves untested is ruled out by a stated rule (a root counts
        # only after its row's first rejection), and none that is tested is
        # affine or has a root after its row's first rejection
        import symrank.fields as fields_mod

        f = make_field(q)
        p = f.char
        tested = []
        real = fields_mod._irreducible
        monkeypatch.setattr(
            fields_mod, "_irreducible", lambda fld, c: tested.append(tuple(c)) or real(fld, c)
        )
        last = list(itertools.islice(irreducible_polys(f, d), 5))[-1]
        monkeypatch.undo()
        affine = fields_mod._affine_exponents(d, p)
        split = q > p and math.gcd(d, prime_power_split(q)[1]) > 1
        rejected_rows = set()
        seen = set(tested)
        for c in all_monic_polys(f, d):
            row = c[1:]
            in_affine_row = bool(affine) and all(e in affine for e, x in enumerate(c) if x and e)
            if c in seen:
                assert not in_affine_row, c
                if row in rejected_rows:
                    assert not has_root(f, c), c
                if not is_irreducible(f, c):
                    rejected_rows.add(row)
            elif c[0] and any(x for e, x in enumerate(c) if e % p) and not (split and max(c) < p):
                assert in_affine_row or (row in rejected_rows and has_root(f, c)), c
            if c == last:
                break

    def test_no_pass_over_the_field_above_the_cap(self, monkeypatch):
        # the moduli the walk without a sieve found; above the cap nothing
        # lists a row's rooted constants or builds tables
        import symrank.fields as fields_mod

        def refuse(*args):
            raise AssertionError("a pass over the field above the cap")

        monkeypatch.setattr(fields_mod, "_rooted_constants", refuse)
        monkeypatch.setattr(fields_mod, "_list_tables", refuse)
        cells = {(2**61 - 1, 2): (1, 0, 1), (2**61 - 1, 3): (5, 0, 0, 1), (65537, 2): (3, 0, 1),
                 ((2**31 - 1) ** 2, 2): (2**31 + 1, 0, 1)}
        for (q, n), modulus in cells.items():
            f = fields_mod.make_field.__wrapped__(q)
            assert find_irreducible(f, n) == modulus


class TestBinaryQuadratics:
    """Over GF(2**k), u**2 + c_1 u + c_0 (c_1 != 0) is irreducible exactly
    when the absolute trace of c_0/c_1**2 is 1."""

    @pytest.mark.parametrize("q", [4, 8, 16, 32, 64, 128, 256])
    def test_trace_rule_agrees_with_the_table_test(self, q):
        import symrank.fields as fields_mod

        f = make_field(q)
        candidates = [(c0, c1, 1) for c1 in range(1, q) for c0 in range(1, q)]
        expected = [c for c in candidates if fields_mod._irreducible(f, c)]
        assert list(fields_mod._binary_quadratic_candidates(f)) == expected

    def test_moduli_above_table_cap_unchanged_and_only_answers_tested(self, monkeypatch):
        # the moduli computed by the walk that tested every candidate
        import symrank.fields as fields_mod

        by_q = {q: make_field(q) for q in (2**9, 2**10, 2**11, 2**12)}  # searched before the spy
        tested = []
        real = fields_mod._irreducible
        monkeypatch.setattr(
            fields_mod, "_irreducible", lambda f, poly: tested.append(poly) or real(f, poly)
        )
        moduli = {q: find_irreducible(f, 2) for q, f in by_q.items()}
        assert moduli == {512: (1, 1, 1), 1024: (128, 1, 1), 2048: (1, 1, 1), 4096: (512, 1, 1)}
        assert tested == list(moduli.values())


def reducible_codes(f, d):
    """Codes (coefficient codes, low first) of the reducible monic degree-d
    polynomials: every product of two monic factors of degree >= 1, taken
    with add and mul tables built here from the oracle's arithmetic."""
    F = oracle_of(f)
    q = f.order
    add = [[F.add(a, b) for b in range(q)] for a in range(q)]
    mul = [[F.mul(a, b) for b in range(q)] for a in range(q)]

    def monic(k):
        return [list(c) + [1] for c in itertools.product(range(q), repeat=k)]

    out = set()
    for k in range(1, d // 2 + 1):
        for a in monic(k):
            for b in monic(d - k):
                prod = [0] * (d + 1)
                for i, ai in enumerate(a):
                    for j, bj in enumerate(b):
                        prod[i + j] = add[prod[i + j]][mul[ai][bj]]
                out.add(tuple(prod))
    return out


def identity(f, n):
    return Matrix(f, ([int(i == j) for j in range(n)] for i in range(n)))


def outcome(fn, *args):
    """fn's result, or the pivot column of the SingularMatrixError it raised."""
    try:
        return fn(*args)
    except SingularMatrixError as exc:
        return ("singular", exc.pivot_col)


def random_matrix(f, rng, height, cols, dependent):
    """A seeded random matrix; with `dependent`, one row is a combination of
    earlier rows (or zero), taken in the oracle, so it has rank below
    min(height, cols) when square."""
    F = oracle_of(f)
    rows = [[f.random(rng) for _ in range(cols)] for _ in range(height)]
    if dependent:
        i = rng.randrange(height)
        acc = [0] * cols
        for k in range(i):
            c = f.random(rng)
            acc = [F.add(x, F.mul(c, y)) for x, y in zip(acc, rows[k])]
        rows[i] = acc
    return Matrix(f, rows)


class TestCodeField:
    """Code tables of small fields and linear algebra on codes, held to the
    oracle; the class name is kept so that the test ids stay stable."""

    @pytest.mark.parametrize("q", [4, 5, 8, 9, 16])
    def test_is_irreducible_on_codes_against_factor_products(self, q):
        f = make_field(q)
        assert q <= CODE_TABLE_CAP
        for d in (2, 3, 4):
            reducible = reducible_codes(f, d)
            for c in itertools.product(range(q), repeat=d):
                expected = (*c, 1) not in reducible
                assert is_irreducible(f, (*c, 1)) == expected, (q, c)

    def test_is_irreducible_above_cap_against_factor_products(self):
        # a seeded sample of monic quadratics over GF(257), reducible exactly
        # when they are (u - r)(u - s) = u**2 - (r + s) u + r s
        p = 257
        f = make_field(p)
        assert f.order > CODE_TABLE_CAP
        reducible = {(r * s % p, -(r + s) % p) for r in range(p) for s in range(r, p)}
        rng = random.Random(2000)
        for _ in range(2000):
            c = (rng.randrange(p), rng.randrange(p))
            assert is_irreducible(f, (*c, 1)) == (c not in reducible), c

    @pytest.mark.parametrize("q,sample", [(9, None), (257, 300), (289, 300)], ids=["9", "257", "289"])
    def test_non_monic_polynomial(self, q, sample):
        # GF(9): every monic cubic, scaled in the code tables; above
        # CODE_TABLE_CAP is_irreducible multiplies by the lead's inverse
        f = make_field(q)
        rng = random.Random(q)
        codes = range(q**3) if sample is None else rng.sample(range(q**3), sample)
        unit = 5 if sample is None else rng.randrange(2, q)
        for code in codes:
            poly = (code % q, code // q % q, code // q**2, 1)
            scaled = tuple(f.mul(unit, c) for c in poly)
            assert is_irreducible(f, scaled) == is_irreducible(f, poly)

    def test_above_cap_stays_on_raw_values(self):
        # x^2 + c is irreducible over GF(257) iff -c is a non-residue; the
        # test runs on the field's own operations, not tables
        f = make_field(257)
        assert f.order > CODE_TABLE_CAP
        for c in range(1, 257):
            assert is_irreducible(f, (c, 0, 1)) == (pow(-c % 257, 128, 257) == 256)
        assert find_irreducible(f, 2) == (3, 0, 1)
        assert brute_irreducible(f, find_irreducible(f, 3))

    def test_tables(self):
        for q in (2, 9, 16, 64):
            f = make_field(q)
            F = oracle_of(f)
            for a in range(f.order):
                assert F.add(a, f.neg(a)) == 0
                if a:
                    assert F.mul(a, f.inv(a)) == 1
            with pytest.raises(ZeroDivisionError):
                f.inv(0)

    @pytest.mark.parametrize("q", [9, 16, 5, 251, 4, 64, 289, 512])
    def test_solve_and_invert_match_raw_values(self, q):
        # a solution solves the system in the oracle; a singular pivot
        # column c has c independent columns before it and depends on them
        f = make_field(q)
        F = oracle_of(f)
        rng = random.Random(q * 7 + 1)
        singular = 0
        for trial in range(60):
            n = rng.randrange(1, 7)
            m = random_matrix(f, rng, n, n, dependent=trial % 3 == 0)
            rhs = Matrix(f, [[f.random(rng) for _ in range(2)] for _ in range(n)])
            got = outcome(solve_linear, m, rhs)
            if isinstance(got, tuple):
                singular += 1
                c = got[1]
                assert rank(F, [r[:c] for r in m.rows]) == c
                assert rank(F, [r[: c + 1] for r in m.rows]) == c
                assert outcome(invert, m) == got
            else:
                assert matmul(F, m.rows, got.rows) == rhs.rows
                assert matmul(F, m.rows, invert(m).rows) == identity(f, n).rows
        assert singular >= 15

    @pytest.mark.parametrize("q", [9, 16, 5, 251, 4, 64, 289, 512])
    def test_select_independent_rows_matches_raw_values(self, q):
        # the greedy choice: row i is picked iff it raises the oracle rank
        f = make_field(q)
        F = oracle_of(f)
        rng = random.Random(q * 11 + 3)
        for trial in range(40):
            cols = rng.randrange(1, 6)
            m = random_matrix(f, rng, cols + rng.randrange(0, 4), cols, dependent=trial % 2 == 0)
            rows = m.rows
            raising = [i for i in range(len(rows)) if rank(F, rows[: i + 1]) > rank(F, rows[:i])]
            for need in range(1, cols + 1):
                want = raising[:need] if len(raising) >= need else ("singular", need - 1)
                assert outcome(select_independent_rows, m, need) == want

    @pytest.mark.parametrize("q,kind", [(5, PrimeField), (251, PrimeField), (9, _SmallExtension),
                                        (64, _SmallExtension), (289, ExtensionField), (512, ExtensionField)],
                             ids=["5", "251", "9", "64", "289", "512"])
    def test_row_kernels_match_raw_values(self, q, kind):
        # scale, axpy (xs + c * ys), dot and entrywise of every field class,
        # on seeded rows with zero entries, and in a small extension also as
        # the first read of its tables
        f = make_field(q)
        assert type(f) is kind
        F = oracle_of(f)
        rng = random.Random(q * 13 + 5)

        def fresh():
            return ExtensionField(f.base, f.degree, f.modulus) if kind is _SmallExtension else f

        def codes(length):
            return [f.random(rng) if rng.random() < 0.7 else 0 for _ in range(length)]

        for length in (0, 1, 40):
            for _ in range(3):
                xs, ys = codes(length), codes(length)
                for c in (0, 1, q - 1, f.random(rng)):
                    assert fresh().scale(c, xs) == [F.mul(c, x) for x in xs]
                    # in place on the window of ys at start, the rest untouched
                    target = codes(length + 6)
                    for start in (0, 3, 6):
                        got = list(target)
                        assert fresh().axpy(c, got, ys, start) is None
                        want = list(target)
                        for k, y in enumerate(ys, start):
                            want[k] = F.add(want[k], F.mul(c, y))
                        assert got == want, (c, start)
                dot = 0
                for x, y in zip(xs, ys):
                    dot = F.add(dot, F.mul(x, y))
                assert fresh().dot(xs, ys) == dot
                assert fresh().entrywise(xs, ys) == [F.mul(x, y) for x, y in zip(xs, ys)]

    def test_raw_values_above_cap(self):
        f = make_field(257)
        rng = random.Random(257)
        m = random_matrix(f, rng, 4, 4, dependent=False)
        assert (m @ invert(m)) == identity(f, 4)
        with pytest.raises(SingularMatrixError):
            invert(random_matrix(f, rng, 4, 4, dependent=True))


def check_against_oracle(f, pairs):
    """add, sub, mul, neg and inv of f agree with the oracle on the pairs."""
    F = oracle_of(f)
    for a, b in pairs:
        assert f.add(a, b) == F.add(a, b), (f, a, b)
        assert F.add(f.sub(a, b), b) == a, (f, a, b)
        assert f.mul(a, b) == F.mul(a, b), (f, a, b)
        assert f.neg(a) == F.neg(a), (f, a)
        if a:
            assert F.mul(a, f.inv(a)) == 1, (f, a)


class TestExtensionAgainstOracle:
    @pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 64])
    def test_all_pairs_in_tables(self, q):
        f = make_field(q)
        check_against_oracle(f, itertools.product(range(q), repeat=2))

    @pytest.mark.parametrize(
        "make", [lambda: make_field(289), lambda: make_field(512), lambda: make_field(257**2),
                 lambda: ExtensionField(make_field(16), 3)],
        ids=["289", "512", "257^2", "16^3"],
    )
    def test_seeded_pairs_in_digits(self, make):
        f = make()
        assert f.order > CODE_TABLE_CAP
        rng = random.Random(f.order)
        pairs = [(f.random(rng), f.random(rng)) for _ in range(300)]
        check_against_oracle(f, pairs + [(0, b) for _, b in pairs[:5]] + [(1, 1), (f.order - 1, 2)])

    def test_random_draws_digits_low_first(self):
        # down to the prime field, whose digits are randrange draws
        def draw(f, rng):
            if isinstance(f, PrimeField):
                return rng.randrange(f.order)
            return sum(draw(f.base, rng) * f.base.order**i for i in range(f.degree))

        for f in (make_field(16), make_field(289), ExtensionField(make_field(16), 3)):
            draws, again = random.Random(5), random.Random(5)
            for _ in range(20):
                assert f.random(draws) == draw(f, again)

    def test_oracle_modulus_is_independent_of_the_library_field(self):
        # the oracle reads only the modulus: GF(4) on x^2 + x + 1 by hand
        F = ExtOracle(PrimeOracle(2), (1, 1, 1))
        assert [[F.mul(a, b) for b in range(4)] for a in range(4)] == [
            [0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2],
        ]



class TestFieldArithmetic:
    def test_f4_modulus_relation(self):
        f4 = make_field(4)
        assert f4.mul(2, 2) == 3  # t^2 = t + 1

    def test_f5_product(self):
        f5 = make_field(5)
        assert f5.mul(3, 4) == 2

    def test_f4_square_of_one_plus_t(self):
        f4 = make_field(4)
        assert f4.mul(3, 3) == 2

    def test_division_by_zero_is_distinct(self):
        f5 = make_field(5)
        with pytest.raises(ZeroDivisionError):
            f5.inv(0)
        f4 = make_field(4)
        with pytest.raises(ZeroDivisionError):
            f4.inv(0)

    @pytest.mark.parametrize("q", [2, 3, 5, 4, 8, 9, 25, 27])
    def test_axioms_on_random_triples(self, q):
        f = make_field(q)
        rng = random.Random(q * 1000 + 7)
        for _ in range(60):
            a, b, c = (f.random(rng) for _ in range(3))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            assert f.add(a, f.neg(a)) == 0
            if a != 0:
                assert f.mul(a, f.inv(a)) == 1

    def test_tower_over_extension_base(self):
        # GF(4^2) built directly over GF(4), one-step
        f4 = make_field(4)
        f16 = ExtensionField(f4, 2)
        rng = random.Random(99)
        for _ in range(40):
            a, b = f16.random(rng), f16.random(rng)
            assert f16.mul(a, b) == f16.mul(b, a)
            if a != 0:
                assert f16.mul(a, f16.inv(a)) == 1
        assert f16.order == 16 and f16.char == 2

    def test_code_round_trip_and_order(self):
        for q in (2, 4, 9, 25):
            f = make_field(q)
            assert f.order == q
            for k in range(f.order):
                if isinstance(f, ExtensionField):
                    assert f.from_digits(f.digits(k)) == k

    def test_prime_field_validation(self):
        with pytest.raises(ValueError):
            PrimeField(6)
        with pytest.raises(ValueError):
            PrimeField(1)
        with pytest.raises(ValueError):
            make_field(12)  # not a prime power

    def test_reducible_modulus_rejected(self):
        f2 = make_field(2)
        with pytest.raises(ValueError):
            ExtensionField(f2, 2, (1, 0, 1))  # u^2+1 = (u+1)^2
        with pytest.raises(ValueError):
            ExtensionField(f2, 2, (1, 1))  # wrong degree

    def test_irreducibility_checked_only_for_supplied_moduli(self, monkeypatch):
        # the canonical modulus comes from find_irreducible and is not re-proven
        import symrank.fields as fields_mod

        calls = []
        real = fields_mod.is_irreducible
        monkeypatch.setattr(fields_mod, "find_irreducible", lambda f, n: (1, 1, 0, 1))
        monkeypatch.setattr(
            fields_mod, "is_irreducible", lambda f, poly: calls.append(poly) or real(f, poly)
        )
        f2 = make_field(2)
        assert ExtensionField(f2, 3).modulus == (1, 1, 0, 1)
        assert calls == []
        ExtensionField(f2, 3, (1, 0, 1, 1))
        assert calls == [(1, 0, 1, 1)]


class TestLinearAlgebra:
    def test_identity_solve(self):
        f5 = make_field(5)
        rhs = Matrix(f5, [[1], [2], [3]])
        assert solve_linear(identity(f5, 3), rhs).rows == [[1], [2], [3]]

    def test_back_substitution_over_f2(self):
        f2 = make_field(2)
        m = Matrix(f2, [[1, 1], [0, 1]])
        sol = solve_linear(m, Matrix(f2, [[1], [1]]))
        assert sol.rows == [[0], [1]]

    def test_vandermonde_inverse_over_f5(self):
        f5 = make_field(5)
        nodes = [0, 1, 2]
        m = Matrix(f5, [[pow(a, j, 5) for j in range(3)] for a in nodes])
        inv = invert(m)
        assert (m @ inv).rows == identity(f5, 3).rows
        assert (inv @ m).rows == identity(f5, 3).rows

    @pytest.mark.parametrize("q", [2, 5, 9])
    def test_solve_round_trip_random(self, q):
        f = make_field(q)
        rng = random.Random(q + 31)
        done = 0
        while done < 20:
            n = rng.randrange(1, 6)
            m = Matrix(f, [[f.random(rng) for _ in range(n)] for _ in range(n)])
            v = [f.random(rng) for _ in range(n)]
            try:
                sol = solve_linear(m, Matrix(f, ([x] for x in m.matvec(v))))
            except SingularMatrixError:
                continue
            assert sol.rows == [[x] for x in v]
            done += 1

    def test_singular_reports_pivot_column(self):
        f2 = make_field(2)
        m = Matrix(f2, [[1, 1], [1, 1]])
        with pytest.raises(SingularMatrixError) as exc:
            invert(m)
        assert exc.value.pivot_col == 1

    def test_select_independent_rows(self):
        f5 = make_field(5)
        m = Matrix(f5, [[1, 2], [2, 4], [0, 1], [3, 3]])
        assert select_independent_rows(m, 2) == [0, 2]
        with pytest.raises(SingularMatrixError):
            select_independent_rows(Matrix(f5, [[1, 2], [2, 4]]), 2)


    @pytest.mark.parametrize("q", [5, 9, 289])
    def test_operations_leave_their_operands_unchanged(self, q):
        # rows are mutable lists and axpy writes in place: an operation that
        # eliminated on an operand's own rows would corrupt it, as it would
        # an algorithm's forms or recon
        f = make_field(q)
        rng = random.Random(q + 41)
        regular = Matrix(f, [[f.pow(a, j) for j in range(4)] for a in range(4)])
        singular = random_matrix(f, rng, 4, 4, dependent=True)
        rhs = random_matrix(f, rng, 4, 2, dependent=False)
        tall = random_matrix(f, rng, 6, 3, dependent=True)
        vec = [f.random(rng) for _ in range(4)]
        operands = (regular, singular, rhs, tall)
        before = [m.to_int_lists() for m in operands]
        for m in (regular, singular):
            outcome(invert, m)
            outcome(solve_linear, m, rhs)
            m @ rhs
            m.matvec(vec)
        for need in (1, 2, 3):
            outcome(select_independent_rows, tall, need)
        assert [m.to_int_lists() for m in operands] == before

        rows = [[1, 2], [3, 4]]
        m = Matrix(f, rows)
        rows[0][0] = 0
        rows.append([0, 0])
        assert m.rows == [[1, 2], [3, 4]]
        fresh = m.to_int_lists()
        fresh[1][1] = 0
        assert m.rows == [[1, 2], [3, 4]]
        with pytest.raises(ValueError, match="ragged rows"):
            Matrix(f, [[1, 2], [3]])


class TestPlaceCounts:
    def test_examples(self):
        assert count_places_rational_ff(2, 1) == 3
        assert count_places_rational_ff(2, 2) == 1
        assert count_places_rational_ff(5, 2) == 10

    @pytest.mark.parametrize("q,d", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (4, 2)])
    def test_against_enumeration(self, q, d):
        f = make_field(q)
        brute = sum(1 for poly in all_monic_polys(f, d) if brute_irreducible(f, poly))
        assert count_places_rational_ff(q, d) == brute

    def test_descent_identity_all_prime_powers_to_64(self):
        for q in range(2, 65):
            try:
                prime_power_split(q)
            except ValueError:
                continue
            assert count_places_rational_ff(q * q, 1) == count_places_rational_ff(
                q, 1
            ) + 2 * count_places_rational_ff(q, 2)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            count_places_rational_ff(6, 1)
        with pytest.raises(ValueError):
            count_places_rational_ff(5, 0)
