"""The bound pipeline's memoized layers (prime stepping, policy floors, curve
family data) answer exactly as they do afresh, keep rejecting bad input when
warm, and leave every traced name on the call path of a warm process."""

import contextlib
import inspect
import io

import pytest
from test_traced_names import REACHED, _load_tracer

from symrank import cli, curves, ntheory, primes
from symrank.primes import GapPolicy, PairFamily

CACHES = {
    "primes.prev_prime": primes.prev_prime,
    "primes.next_prime": primes.next_prime,
    "primes.policy_floor": primes.policy_floor,
    "curves.family_data": curves.family_data,
}

# the commands of test_traced_names_stay_on_the_call_path
TRACED_COMMANDS = (
    ("compare", "--p", "5", "--n", "100"),
    ("table", "--p-set", "5", "--n-range", "100:100", "--sieve-limit", "100000"),
    ("bound", "--p", "5", "--n", "100", "--method", "all"),
    ("mult", "--q", "4", "--n", "3", "--emit-tensor", "{tmp}/tensor.json"),
)


def _run(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def _clear_caches() -> None:
    for cache in CACHES.values():
        cache.cache_clear()


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--p-set", "5,101", "--n-range", "2:400:7", "--policy", "bhp", "--format", "json"),
        ("compare", "--p", "13", "--n", "22"),
        ("bound", "--p", "11", "--n", "810", "--method", "all"),
    ],
)
def test_cold_and_warm_replies_are_identical(argv):
    _clear_caches()
    cold = _run(argv)
    hits = {name: cache.cache_info().hits for name, cache in CACHES.items()}
    warm = _run(argv)
    assert cold[0] == 0
    assert warm == cold
    assert all(CACHES[name].cache_info().hits > hits[name] for name in hits)


@pytest.mark.parametrize("name", sorted(CACHES))
def test_caches_are_bounded(name):
    maxsize = CACHES[name].cache_info().maxsize
    assert isinstance(maxsize, int) and maxsize > 0


def test_warm_caches_still_reject_bad_input():
    # warm every cache on valid neighbours of the bad arguments below
    assert _run(("bound", "--p", "5", "--n", "100"))[0] == 0
    curves.family_data(5, 13)
    primes.select_pair(7, 100, PairFamily.QUADRATIC_GENERIC)
    primes.policy_floor(GapPolicy.dudek(), PairFamily.PRIME_GENERIC, 5)
    sizes = {name: cache.cache_info().currsize for name, cache in CACHES.items()}
    with pytest.raises(ValueError, match="level factor must be prime"):
        curves.family_data(5, 12)
    with pytest.raises(ValueError, match="p must be a prime >= 5"):
        curves.family_data(4, 13)
    with pytest.raises(ValueError, match="p must be a prime >= 5"):
        primes.select_pair(9, 100, PairFamily.QUADRATIC_GENERIC)
    with pytest.raises(ValueError, match="p must be a prime >= 5"):
        primes.policy_floor(GapPolicy.dudek(), PairFamily.PRIME_GENERIC, 4)
    code, out = _run(("bound", "--p", "9", "--n", "100"))
    assert code == 1 and "p must be a prime >= 5, got 9" in out
    assert {name: cache.cache_info().currsize for name, cache in CACHES.items()} == sizes


def test_boundary_checks_are_not_memoized():
    # a memoized check would let a warm process skip the primality test of p
    for fn in (primes.check_characteristic, ntheory.is_prime):
        assert inspect.isfunction(fn), fn


def test_traced_names_stay_on_the_warm_call_path(tmp_path):
    commands = [tuple(arg.format(tmp=tmp_path) for arg in argv) for argv in TRACED_COMMANDS]
    for argv in commands:
        assert _run(argv)[0] == 0, argv
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        for argv in commands:
            assert _run(argv)[0] == 0, argv
    finally:
        tracer.uninstall()
    assert sorted(name for name in REACHED if not tracer.stats[name].calls) == []
