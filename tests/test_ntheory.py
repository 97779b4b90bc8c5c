import pytest

from symrank.ntheory import (
    factorize,
    iroot,
    is_prime,
    mobius,
    PrimalityLimitError,
    prime_power_split,
)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
    for n in range(-5, 42):
        assert is_prime(n) == (n in primes)


def test_is_prime_against_sieve():
    flags = bytearray([1]) * 10000
    flags[0] = flags[1] = 0
    for i in range(2, 100):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    for n in range(10000):
        assert is_prime(n) == bool(flags[n])


def test_is_prime_large_known():
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2**61 + 1)
    assert is_prime(1_000_000_007)
    assert not is_prime(3_215_031_751)  # strong pseudoprime to bases 2,3,5,7
    # psi_12 = 399165290221 * 798330580441, a strong pseudoprime to bases 2..37
    assert is_prime(318665857834031151167461) is False


def test_factorize():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(1) == {}
    with pytest.raises(ValueError):
        factorize(0)


def test_mobius():
    assert [mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_prime_power_split():
    assert prime_power_split(8) == (2, 3)
    assert prime_power_split(7) == (7, 1)
    assert prime_power_split(121) == (11, 2)
    for bad in (1, 6, 12, 100):
        with pytest.raises(ValueError):
            prime_power_split(bad)


def test_iroot_is_the_floor_root():
    for n in [*range(200), 2**64 - 1, 2**64, 3**40 + 1, 10**30]:
        for k in range(1, 9):
            r = iroot(n, k)
            assert r**k <= n < (r + 1) ** k, (n, k)


def test_prime_power_split_by_roots_past_trial_division_range():
    # orders from 2**16 up are split by integer roots
    assert prime_power_split(65537) == (65537, 1)
    assert prime_power_split(2**16) == (2, 16)
    assert prime_power_split((2**31 - 1) ** 2) == (2**31 - 1, 2)
    assert prime_power_split(43**16) == (43, 16)
    assert prime_power_split((2**61 - 1) ** 3) == (2**61 - 1, 3)
    for bad in (6**20, 2**16 * 3, 10**24 + 1):
        with pytest.raises(ValueError, match="is not a prime power"):
            prime_power_split(bad)
    # above the primality test's limit, an order free of its bases 2..41
    # that is no exact power of a prime is refused by that test: a probable
    # prime, and a product of two primes
    for big in (3317044064679887385962123, (2**31 - 1) * (2**61 - 1)):
        with pytest.raises(PrimalityLimitError):
            prime_power_split(big)
