import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest

from monobound import numtheory
from monobound.errors import UndecidedCofactorError, ValidationError
from monobound.numtheory import (
    FactoredInt,
    factorize,
    is_prime,
    phi_inverse_set,
    primes_upto,
    valuation,
)


def trial_division_is_prime(n):
    return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))


@pytest.fixture
def small_table(monkeypatch):
    """Start from an empty prime table; the module's own table comes back
    after the test."""
    monkeypatch.setattr(numtheory, "_table_now", bytearray())


def brute_phi(i):
    return sum(1 for k in range(1, i + 1) if math.gcd(k, i) == 1)


def totient_sieve(limit):
    """phi(i) for 0 <= i <= limit, by the usual multiplicative sieve."""
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    return phi


def test_is_prime_small():
    sieve = [True] * 200
    sieve[0] = sieve[1] = False
    for p in range(2, 200):
        if sieve[p]:
            for m in range(p * p, 200, p):
                sieve[m] = False
    assert [n for n in range(200) if is_prime(n)] == \
           [n for n in range(200) if sieve[n]]


def test_is_prime_rejects_huge():
    # out of the domain: a ValidationError, which the CLI reports as such
    for n in (2 ** 64, -3):
        with pytest.raises(ValidationError):
            is_prime(n)


def test_factorize_round_trip():
    for n in range(1, 10_001):
        f = factorize(n)
        assert math.prod(p ** e for p, e in f.items()) == n
        assert all(is_prime(p) for p in f)


def test_factorize_splits_composites_beyond_the_primality_range():
    # 11^23 - 1 = 2 * 5 * 829 * 28878847 * 3740221981231: its cofactor
    # after trial division is a composite >= 2^64
    n = 11 ** 23 - 1
    assert factorize(n) == {2: 1, 5: 1, 829: 1, 28878847: 1, 3740221981231: 1}
    p, q = 2 ** 61 - 1, 2 ** 31 - 1
    assert p * q >= 2 ** 64
    assert factorize(3 * p * q) == {3: 1, q: 1, p: 1}
    # a perfect square is split at its root: rho would need about
    # sqrt(p) steps to split p^2
    r = 1000003
    assert factorize(p ** 2 * q * r ** 2) == {p: 2, q: 1, r: 2}
    assert factorize(p ** 4) == {p: 4}


def test_factorize_refuses_undecided_cofactors(monkeypatch):
    message = "exceeds the deterministic primality range"
    # a probable prime >= 2^64 is never reported as prime
    with pytest.raises(UndecidedCofactorError, match=message):
        factorize(2 ** 89 - 1)
    # a composite that rho cannot split within the cap is refused too
    p, q = 2 ** 61 - 1, 2 ** 31 - 1
    monkeypatch.setattr(numtheory, "RHO_MAX_STEPS", 1)
    with pytest.raises(UndecidedCofactorError, match=message):
        factorize(p * q)


def test_factorize_rejects_zero():
    with pytest.raises(ValidationError):
        factorize(0)


def test_factored_int_examples():
    assert dict(FactoredInt.from_dict(factorize(48)).factors) == {2: 4, 3: 1}
    assert FactoredInt.from_dict(factorize(1)).value() == 1


def test_factored_int_rejects_bad_factors():
    with pytest.raises(ValidationError):
        FactoredInt(((4, 1),))  # 4 is not prime
    with pytest.raises(ValidationError):
        FactoredInt(((2, 0),))  # zero exponent
    with pytest.raises(ValidationError):
        FactoredInt(((3, 1), (2, 1)))  # unsorted


def test_totient_sieve_matches_gcd_count():
    sieve = totient_sieve(5000)
    for i in list(range(1, 200)) + [720, 1024, 2310, 4999, 5000]:
        assert sieve[i] == brute_phi(i)


def test_phi_inverse_set_examples():
    assert phi_inverse_set(1) == [1, 2]
    assert phi_inverse_set(2) == [1, 2, 3, 4, 6]
    s = phi_inverse_set(4)
    assert 12 in s and 13 not in s


def test_phi_inverse_set_matches_sieve():
    # every i <= 2 * 300^2 with phi(i) <= d; phi(i) >= sqrt(i/2) puts all
    # answers for d <= 300 inside the sieve
    limit = 2 * 300 * 300
    phi = totient_sieve(limit)
    by_phi = {}
    for i in range(1, limit + 1):
        if phi[i] <= 300:
            by_phi.setdefault(phi[i], []).append(i)
    expected = []
    for d in range(1, 301):
        expected = sorted(expected + by_phi.get(d, []))
        assert phi_inverse_set(d) == expected


def test_phi_inverse_set_enumeration_bound():
    # exactly the i <= 2d^2 with phi(i) <= d, and nothing hides in (2d^2, 4d^2]
    phi = totient_sieve(4 * 20 * 20)
    for d in range(1, 21):
        expected = [i for i in range(1, 2 * d * d + 1) if phi[i] <= d]
        assert phi_inverse_set(d) == expected
        assert all(phi[i] > d for i in range(2 * d * d + 1, 4 * d * d + 1))


def test_valuation():
    assert valuation(48, 2) == 4
    assert valuation(48, 5) == 0
    assert valuation(96, 3) == 1
    assert FactoredInt.from_dict(factorize(96)).valuation(2) == 5
    with pytest.raises(ValidationError):
        valuation(0, 2)
    with pytest.raises(ValidationError):
        valuation(10, 4)


def test_primes_increasing():
    first = primes_upto(541)  # the 100th prime
    assert len(first) == 100
    assert first[:10] == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    assert all(a < b for a, b in zip(first, first[1:]))
    assert all(is_prime(p) for p in first)


def test_is_prime_matches_trial_division_across_the_lookup_boundary(small_table):
    # a table of 2^16 entries answers below 2^16; Miller-Rabin above
    numtheory._table((1 << 16) - 1)
    table = numtheory._table_now
    assert len(table) == 1 << 16
    assert all(is_prime(n) == trial_division_is_prime(n) for n in range(70_000))
    assert numtheory._table_now is table  # is_prime never grows the table


def test_primes_upto_answers_right_after_a_regrown_table(small_table):
    expected = [n for n in range(50_000) if trial_division_is_prime(n)][:5_000]
    numtheory._table(999)
    assert primes_upto(541) == tuple(expected[:100])
    old = numtheory._table_now
    numtheory._table(200_000)  # another caller regrows the table
    assert numtheory._table_now is not old and len(old) == 1000
    assert primes_upto(48_611) == tuple(expected)  # the 5000th prime


def test_threads_growing_the_table_each_see_the_right_primes(small_table):
    # more threads than cores, switching often, each growing the table
    # while the others read it
    expected = [n for n in range(40_000) if trial_division_is_prime(n)]
    numtheory._table(99)

    def work(i):
        limit = 3_000 + 4_000 * i
        read = primes_upto(limit)
        found = set(read)
        return list(read) == [p for p in expected if p <= limit] and \
            all(is_prime(n) == (n in found) for n in range(limit + 1))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            results = list(pool.map(work, range(8), timeout=60))
    finally:
        sys.setswitchinterval(old)
    assert results == [True] * 8


def test_table_grows_at_least_by_doubling(small_table):
    numtheory._table(999)
    assert len(numtheory._table(1000)) == 2000
    assert len(numtheory._table(5000)) == 5001
    assert primes_upto(30) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    assert primes_upto(1) == ()


def test_table_refuses_the_limit_before_allocating():
    table = numtheory._table_now
    tracemalloc.start()
    try:
        for n in (numtheory.SIEVE_LIMIT, 10 ** 12):
            with pytest.raises(ValidationError, match="SIEVE_LIMIT"):
                primes_upto(n)
            with pytest.raises(ValidationError, match="SIEVE_LIMIT"):
                phi_inverse_set(n - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert numtheory._table_now is table
