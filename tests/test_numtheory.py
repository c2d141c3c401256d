import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monobound import numtheory
from monobound.errors import UndecidedCofactorError, ValidationError
from monobound.numtheory import (
    FactoredInt,
    factorize,
    is_prime,
    phi_inverse_set,
    primes,
    valuation,
)


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


def test_digit_count_is_exact():
    # 10^k itself, its neighbours and 2^k sit on or next to a digit boundary
    cases = [{2: k, 5: k} for k in (0, 1, 2, 17, 300, 4000, 9000)]
    cases += [{2: k} for k in (1, 3, 4, 10, 332, 333, 20000)]
    cases += [factorize(10 ** k + s) for k in range(1, 20) for s in (-1, 1)]
    cases += [{2: 3600 + 1770, 3: 5, 7: 2}, {3: 5000, 11: 77, 2 ** 61 - 1: 3}]
    for factors in cases:
        f = FactoredInt.from_dict(factors)
        v, digits = f.value(), f.digit_count()
        assert 10 ** (digits - 1) <= v < 10 ** digits, factors


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
    with pytest.raises(ValueError):
        factorize(0)


def test_factored_int_examples():
    assert FactoredInt.from_dict(factorize(48)).as_dict() == {2: 4, 3: 1}
    assert FactoredInt.from_dict(factorize(1)).value() == 1


def test_factored_int_rejects_bad_factors():
    with pytest.raises(ValueError):
        FactoredInt(((4, 1),))  # 4 is not prime
    with pytest.raises(ValueError):
        FactoredInt(((2, 0),))  # zero exponent
    with pytest.raises(ValueError):
        FactoredInt(((3, 1), (2, 1)))  # unsorted


@given(st.integers(min_value=1, max_value=5_000),
       st.integers(min_value=1, max_value=5_000))
@settings(max_examples=50)
def test_factored_mul(a, b):
    prod = FactoredInt.from_dict(factorize(a)) * FactoredInt.from_dict(factorize(b))
    assert prod.value() == a * b


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
    with pytest.raises(ValueError):
        valuation(0, 2)
    with pytest.raises(ValueError):
        valuation(10, 4)


def test_primes_increasing():
    gen = primes()
    first = [next(gen) for _ in range(100)]
    assert first[:10] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert all(a < b for a, b in zip(first, first[1:]))
    assert all(is_prime(p) for p in first)
