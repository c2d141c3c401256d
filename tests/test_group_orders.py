import math
from itertools import permutations, product

import pytest

from monobound.errors import UndecidedCofactorError, ValidationError
from monobound.group_orders import c_ell_d, c_ell_d_int, order_gl_fq, order_gl_z4

# independent oracle: count invertible matrices by full enumeration; a
# matrix over Z/m is invertible iff its determinant is a unit mod m


def leibniz_det(rows):
    d = len(rows)
    total = 0
    for perm in permutations(range(d)):
        sign = 1
        for i in range(d):
            for j in range(i + 1, d):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(d):
            term *= rows[i][perm[i]]
        total += term
    return total


def count_invertible(modulus, d):
    count = 0
    for entries in product(range(modulus), repeat=d * d):
        rows = [entries[i * d:(i + 1) * d] for i in range(d)]
        if math.gcd(leibniz_det(rows) % modulus, modulus) == 1:
            count += 1
    return count


@pytest.mark.parametrize("ell,d", [
    (2, 1), (2, 2), (2, 3), (2, 4),
    (3, 1), (3, 2), (3, 3),
    (5, 1), (5, 2),
    (7, 1), (7, 2),
    (11, 1), (11, 2),
    (13, 1),
])
def test_order_gl_fq_brute_force(ell, d):
    assert ell ** (d * d) <= 10 ** 7
    expected = count_invertible(ell, d)
    assert order_gl_fq(ell, d).value() == expected
    if ell != 2:
        assert c_ell_d_int(ell, d) == expected


def test_order_gl_fq_known_values():
    assert order_gl_fq(3, 0).value() == 1
    assert order_gl_fq(3, 2).value() == 48
    assert order_gl_fq(2, 3).value() == 168


@pytest.mark.parametrize("d", [0, 1, 2])
def test_order_gl_z4_brute_force(d):
    expected = count_invertible(4, d) if d else 1
    assert c_ell_d_int(2, d) == expected
    assert order_gl_z4(d).value() == expected


def test_c_ell_d_dispatch():
    assert c_ell_d(2, 2).value() == 96
    assert c_ell_d(3, 2).value() == 48
    assert c_ell_d(5, 1).value() == 4
    assert c_ell_d(7, 0).value() == 1
    # every factor is a certified prime, so an equal value pins the
    # factorization, and a wrong weight floor(d/k) of Phi_k(ell) shows
    first_undecided = {11: 29, 13: 23}  # 11^29 - 1, 13^23 - 1: a prime >= 2^64
    for ell in (2, 3, 5, 7, 11, 13):
        for d in range(0, 31):
            if d >= first_undecided.get(ell, 31):
                with pytest.raises(UndecidedCofactorError):
                    c_ell_d(ell, d)
            else:
                assert c_ell_d(ell, d).value() == c_ell_d_int(ell, d)


def test_c_ell_d_beyond_the_primality_range():
    # the first ell^i - 1 of each ell with a composite cofactor >= 2^64
    for ell, d in ((11, 23), (3, 46), (5, 37), (7, 29), (13, 19)):
        assert c_ell_d(ell, d).value() == c_ell_d_int(ell, d)
    # 5^43 - 1 and 13^23 - 1 have a prime factor >= 2^64
    for ell, d in ((5, 47), (13, 23)):
        with pytest.raises(UndecidedCofactorError,
                           match="deterministic primality range"):
            c_ell_d(ell, d)


def test_c_ell_d_rejects_composite():
    with pytest.raises(ValidationError):
        c_ell_d(4, 2)
    with pytest.raises(ValidationError):
        order_gl_fq(3, -1)


def test_minus_one_product_divisibility():
    # prod_{i<=d}(ell^i - 1) divides prod_{i<=d+1}(ell^i - 1)
    for ell in (2, 3, 5, 7):
        for d in range(0, 8):
            small = math.prod(ell ** i - 1 for i in range(1, d + 1))
            big = math.prod(ell ** i - 1 for i in range(1, d + 2))
            assert big % max(small, 1) == 0

