import functools
import itertools
import math
import random
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genmatrices import random_quasi_unipotent
from monobound.compat_bounds import (
    MAX_SCAN_DEPTH,
    ScanCertificate,
    c_d,
    c_ds,
    p_part_c_d,
    refined_bound,
)
from monobound import compat_bounds, numtheory
from monobound.errors import UnstableCertificateError, ValidationError
from monobound.group_orders import c_ell_d_int
from monobound.numtheory import SIEVE_LIMIT, primes_upto
from monobound.wd_matrix import RationalMatrix, semisimple_order


def minkowski_closed_form(d):
    """Independent closed form for the stabilized gcd.

    This is the classical Minkowski bound for finite subgroups of
    GL_d(Q): the 2-exponent comes from primes = 3 mod 8, the odd-q
    exponent from primitive roots mod q^2 (lifting the exponent).
    """
    if d == 0:
        return 1
    # minimum at ell = 3 mod 8: v2(ell^i - 1) is 1 for odd i and
    # 3 + v2(i/2) for even i
    value = 2 ** ((d + 1) // 2 + 3 * (d // 2) + valuation_factorial(d // 2, 2))
    q = 3
    while q - 1 <= d:
        k = d // (q - 1)
        value *= q ** (k + valuation_factorial(k, q))
        q += 2
        while not all(q % r for r in range(2, int(q ** 0.5) + 1)):
            q += 2
    return value


def valuation_factorial(k, q):
    # Legendre's formula
    v, power = 0, q
    while power <= k:
        v += k // power
        power *= q
    return v


@functools.lru_cache(maxsize=None)
def scanned_primes(p, count):
    """The first count primes other than p, the scan list of c_d, by trial
    division, apart from the prime table that c_d reads."""
    return tuple(itertools.islice(
        (n for n in itertools.count(2)
         if n != p and all(n % k for k in range(2, math.isqrt(n) + 1))), count))


def primes_by_sieve(n):
    """The primes <= n, from a sieve of Eratosthenes of its own."""
    flags = [r >= 2 for r in range(n + 1)]
    for r in range(2, math.isqrt(n) + 1):
        if flags[r]:
            flags[r * r::r] = [False] * len(range(r * r, n + 1, r))
    return [r for r, flag in enumerate(flags) if flag]


def prime_divisors(n):
    """The distinct primes dividing n >= 1, by trial division."""
    found, r = [], 2
    while r * r <= n:
        if n % r == 0:
            found.append(r)
            while n % r == 0:
                n //= r
        r += 1
    return found + [n] if n > 1 else found


@functools.lru_cache(maxsize=None)
def generates_units_mod_q2(ell, q):
    """ell is a primitive root mod q^2: its order is q (q - 1), as no
    ell^(q (q - 1) / r) is 1 mod q^2 for a prime r dividing q (q - 1)."""
    order = q * (q - 1)
    return ell % q != 0 and all(pow(ell, order // r, q * q) != 1
                                for r in prime_divisors(order))


def certificate_faults(cert, factors, only=None):
    """How a stable certificate in CLI JSON, and the "factors" it
    certifies, differ from their definitions ([] when they do not): its
    candidates are the primes <= d + 1; each odd q's witness is the first
    of the first primes_scanned primes other than p that is a primitive
    root mod q^2; that scan covers the odd classes mod 8; and the exponent
    of odd q is Minkowski's k + v_q(k!) with k = floor(d / (q - 1)).  With
    `only`, the factors are the part at that prime alone (a wild part)."""
    d, depth = cert["d"], cert["primes_scanned"]
    scan = scanned_primes(cert["excluded_p"], depth)
    candidates = primes_by_sieve(d + 1)
    witnesses = {int(q): ell for q, ell in cert["witnesses"].items()}
    faults = []
    if cert["candidate_primes"] != candidates:
        faults.append("candidate_primes are not the primes <= d + 1")
    if sorted(witnesses) != candidates:
        faults.append("witnesses are not one per candidate")
    if d and not {1, 3, 5, 7} <= {ell % 8 for ell in scan}:
        faults.append("the scan misses an odd class mod 8")
    if d and witnesses.get(2) not in scan:
        faults.append("the q = 2 witness is not scanned")
    for q in candidates[1:]:
        first = next((ell for ell in scan if generates_units_mod_q2(ell, q)), None)
        if witnesses.get(q) != first:
            faults.append(f"witness of {q} is {witnesses.get(q)}, not {first}")
        k = d // (q - 1)
        if only in (None, q) and factors.get(str(q)) != k + valuation_factorial(k, q):
            faults.append(f"exponent of {q} is {factors.get(str(q))}")
    return faults


def test_c_d_trivial_dimension():
    value, cert = c_d(0, 5)
    assert value.value() == 1
    assert cert.stable


def test_c_d_known_values():
    value, cert = c_d(1, 7)
    assert value.value() == 2 and cert.stable
    value, cert = c_d(2, 7)
    assert value.value() == 48 and cert.stable
    value, cert = c_d(2, 7, scan_depth=1000)
    assert value.value() == 48


def test_c_d_matches_closed_form():
    for p in (None, 2, 3, 5, 7, 11):
        for d in range(0, 81):
            value, cert = c_d(d, p)
            assert cert.stable
            assert value.value() == minkowski_closed_form(d)
    # the quintic threefold and sextic fourfold entries
    for d in (204, 520, 2606):
        value, cert = c_d(d, 5)
        assert cert.stable
        assert value.value() == minkowski_closed_form(d)


def test_scan_monotone_and_stable_across_depths():
    for d in range(0, 7):
        for depth_small, depth_big in [(100, 1000)]:
            small, cert_small = c_d(d, 5, depth_small)
            big, cert_big = c_d(d, 5, depth_big)
            assert small.value() % big.value() == 0  # gcd can only shrink
            assert small.factors == big.factors  # stabilized already
            assert cert_small.stable and cert_big.stable


def q_valuation(n, q):
    v = 0
    while n % q == 0:
        n //= q
        v += 1
    return v


def smooth_part(n, bound):
    """The part of n >= 1 made of the primes <= bound."""
    out = 1
    for q in range(2, bound + 1):
        while n % q == 0:
            n //= q
            out *= q
    return out


def certifiable(d, scan):
    """Brute force: the scan covers the odd residues mod 8 and holds a
    primitive root mod q^2 for every odd prime q <= d + 1."""
    odd_qs = [q for q in range(3, d + 2) if all(q % r for r in range(2, q))]
    return d == 0 or ({1, 3, 5, 7} <= {ell % 8 for ell in scan}
                      and all(any(is_primitive_root_mod_q2(ell, q) for ell in scan)
                              for q in odd_qs))


def test_c_d_divides_every_scanned_term():
    # the gcd of the expanded orders is the oracle for the witness
    # exponents and the 2-adic LTE valuation; a scan that cannot certify
    # raises instead of answering
    for p in (None, 2, 3, 5, 7, 11):
        for depth in (2, 3, 5, 7, 100):
            scan = scanned_primes(p, depth)
            for d in range(0, 13):
                if not certifiable(d, scan):
                    with pytest.raises(UnstableCertificateError) as info:
                        c_d(d, p, depth)
                    assert not info.value.certificate.stable
                    continue
                value, cert = c_d(d, p, depth)
                assert cert.stable
                v = value.value()
                g = 0
                for ell in scan:
                    order = c_ell_d_int(ell, d)
                    assert order % v == 0
                    g = math.gcd(g, order)
                assert v == smooth_part(g, d + 1)


def is_primitive_root_mod_q2(ell, q):
    """Brute force: the order of ell mod q^2 is phi(q^2) = q (q - 1)."""
    x, order = ell % (q * q), 1
    if x % q == 0:
        return False
    while x != 1:
        x = x * ell % (q * q)
        order += 1
    return order == q * (q - 1)


def test_stable_witnesses_are_primitive_roots_attaining_the_minimum():
    # the theorem behind the certificate, checked on the scanned orders:
    # a primitive root mod q^2 attains the minimal q-valuation
    for p in (None, 5):
        scan = scanned_primes(p, 100)
        for d in range(1, 61):
            value, cert = c_d(d, p)
            assert cert.stable
            orders = {ell: c_ell_d_int(ell, d) for ell in scan}
            g = math.gcd(*orders.values())
            for q, witness in cert.witnesses:
                v_min = q_valuation(g, q)  # the minimum over the scan
                assert orders[witness] % q ** v_min == 0
                assert orders[witness] % q ** (v_min + 1) != 0
                assert value.valuation(q) == v_min
                if q > 2:
                    assert is_primitive_root_mod_q2(witness, q)


def test_c_d_independent_of_excluded_p_beyond_five():
    for d in range(1, 5):
        reference, _ = c_d(d, 5)
        for p in (7, 11, 13):
            value, _ = c_d(d, p)
            assert value.factors == reference.factors


def test_certificate_contents():
    value, cert = c_d(2, 7)
    assert isinstance(cert, ScanCertificate)
    # each candidate once, in increasing order, with its witness
    assert [q for q, _ in cert.witnesses] == [2, 3]
    assert None not in dict(cert.witnesses).values()
    # every candidate divides the gcd of the first two scanned values
    ell1, ell2 = scanned_primes(7, 2)
    g2 = math.gcd(c_ell_d_int(ell1, 2), c_ell_d_int(ell2, 2))
    assert all(g2 % q == 0 for q, _ in cert.witnesses)


def test_scan_skips_the_excluded_prime():
    # 2 is a primitive root mod 9 and mod 25, so a scan that kept p = 2
    # would name it as the witness of q = 3 and q = 5
    for p in (2, 3, 5, 7):
        for d in range(1, 12):
            _, cert = c_d(d, p)
            assert p not in dict(cert.witnesses).values()
    assert dict(c_d(4, 2)[1].witnesses)[3] == 5


def unstable_certificate(d, p, scan_depth):
    """The certificate that c_d raises with for a scan it cannot certify."""
    with pytest.raises(UnstableCertificateError) as info:
        c_d(d, p, scan_depth)
    assert not info.value.certificate.stable
    return info.value.certificate


def test_unstable_scan_is_reported_not_hidden():
    # two scanned primes cannot cover the residue classes mod 8
    cert = unstable_certificate(2, 7, 2)
    assert [q for q, _ in cert.witnesses] == [2, 3]
    for f in (p_part_c_d, refined_bound):
        with pytest.raises(UnstableCertificateError):
            f(2, 7, scan_depth=2)
    # candidates are the primes <= d + 1 even when the short scan's gcd
    # has more prime factors (here 23, which divides 2^11 - 1 and 3^11 - 1)
    cert = unstable_certificate(11, None, 2)
    assert [q for q, _ in cert.witnesses] == [2, 3, 5, 7, 11]
    # 2, ..., 17 cover the odd residues mod 8 but hold no primitive root
    # mod 191 (the least is 19): q = 191 alone is listed with no witness
    cert = unstable_certificate(190, None, 7)
    assert cert.witnesses[-1] == (191, None)
    assert [q for q, _ in cert.witnesses] == list(primes_upto(191))
    assert all(is_primitive_root_mod_q2(ell, q)
               for q, ell in cert.witnesses[1:-1])


@given(st.lists(st.integers(min_value=0, max_value=210), min_size=1, max_size=6),
       st.sampled_from([None, 2, 3, 5]))
@example([53, 0, 12, 204, 12, 1], 5)  # 0, a duplicate and unsorted order
@settings(max_examples=40, deadline=None)
def test_c_ds_reads_each_d_as_c_d_alone(ds, p):
    assert c_ds(ds, p) == tuple(c_d(d, p) for d in ds)


def test_c_ds_raises_at_the_first_unstable_d_with_its_c_d_certificate():
    # two scanned primes miss residue classes mod 8: every d > 0 is unstable
    with pytest.raises(UnstableCertificateError) as info:
        c_ds((0, 6, 2), 7, scan_depth=2)
    assert info.value.certificate == unstable_certificate(6, 7, 2)
    # 2, ..., 17 hold no primitive root mod 191: d = 12 is stable, 190 and
    # 204 are not, and the first of them in ds is the one reported
    assert c_ds((12,), None, 7) == (c_d(12, None, 7),)
    for ds, first in (((12, 190, 204), 190), ((204, 12, 190), 204)):
        with pytest.raises(UnstableCertificateError) as info:
            c_ds(ds, None, 7)
        assert info.value.certificate == unstable_certificate(first, None, 7)


def test_witness_is_a_primitive_root_mod_q_squared():
    # 11 is a primitive root mod 71 but 11^70 = 1 mod 71^2, so once p = 7
    # is out of the scan the witness of q = 71 is 13, not 11
    assert is_primitive_root_mod_q2(13, 71) and not is_primitive_root_mod_q2(11, 71)
    value, cert = c_d(70, 7)
    assert dict(cert.witnesses)[71] == 13
    assert value.valuation(71) == 1


def test_scan_depth_validation():
    with pytest.raises(ValidationError):
        c_d(2, 7, scan_depth=1)
    with pytest.raises(ValidationError):
        c_d(2, 6)
    with pytest.raises(ValidationError):
        c_d(-1, 7)


def test_p_part_examples():
    assert p_part_c_d(2, 5).value() == 1
    assert p_part_c_d(2, 3).value() == 3
    assert p_part_c_d(2, 2).value() == 16


def test_p_part_triviality_threshold():
    for p in (5, 7, 11, 13):
        assert p_part_c_d(2, p).value() == 1


def test_refined_bound_examples():
    rb = refined_bound(1, 5)
    assert rb.tame_set == (1, 2)
    assert rb.tame_max == 2
    assert rb.wild_part.value() == 1

    rb = refined_bound(2, 7)
    assert rb.tame_max == 6
    assert rb.tame_lcm == 12
    assert rb.wild_part.value() == 1

    rb = refined_bound(2, 3)
    assert rb.tame_max == 6
    assert rb.wild_part.value() == 3


def _totient(n):
    result, m, r = n, n, 2
    while r * r <= m:
        if m % r == 0:
            result -= result // r
            while m % r == 0:
                m //= r
        r += 1
    return result - result // m if m > 1 else result


def test_tame_lcm_is_the_lcm_of_the_tame_set():
    # the tame sets grow with d, so one pass over the set at d = 3000 in
    # order of phi gives lcm(phi_inverse_set(d)) for every d <= 3000
    top = 3000
    by_phi = sorted((_totient(i), i) for i in numtheory.phi_inverse_set(top))
    lcm, k = 1, 0
    for d in range(1, top + 1):
        while k < len(by_phi) and by_phi[k][0] <= d:
            lcm, k = math.lcm(lcm, by_phi[k][1]), k + 1
        assert compat_bounds._tame_lcm(d) == lcm, d
        if d <= 30 or d % 499 == 0:
            assert refined_bound(d, 5).tame_lcm == lcm == math.lcm(
                *numtheory.phi_inverse_set(d)), d
    # from prime powers, refined_bound answers d = 10^5 in well under a
    # second; an lcm over its tame set of 194 429 entries took about 10 s
    # on a 2-vCPU VM
    start = time.perf_counter()
    refined_bound(100_000, 5)
    assert time.perf_counter() - start < 5.0


# diag(C(Phi_5), C(Phi_6)): eigenvalues of orders 5 and 6, so the matrix
# has order 30 in GL_6(Z)
ORDER_30 = RationalMatrix.from_rows([
    [0, 0, 0, -1, 0, 0],
    [1, 0, 0, -1, 0, 0],
    [0, 1, 0, -1, 0, 0],
    [0, 0, 1, -1, 0, 0],
    [0, 0, 0, 0, 0, -1],
    [0, 0, 0, 0, 1, 1],
])


def test_tame_max_bounds_an_eigenvalue_order_and_tame_lcm_an_element_order():
    m = semisimple_order(ORDER_30)
    rb = refined_bound(6, 5)
    assert m == 30
    assert m not in rb.tame_set and m > rb.tame_max == 18
    assert rb.tame_lcm % m == 0


def test_the_order_of_a_finite_order_part_divides_tame_lcm_and_c_d():
    # <r> is a finite subgroup of GL_d(Z) up to conjugacy; it injects into
    # GL_d(F_ell) for odd ell and into GL_d(Z/4Z), so m divides their gcd
    rng = random.Random(31)
    matrices = [random_quasi_unipotent(rng, rng.randint(1, 8))[0] for _ in range(200)]
    bounds = {(d, p): (refined_bound(d, p).tame_lcm, c_d(d, p)[0].value())
              for d in range(1, 9) for p in (2, 3, 5, 7)}
    for M in matrices + [ORDER_30]:
        m = semisimple_order(M)
        for p in (2, 3, 5, 7):
            tame_lcm, c = bounds[M.dim, p]
            assert tame_lcm % m == 0 and c % m == 0, (M, p)


def test_refined_bound_validation():
    with pytest.raises(ValidationError):
        refined_bound(0, 5)


def test_p_none_scans_all_primes():
    value, cert = c_d(2, None)
    assert cert.excluded_p is None
    assert value.value() == 48


def test_c_d_refuses_d_at_the_prime_table_limit_before_allocating():
    # c_d needs the primes up to d + 1; the table stops below SIEVE_LIMIT
    table = numtheory._table_now
    tracemalloc.start()
    try:
        for d in (SIEVE_LIMIT - 1, 10 ** 12):
            with pytest.raises(ValidationError, match="SIEVE_LIMIT"):
                c_d(d, 5)
            with pytest.raises(ValidationError, match="SIEVE_LIMIT"):
                refined_bound(d, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert numtheory._table_now is table


def test_a_d_past_the_int_to_str_limit_is_refused_without_printing_it():
    # the refusal names SIEVE_LIMIT, not d + 1, which has 5001 digits here
    for f in (c_d, refined_bound):
        with pytest.raises(ValidationError, match="SIEVE_LIMIT"):
            f(10 ** 5000, 5)
    with pytest.raises(ValidationError, match="SIEVE_LIMIT"):
        c_ds((3, 10 ** 5000), 5)


def test_max_scan_depth_is_the_prime_table_less_one(monkeypatch):
    # the full table holds pi(SIEVE_LIMIT) primes; a scan that skips p
    # needs one more prime than its depth, and for n = depth + 1 c_d reads
    # the table up to n * n.bit_length(), past the n-th prime
    monkeypatch.setattr(numtheory, "_table_now", numtheory._table_now)  # restored after
    table = numtheory._table(SIEVE_LIMIT - 1)
    assert table.count(1) == MAX_SCAN_DEPTH + 1
    primes = itertools.compress(range(len(table)), table)
    assert all(q <= n * n.bit_length() for n, q in enumerate(primes, 1) if n >= 2)


def test_scan_depth_beyond_the_table_is_refused_before_scanning():
    table = numtheory._table_now
    tracemalloc.start()
    try:
        for depth in (MAX_SCAN_DEPTH + 1, 3_000_000, 10 ** 12):
            with pytest.raises(ValidationError, match="scan_depth must be <= 2063688"):
                c_d(2, 5, scan_depth=depth)
            with pytest.raises(ValidationError, match="scan_depth"):
                refined_bound(2, 5, scan_depth=depth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert numtheory._table_now is table
