import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monobound import compat_bounds
from monobound.chern_invariants import FamilySpec, invariants_of
from monobound.group_orders import c_ell_d
from monobound.errors import (
    DimensionTooSmallError,
    NegativeBettiError,
    NonGeometricInvariantsError,
    UnstableCertificateError,
    ValidationError,
)
from monobound.numtheory import SIEVE_LIMIT
from monobound.variety_bounds import (
    VarietyInvariants,
    bound,
    d_vector,
    descend,
)

P1 = VarietyInvariants(n=1, b=(0,), c=())
P2 = VarietyInvariants(n=2, b=(0, 1), c=(2,))
P3 = VarietyInvariants(n=3, b=(0, 1, 0), c=(3, 2))
K3_QUARTIC = VarietyInvariants(n=2, b=(0, 22), c=(-4,))
ELLIPTIC = VarietyInvariants(n=1, b=(2,), c=())


def projective_invariants(n):
    b = tuple(1 if i % 2 == 0 else 0 for i in range(1, n + 1))
    c = tuple(n + 1 - i for i in range(1, n))
    return VarietyInvariants(n=n, b=b, c=c)


def test_shape_validation():
    with pytest.raises(ValidationError):
        VarietyInvariants(n=2, b=(0,), c=(2,))
    with pytest.raises(ValidationError):
        VarietyInvariants(n=2, b=(0, 1), c=())
    with pytest.raises(ValidationError):
        VarietyInvariants(n=1, b=(-1,), c=())
    with pytest.raises(ValidationError):
        VarietyInvariants(n=0, b=(), c=())


def test_d_vector_examples():
    assert d_vector(P2).entries == (0, 1)
    assert d_vector(K3_QUARTIC).entries == (6, 22)
    assert d_vector(ELLIPTIC).entries == (2,)


def test_d_vector_independent_rederivation():
    # re-derive every entry from scratch against the module's output
    for inv in (P2, P3, K3_QUARTIC, projective_invariants(5)):
        full_b = (1,) + inv.b
        expected = []
        for j in range(1, inv.n):
            acc = sum((-1) ** i * full_b[i] for i in range(j))
            expected.append((-1) ** j * (inv.c[inv.n - j - 1] - 2 * acc))
        expected.append(inv.b[-1])
        assert d_vector(inv).entries == tuple(expected)


def test_negative_betti_rejected():
    # b_1 = 1 is odd too, but the negative entry is refused first
    bad = VarietyInvariants(n=2, b=(1, 1), c=(5,))
    with pytest.raises(NegativeBettiError) as info:
        d_vector(bad)
    assert info.value.index == 1
    assert info.value.value == -3


@pytest.mark.parametrize("b, c, message", [
    ((1, 22), (-4,), "b_1 = 1 is odd"),  # condition 1
    ((0, 0), (2,), "b_0 = 1 > b_2 = 0"),  # 2: no ample class
    ((0, 22), (-3,), "d_1 = 5 is odd"),  # 3
    ((2, 22), (2,), "d_1 = 0 < b_1 = 2"),  # 4
])
def test_non_geometric_invariants_rejected(b, c, message):
    inv = VarietyInvariants(n=2, b=b, c=c)
    for call in (d_vector, descend, lambda inv: bound(inv, 5)):
        with pytest.raises(NonGeometricInvariantsError, match=message):
            call(inv)


def test_every_built_family_passes_the_geometric_conditions():
    # P^1..P^8 and every complete intersection of one to three degrees
    # <= 6 with n <= 6: 506 families of actual smooth projective varieties
    specs = [FamilySpec("projective_space", n) for n in range(1, 9)]
    specs += [FamilySpec("complete_intersection", n, degrees) for n in range(1, 7)
              for k in (1, 2, 3)
              for degrees in itertools.combinations_with_replacement(range(1, 7), k)]
    assert len(specs) == 506
    for spec in specs:
        inv = invariants_of(spec)
        d_vector(inv)
        if inv.n > 1:
            descend(inv)


@st.composite
def geometric_invariants(draw):
    """Invariants built to meet the four conditions: b in steps of even
    size in odd degree, each d_j at least b_j and even for odd j, and c
    solved from d_j = (-1)^j (c_(n-j) - 2 sum_(i<j) (-1)^i b_i)."""
    n = draw(st.integers(1, 6))
    full_b = [1]
    for i in range(1, n + 1):
        step = draw(st.integers(0, 20)) * (2 if i % 2 else 1)
        full_b.append(step if i == 1 else full_b[i - 2] + step)
    c = [0] * (n - 1)
    for j in range(1, n):
        d_j = full_b[j] + draw(st.integers(0, 20)) * (2 if j % 2 else 1)
        c[n - j - 1] = (-1) ** j * d_j + 2 * sum((-1) ** i * full_b[i] for i in range(j))
    return VarietyInvariants(n=n, b=tuple(full_b[1:]), c=tuple(c))


@given(geometric_invariants())
@settings(max_examples=200, deadline=None)
def test_descent_of_geometric_invariants_stays_geometric(inv):
    d_vector(inv)
    while inv.n > 1:
        inv = descend(inv)
        d_vector(inv)


def test_descend_examples():
    assert descend(P2) == P1
    assert descend(K3_QUARTIC) == VarietyInvariants(n=1, b=(6,), c=())
    assert descend(P3) == P2
    with pytest.raises(DimensionTooSmallError):
        descend(P1)


def test_iterated_descent_of_projective_space():
    for n in range(2, 7):
        inv = projective_invariants(n)
        for k in range(n - 1, 0, -1):
            inv = descend(inv)
            assert inv == projective_invariants(k)


def test_descent_preserves_leading_d_entries():
    samples = [P2, P3, K3_QUARTIC] + [projective_invariants(n)
                                      for n in range(2, 7)]
    for inv in samples:
        if inv.n < 2:
            continue
        before = d_vector(inv).entries
        after = d_vector(descend(inv)).entries
        assert after == before[: inv.n - 1]


def test_bound_examples():
    rep = bound(P2, 5, 2)
    assert rep.product.value() == 2
    assert rep.d_vector.entries == (0, 1)
    assert [f.value() for f in rep.factors] == [1, 2]
    assert all(c.stable for c in rep.certificates)

    rep = bound(ELLIPTIC, 7, 1)
    assert rep.product.value() == 48

    # the product of the entries' values: d-vectors not increasing, of the
    # K3, and with two equal entries
    for c_1, entries in ((-30, (32, 22)), (-4, (6, 22)), (-20, (22, 22))):
        rep = bound(VarietyInvariants(n=2, b=(0, 22), c=(c_1,)), 5)
        assert rep.d_vector.entries == entries
        assert rep.product.value() == math.prod(f.value() for f in rep.factors)


def test_bound_of_zero_vector_is_identity():
    inv = VarietyInvariants(n=1, b=(0,), c=())
    assert bound(inv, 5, 1).product.value() == 1


def test_bound_divisibility_in_h():
    inv = projective_invariants(4)
    previous = bound(inv, 5, 1).product
    for h in range(2, 5):
        current = bound(inv, 5, h).product
        assert current.value() % previous.value() == 0
        previous = current


def test_bound_h_validation():
    with pytest.raises(ValidationError):
        bound(P2, 5, 3)
    with pytest.raises(ValidationError):
        bound(P2, 5, 0)


BIG = 10 ** 5000  # 16610 bits: str() refuses it under the default digit limit


@pytest.mark.parametrize("call, error", [
    (lambda: compat_bounds.c_d(-BIG), ValidationError),
    (lambda: compat_bounds.c_d(2, BIG), ValidationError),  # through is_prime
    (lambda: compat_bounds.c_d(2, 5, BIG), ValidationError),
    (lambda: compat_bounds.c_d(2, 5, -BIG), ValidationError),
    (lambda: compat_bounds.refined_bound(-BIG, 5), ValidationError),
    (lambda: c_ell_d(BIG, 2), ValidationError),
    (lambda: c_ell_d(3, -BIG), ValidationError),
    (lambda: FamilySpec("projective_space", BIG), ValidationError),
    (lambda: FamilySpec("projective_space", -BIG), ValidationError),
    (lambda: VarietyInvariants(n=2, b=(0, -BIG), c=(1,)), ValidationError),
    (lambda: d_vector(VarietyInvariants(n=2, b=(0, 0), c=(BIG,))), NegativeBettiError),
    (lambda: bound(P2, 5, BIG), ValidationError),
], ids=["c_d-d", "c_d-p", "c_d-depth", "c_d-negative-depth", "refined_bound-d",
        "c_ell_d-ell", "c_ell_d-d", "FamilySpec-n", "FamilySpec-negative-n",
        "VarietyInvariants-b", "d_vector-c", "bound-h"])
def test_oversize_ints_keep_their_typed_errors(call, error):
    # the message names the bit length in place of the digits
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert "<16610-bit integer>" in str(info.value)


def test_an_entry_past_the_prime_table_is_refused_before_any_scan(monkeypatch):
    # d-vector (6, SIEVE_LIMIT): with two scanned primes d_1 = 6 is
    # unstable, but d_2 is refused first, with no scan of d_1 (the n = 511
    # cubic's d_25 = 44 739 242 used to wait for 24 scans up to 22 369 623)
    inv = VarietyInvariants(n=2, b=(0, SIEVE_LIMIT), c=(-4,))
    with pytest.raises(UnstableCertificateError):
        bound(inv, 5, 1, scan_depth=2)
    assert bound(inv, 5, 1).d_vector.entries == (6, SIEVE_LIMIT)

    def no_scan(*args):
        raise AssertionError("the witness scan ran")
    monkeypatch.setattr(compat_bounds, "factorize", no_scan)
    for b_2 in (SIEVE_LIMIT - 1, 10 ** 5000):
        inv = VarietyInvariants(n=2, b=(0, b_2), c=(-4,))
        with pytest.raises(ValidationError, match="SIEVE_LIMIT"):
            bound(inv, 5, scan_depth=2)


def test_bound_scans_once_for_its_largest_entry(monkeypatch):
    # the quintic threefold, d-vector (12, 53, 204): one factorization of
    # q - 1 per odd q <= 205, where a scan per entry made 5 + 15 + 45
    quintic = invariants_of(FamilySpec("hypersurface", 3, (5,)))
    factorize, calls = compat_bounds.factorize, []

    def counting(n):
        calls.append(n)
        return factorize(n)
    monkeypatch.setattr(compat_bounds, "factorize", counting)
    rep = bound(quintic, 5)
    assert rep.d_vector.entries == (12, 53, 204)
    assert len(calls) == 45 and len(set(calls)) == 45
    # each entry lists the q = 2 pair and a prefix of that scan's odd
    # (q, witness) pairs, the very objects the largest entry lists, and
    # gets what c_d gives it alone
    last = rep.certificates[-1].witnesses
    for d_j, value, cert in zip(rep.d_vector.entries, rep.factors, rep.certificates):
        assert cert.witnesses[0][0] == 2
        odd = cert.witnesses[1:]
        assert [q for q, _ in odd] == [q for q, _ in last[1:] if q <= d_j + 1]
        assert all(pair is shared for pair, shared in zip(odd, last[1:]))
        assert (value, cert) == compat_bounds.c_d(d_j, 5)
