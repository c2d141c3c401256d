import math
from fractions import Fraction

import pytest

from monobound import chern_invariants
from monobound.chern_invariants import (
    FamilySpec,
    MAX_AMBIENT_DIM,
    MAX_DEGREE,
    betti_vector,
    chern_total_dual_cotangent,
    complete_intersection,
    euler_characteristic,
    hypersurface,
    invariants_of,
    projective_space,
    section_of,
)
from monobound.errors import InvariantViolationError, ValidationError
from monobound.variety_bounds import VarietyInvariants, descend


def all_test_families():
    specs = [projective_space(n) for n in range(1, 7)]
    specs += [hypersurface(n, delta)
              for n in range(1, 5) for delta in range(1, 7)]
    specs += [complete_intersection(n, (d1, d2))
              for n in range(1, 4)
              for d1 in range(1, 5) for d2 in range(d1, 5)]
    return specs


def chi_by_betti(spec):
    """Euler characteristic re-assembled from the Betti vector and duality."""
    b = (1,) + betti_vector(spec)
    full = b + tuple(b[spec.n - k] for k in range(1, spec.n + 1))
    return sum((-1) ** i * bi for i, bi in enumerate(full))


def rational_chern_series(spec):
    """(1+h)^(N+1) times the geometric series 1/(1 + delta*h) = sum (-delta*h)^k
    of each degree, multiplied out over Fraction and truncated at h^n."""
    n = spec.n
    series = [Fraction(math.comb(spec.ambient_dim + 1, k)) for k in range(n + 1)]
    for delta in spec.degrees:
        inverse = [Fraction(-delta) ** k for k in range(n + 1)]
        series = [sum(series[i] * inverse[k - i] for i in range(k + 1))
                  for k in range(n + 1)]
    return series


def test_family_validation():
    with pytest.raises(ValidationError):
        FamilySpec("projective_space", 2, (3,))
    with pytest.raises(ValidationError):
        FamilySpec("hypersurface", 2, ())
    with pytest.raises(ValidationError):
        FamilySpec("hypersurface", 2, (0,))
    with pytest.raises(ValidationError):
        FamilySpec("blowup", 2, ())
    with pytest.raises(ValidationError):
        projective_space(0)


def test_tangent_chern_series_examples():
    assert chern_total_dual_cotangent(projective_space(2)) == (1, 3, 3)
    assert chern_total_dual_cotangent(hypersurface(2, 4)) == (1, 0, 6)
    assert chern_total_dual_cotangent(hypersurface(2, 2)) == (1, 2, 2)


def test_tangent_chern_series_matches_rational_oracle():
    # the in-place integer division against multiplying out the rational
    # geometric series, up to the octic sixfold and degree-8 hypersurfaces
    specs = all_test_families()
    specs += [hypersurface(n, delta) for n in range(5, 8) for delta in range(1, 9)]
    specs += [complete_intersection(n, degrees) for n in range(1, 6)
              for degrees in ((2, 2, 2), (2, 2, 3), (2, 3, 4))]
    for spec in specs:
        series = chern_total_dual_cotangent(spec)
        assert all(type(c) is int for c in series)
        assert list(series) == rational_chern_series(spec)


def test_c_invariant_projective_space():
    for n in range(2, 7):
        spec = projective_space(n)
        for i in range(1, n):
            assert invariants_of(spec).c[i - 1] == n + 1 - i


def test_c_invariant_surfaces():
    assert invariants_of(hypersurface(2, 4)).c[0] == -4
    assert invariants_of(hypersurface(2, 2)).c[0] == 2


def test_c_invariant_plane_curve_genus_oracle():
    # a hyperplane section of a degree-delta surface in P^3 is a smooth
    # plane curve of degree delta: chi = 2 - (delta-1)(delta-2)
    for delta in range(1, 7):
        expected = 2 - (delta - 1) * (delta - 2)
        assert invariants_of(hypersurface(2, delta)).c[0] == expected


def test_c_vector_matches_rational_oracle():
    # c_i = deg * [h^(n-i)] c(T_X) * (1+h)^(-i), with the tangent series and
    # (1+h)^(-i) = sum C(-i, k) h^k multiplied out over Fraction, no _divide
    specs = [projective_space(n) for n in range(1, 41)]
    specs += [hypersurface(n, delta) for n in range(1, 41) for delta in range(1, 7)]
    specs += [complete_intersection(n, degrees) for n in range(1, 41)
              for degrees in ((2, 3), (2, 2, 2))]
    for spec in specs:
        n, tangent = spec.n, rational_chern_series(spec)
        expected = []
        for i in range(1, n):
            inverse = [Fraction((-1) ** k * math.comb(i + k - 1, k))
                       for k in range(n - i + 1)]
            top = sum(tangent[k] * inverse[n - i - k] for k in range(n - i + 1))
            expected.append(spec.degree * top)
        assert list(invariants_of(spec).c) == expected


def test_invariants_of_divides_one_series(monkeypatch):
    # one series per family: the equations' divisions, once for the series
    # and once for the Euler characteristic, then one division per c_i
    calls = []
    divide = chern_invariants._divide

    def counted(series, delta):
        calls.append(delta)
        divide(series, delta)

    monkeypatch.setattr(chern_invariants, "_divide", counted)
    spec = hypersurface(40, 3)
    invariants_of(spec)
    assert len(calls) <= 2 * len(spec.degrees) + spec.n - 1


def test_family_caps():
    assert projective_space(MAX_AMBIENT_DIM).ambient_dim == 512
    assert complete_intersection(MAX_AMBIENT_DIM - 2, (2, 3)).ambient_dim == 512
    hypersurface(3, MAX_DEGREE)
    for make in (lambda: projective_space(MAX_AMBIENT_DIM + 1),
                 lambda: hypersurface(MAX_AMBIENT_DIM, 3),
                 lambda: complete_intersection(3, (2,) * MAX_AMBIENT_DIM),
                 lambda: projective_space(10 ** 9)):
        with pytest.raises(ValidationError, match="ambient dimension"):
            make()
    with pytest.raises(ValidationError, match="degrees must lie in"):
        hypersurface(3, 2 ** 64)


def test_betti_vector_examples():
    assert betti_vector(projective_space(3)) == (0, 1, 0)
    assert betti_vector(hypersurface(2, 4)) == (0, 22)
    assert betti_vector(hypersurface(2, 3)) == (0, 7)


def test_negative_middle_betti_is_an_invariant_violation(monkeypatch):
    # a surface with chi = -10 would have b_2 = chi - 2 = -12; the check is
    # a raised error, so it also holds under python -O
    monkeypatch.setattr(chern_invariants, "euler_characteristic", lambda spec: -10)
    with pytest.raises(InvariantViolationError, match="-12"):
        betti_vector(hypersurface(2, 4))


def test_k3_golden_values():
    spec = hypersurface(2, 4)
    assert euler_characteristic(spec) == 24
    assert invariants_of(spec) == VarietyInvariants(n=2, b=(0, 22), c=(-4,))


def test_hypersurface_euler_characteristic_formula():
    # chi of a smooth surface of degree delta in P^3: delta(delta^2 - 4delta + 6)
    for delta in range(1, 9):
        assert euler_characteristic(hypersurface(2, delta)) == \
            delta * (delta ** 2 - 4 * delta + 6)


def test_duality_reproduces_chi():
    for spec in all_test_families():
        assert chi_by_betti(spec) == euler_characteristic(spec)


def test_invariants_of_examples():
    assert invariants_of(projective_space(2)) == \
        VarietyInvariants(n=2, b=(0, 1), c=(2,))
    assert invariants_of(projective_space(1)) == \
        VarietyInvariants(n=1, b=(0,), c=())


def test_section_of_families():
    assert section_of(projective_space(4)) == projective_space(3)
    assert section_of(hypersurface(3, 4)) == hypersurface(2, 4)
    assert section_of(complete_intersection(2, (2, 3))) == \
        complete_intersection(1, (2, 3))
    with pytest.raises(ValidationError):
        section_of(projective_space(1))


def test_two_path_consistency():
    # the series formula for c_i against the Euler characteristic of the
    # independently constructed i-fold section family
    for spec in all_test_families():
        section = spec
        for i in range(1, spec.n):
            section = section_of(section)
            assert invariants_of(spec).c[i - 1] == euler_characteristic(section)


def test_descend_matches_section_family():
    for spec in all_test_families():
        if spec.n < 2:
            continue
        assert descend(invariants_of(spec)) == invariants_of(section_of(spec))
