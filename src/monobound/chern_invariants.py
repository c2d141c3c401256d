"""Exact Chern-class calculus for concrete polarized families.

The supported families (projective spaces, smooth hypersurfaces, smooth
complete intersections) all have cohomology generated in low degrees by
the restricted hyperplane class h, so total Chern classes live in the
truncated polynomial ring Z[h]/(h^{n+1}) where n = dim X.  The
pushforward to a point evaluates the degree-n coefficient against the
fundamental class: h^n integrates to deg(X).

The total Chern class is (1+h)^{N+1} divided by one factor 1 + delta*h
per equation.  Each factor has constant term 1, so every division is
exact over Z and all arithmetic stays on integers.  The section Euler
characteristics c_1..c_{n-1} are read off that same series, divided by
1 + h once more per i.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from ._record import Record
from .errors import InvariantViolationError, ValidationError, int_text
from .variety_bounds import VarietyInvariants


PROJECTIVE_SPACE = "projective_space"
HYPERSURFACE = "hypersurface"
COMPLETE_INTERSECTION = "complete_intersection"

# Caps on family input (N = n + len(degrees)), checked before any series
# work: the series has n + 1 entries of up to about N * 64 bits, so one
# answer stays near a second and a few MB.  The paper's families have N <= 10.
MAX_AMBIENT_DIM = 512
MAX_DEGREE = 2**64 - 1


class FamilySpec(Record):
    """A polarized family member: dimension n plus ambient multidegree.

    degrees is empty for projective space, one entry for a hypersurface
    in P^{n+1}, and one entry per equation for a complete intersection in
    P^{n+r}.  Smoothness of a generic member is assumed.  The
    polarization is always O(1) restricted to the variety.
    """

    kind: str
    n: int
    degrees: Tuple[int, ...] = ()

    def _check(self):
        # ints, not bools or floats, so that every answer stays exact
        if (type(self.kind) is not str or type(self.n) is not int
                or type(self.degrees) is not tuple
                or not all(type(x) is int for x in self.degrees)):
            raise ValidationError("a family needs a str kind, an int n and a tuple of int degrees")
        if self.n < 1:
            raise ValidationError(f"dimension must be >= 1, got {int_text(self.n)}")
        if self.kind == PROJECTIVE_SPACE:
            if self.degrees:
                raise ValidationError("projective space takes no degrees")
        elif self.kind == HYPERSURFACE:
            if len(self.degrees) != 1:
                raise ValidationError("a hypersurface has exactly one degree")
        elif self.kind == COMPLETE_INTERSECTION:
            if not self.degrees:
                raise ValidationError("a complete intersection needs degrees")
        else:
            raise ValidationError(f"unknown family kind {self.kind!r}")
        if self.ambient_dim > MAX_AMBIENT_DIM:
            raise ValidationError(f"ambient dimension {int_text(self.ambient_dim)} exceeds "
                                  f"MAX_AMBIENT_DIM = {MAX_AMBIENT_DIM}")
        if any(not 1 <= delta <= MAX_DEGREE for delta in self.degrees):
            raise ValidationError(f"all degrees must lie in 1..{MAX_DEGREE}")

    @property
    def ambient_dim(self) -> int:
        return self.n + len(self.degrees)

    @property
    def degree(self) -> int:
        """Degree in the ambient projective space: product of the multidegree."""
        return math.prod(self.degrees) if self.degrees else 1


def projective_space(n: int) -> FamilySpec:
    return FamilySpec(PROJECTIVE_SPACE, n)


def hypersurface(n: int, delta: int) -> FamilySpec:
    return FamilySpec(HYPERSURFACE, n, (delta,))


def complete_intersection(n: int, degrees) -> FamilySpec:
    return FamilySpec(COMPLETE_INTERSECTION, n, tuple(degrees))


def section_of(spec: FamilySpec) -> FamilySpec:
    """The hyperplane-section family: same equations, one dimension lower."""
    if spec.n < 2:
        raise ValidationError("sections of curves leave the supported families")
    return FamilySpec(spec.kind, spec.n - 1, spec.degrees)


def _divide(series: List[int], delta: int) -> None:
    """Divide a truncated series in h by 1 + delta*h, in place.

    Exact over Z, since the divisor has constant term 1.
    """
    for k in range(1, len(series)):
        series[k] -= delta * series[k - 1]


def chern_total_dual_cotangent(spec: FamilySpec) -> Tuple[int, ...]:
    """Total Chern class of the tangent sheaf: its coefficients [h^k], k = 0..n.

    From the Euler sequence and adjunction: (1+h)^{N+1} / prod(1 + delta*h)
    for a complete intersection of multidegree (delta_j) in P^N, truncated
    at dim X.
    """
    series = [math.comb(spec.ambient_dim + 1, k) for k in range(spec.n + 1)]
    for delta in spec.degrees:
        _divide(series, delta)
    return tuple(series)


def euler_characteristic(spec: FamilySpec) -> int:
    """Topological Euler characteristic: the top tangent Chern number."""
    return spec.degree * chern_total_dual_cotangent(spec)[spec.n]


def betti_vector(spec: FamilySpec) -> Tuple[int, ...]:
    """Betti numbers b_1..b_n of the family member.

    Below the middle degree the cohomology agrees with projective space
    (weak Lefschetz), above it by duality; the middle number is recovered
    from the Euler characteristic.
    """
    chi = euler_characteristic(spec)
    n = spec.n
    # alternating sum over all degrees except the middle, b_i = 1 for even i
    off_middle = sum(1 for i in range(0, 2 * n + 1) if i % 2 == 0 and i != n)
    b_middle = (-1) ** n * (chi - off_middle)
    if b_middle < 0:
        raise InvariantViolationError(
            f"middle Betti number came out negative: {int_text(b_middle)}")
    return tuple((1 if i % 2 == 0 else 0) if i < n else b_middle
                 for i in range(1, n + 1))


def invariants_of(spec: FamilySpec) -> VarietyInvariants:
    """Bundle the Betti and section-characteristic vectors into bound input.

    c_i (i = 1..n-1) is the pushforward of c(T_X) * c(L)^{-i} * c_1(L)^i.
    Multiplying by h^i shifts degrees, so it is deg(X) times the
    degree-(n-i) coefficient of c(T_X) * (1+h)^{-i}: the series after its
    i-th division by 1 + h.
    """
    series = list(chern_total_dual_cotangent(spec))
    c = []
    for i in range(1, spec.n):
        _divide(series, 1)
        c.append(spec.degree * series[spec.n - i])
    return VarietyInvariants(n=spec.n, b=betti_vector(spec), c=tuple(c))
