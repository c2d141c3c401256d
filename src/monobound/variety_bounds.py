"""Bounds attached to the numerical invariants of a polarized variety.

Inputs are the half Betti vector (b_1, ..., b_n) and the hyperplane
Euler characteristics (c_1, ..., c_{n-1}) of a smooth projective
geometrically connected variety of dimension n.  From these the derived
vector of middle Betti numbers of iterated hyperplane sections is
computed, the product bound over its entries, and the invariant
transport to a hyperplane section (which leaves the first n-1 derived
entries untouched).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ._record import Record
from .compat_bounds import DEFAULT_SCAN_DEPTH, ScanCertificate, c_ds
from .errors import (DimensionTooSmallError, NegativeBettiError, NonGeometricInvariantsError,
                     ValidationError, int_text)
from .numtheory import FactoredInt


class VarietyInvariants(Record):
    """Dimension n, Betti vector b (indices 1..n), section characteristics c (1..n-1).

    b_0 = 1 is implicit throughout (geometric connectedness); the Betti
    numbers above degree n follow by Poincare duality b_{2n-i} = b_i.
    """

    n: int
    b: Tuple[int, ...]
    c: Tuple[int, ...]

    def _check(self):
        if self.n < 1:
            raise ValidationError(f"dimension must be >= 1, got {int_text(self.n)}")
        if len(self.b) != self.n:
            raise ValidationError(
                f"expected {int_text(self.n)} Betti entries, got {len(self.b)}")
        if len(self.c) != self.n - 1:
            raise ValidationError(
                f"expected {self.n - 1} section characteristics, got {len(self.c)}")
        for i, bi in enumerate(self.b, start=1):
            if bi < 0:
                raise ValidationError(f"b_{i} = {int_text(bi)} is negative")


class DVector(Record):
    """Derived middle Betti numbers of the iterated section chain, indices 1..n."""

    entries: Tuple[int, ...]


class BoundReport(Record):
    """Factored index bound with its per-section breakdown."""

    d_vector: DVector
    factors: Tuple[FactoredInt, ...]
    product: FactoredInt
    certificates: Tuple[ScanCertificate, ...]


def d_vector(inv: VarietyInvariants) -> DVector:
    """Middle Betti numbers d_j of the (n-j)-fold hyperplane sections.

    d_j = (-1)^j (c_{n-j} - 2 sum_{i=0}^{j-1} (-1)^i b_i) for j < n, with
    b_0 = 1, and d_n = b_n.  A negative entry is a hard validation error:
    for geometric input each entry is an actual Betti number.  Then the
    entries and b must pass `_refuse_non_geometric`.
    """
    full_b = (1,) + inv.b
    entries = []
    alternating = 0  # sum_{i=0}^{j-1} (-1)^i b_i
    for j in range(1, inv.n):
        alternating += (-1) ** (j - 1) * full_b[j - 1]
        d_j = (-1) ** j * (inv.c[inv.n - j - 1] - 2 * alternating)
        if d_j < 0:
            raise NegativeBettiError(j, d_j)
        entries.append(d_j)
    entries.append(inv.b[-1])
    _refuse_non_geometric(full_b, entries)
    return DVector(tuple(entries))


def _refuse_non_geometric(full_b: Tuple[int, ...], entries: List[int]) -> None:
    """NonGeometricInvariantsError at the first necessary condition that fails.

    For a smooth projective X of dimension n, in any characteristic, with
    b_0 = 1 and d_j the middle Betti number of a smooth j-dimensional
    iterated hyperplane section:
    1. b_i is even for odd i: Poincare duality and hard Lefschetz make
       x, y -> x y h^(n-i) a nondegenerate alternating form on H^i;
    2. b_(i-2) <= b_i for 2 <= i <= n: h maps H^(i-2) into H^i injectively
       (hard Lefschetz; Deligne, Weil II, Publ. Math. IHES 52, 1980);
    3. d_j is even for odd j: condition 1 on the section;
    4. d_j >= b_j for j < n: H^j(X) injects into H^j of the section (weak
       Lefschetz, from Artin vanishing; SGA 4, XIV).
    """
    n = len(entries)
    for i in range(1, n + 1, 2):
        if full_b[i] % 2:
            raise NonGeometricInvariantsError(
                f"b_{i} = {int_text(full_b[i])} is odd; odd-degree Betti numbers are even")
    for i in range(2, n + 1):
        if full_b[i - 2] > full_b[i]:
            raise NonGeometricInvariantsError(
                f"b_{i - 2} = {int_text(full_b[i - 2])} > b_{i} = {int_text(full_b[i])}; "
                f"hard Lefschetz needs b_(i-2) <= b_i for 2 <= i <= n")
    for j in range(1, n + 1, 2):
        if entries[j - 1] % 2:
            raise NonGeometricInvariantsError(
                f"d_{j} = {int_text(entries[j - 1])} is odd; a section's odd-degree "
                f"Betti numbers are even")
    for j in range(1, n):
        if entries[j - 1] < full_b[j]:
            raise NonGeometricInvariantsError(
                f"d_{j} = {int_text(entries[j - 1])} < b_{j} = {int_text(full_b[j])}; "
                f"weak Lefschetz needs d_j >= b_j for j < n")


def bound(inv: VarietyInvariants, p: int, h: Optional[int] = None,
          scan_depth: int = DEFAULT_SCAN_DEPTH) -> BoundReport:
    """Product of the certified gcd constants over the first h derived entries.

    One witness scan, for the largest entry, serves every entry (c_ds), so
    an entry past the prime table raises ValidationError before any scan.
    The product is built once, from one exponent table of every entry.
    """
    if h is None:
        h = inv.n
    if not 1 <= h <= inv.n:
        raise ValidationError(f"h must lie in 1..{inv.n}, got {int_text(h)}")
    dv = d_vector(inv)
    factors, certs = zip(*c_ds(dv.entries[:h], p, scan_depth))
    exponents = {}
    for f in factors:
        for q, e in f.factors:
            exponents[q] = exponents.get(q, 0) + e
    return BoundReport(d_vector=dv, factors=factors,
                       product=FactoredInt.from_dict(exponents), certificates=certs)


def descend(inv: VarietyInvariants) -> VarietyInvariants:
    """Invariants of a smooth hyperplane section.

    The section has dimension n-1, inherits b_i for i <= n-2 (weak
    Lefschetz plus duality), gets its middle Betti number from the
    derived vector, and a j-fold section of the section is a (j+1)-fold
    section of the variety, so the c vector simply shifts.
    """
    if inv.n < 2:
        raise DimensionTooSmallError(
            "cannot take a hyperplane section of a curve's invariants")
    dv = d_vector(inv)
    b_new = inv.b[: inv.n - 2] + (dv.entries[inv.n - 2],)
    return VarietyInvariants(n=inv.n - 1, b=b_new, c=inv.c[1:])
