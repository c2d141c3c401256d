"""Exact rational matrix model of quasi-unipotent monodromy operators.

Provides unipotence and quasi-unipotence tests, the trace criterion
(a quasi-unipotent matrix is unipotent iff its trace equals the
dimension), the multiplicative Jordan-Chevalley decomposition by Newton
iteration, terminating log/exp on unipotent/nilpotent matrices, and the
resulting finite-order-plus-nilpotent pair r * exp(tau * N).

Everything is over exact rationals; equality checks are exact, there are
no tolerances anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .errors import (
    InvariantViolationError,
    NotNilpotentError,
    NotUnipotentError,
    PreconditionViolatedError,
    SingularInputError,
    ZeroTauError,
)
from .numtheory import factorize, phi_inverse_set


@dataclass(frozen=True)
class RationalMatrix:
    """Square matrix with exact rational entries."""

    rows: Tuple[Tuple[Fraction, ...], ...]

    def __post_init__(self):
        d = len(self.rows)
        if d < 1 or any(len(row) != d for row in self.rows):
            raise ValueError("matrix must be square and nonempty")

    @classmethod
    def from_rows(cls, rows) -> "RationalMatrix":
        return cls(tuple(tuple(Fraction(x) for x in row) for row in rows))

    @classmethod
    def identity(cls, d: int) -> "RationalMatrix":
        return cls.from_rows([[1 if i == j else 0 for j in range(d)]
                              for i in range(d)])

    @classmethod
    def zeros(cls, d: int) -> "RationalMatrix":
        return cls.from_rows([[0] * d for _ in range(d)])

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        return RationalMatrix(tuple(
            tuple(a + b for a, b in zip(r1, r2))
            for r1, r2 in zip(self.rows, other.rows)))

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return RationalMatrix(tuple(
            tuple(a - b for a, b in zip(r1, r2))
            for r1, r2 in zip(self.rows, other.rows)))

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        d = self.dim
        cols = tuple(zip(*other.rows))
        return RationalMatrix(tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
            for row in self.rows))

    def scale(self, factor) -> "RationalMatrix":
        factor = Fraction(factor)
        return RationalMatrix(tuple(tuple(factor * a for a in row)
                                    for row in self.rows))

    def power(self, e: int) -> "RationalMatrix":
        if e < 0:
            return self.inverse().power(-e)
        result = RationalMatrix.identity(self.dim)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def trace(self) -> Fraction:
        return sum(self.rows[i][i] for i in range(self.dim))

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.rows for a in row)

    def is_identity(self) -> bool:
        return self == RationalMatrix.identity(self.dim)

    def inverse(self) -> "RationalMatrix":
        """Gauss-Jordan inverse; raises SingularInputError when det = 0."""
        d = self.dim
        aug = [list(row) + [Fraction(int(i == j)) for j in range(d)]
               for i, row in enumerate(self.rows)]
        for col in range(d):
            pivot = next((r for r in range(col, d) if aug[r][col] != 0), None)
            if pivot is None:
                raise SingularInputError("matrix is singular")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            pv = aug[col][col]
            aug[col] = [a / pv for a in aug[col]]
            for r in range(d):
                if r != col and aug[r][col] != 0:
                    f = aug[r][col]
                    aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
        return RationalMatrix(tuple(tuple(row[d:]) for row in aug))

    def char_poly(self) -> List[Fraction]:
        """Characteristic polynomial, low-to-high coefficients, monic of degree d.

        Faddeev-LeVerrier recursion, exact over the rationals.
        """
        d = self.dim
        coeffs_high = [Fraction(1)]  # x^d downwards
        Mk = RationalMatrix.zeros(d)
        ident = RationalMatrix.identity(d)
        for k in range(1, d + 1):
            Mk = self * (Mk + ident.scale(coeffs_high[-1])) if k > 1 else self
            ck = -Mk.trace() / k
            coeffs_high.append(ck)
        return list(reversed(coeffs_high))

    def det(self) -> Fraction:
        p0 = self.char_poly()[0]
        return p0 if self.dim % 2 == 0 else -p0


# polynomial helpers over Fraction coefficients, low-to-high


def _poly_trim(p: List[Fraction]) -> List[Fraction]:
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def _poly_deriv(p: List[Fraction]) -> List[Fraction]:
    return _poly_trim([k * c for k, c in enumerate(p)][1:] or [Fraction(0)])


def _poly_divmod(a: List[Fraction], b: List[Fraction]):
    a = list(a)
    b = _poly_trim(list(b))
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(c != 0 for c in a):
        a = _poly_trim(a)
        if len(a) < len(b):
            break
        shift = len(a) - len(b)
        f = a[-1] / b[-1]
        q[shift] = f
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a = a[:-1]
    return _poly_trim(q), _poly_trim(a or [Fraction(0)])


def _poly_gcd(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b != [Fraction(0)]:
        _, r = _poly_divmod(a, b)
        a, b = b, r if r else [Fraction(0)]
    return [c / a[-1] for c in a]  # monic


def _squarefree_part(p: List[Fraction]) -> List[Fraction]:
    g = _poly_gcd(p, _poly_deriv(p))
    q, r = _poly_divmod(p, g)
    if r != [Fraction(0)]:
        raise InvariantViolationError("gcd(p, p') does not divide p")
    return [c / q[-1] for c in q]


def _poly_eval_matrix(p: List[Fraction], M: RationalMatrix) -> RationalMatrix:
    result = RationalMatrix.zeros(M.dim)
    ident = RationalMatrix.identity(M.dim)
    for c in reversed(p):
        result = result * M + ident.scale(c)
    return result


def is_unipotent(M: RationalMatrix) -> bool:
    """(M - I)^d = 0, checked exactly."""
    return (M - RationalMatrix.identity(M.dim)).power(M.dim).is_zero()


def jordan_chevalley(M: RationalMatrix) -> Tuple[RationalMatrix, RationalMatrix]:
    """Multiplicative decomposition M = S * U = U * S.

    S is semisimple (annihilated by the squarefree part of the
    characteristic polynomial), U is unipotent, and both are polynomials
    in M.  S is found by Newton iteration on the squarefree part g:
    convergence is quadratic and g(M) is nilpotent, so the iterate count
    is bounded by the dimension.
    """
    char = M.char_poly()
    if char[0] == 0:
        raise SingularInputError("matrix is singular")
    g = _squarefree_part(char)
    g_prime = _poly_deriv(g)
    S = M
    for _ in range(M.dim + 1):
        gS = _poly_eval_matrix(g, S)
        if gS.is_zero():
            break
        S = S - _poly_eval_matrix(g_prime, S).inverse() * gS
    else:
        raise InvariantViolationError(
            "Newton iteration exceeded its convergence bound")
    U = S.inverse() * M
    return S, U


def _finite_order_exponent(d: int) -> int:
    # any eigenvalue of a rational matrix of size d that is a root of
    # unity has order i with phi(i) <= d
    return math.lcm(*phi_inverse_set(d))


def is_quasi_unipotent(M: RationalMatrix) -> bool:
    """True iff every eigenvalue of M is a root of unity.

    Equivalent to the semisimple part having finite order; over the
    rationals that order must divide lcm{i : phi(i) <= d}.
    """
    S, _ = jordan_chevalley(M)
    return S.power(_finite_order_exponent(M.dim)).is_identity()


def semisimple_order(M: RationalMatrix) -> int:
    """Multiplicative order of the semisimple part of a quasi-unipotent matrix."""
    S, _ = jordan_chevalley(M)
    m = _finite_order_exponent(M.dim)
    if not S.power(m).is_identity():
        raise PreconditionViolatedError("matrix is not quasi-unipotent")
    order = m
    for q in factorize(m):
        while order % q == 0 and S.power(order // q).is_identity():
            order //= q
    return order


def trace_criterion(M: RationalMatrix) -> bool:
    """Trace equals dimension; inside the quasi-unipotent world this is
    equivalent to unipotence (a sum of d roots of unity equals d only
    when all of them are 1)."""
    if not is_quasi_unipotent(M):
        raise PreconditionViolatedError(
            "trace criterion is only valid for quasi-unipotent matrices")
    return M.trace() == M.dim


def nilpotent_log(U: RationalMatrix) -> RationalMatrix:
    """Terminating Mercator series log(U) for unipotent U."""
    d = U.dim
    X = U - RationalMatrix.identity(d)
    if not X.power(d).is_zero():
        raise NotUnipotentError("matrix is not unipotent")
    result = RationalMatrix.zeros(d)
    term = RationalMatrix.identity(d)
    for k in range(1, d):
        term = term * X
        result = result + term.scale(Fraction((-1) ** (k + 1), k))
    return result


def nilpotent_exp(N: RationalMatrix) -> RationalMatrix:
    """Terminating exponential series for nilpotent N."""
    d = N.dim
    if not N.power(d).is_zero():
        raise NotNilpotentError("matrix is not nilpotent")
    result = RationalMatrix.identity(d)
    term = RationalMatrix.identity(d)
    for k in range(1, d):
        term = (term * N).scale(Fraction(1, k))
        result = result + term
    return result


@dataclass(frozen=True)
class WDPair:
    """Finite-order part r, commuting nilpotent N, and the scale tau,
    with r * exp(tau * N) reproducing the decomposed matrix."""

    r: RationalMatrix
    n: RationalMatrix
    tau: Fraction


def wd_pair(M: RationalMatrix, tau) -> WDPair:
    """Split a quasi-unipotent M as r * exp(tau * N).

    r is the semisimple (finite-order) part, N = log(U)/tau for the
    unipotent part U; the reconstruction identity holds exactly and is
    checked before returning.
    """
    tau = Fraction(tau)
    if tau == 0:
        raise ZeroTauError("tau must be nonzero")
    S, U = jordan_chevalley(M)
    if not S.power(_finite_order_exponent(M.dim)).is_identity():
        raise PreconditionViolatedError(
            "matrix is not quasi-unipotent; no finite-order part exists")
    N = nilpotent_log(U).scale(1 / tau)
    pair = WDPair(r=S, n=N, tau=tau)
    if S * nilpotent_exp(N.scale(tau)) != M:
        raise InvariantViolationError("r * exp(tau * N) does not reproduce M")
    return pair
