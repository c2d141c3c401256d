"""Exact rational matrix model of quasi-unipotent monodromy operators.

Provides unipotence and quasi-unipotence tests, the trace criterion
(a quasi-unipotent matrix is unipotent iff its trace equals the
dimension), the multiplicative Jordan-Chevalley decomposition of a
quasi-unipotent matrix, terminating log/exp on unipotent/nilpotent
matrices, and the resulting finite-order-plus-nilpotent pair
r * exp(tau * N).

Everything answers from one characteristic polynomial, computed by
Faddeev-LeVerrier on the integer matrix in d - 1 products (O(d^4)).  M
is quasi-unipotent exactly when that polynomial is a product of
cyclotomic polynomials Phi_i (each with phi(i) <= d), which is
integral, so the Phi_i are divided out over Z; the order m of the
semisimple part is the lcm of those i.  The split
itself is read from m: M^m is the m-th power of the unipotent part, so
L = log U = log(M^m) / m, and M^m costs O(log m) products by repeated
squaring.  log and exp share one terminating power series, and one list
of powers of L gives both exp(L) and exp(-L); `jordan_chevalley` and
`wd_pair` read the same split.  A matrix is one integer matrix over one
denominator, and every step works on those integers alone.

Everything is over exact rationals; equality checks are exact, there are
no tolerances anywhere.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ._record import Record
from .errors import (
    InvariantViolationError,
    NotNilpotentError,
    NotUnipotentError,
    PreconditionViolatedError,
    SingularInputError,
    ValidationError,
    ZeroTauError,
    int_text,
)
from .numtheory import phi_inverse_set

# Largest matrix the CLI reads: wd_pair takes about 3.6 s at d = 64 (2-vCPU VM),
# most of it in char_poly, so a larger payload is refused before any entry is read.
MAX_MATRIX_DIM = 64

def _exact(x) -> Fraction:
    """x as a Fraction when it is an int (not a bool) or a Fraction."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise ValidationError(f"need an int or a Fraction, got {x!r}")
    return Fraction(x)


class RationalMatrix(Record):
    """Square matrix with exact rational entries: integers num over one den."""

    num: Tuple[Tuple[int, ...], ...]
    den: int = 1

    def _check(self):
        num, den = self.num, self.den
        if not num or any(len(row) != len(num) for row in num):
            raise ValidationError("matrix must be square and nonempty")
        if (type(den) is not int or not den or type(num) is not tuple
                or not all(type(row) is tuple for row in num)
                or not all(type(x) is int for row in num for x in row)):
            raise ValidationError("matrix entries must be ints in tuple rows over a nonzero "
                                  "int denominator (from_rows takes lists and Fractions)")
        # lowest terms with den > 0, once, here: equal matrices are equal records
        g = math.gcd(den, *(x for row in num for x in row)) * (-1 if den < 0 else 1)
        if g != 1:
            object.__setattr__(self, "num",
                               tuple(tuple(x // g for x in row) for row in num))
            object.__setattr__(self, "den", den // g)

    @classmethod
    def from_rows(cls, rows) -> "RationalMatrix":
        # over the lcm of the reduced denominators, already in lowest terms
        rows = [[_exact(x) for x in row] for row in rows]
        den = math.lcm(*(x.denominator for row in rows for x in row))
        return cls(tuple(tuple(x.numerator * (den // x.denominator) for x in row)
                         for row in rows), den)

    @classmethod
    def identity(cls, d: int) -> "RationalMatrix":
        return cls(tuple(tuple(int(i == j) for j in range(d)) for i in range(d)))

    @property
    def rows(self) -> Tuple[Tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.num)

    @property
    def dim(self) -> int:
        return len(self.num)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return _combination(((1, self), (-1, other)))

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if other.dim != self.dim:
            raise _size_error(self, other)
        cols = list(zip(*other.num))
        return RationalMatrix(tuple(tuple(sum(map(operator.mul, row, col)) for col in cols)
                                    for row in self.num), self.den * other.den)

    def scale(self, factor) -> "RationalMatrix":
        return _combination(((_exact(factor), self),))

    def power(self, e: int) -> "RationalMatrix":
        if e < 0:
            raise ValidationError(f"power needs e >= 0, got {int_text(e)}")
        result = self if e else RationalMatrix.identity(self.dim)
        for bit in bin(e)[3:]:  # left to right after the leading 1: square, then times self
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def trace(self) -> Fraction:
        return Fraction(sum(self.num[i][i] for i in range(self.dim)), self.den)

    def is_zero(self) -> bool:
        return not any(x for row in self.num for x in row)

    def is_identity(self) -> bool:
        return self == RationalMatrix.identity(self.dim)

    def inverse(self) -> "RationalMatrix":
        """Inverse; raises SingularInputError when det = 0.

        Fraction-free Gauss-Jordan (Bareiss 1968) on [num | I]: divisions
        are exact, and with p the last pivot (+-det num) the left block
        ends as p * I and the right one as p * num^-1, so self^-1 is
        den / p times the right block.
        """
        d = self.dim
        aug = [[*a, *b] for a, b in zip(self.num, RationalMatrix.identity(d).num)]
        prev = 1
        for col in range(d):
            pivot = next((r for r in range(col, d) if aug[r][col] != 0), None)
            if pivot is None:
                raise SingularInputError("matrix is singular")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            top = aug[col]
            pv = top[col]
            for r in range(d):
                if r != col:
                    f = aug[r][col]
                    aug[r] = [(pv * a - f * b) // prev
                              for a, b in zip(aug[r], top)]
            prev = pv
        return RationalMatrix(tuple(tuple(row[d:]) for row in aug), prev).scale(self.den)

    def char_poly(self) -> List[Fraction]:
        """Characteristic polynomial, low-to-high coefficients, monic of degree d.

        Faddeev-LeVerrier on the integer matrix A = num: B_1 = A,
        a_(d-k) = -tr(B_k) / k and B_(k+1) = A (B_k + a_(d-k) I).  A's
        char poly is integral, so every division is exact, and
        M = A / den has coefficients a_k / den^(d-k).  d - 1 integer
        products, O(d^4) operations.
        """
        d = self.dim
        A = B = RationalMatrix(self.num)
        identity = RationalMatrix.identity(d)
        high = [1]  # a_d, a_(d-1), ..., a_0
        for k in range(1, d + 1):
            a, remainder = divmod(-sum(B.num[i][i] for i in range(d)), k)
            if remainder:
                raise InvariantViolationError(f"tr(B_{k}) is not divisible by {k}")
            high.append(a)
            if k < d:
                B = A * _combination(((1, B), (a, identity)))
        return [Fraction(a, self.den ** (d - k)) for k, a in enumerate(reversed(high))]


def _size_error(A: RationalMatrix, B: RationalMatrix) -> ValidationError:
    return ValidationError(f"matrix sizes differ: {A.dim}x{A.dim} and {B.dim}x{B.dim}")


def _combination(terms) -> RationalMatrix:
    """sum c * M over the (c, M) pairs, c an int or a Fraction: one integer
    dot product per entry over the lcm of the c.denominator * M.den.  The
    M must share one size; zip would silently truncate to the smallest."""
    terms = list(terms)
    first = terms[0][1]
    for _, M in terms:
        if M.dim != first.dim:
            raise _size_error(first, M)
    den = math.lcm(*(c.denominator * M.den for c, M in terms))
    factors = [c.numerator * (den // (c.denominator * M.den)) for c, M in terms]
    return RationalMatrix(tuple(
        tuple(sum(map(operator.mul, factors, entries)) for entries in zip(*rows))
        for rows in zip(*(M.num for _, M in terms))), den)


def is_unipotent(M: RationalMatrix) -> bool:
    """Char poly (x - 1)^d, so (M - I)^d = 0 by Cayley-Hamilton."""
    d = M.dim
    return M.char_poly() == [math.comb(d, k) * (-1) ** (d - k) for k in range(d + 1)]


def _monic_quotient(a: List[int], b: List[int]) -> Optional[List[int]]:
    """a / b over Z for monic b (low-to-high, len(b) <= len(a)), or None
    when b does not divide a."""
    a = list(a)
    k = len(b) - 1
    q = [0] * (len(a) - k)
    for shift in range(len(q) - 1, -1, -1):
        f = q[shift] = a[shift + k]
        for i, c in enumerate(b):
            a[shift + i] -= f * c
    return None if any(a[:k]) else q


def _cyclotomic(n: int, known: Dict[int, List[int]]) -> List[int]:
    """Phi_n from Phi_(n/p), p the least prime factor of n, found in `known`:
    Phi_n(x) = Phi_m(x^p) if p divides m = n/p, else Phi_m(x^p) / Phi_m(x)."""
    if n == 1:
        return [-1, 1]
    p = next(q for q in range(2, n + 1) if n % q == 0)
    m = n // p
    spread = [0] * (p * (len(known[m]) - 1) + 1)
    spread[::p] = known[m]
    return spread if m % p == 0 else _monic_quotient(spread, known[m])


def _finite_order(M: RationalMatrix) -> Optional[int]:
    """Common order of the eigenvalues of M if all are roots of unity, else
    None; a singular M raises SingularInputError.

    They are roots of unity exactly when the char poly is a product of
    cyclotomic polynomials Phi_i (Bradford & Davenport 1989), and then
    phi(i) <= deg char for each factor and the order is the lcm of those
    i.  Such a product of monic integer polynomials is integral, so a
    non-integer coefficient answers None at once; otherwise the Phi_i are
    divided out over Z in increasing i.
    """
    char = M.char_poly()
    if char[0] == 0:
        raise SingularInputError("matrix is singular")
    if any(c.denominator != 1 for c in char):
        return None
    rest = [c.numerator for c in char]
    known: Dict[int, List[int]] = {}
    order = 1
    for i in phi_inverse_set(len(rest) - 1):
        if len(rest) == 1:
            break
        phi_i = known[i] = _cyclotomic(i, known)
        while len(phi_i) <= len(rest):
            quotient = _monic_quotient(rest, phi_i)
            if quotient is None:
                break
            rest = quotient
            order = math.lcm(order, i)
    return order if len(rest) == 1 else None


def is_quasi_unipotent(M: RationalMatrix) -> bool:
    """True iff every eigenvalue of M is a root of unity.

    Read off the characteristic polynomial: it must be a product of
    cyclotomic polynomials.
    """
    return _finite_order(M) is not None


def semisimple_order(M: RationalMatrix) -> int:
    """Multiplicative order of the semisimple part of a quasi-unipotent matrix.

    S is diagonalizable with the eigenvalues of M, so its order is the
    lcm of the orders of those roots of unity.  A matrix that is not
    quasi-unipotent raises PreconditionViolatedError.
    """
    order = _finite_order(M)
    if order is None:
        raise PreconditionViolatedError(
            "matrix is not quasi-unipotent; no finite-order part exists")
    return order


def trace_criterion(M: RationalMatrix) -> bool:
    """Trace equals dimension; inside the quasi-unipotent world this is
    equivalent to unipotence (a sum of d roots of unity equals d only
    when all of them are 1).  Other matrices raise
    PreconditionViolatedError."""
    semisimple_order(M)  # refuses a matrix that is not quasi-unipotent
    return M.trace() == M.dim


def _series(X: RationalMatrix, error: Exception, *coeffs) -> List[RationalMatrix]:
    """[sum_k c(k) X^k for each coefficient function c] for nilpotent X.

    The powers I, X, X^2, ... are built once and shared by every sum.
    Nilpotence is the first zero power, or else X^d = 0 from one more
    product; `error` is raised when it fails.
    """
    powers = [RationalMatrix.identity(X.dim)]
    term = X
    while not term.is_zero():
        if len(powers) == X.dim:
            raise error
        powers.append(term)
        term = term * X
    return [_combination((c(k), P) for k, P in enumerate(powers)) for c in coeffs]


def _exp_coeff(k: int) -> Fraction:
    return Fraction(1, math.factorial(k))


def nilpotent_log(U: RationalMatrix) -> RationalMatrix:
    """Terminating Mercator series log(U) = sum (-1)^(k+1) X^k / k with
    X = U - I, for unipotent U; NotUnipotentError otherwise."""
    return _series(U - RationalMatrix.identity(U.dim),
                   NotUnipotentError("matrix is not unipotent"),
                   lambda k: Fraction((-1) ** (k + 1), k) if k else 0)[0]


def nilpotent_exp(N: RationalMatrix) -> RationalMatrix:
    """Terminating exponential series sum N^k / k! for nilpotent N;
    NotNilpotentError otherwise."""
    return _series(N, NotNilpotentError("matrix is not nilpotent"), _exp_coeff)[0]


def _split(M: RationalMatrix) -> Tuple[int, RationalMatrix, RationalMatrix, RationalMatrix]:
    """(m, L, S, U) for M = S * U = U * S, with m the order of S and L = log U.

    S is diagonalizable with roots of unity of common order m (read off
    the characteristic polynomial) as eigenvalues, so S^m = I, and since
    S and U commute, M^m = U^m.  Hence L = log(M^m) / m.  One list of
    powers of L gives both U = exp(L) and U^-1 = exp(-L), and
    S = M * exp(-L).
    """
    m = semisimple_order(M)
    L = nilpotent_log(M.power(m)).scale(Fraction(1, m))
    U, U_inverse = _series(L, NotNilpotentError("matrix is not nilpotent"),
                           _exp_coeff, lambda k: (-1) ** k * _exp_coeff(k))
    return m, L, M * U_inverse, U


def jordan_chevalley(M: RationalMatrix) -> Tuple[RationalMatrix, RationalMatrix]:
    """Multiplicative decomposition M = S * U = U * S of a quasi-unipotent M.

    S is semisimple of finite order and U unipotent: U = exp(L) and
    S = M * exp(-L) with L = log(M^m) / m, m the order of S.  Both are
    polynomials in M, so by uniqueness they are the Jordan-Chevalley
    parts.  Other matrices raise PreconditionViolatedError.
    """
    _, _, S, U = _split(M)
    return S, U


class WDPair(Record):
    """Finite-order part r, commuting nilpotent N, and the scale tau,
    with r * exp(tau * N) reproducing the decomposed matrix."""

    r: RationalMatrix
    n: RationalMatrix
    tau: Fraction


def wd_pair(M: RationalMatrix, tau) -> WDPair:
    """Split a quasi-unipotent M as r * exp(tau * N).

    r = M * exp(-L) is the semisimple (finite-order) part and N = L / tau,
    with L = log(M^m) / m the log of the unipotent part (m the order of
    r).  Both r^m = I, which a wrong L breaks, and the reconstruction
    identity hold exactly and are checked before returning.
    """
    tau = _exact(tau)
    if tau == 0:
        raise ZeroTauError("tau must be nonzero")
    m, L, r, U = _split(M)
    if not r.power(m).is_identity():
        raise InvariantViolationError("r^m is not the identity")
    if r * U != M:  # exp(tau * N) = exp(L) = U
        raise InvariantViolationError("r * exp(tau * N) does not reproduce M")
    return WDPair(r=r, n=L.scale(1 / tau), tau=tau)
