"""Orders of general linear groups over F_ell and over Z/4Z.

The per-prime constant is |GL_d(F_ell)| for odd ell and |GL_d(Z/4Z)| for
ell = 2.  Since ell^i - 1 is the product of the cyclotomic values
Phi_k(ell) over k | i,

    |GL_d(F_ell)| = ell^(d(d-1)/2) * prod_{k=1..d} Phi_k(ell)^floor(d/k),

so each Phi_k(ell) is split off ell^k - 1 by exact division, factored
once, and its exponents enter one table with weight floor(d/k).  The
kernel of reduction mod 2 adds 2^(d^2) for Z/4Z.  `c_ell_d_int`, the
plain product, is the one oracle the factored orders and the certified
gcd are tested against.
"""

from __future__ import annotations

import math

from .errors import UndecidedCofactorError, ValidationError, int_text
from .numtheory import FactoredInt, factorize, is_prime


def _check(ell: int, d: int) -> None:
    if not is_prime(ell):
        raise ValidationError(f"{ell} is not prime")
    if d < 0:
        raise ValidationError(f"dimension must be >= 0, got {int_text(d)}")


def _factored_order(ell: int, d: int, kernel_twos: int) -> FactoredInt:
    """2^kernel_twos * |GL_d(F_ell)| from one exponent table.

    An UndecidedCofactorError names the Phi_k(ell) whose factorization
    it stopped."""
    exponents = {ell: d * (d - 1) // 2}
    exponents[2] = exponents.get(2, 0) + kernel_twos
    phi = {}  # k -> Phi_k(ell)
    for k in range(1, d + 1):
        phi[k] = (ell ** k - 1) // math.prod(
            phi[j] for j in range(1, k) if k % j == 0)
        try:
            factors = factorize(phi[k])
        except UndecidedCofactorError as exc:
            raise UndecidedCofactorError(f"Phi_{k}({ell}): {exc}") from exc
        for p, e in factors.items():
            exponents[p] = exponents.get(p, 0) + e * (d // k)
    return FactoredInt.from_dict(exponents)


def c_ell_d_int(ell: int, d: int) -> int:
    """Per-prime constant as a plain integer: GL_d over F_ell, or over Z/4Z when ell = 2."""
    _check(ell, d)
    kernel = 2 ** (d * d) if ell == 2 else 1
    return kernel * ell ** (d * (d - 1) // 2) * math.prod(
        ell ** i - 1 for i in range(1, d + 1))


def order_gl_fq(ell: int, d: int) -> FactoredInt:
    """|GL_d(F_ell)| in factored form."""
    _check(ell, d)
    return _factored_order(ell, d, 0)


def order_gl_z4(d: int) -> FactoredInt:
    """|GL_d(Z/4Z)| = 2^(d^2) * |GL_d(F_2)| in factored form."""
    _check(2, d)
    return _factored_order(2, d, d * d)


def c_ell_d(ell: int, d: int) -> FactoredInt:
    """Per-prime constant, factored: dispatches to Z/4Z when ell = 2."""
    return order_gl_z4(d) if ell == 2 else order_gl_fq(ell, d)
