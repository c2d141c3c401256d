"""Orders of general linear groups over F_ell and over Z/4Z.

The per-prime constant is |GL_d(F_ell)| for odd ell and |GL_d(Z/4Z)| for
ell = 2.  The plain-integer variants give the unfactored orders, the
oracle the certified gcd is tested against.
"""

from __future__ import annotations

from .errors import ValidationError
from .numtheory import FACTORED_ONE, FactoredInt, is_prime


def order_gl_fq_int(ell: int, d: int) -> int:
    """|GL_d(F_ell)| = ell^(d(d-1)/2) * prod_{i=1..d} (ell^i - 1) as a plain int."""
    if d < 0:
        raise ValidationError(f"dimension must be >= 0, got {d}")
    order = ell ** (d * (d - 1) // 2)
    for i in range(1, d + 1):
        order *= ell ** i - 1
    return order


def order_gl_z4_int(d: int) -> int:
    """|GL_d(Z/4Z)| = 2^(d^2) * |GL_d(F_2)|.

    The kernel of reduction mod 2 is I + 2*M_d(Z/2), of order 2^(d^2).
    """
    if d < 0:
        raise ValidationError(f"dimension must be >= 0, got {d}")
    return 2 ** (d * d) * order_gl_fq_int(2, d)


def c_ell_d_int(ell: int, d: int) -> int:
    """Per-prime constant as a plain integer: GL_d over F_ell, or over Z/4Z when ell = 2."""
    if not is_prime(ell):
        raise ValidationError(f"{ell} is not prime")
    if ell == 2:
        return order_gl_z4_int(d)
    return order_gl_fq_int(ell, d)


def order_gl_fq(ell: int, d: int) -> FactoredInt:
    """|GL_d(F_ell)| in factored form.

    Each ell^i - 1 is factored individually and the results merged, so
    the full product is never expanded.
    """
    if not is_prime(ell):
        raise ValidationError(f"{ell} is not prime")
    if d < 0:
        raise ValidationError(f"dimension must be >= 0, got {d}")
    if d == 0:
        return FACTORED_ONE
    out = FactoredInt.from_dict({ell: d * (d - 1) // 2}) if d > 1 else FACTORED_ONE
    for i in range(1, d + 1):
        out = out * FactoredInt.from_int(ell ** i - 1)
    return out


def order_gl_z4(d: int) -> FactoredInt:
    if d == 0:
        return FACTORED_ONE
    return FactoredInt.from_dict({2: d * d}) * order_gl_fq(2, d)


def c_ell_d(ell: int, d: int) -> FactoredInt:
    """Per-prime constant, factored: dispatches to Z/4Z when ell = 2."""
    if not is_prime(ell):
        raise ValidationError(f"{ell} is not prime")
    if ell == 2:
        return order_gl_z4(d)
    return order_gl_fq(ell, d)
