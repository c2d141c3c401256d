"""Gcd of the per-prime GL orders over all primes distinct from p.

The candidate primes are the q <= d + 1: a primitive root mod a larger q
has order q - 1 > d, and each smaller q divides every order.  Valuations
come from small integers by lifting the exponent (LTE): with e the order
of ell mod q, v_q(ell^i - 1) = v_q(ell^e - 1) + v_q(i/e) when e | i.

The gcd runs over an infinite index set, so a finite scan alone proves
nothing; each candidate needs a witness.  For odd q the minimal
valuation over all primes ell is attained at any primitive root ell mod
q^2, which makes e = q - 1 maximal and v_q(ell^e - 1) = 1, so it is
k + v_q(k!) with k = floor(d / (q - 1)) (Minkowski's bound; Serre 2007).
c_ds searches the scan once per q for its first primitive root, the
witness; a q without one has no witness, and c_ds raises
UnstableCertificateError.  For q = 2 the valuation depends only on ell
mod 8, so covering all four odd residue classes mod 8 certifies the
minimum over the scan, and the gcd's 2-valuation is that minimum.
"""

from __future__ import annotations

import bisect
import math
from typing import Optional, Sequence, Tuple

from ._record import Record
from .errors import UnstableCertificateError, ValidationError, int_text
from .numtheory import (
    SIEVE_LIMIT,
    FactoredInt,
    factorize,
    is_prime,
    phi_inverse_set,
    primes_upto,
    valuation,
)

DEFAULT_SCAN_DEPTH = 100
# pi(SIEVE_LIMIT) - 1 = 2 063 689 - 1: a scan that skips p still ends
# inside the prime table, where the n-th prime (n >= 2) is <= n * n.bit_length()
MAX_SCAN_DEPTH = 2_063_688


class ScanCertificate(Record):
    """Audit record of one gcd scan.

    witnesses lists every candidate q once, in increasing order, with its
    witness: for q = 2 the first scanned prime of least 2-valuation, for
    odd q the first scanned primitive root mod q^2, or None if the scan
    holds none.  Only an unstable certificate, which c_ds raises inside
    UnstableCertificateError, holds a None; stable also needs the scan
    to cover the odd residues mod 8, which the list does not show.
    """

    d: int
    excluded_p: Optional[int]
    primes_scanned: int
    witnesses: Tuple[Tuple[int, Optional[int]], ...]
    stable: bool


def _v_factorial(k: int, q: int) -> int:
    # Legendre's formula
    v = 0
    while k:
        k //= q
        v += k
    return v


def _v2_of_order(ell: int, d: int) -> int:
    """v_2 of the per-prime constant of dimension d at the prime ell: the
    quantity whose least value over the scan picks the q = 2 witness."""
    if ell == 2:
        # every 2^i - 1 is odd; over Z/4Z the kernel adds 2^(d^2)
        return d * (d - 1) // 2 + d * d
    h = d // 2
    return ((d - h) * valuation(ell - 1, 2) + h * valuation(ell * ell - 1, 2)
            + _v_factorial(h, 2))


def c_ds(ds: Sequence[int], p: Optional[int] = None, scan_depth: int = DEFAULT_SCAN_DEPTH
         ) -> Tuple[Tuple[FactoredInt, ScanCertificate], ...]:
    """(value, certificate) per d in ds: the certified gcd over all primes != p.

    The candidates are the primes q <= max(ds) + 1, read from the prime
    table once, so max(ds) + 1 >= numtheory.SIEVE_LIMIT raises
    ValidationError before any work, as do a negative d and a scan_depth
    beyond MAX_SCAN_DEPTH.  One scan of the first scan_depth primes != p
    finds each odd q's witness once, as one shared (q, witness) pair, and
    each d's certificate lists the q = 2 pair and those of its q <= d + 1,
    a prefix found by bisection.  Each returned certificate is stable; at
    the first unstable d in ds, UnstableCertificateError carries its certificate.
    """
    if min(ds) < 0:
        raise ValidationError(f"dimension must be >= 0, got {int_text(min(ds))}")
    if scan_depth < 2:
        raise ValidationError(f"scan_depth must be >= 2, got {int_text(scan_depth)}")
    if scan_depth > MAX_SCAN_DEPTH:
        raise ValidationError(f"scan_depth must be <= {MAX_SCAN_DEPTH}, the primes "
                              f"below SIEVE_LIMIT less one, got {int_text(scan_depth)}")
    if p is not None and not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    # before any work, so that max(ds) + 1 >= SIEVE_LIMIT fails fast
    odd_qs = primes_upto(max(ds) + 1)[1:]
    n = scan_depth + 1
    scanned = [ell for ell in primes_upto(min(n * n.bit_length(), SIEVE_LIMIT - 1))
               if ell != p][:scan_depth]
    # v_2 of the order depends only on ell mod 8; full coverage of the odd
    # residue classes certifies the minimum
    covered = {1, 3, 5, 7} <= {ell % 8 for ell in scanned}
    roots = []  # per odd q, its witness or None
    for q in odd_qs:
        rs = factorize(q - 1)
        # a primitive root mod q is one mod q^2 unless ell^(q-1) = 1 mod q^2
        roots.append(next((ell for ell in scanned if ell != q
                           and all(pow(ell, (q - 1) // r, q) != 1 for r in rs)
                           and pow(ell, q - 1, q * q) != 1), None))
    pairs = tuple(zip(odd_qs, roots))  # shared by every certificate
    results = []
    for d in ds:
        m = bisect.bisect_right(odd_qs, d + 1)  # odd_qs[:m]: the q <= d + 1, by bisection
        q2_pair = q2_factor = ()
        if d:  # q = 2: the first scanned prime of least 2-valuation, per d
            e2, w2 = min((_v2_of_order(ell, d), ell) for ell in scanned)
            q2_pair, q2_factor = ((2, w2),), ((2, e2),)
        cert = ScanCertificate(d=d, excluded_p=p, primes_scanned=scan_depth,
                               witnesses=q2_pair + pairs[:m],
                               stable=(d == 0 or covered) and None not in roots[:m])
        if not cert.stable:
            raise UnstableCertificateError(cert)
        # Minkowski's exponent k + v_q(k!) per odd q, in the increasing order FactoredInt needs
        results.append((FactoredInt(q2_factor + tuple(
            (q, (k := d // (q - 1)) + _v_factorial(k, q)) for q in odd_qs[:m])), cert))
    return tuple(results)


def c_d(d: int, p: Optional[int] = None,
        scan_depth: int = DEFAULT_SCAN_DEPTH) -> Tuple[FactoredInt, ScanCertificate]:
    """The certified gcd and its certificate for one dimension d, from c_ds."""
    return c_ds((d,), p, scan_depth)[0]


def p_part_c_d(d: int, p: int, scan_depth: int = DEFAULT_SCAN_DEPTH) -> FactoredInt:
    """p-part of the certified gcd taken over primes ell != p."""
    value, _ = c_d(d, p, scan_depth)
    return value.p_part(p)


class RefinedBound(Record):
    """Tame/wild refinement for a d-dimensional representation.

    tame_set is {i : phi(i) <= d}, the possible orders of one
    root-of-unity eigenvalue, and tame_max is the largest of them.
    tame_lcm, their lcm, bounds the order of every finite-order element:
    that order is the lcm of its eigenvalues' orders, so it divides
    tame_lcm.  tame_max does not bound it (diag(C(Phi_5), C(Phi_6)) has
    order 30 at d = 6, where tame_max is 18).  wild_part is a power of p
    bounding the wild image: the p-part of the certified gcd over
    primes != p, whose scan is `certificate`.
    """

    d: int
    p: int
    tame_max: int
    tame_set: Tuple[int, ...]
    tame_lcm: int
    wild_part: FactoredInt
    certificate: ScanCertificate


def _tame_lcm(d: int) -> int:
    """lcm{i : phi(i) <= d}, from prime powers: phi(r^e) divides phi(i)
    when r^e divides i, so it is the product over primes r <= d + 1 of
    the largest r^e with phi(r^e) = r^(e-1) (r - 1) <= d."""
    powers = []
    for r in primes_upto(d + 1):
        power = r
        while power * (r - 1) <= d:  # phi(r * power) <= d
            power *= r
        powers.append(power)
    # pairwise products: one running product costs time quadratic in the digits
    while len(powers) > 1:
        powers = [math.prod(powers[i:i + 2]) for i in range(0, len(powers), 2)]
    return powers[0]


def refined_bound(d: int, p: int, scan_depth: int = DEFAULT_SCAN_DEPTH) -> RefinedBound:
    if d < 1:
        raise ValidationError(f"refined bound needs d >= 1, got {int_text(d)}")
    value, cert = c_d(d, p, scan_depth)  # refuses a bad p or depth before the enumeration
    tame = tuple(phi_inverse_set(d))
    return RefinedBound(
        d=d,
        p=p,
        tame_max=max(tame),
        tame_set=tame,
        tame_lcm=_tame_lcm(d),
        wild_part=value.p_part(p),
        certificate=cert,
    )
