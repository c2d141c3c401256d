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
minimum over the scan.  witnessed_c_d reads the gcd off the witnesses,
the closed form at each odd q and the q = 2 witness's own valuation, so
a stored certificate gives back its value.
"""

from __future__ import annotations

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

    witnesses maps q = 2 to the first scanned prime ell of least
    2-valuation and each odd candidate q to its first scanned primitive
    root mod q^2; an odd q with no such root has no entry, and the
    certificate is then unstable.
    """

    d: int
    excluded_p: Optional[int]
    primes_scanned: int
    candidate_primes_q: Tuple[int, ...]
    witnesses: Tuple[Tuple[int, int], ...]
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


def witnessed_c_d(d: int, witnesses) -> FactoredInt:
    """The gcd for dimension d that the (q, ell) witness pairs certify:
    k + v_q(k!) with k = floor(d / (q - 1)) at each odd q, whatever its
    witness, and at q = 2 the 2-valuation of the order at its witness ell."""
    return FactoredInt.from_dict({
        q: _v2_of_order(ell, d) if q == 2 else (k := d // (q - 1)) + _v_factorial(k, q)
        for q, ell in witnesses})


def c_ds(ds: Sequence[int], p: Optional[int] = None, scan_depth: int = DEFAULT_SCAN_DEPTH
         ) -> Tuple[Tuple[FactoredInt, ScanCertificate], ...]:
    """(value, certificate) per d in ds: the certified gcd over all primes != p.

    The candidates are the primes q <= max(ds) + 1, read from the prime
    table once, so max(ds) + 1 >= numtheory.SIEVE_LIMIT raises
    ValidationError before any work, as do a negative d and a scan_depth
    beyond MAX_SCAN_DEPTH.  One scan of the first scan_depth primes != p
    finds each odd q's witness once, and each d reads those of its own
    q <= d + 1.  Each returned certificate is stable; at the first d in ds
    whose certificate is not, UnstableCertificateError carries it whole.
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
    results = []
    for d in ds:
        m = next((i for i, q in enumerate(odd_qs) if q > d + 1), len(odd_qs))
        witnesses = {q: root for q, root in zip(odd_qs[:m], roots) if root is not None}
        if d:  # q = 2: the first scanned prime of least 2-valuation, per d
            _, witnesses[2] = min((_v2_of_order(ell, d), ell) for ell in scanned)
        cert = ScanCertificate(
            d=d,
            excluded_p=p,
            primes_scanned=scan_depth,
            candidate_primes_q=((2,) if d else ()) + odd_qs[:m],
            witnesses=tuple(sorted(witnesses.items())),
            stable=(d == 0 or covered) and None not in roots[:m],
        )
        if not cert.stable:
            raise UnstableCertificateError(cert)
        results.append((witnessed_c_d(d, cert.witnesses), cert))
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

    tame_set lists every possible order i of a tame generator (those with
    phi(i) <= d); tame_max and tame_lcm are the two ways of combining
    them.  wild_part is a power of p bounding the wild image: the p-part
    of the certified gcd over primes != p, whose scan is `certificate`.
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
    tame = tuple(phi_inverse_set(d))
    value, cert = c_d(d, p, scan_depth)
    return RefinedBound(
        d=d,
        p=p,
        tame_max=max(tame),
        tame_set=tame,
        tame_lcm=_tame_lcm(d),
        wild_part=value.p_part(p),
        certificate=cert,
    )
