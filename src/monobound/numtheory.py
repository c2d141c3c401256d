"""Exact integer primitives.

Deterministic primality (64-bit range), factorization by trial division
plus Brent-cycle Pollard rho (which also splits composite cofactors
beyond 2^64), factored nonnegative integers, the enumeration of
{i : phi(i) <= d}, p-adic valuations, and the primes, which all come from
one bytearray sieve, grown on demand at least by doubling; asking it for
n >= SIEVE_LIMIT raises ValidationError before anything is allocated.
Everything here is pure, exact and safe to share between threads:
FactoredInt is immutable, and growing the sieve builds a new table and
rebinds the module global, never mutating the table that is_prime and
primes_upto read, so racing growers each store a correct one.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Tuple

from ._record import Record
from .errors import UndecidedCofactorError, ValidationError, int_text

# Deterministic Miller-Rabin witness set for n < 2^64 (Sinclair / Jaeschke).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

PRIMALITY_LIMIT = 2 ** 64

# Iterations of the rho map spent on one composite cofactor >= 2^64
# before factorize gives up on it.
RHO_MAX_STEPS = 1 << 20

SIEVE_LIMIT = 1 << 25  # most prime table entries; the nonic sevenfold needs 14 913 081
_table_now = bytearray()  # replaced by _table, never mutated


def _table(n: int) -> bytearray:
    """The prime table, grown first if it does not reach n."""
    global _table_now
    table = _table_now
    if n < len(table):
        return table
    if n >= SIEVE_LIMIT:
        raise ValidationError(f"primes requested at or past SIEVE_LIMIT = {SIEVE_LIMIT}")
    size = min(max(n + 1, 2 * len(table)), SIEVE_LIMIT)
    table = bytearray(b"\0\0") + b"\1" * (size - 2)
    for p in range(2, math.isqrt(size - 1) + 1):
        if table[p]:
            table[p * p::p] = bytes(len(range(p * p, size, p)))
    _table_now = table
    return table


def _strong_probable_prime(n: int, bases: Tuple[int, ...]) -> bool:
    """Miller-Rabin rounds for odd n > max(bases): False proves n composite."""
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^r d, d odd
    d = (n - 1) >> r
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Deterministic primality for 0 <= n < 2**64.

    Negative inputs and inputs at or above 2**64 raise ValidationError:
    this library never returns a probabilistic "prime" verdict.
    """
    if n < 0:
        raise ValidationError("primality is defined for nonnegative integers")
    if n >= PRIMALITY_LIMIT:
        raise ValidationError(f"primality check limited to n < 2**64, got {int_text(n)}")
    table = _table_now
    if n < len(table):
        return table[n] == 1
    return n % 2 == 1 and _strong_probable_prime(n, _MR_BASES)


def _pollard_rho(n: int, max_steps: Optional[int] = None) -> Optional[int]:
    """Brent-cycle Pollard rho: a nontrivial factor of composite odd n.

    Returns None once more than max_steps iterations of the map have run
    without a split (never, when max_steps is None).
    """
    c, m, steps = 1, 128, 0
    while True:
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if max_steps is not None and steps > max_steps:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            steps += 2 * r
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1


def factorize(n: int) -> Dict[int, int]:
    """Full prime factorization of n >= 1 as {prime: exponent}.

    Every reported prime is certified by the deterministic test, so a
    cofactor at or above 2**64 is only split, never accepted: one that
    passes a base-2 strong-probable-prime round, or that Pollard rho
    cannot split within RHO_MAX_STEPS iterations, raises
    UndecidedCofactorError.  A perfect square is split at its root first.
    """
    if n < 1:
        raise ValidationError(f"cannot factor {int_text(n)}; need n >= 1")
    factors: Dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        root = math.isqrt(m)
        if root * root == m:  # rho would need about sqrt(p) steps on p^2
            stack += [root, root]
            continue
        if m < PRIMALITY_LIMIT:
            if is_prime(m):
                factors[m] = factors.get(m, 0) + 1
                continue
            d = _pollard_rho(m)
        else:
            # a failed round proves m composite; a probable prime stays undecided
            d = (None if _strong_probable_prime(m, (2,))
                 else _pollard_rho(m, RHO_MAX_STEPS))
            if d is None:
                raise UndecidedCofactorError(
                    f"cofactor {int_text(m)} exceeds the deterministic primality range")
        stack += [d, m // d]
    return factors


class FactoredInt(Record):
    """Nonnegative integer held as a sorted tuple of (prime, exponent) pairs.

    The empty tuple denotes 1.  This is the only representation used for
    bound constants, which routinely exceed machine words by hundreds of
    digits; expansion to a plain int is available but never required.
    """

    factors: Tuple[Tuple[int, int], ...] = ()

    def _check(self):
        last = 1
        for p, e in self.factors:
            if p <= last:
                raise ValidationError("factors must be sorted by strictly increasing prime")
            if not is_prime(p):
                raise ValidationError(f"{p} is not prime")
            if e < 1:
                raise ValidationError(f"exponent of {p} must be >= 1, got {int_text(e)}")
            last = p

    @classmethod
    def from_dict(cls, factors: Dict[int, int]) -> "FactoredInt":
        return cls(tuple(sorted((p, e) for p, e in factors.items() if e > 0)))

    def value(self) -> int:
        return math.prod(p ** e for p, e in self.factors)

    def valuation(self, q: int) -> int:
        return next((e for p, e in self.factors if p == q), 0)

    def p_part(self, q: int) -> "FactoredInt":
        e = self.valuation(q)
        return FactoredInt(((q, e),)) if e else FactoredInt()


_table((1 << 16) - 1)  # the first table: 2^16 entries cover factorize's trial division


def primes_upto(n: int) -> Tuple[int, ...]:
    """The primes <= n; ValidationError at once when n >= SIEVE_LIMIT."""
    # a memoryview reads the table without copying it
    return tuple(itertools.compress(range(n + 1), memoryview(_table(n))[:n + 1]))


_TRIAL_PRIMES = primes_upto(9_999)  # factorize's trial divisors


def phi_inverse_set(d: int) -> List[int]:
    """All i with phi(i) <= d, sorted.

    phi(r^e) = r^(e-1) (r - 1) is multiplicative, so each such i is a
    product of prime powers r^e with r <= d + 1.  A depth-first search
    extends a product by powers of ever larger primes while its totient
    stays <= d; every node is an answer.
    """
    if d < 1:
        raise ValidationError(f"phi_inverse_set needs d >= 1, got {int_text(d)}")
    rs = primes_upto(d + 1)
    found = []
    stack = [(0, 1, 1)]  # (index of the least usable prime, i, phi(i))
    while stack:
        k, i, phi = stack.pop()
        found.append(i)
        for j in range(k, len(rs)):
            r = rs[j]
            phi_r = phi * (r - 1)
            if phi_r > d:
                break
            power = r
            while phi_r <= d:
                stack.append((j + 1, i * power, phi_r))
                power *= r
                phi_r *= r
    return sorted(found)


def valuation(n: int, q: int) -> int:
    """Exact q-adic valuation of n >= 1 for a prime q."""
    if not is_prime(q):
        raise ValidationError(f"{q} is not prime")
    if n < 1:
        raise ValidationError(f"valuation needs n >= 1, got {int_text(n)}")
    v = 0
    while n % q == 0:
        n //= q
        v += 1
    return v
