"""Random generators for exact-matrix tests.

Quasi-unipotent matrices are built the only way commuting data can be
guaranteed: block-diagonal finite-order times block-respecting unipotent,
then conjugated by a random unimodular integer matrix.
"""

import random
from fractions import Fraction

from monobound.wd_matrix import RationalMatrix

# small finite-order companion blocks: (rows, multiplicative order)
FINITE_ORDER_BLOCKS = [
    ([[-1]], 2),
    ([[0, -1], [1, 0]], 4),    # x^2 + 1
    ([[0, -1], [1, -1]], 3),   # x^2 + x + 1
    ([[0, -1], [1, 1]], 6),    # x^2 - x + 1
]


def random_unimodular(rng: random.Random, d: int, span: int = 2) -> RationalMatrix:
    """Random integer matrix with determinant +-1 (unit-triangular product)."""
    upper = [[1 if i == j else (rng.randint(-span, span) if j > i else 0)
              for j in range(d)] for i in range(d)]
    lower = [[1 if i == j else (rng.randint(-span, span) if j < i else 0)
              for j in range(d)] for i in range(d)]
    perm = list(range(d))
    rng.shuffle(perm)
    pmat = [[1 if j == perm[i] else 0 for j in range(d)] for i in range(d)]
    return (RationalMatrix.from_rows(upper) * RationalMatrix.from_rows(lower)
            * RationalMatrix.from_rows(pmat))


def random_quasi_unipotent(rng: random.Random, d: int):
    """Returns (matrix, is_unipotent_flag) with the matrix quasi-unipotent.

    Diagonal blocks are either +-identity carrying a random unipotent
    part, or a finite-order companion block; the whole thing is then
    conjugated so the block structure is hidden.
    """
    s_rows = [[Fraction(0)] * d for _ in range(d)]
    u_rows = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    pos = 0
    unipotent = True
    while pos < d:
        remaining = d - pos
        choices = ["scalar"]
        if remaining >= 2:
            choices += ["companion", "companion"]
        choices += ["minus"]
        kind = rng.choice(choices)
        if kind == "companion" and remaining >= 2:
            rows, _ = rng.choice([blk for blk in FINITE_ORDER_BLOCKS
                                  if len(blk[0]) <= remaining])
            k = len(rows)
            for i in range(k):
                for j in range(k):
                    s_rows[pos + i][pos + j] = Fraction(rows[i][j])
            unipotent = False
            pos += k
        else:
            k = rng.randint(1, remaining)
            sign = -1 if kind == "minus" else 1
            if sign == -1:
                unipotent = False
            for i in range(k):
                s_rows[pos + i][pos + i] = Fraction(sign)
                for j in range(i + 1, k):
                    u_rows[pos + i][pos + j] = Fraction(rng.randint(-2, 2))
            pos += k
    S0 = RationalMatrix.from_rows(s_rows)
    U0 = RationalMatrix.from_rows(u_rows)
    P = random_unimodular(rng, d)
    M = P * (S0 * U0) * P.inverse()
    return M, unipotent


def random_non_quasi_unipotent(rng: random.Random, d: int) -> RationalMatrix:
    """A d x d (d >= 2) integral matrix with an eigenvalue (3 + sqrt 5)/2,
    no root of unity: a hyperbolic block beside a quasi-unipotent one,
    conjugated by a random unimodular matrix."""
    rows = [[Fraction(0)] * d for _ in range(d)]
    rows[0][:2] = [Fraction(2), Fraction(1)]
    rows[1][:2] = [Fraction(1), Fraction(1)]
    if d > 2:
        Q, _ = random_quasi_unipotent(rng, d - 2)
        for i, row in enumerate(Q.rows):
            rows[i + 2][2:] = row
    P = random_unimodular(rng, d)
    return P * RationalMatrix.from_rows(rows) * P.inverse()
