"""Seeded query lists for the three benchmark workloads.

Each workload is a fixed list of CLI queries built from the seed alone;
the same seed gives byte-identical queries.  A query carries its argv,
its stdin, what the oracle expects and a time limit.

- families: `variety-bound` on the paper's families, no cache.  The
  certified gcd (`compat_bounds`, `group_orders`) does nearly all the work.
- monodromy: `wd-decompose` on quasi-unipotent matrices of known
  semisimple order, plus non-quasi-unipotent and singular inputs (exit 2).
  `wd_matrix` does nearly all the work and no gcd runs.
- queries: ~150 short mixed calls through a per-pass scan cache.  Process
  start-up and the CLI layer dominate, so a change that buys speed at
  large sizes with import-time or per-call cost shows here.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

import oracles

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)

# (kind, n, degrees).  The sextic fourfold needs c_d(520) and c_d(2606),
# which monobound 0.1.0 cannot compute in a run's time, so it is not in
# the list.
FAMILIES = (
    ("hypersurface", 2, (4,)),             # quartic K3, d-vector (6, 22)
    ("hypersurface", 2, (3,)),
    ("hypersurface", 2, (5,)),
    ("hypersurface", 2, (6,)),
    ("hypersurface", 3, (3,)),
    ("hypersurface", 3, (4,)),
    ("hypersurface", 3, (5,)),             # quintic threefold (12, 53, 204)
    ("hypersurface", 4, (3,)),
    ("hypersurface", 4, (4,)),             # quartic fourfold (6, 22, 60, 184)
    ("complete_intersection", 2, (2, 3)),
    ("complete_intersection", 2, (2, 2, 2)),
    ("complete_intersection", 3, (2, 2)),
    ("complete_intersection", 3, (2, 3)),
    ("complete_intersection", 3, (2, 2, 2)),
    ("complete_intersection", 3, (3, 3)),  # (20, 61, 148)
    ("complete_intersection", 3, (2, 4)),  # (18, 62, 180)
)

# Largest d for which monobound 0.1.0 answers `cld --ell ell --d d`: the
# first ell^i - 1 whose cofactor after trial division is >= 2^64 makes
# factorize refuse.  Seeded draws stay inside this range; the defect is
# represented by the two fixed probes in CLD_DEFECT_PROBES instead, so
# each pass of the queries workload counts it exactly twice.
CLD_MAX_D = {2: 45, 3: 45, 5: 36, 7: 28, 11: 22, 13: 18}
CLD_DEFECT_PROBES = ((11, 23), (3, 46))

FINITE_ORDER_BLOCKS = (  # (companion block, multiplicative order)
    ([[0, -1], [1, 0]], 4),    # x^2 + 1
    ([[0, -1], [1, -1]], 3),   # x^2 + x + 1
    ([[0, -1], [1, 1]], 6),    # x^2 - x + 1
)
HYPERBOLIC_BLOCK = [[2, 1], [1, 1]]  # eigenvalues (3 +- sqrt 5)/2, no root of unity
TAUS = ("1", "2", "1/3")

TIME_LIMIT_S = {"families": 60.0, "monodromy": 30.0, "queries": 10.0}


@dataclass(frozen=True)
class Query:
    qid: str
    argv: Tuple[str, ...]
    stdin: str
    expect: dict
    timeout_s: float


def _error(code: int, type_name: str) -> dict:
    return {"kind": "error", "code": code, "type": type_name}


def _family_payload(rng: random.Random, kind: str, n: int, degrees) -> Tuple[str, dict]:
    """Half the time the family itself, half the time its explicit invariants."""
    inv = oracles.ci_invariants(n, degrees)
    if rng.random() < 0.5:
        obj = {"family": {"kind": kind, "n": n, "degrees": list(degrees)}}
    else:
        obj = {"invariants": inv}
    return json.dumps(obj), inv


def _variety_bound(rng, kind, n, degrees, p) -> Tuple[Tuple[str, ...], str, dict]:
    stdin, inv = _family_payload(rng, kind, n, degrees)
    expect = {"kind": "variety_bound", "invariants": inv, "p": p,
              "d_vector": oracles.ci_d_vector(n, degrees)}
    return ("variety-bound", "--p", str(p)), stdin, expect


# ------------------------------------------------------------------ matrices

def _unimodular(rng: random.Random, d: int) -> List[List[int]]:
    """Unit upper times unit lower triangular times a permutation, det +-1."""
    upper = [[1 if i == j else (rng.choice((-1, 0, 0, 1)) if j > i else 0)
              for j in range(d)] for i in range(d)]
    lower = [[1 if i == j else (rng.choice((-1, 0, 0, 1)) if j < i else 0)
              for j in range(d)] for i in range(d)]
    perm = list(range(d))
    rng.shuffle(perm)
    product = oracles.mat_mul(upper, lower)
    return [[product[i][perm[j]] for j in range(d)] for i in range(d)]


def _blocks_to_matrix(rng: random.Random, d: int, blocks) -> List[List[str]]:
    """Place (rows) blocks on the diagonal and conjugate by a unimodular P."""
    base = [[0] * d for _ in range(d)]
    pos = 0
    for rows in blocks:
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                base[pos + i][pos + j] = x
        pos += len(rows)
    p = _unimodular(rng, d)
    m = oracles.mat_mul(oracles.mat_mul(p, base), oracles.mat_inverse(p))
    return [[str(Fraction(x)) for x in row] for row in m]


def _quasi_unipotent_blocks(rng: random.Random, size: int):
    """Finite-order companion blocks and +-unipotent blocks, and the lcm of their orders."""
    blocks, order, pos = [], 1, 0
    while pos < size:
        remaining = size - pos
        if remaining >= 2 and rng.random() < 0.4:
            rows, k_order = rng.choice(FINITE_ORDER_BLOCKS)
            blocks.append(rows)
            order = math.lcm(order, k_order)
            pos += 2
            continue
        k = rng.randint(1, min(remaining, 4))
        sign = rng.choice((1, 1, -1))
        if sign == -1:
            order = math.lcm(order, 2)
        blocks.append([[sign if i == j else (sign * rng.randint(-1, 1) if j > i else 0)
                        for j in range(k)] for i in range(k)])
        pos += k
    return blocks, order


def quasi_unipotent(rng: random.Random, d: int):
    """A d x d quasi-unipotent matrix and the order of its semisimple part."""
    blocks, order = _quasi_unipotent_blocks(rng, d)
    return _blocks_to_matrix(rng, d, blocks), order


def non_quasi_unipotent(rng: random.Random, d: int):
    blocks, _ = _quasi_unipotent_blocks(rng, d - 2)
    return _blocks_to_matrix(rng, d, [HYPERBOLIC_BLOCK] + blocks)


def singular(rng: random.Random, d: int):
    blocks, _ = _quasi_unipotent_blocks(rng, d - 1)
    return _blocks_to_matrix(rng, d, [[[0]]] + blocks)


# ----------------------------------------------------------------- workloads

def families(rng: random.Random) -> List[Tuple[tuple, str, dict]]:
    out = []
    for kind, n, degrees in FAMILIES:
        out.append(_variety_bound(rng, kind, n, degrees, rng.choice(SMALL_PRIMES)))
    rng.shuffle(out)
    return out


# Mostly small, with several matrices per size so that the median query
# and the pass total do not hinge on one seeded matrix.
MONODROMY_SIZES = (4,) * 6 + (6,) * 6 + (8,) * 8 + (10,) * 3 + (12, 12, 14, 14, 16)
# S.power(lcm{i : phi(i) <= d}) makes non-quasi-unipotent inputs costly:
# the exponent is 2520 for d = 6, 5040 for d = 8 and 55440 for d = 10
NON_QU_SIZES = (6, 8, 10)
SINGULAR_SIZES = (6, 12)


def monodromy(rng: random.Random) -> List[Tuple[tuple, str, dict]]:
    out = []
    for d in MONODROMY_SIZES:
        m, order = quasi_unipotent(rng, d)
        tau = rng.choice(TAUS)
        out.append((("wd-decompose", "--tau", tau), json.dumps({"matrix": m}),
                    {"kind": "wd", "matrix": m, "tau": tau, "order": order}))
    for d in NON_QU_SIZES:
        out.append((("wd-decompose",), json.dumps({"matrix": non_quasi_unipotent(rng, d)}),
                    _error(2, "PreconditionViolatedError")))
    for d in SINGULAR_SIZES:
        out.append((("wd-decompose",), json.dumps({"matrix": singular(rng, d)}),
                    _error(2, "SingularInputError")))
    rng.shuffle(out)
    return out


def queries(rng: random.Random) -> List[Tuple[tuple, str, dict]]:
    out = []
    for _ in range(36):
        ell = rng.choice(SMALL_PRIMES)
        d = rng.randint(0, CLD_MAX_D[ell])
        out.append((("cld", "--ell", str(ell), "--d", str(d)), "",
                    {"kind": "cld", "ell": ell, "d": d}))
    for ell, d in CLD_DEFECT_PROBES:
        out.append((("cld", "--ell", str(ell), "--d", str(d)), "",
                    {"kind": "cld", "ell": ell, "d": d}))
    # a small key pool, so that later cd/refined calls hit the scan cache
    keys = [(rng.randint(1, 40), rng.choice(SMALL_PRIMES)) for _ in range(12)]
    for _ in range(26):
        d, p = rng.choice(keys)
        out.append((("cd", "--d", str(d), "--p", str(p)), "",
                    {"kind": "cd", "d": d, "p": p}))
    for _ in range(16):
        d, p = rng.choice(keys)
        out.append((("refined", "--d", str(d), "--p", str(p)), "",
                    {"kind": "refined", "d": d, "p": p}))
    small_families = [(k, n, deg) for k, n, deg in FAMILIES
                      if max(oracles.ci_d_vector(n, deg)) <= 62]
    for _ in range(12):
        kind, n, degrees = rng.choice(small_families)
        out.append((("invariants",),
                    json.dumps({"family": {"kind": kind, "n": n, "degrees": list(degrees)}}),
                    {"kind": "invariants", "invariants": oracles.ci_invariants(n, degrees)}))
    for _ in range(12):
        kind, n, degrees = rng.choice(small_families)
        steps = rng.randint(1, n - 1)
        stdin, _ = _family_payload(rng, kind, n, degrees)
        out.append((("descend", "--steps", str(steps)), stdin,
                    {"kind": "descend",
                     "steps": [oracles.ci_invariants(n - k, degrees)
                               for k in range(1, steps + 1)]}))
    for _ in range(10):
        out.append(_variety_bound(rng, "hypersurface", 2, (4,), rng.choice(SMALL_PRIMES)))
    for _ in range(14):
        m, order = quasi_unipotent(rng, rng.choice((2, 3)))
        tau = rng.choice(TAUS)
        out.append((("wd-decompose", "--tau", tau), json.dumps({"matrix": m}),
                    {"kind": "wd", "matrix": m, "tau": tau, "order": order}))
    for _ in range(4):
        ell = rng.choice(SMALL_PRIMES)
        d = rng.randint(0, CLD_MAX_D[ell])
        out.append((("cld", "--ell", str(ell), "--d", str(d), "--format", "table"), "",
                    {"kind": "cld", "ell": ell, "d": d, "format": "table"}))
        d, p = rng.choice(keys)
        out.append((("cd", "--d", str(d), "--p", str(p), "--format", "table"), "",
                    {"kind": "cd", "d": d, "p": p, "format": "table"}))
    for _ in range(3):
        out.append((("variety-bound", "--p", "5"), '{"invariants": {"n": 2, ',
                    _error(4, "MalformedInput")))
        c = rng.randint(3, 20)
        out.append((("variety-bound", "--p", str(rng.choice(SMALL_PRIMES))),
                    json.dumps({"invariants": {"n": 2, "b": [0, 22], "c": [c]}}),
                    _error(2, "NegativeBettiError")))
        out.append((("cd", "--d", "5", "--scan-depth", "2"), "",
                    _error(3, "UnstableCertificate")))
    rng.shuffle(out)
    return out


BUILDERS = {"families": families, "monodromy": monodromy, "queries": queries}


def build(workload: str, seed: int) -> List[Query]:
    """The workload's fixed query list for this seed."""
    rng = random.Random(f"{workload}:{seed}")
    limit = TIME_LIMIT_S[workload]
    return [Query(qid=f"{workload}-{i:03d}-{argv[0]}", argv=tuple(argv), stdin=stdin,
                  expect=expect, timeout_s=limit)
            for i, (argv, stdin, expect) in enumerate(BUILDERS[workload](rng))]
