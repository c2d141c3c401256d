"""Independent output oracles for the monobound CLI benchmark.

Nothing here imports monobound: every expected value is recomputed from
a closed form or checked by an exact identity, so a wrong answer from
the program cannot agree with its own oracle by construction.

- `variety-bound` / `cd` / `refined`: Minkowski's closed form for the
  stabilized gcd (Serre 2007), plus a stable certificate.
- `cld`: ell^(d(d-1)/2) * prod(ell^i - 1), times 2^(d^2) for ell = 2.
- `invariants` / `descend`: the Euler characteristic of a smooth complete
  intersection, deg * [h^n] (1+h)^(N+1) / prod(1 + delta h), with weak
  Lefschetz for the Betti numbers below the middle.
- `wd-decompose`: r * exp(tau N) = M, rN = Nr, N^d = 0 and r^order = I,
  all checked exactly.
- Error paths: exit code and error `type`.

`verdict` classifies one CLI answer as "ok", "error" (an answer was
expected but the program refused with a nonzero exit) or "wrong" (the
program answered, or failed, differently from the oracle).  The
`"cached"` field is ignored throughout.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

Matrix = List[List[Fraction]]


# ------------------------------------------------------------ number theory

def small_primes(limit: int) -> List[int]:
    """Primes <= limit by a plain sieve."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, limit + 1, i)))
    return [i for i, flag in enumerate(sieve) if flag]


def _legendre(k: int, q: int) -> int:
    """v_q(k!) by Legendre's formula."""
    v, power = 0, q
    while power <= k:
        v += k // power
        power *= q
    return v


def minkowski_factors(d: int) -> Dict[int, int]:
    """Stabilized gcd of |GL_d| over all primes, as {prime: exponent}.

    The 2-part is attained at ell = 3 mod 8, the odd q-part at primitive
    roots mod q^2 (lifting the exponent); neither depends on which single
    residue characteristic is excluded.
    """
    if d == 0:
        return {}
    out = {2: (d + 1) // 2 + 3 * (d // 2) + _legendre(d // 2, 2)}
    for q in small_primes(d + 1)[1:]:
        k = d // (q - 1)
        out[q] = k + _legendre(k, q)
    return out


def gl_order(ell: int, d: int) -> int:
    """|GL_d(F_ell)|, or |GL_d(Z/4Z)| when ell = 2."""
    order = ell ** (d * (d - 1) // 2)
    for i in range(1, d + 1):
        order *= ell ** i - 1
    return order * 2 ** (d * d) if ell == 2 else order


def totient(i: int) -> int:
    phi, m, r = i, i, 2
    while r * r <= m:
        if m % r == 0:
            while m % r == 0:
                m //= r
            phi -= phi // r
        r += 1
    if m > 1:
        phi -= phi // m
    return phi


def tame_set(d: int) -> List[int]:
    """{i : phi(i) <= d}; phi(i) >= sqrt(i/2) bounds the search."""
    return [i for i in range(1, 2 * d * d + 1) if totient(i) <= d]


# ----------------------------------------------------- variety invariants

def _series_coefficient(ambient: int, degrees: Tuple[int, ...], k: int) -> int:
    """[h^k] of (1+h)^(ambient+1) / prod(1 + delta h), integer coefficients."""
    series = [math.comb(ambient + 1, i) for i in range(k + 1)]
    for delta in degrees:
        # divide by (1 + delta h): s_i <- s_i - delta * s_{i-1}
        for i in range(1, k + 1):
            series[i] -= delta * series[i - 1]
    return series[k]


def euler_characteristic(n: int, degrees: Tuple[int, ...]) -> int:
    """chi of a smooth complete intersection of dimension n and multidegree degrees."""
    return math.prod(degrees) * _series_coefficient(n + len(degrees), degrees, n)


def middle_betti(n: int, degrees: Tuple[int, ...]) -> int:
    off_middle = sum(1 for i in range(0, 2 * n + 1, 2) if i != n)
    return (-1) ** n * (euler_characteristic(n, degrees) - off_middle)


def ci_invariants(n: int, degrees: Tuple[int, ...]) -> dict:
    """{"n", "b", "c"} of a smooth complete intersection, as the CLI prints them.

    c_j is the Euler characteristic of a j-fold hyperplane section, which
    is itself a complete intersection of dimension n - j.
    """
    b = [(1 if i % 2 == 0 else 0) for i in range(1, n)] + [middle_betti(n, degrees)]
    c = [euler_characteristic(n - j, degrees) for j in range(1, n)]
    return {"n": n, "b": b, "c": c}


def ci_d_vector(n: int, degrees: Tuple[int, ...]) -> List[int]:
    """Middle Betti numbers of the (n-j)-fold sections, j = 1..n."""
    return [middle_betti(j, degrees) for j in range(1, n + 1)]


# -------------------------------------------------------- rational matrices

def identity(d: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def mat_pow(a: Matrix, e: int) -> Matrix:
    result, base = identity(len(a)), a
    while e:
        if e & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        e >>= 1
    return result


def mat_inverse(a: Matrix) -> Matrix:
    """Gauss-Jordan inverse of an invertible matrix."""
    d = len(a)
    aug = [[Fraction(x) for x in row] + identity(d)[i] for i, row in enumerate(a)]
    for col in range(d):
        pivot = next(r for r in range(col, d) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(d):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[d:] for row in aug]


def nilpotent_exp(n: Matrix) -> Matrix:
    """exp of a nilpotent matrix; the series stops at N^d = 0."""
    d = len(n)
    result, term = identity(d), identity(d)
    for k in range(1, d):
        term = [[x / k for x in row] for row in mat_mul(term, n)]
        result = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(result, term)]
    return result


def parse_matrix(rows) -> Matrix:
    return [[Fraction(str(x)) for x in row] for row in rows]


def check_wd(matrix, tau: str, order: int, out: dict) -> Optional[str]:
    m, r, n = parse_matrix(matrix), parse_matrix(out["r"]), parse_matrix(out["n"])
    d = len(m)
    t = Fraction(tau)
    if Fraction(out["tau"]) != t:
        return f"tau echoed as {out['tau']}, expected {tau}"
    if not all(x == 0 for row in mat_pow(n, d) for x in row):
        return "N is not nilpotent"
    if mat_mul(r, n) != mat_mul(n, r):
        return "r and N do not commute"
    if mat_mul(r, nilpotent_exp([[t * x for x in row] for row in n])) != m:
        return "r * exp(tau N) != M"
    if mat_pow(r, order) != identity(d):
        return f"r^{order} != I"
    return None


# --------------------------------------------------------------- CLI output

def _factored_value(obj: dict) -> int:
    value = 1
    for p, e in obj["factors"].items():
        value *= int(p) ** int(e)
    return value


def _check_factored(obj: dict, expected: int, what: str) -> Optional[str]:
    got = _factored_value(obj)
    if got != expected:
        return f"{what}: factors multiply to {got}, expected {expected}"
    if "value" in obj and int(obj["value"]) != expected:
        return f"{what}: value {obj['value']} != {expected}"
    return None


def _check_certificate(cert: dict, d: int, p) -> Optional[str]:
    if cert.get("stable") not in (True, "True"):
        return f"certificate for d={d} is not stable"
    if int(cert["d"]) != d or str(cert["excluded_p"]) != str(p):
        return f"certificate is for d={cert['d']}, p={cert['excluded_p']}"
    return None


def _closed_form(d: int) -> int:
    return math.prod(q ** e for q, e in minkowski_factors(d).items())


def parse_table(text: str) -> dict:
    """Inverse of the CLI's `--format table` rendering (two-space nesting)."""
    root: dict = {}
    stack = [(-1, root)]
    for line in text.splitlines():
        if not line.strip():
            continue
        depth = len(line) - len(line.lstrip(" "))
        key, _, value = line.strip().partition(":")
        while stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1]
        value = value.strip()
        if value:
            parent[key] = value
        else:
            parent[key] = {}
            stack.append((depth, parent[key]))
    return root


def _check_answer(expect: dict, out: dict) -> Optional[str]:
    kind = expect["kind"]
    if kind == "cld":
        if str(out["ell"]) != str(expect["ell"]) or str(out["d"]) != str(expect["d"]):
            return "cld echoed the wrong (ell, d)"
        return _check_factored(out["order"], gl_order(expect["ell"], expect["d"]),
                               "order")
    if kind == "cd":
        return (_check_factored(out["value"], _closed_form(expect["d"]), "value")
                or _check_certificate(out["certificate"], expect["d"], expect["p"]))
    if kind == "refined":
        d, p = expect["d"], expect["p"]
        tame = tame_set(d)
        if (out["tame_set"] != tame or out["tame_max"] != max(tame)
                or out["tame_lcm"] != math.lcm(*tame)):
            return "tame part differs from {i : phi(i) <= d}"
        wild = p ** minkowski_factors(d).get(p, 0)
        return (_check_factored(out["wild_part"], wild, "wild_part")
                or _check_certificate(out["certificate"], d, p))
    if kind == "variety_bound":
        dv = expect["d_vector"]
        if out["d_vector"] != dv:
            return f"d_vector {out['d_vector']} != {dv}"
        if out["invariants"] != expect["invariants"] or out["h"] != len(dv):
            return "invariants or h echoed wrongly"
        if len(out["factors"]) != len(dv):
            return "wrong number of factors"
        product = 1
        for d_j, factor, cert in zip(dv, out["factors"], out["certificates"]):
            expected = _closed_form(d_j)
            product *= expected
            reason = (_check_factored(factor, expected, f"factor d={d_j}")
                      or _check_certificate(cert, d_j, expect["p"]))
            if reason:
                return reason
        if _factored_value(out["product"]) != product:
            return "product differs from the product of the factors"
        return _check_factored(out["product"], product, "product")
    if kind == "invariants":
        return None if out["invariants"] == expect["invariants"] else "invariants differ"
    if kind == "descend":
        return None if out["steps"] == expect["steps"] else "descent chain differs"
    if kind == "wd":
        return check_wd(expect["matrix"], expect["tau"], expect["order"], out)
    raise ValueError(f"unknown expectation kind {kind!r}")


def verdict(expect: dict, code: int, stdout: str) -> Tuple[str, str]:
    """("ok" | "error" | "wrong", reason) for one CLI answer."""
    table = expect.get("format") == "table"
    if expect["kind"] == "error":
        if code != expect["code"]:
            return "wrong", f"exit {code}, expected {expect['code']}"
        try:
            got = (parse_table(stdout) if table else json.loads(stdout))["error"]["type"]
        except (ValueError, KeyError, TypeError):
            return "wrong", "no error object in output"
        if got != expect["type"]:
            return "wrong", f"error type {got}, expected {expect['type']}"
        return "ok", ""
    if code != 0:
        return "error", f"exit {code}: {stdout.strip()[:200]}"
    try:
        out = parse_table(stdout) if table else json.loads(stdout)
        reason = _check_answer(expect, out)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        reason = f"unreadable output: {exc!r}"
    return ("wrong", reason) if reason else ("ok", "")
