import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genmatrices import (
    random_non_quasi_unipotent,
    random_quasi_unipotent,
    random_unimodular,
)
from monobound import wd_matrix
from monobound.compat_bounds import c_d, refined_bound
from monobound.errors import (
    InvariantViolationError,
    NotNilpotentError,
    NotUnipotentError,
    PreconditionViolatedError,
    SingularInputError,
    ValidationError,
    ZeroTauError,
)
from monobound.numtheory import phi_inverse_set
from monobound.wd_matrix import (
    RationalMatrix,
    is_quasi_unipotent,
    is_unipotent,
    jordan_chevalley,
    nilpotent_exp,
    nilpotent_log,
    semisimple_order,
    trace_criterion,
    wd_pair,
)

RM = RationalMatrix.from_rows
ROTATION = RM([[0, -1], [1, 0]])
JORDAN = RM([[1, 1], [0, 1]])
NEG_JORDAN = RM([[-1, 1], [0, -1]])


def test_matrix_basics():
    ident = RationalMatrix.identity(3)
    assert ident * ident == ident
    assert ROTATION.power(4).is_identity()
    assert ROTATION.trace() == 0
    assert RM([[2, 0], [0, 3]]).char_poly() == [6, -5, 1]
    assert RM([[1, 2], [3, 4]]).char_poly() == \
        [Fraction(-2), Fraction(-5), Fraction(1)]
    with pytest.raises(ValidationError):
        RM([[1, 2]])
    with pytest.raises(ValidationError, match="e >= 0"):
        ROTATION.power(-1)


def test_power_multiplies_left_to_right_without_a_wasted_product(monkeypatch):
    # square per bit after the leading one, times M per further 1 bit; a
    # right-to-left loop from the identity makes two products more
    M = RM([[1, 1], [0, 1]])
    multiply, calls = RationalMatrix.__mul__, []

    def counting(A, B):
        calls.append(1)
        return multiply(A, B)
    monkeypatch.setattr(RationalMatrix, "__mul__", counting)
    for e in range(1, 65):
        calls.clear()
        assert M.power(e) == RM([[1, e], [0, 1]])
        assert len(calls) == (e.bit_length() - 1) + (bin(e).count("1") - 1), e


def test_inverse():
    M = RM([[2, 1], [1, 1]])
    assert M * M.inverse() == RationalMatrix.identity(2)
    with pytest.raises(SingularInputError):
        RM([[1, 1], [1, 1]]).inverse()


def fraction_product(A, B):
    """Entrywise sums of Fraction products, the reference for __mul__."""
    cols = list(zip(*B.rows))
    return RM(tuple(
        tuple(sum((a * b for a, b in zip(row, col)), Fraction(0))
              for col in cols)
        for row in A.rows))


def hessenberg_char_poly(M):
    """Characteristic polynomial, low-to-high, by a Fraction Hessenberg reduction.

    Reduces a copy to upper Hessenberg form H by similarity (row
    elimination below the subdiagonal, each step undone on the columns),
    then runs the recurrence on the leading principal minors of x - H.
    It shares no step with `char_poly`, which is Faddeev-LeVerrier.
    """
    d = M.dim
    H = [list(row) for row in M.rows]
    for m in range(1, d - 1):
        pivot = next((i for i in range(m, d) if H[i][m - 1] != 0), None)
        if pivot is None:
            continue
        if pivot != m:
            H[pivot], H[m] = H[m], H[pivot]
            for row in H:
                row[pivot], row[m] = row[m], row[pivot]
        t = H[m][m - 1]
        for i in range(m + 1, d):
            u = H[i][m - 1] / t
            if u == 0:
                continue
            H[i] = [a - u * b for a, b in zip(H[i], H[m])]
            for row in H:
                row[m] += u * row[i]
    # p[m] is the characteristic polynomial of the leading m x m block
    p = [[Fraction(1)]]
    for m in range(d):
        pm = [Fraction(0)] + p[m]
        for k, c in enumerate(p[m]):
            pm[k] -= H[m][m] * c
        t = Fraction(1)
        for i in range(m - 1, -1, -1):
            t *= H[i + 1][i]
            if t == 0:
                break
            f = t * H[i][m]
            for k, c in enumerate(p[i]):
                pm[k] -= f * c
        p.append(pm)
    return p[d]


def faddeev_leverrier(M):
    """Characteristic polynomial, low-to-high, by d Fraction products: the
    algorithm `char_poly` runs on the integers, here on the Fraction grid."""
    d = M.dim
    coeffs_high = [Fraction(1)]  # x^d downwards
    ident = RationalMatrix.identity(d)
    Mk = M
    for k in range(1, d + 1):
        if k > 1:
            Mk = fraction_product(M, Mk - ident.scale(-coeffs_high[-1]))
        coeffs_high.append(-Mk.trace() / k)
    return list(reversed(coeffs_high))


def _random_rational(rng, d):
    kind = rng.choice(("integer", "sparse", "fraction"))

    def entry():
        if kind == "integer":
            return rng.randint(-4, 4)
        if kind == "sparse":
            return rng.choice((0, 0, 0, 1, -1, 2))
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return RM([[entry() for _ in range(d)] for _ in range(d)])


def _pivot_edge_cases():
    yield RM([[0]])
    yield RM([[0] * 5 for _ in range(5)])
    yield RationalMatrix.identity(4)
    for perm in ((1, 0), (2, 0, 1), (3, 2, 1, 0), (1, 3, 0, 2), (4, 0, 1, 2, 3)):
        d = len(perm)
        yield RM([[int(j == perm[i]) for j in range(d)] for i in range(d)])
    # whole subdiagonal columns zero: block upper triangular, already
    # Hessenberg in places, with the pivot needed only further down
    yield RM([[1, 2, 3, 4], [0, 5, 6, 7], [0, 0, 8, 9], [0, 0, 0, 10]])
    yield RM([[1, 2, 0, 0], [3, 4, 0, 0], [0, 0, 0, 5], [0, 0, 6, 0]])
    yield RM([[0, 1, 0, 0, 0], [0, 0, 0, 0, 0], [0, 1, 0, 0, 0],
              [1, 0, 0, 0, 2], [0, 0, 0, 1, 0]])
    yield RM([[Fraction(1, 2), 0, 0], [0, 0, 1], [0, Fraction(-1, 3), 0]])


def _singular(rng, d):
    """A d x d (d >= 2) integer matrix whose last row is the sum of the others."""
    rows = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(d - 1)]
    return RM(rows + [[sum(column) for column in zip(*rows)]])


def _char_poly_cases():
    rng = random.Random(23)
    yield from _pivot_edge_cases()
    for _ in range(120):
        yield _random_rational(rng, rng.randint(1, 10))
    # quasi-unipotent with den > 1: conjugated by diag(2, 1, ..., 1) times
    # a unimodular matrix, so the char poly is integral but the entries not
    for d in 2 * list(range(2, 9)):
        B, _ = random_quasi_unipotent(rng, d)
        P = RM([[2 if i == j == 0 else int(i == j) for j in range(d)]
                for i in range(d)]) * random_unimodular(rng, d)
        yield P * B * P.inverse()
    for d in (2, 3, 5, 8, 13, 22):
        yield random_non_quasi_unipotent(rng, d)
        yield _singular(rng, d)
    # 4000-digit entries, small enough for the Fraction oracles
    for d in range(1, 5):
        yield RM([[rng.randrange(-10 ** 4000, 10 ** 4000) for _ in range(d)]
                  for _ in range(d)])


def test_char_poly_matches_faddeev_leverrier():
    for M in _char_poly_cases():
        assert M.char_poly() == faddeev_leverrier(M), M.rows


def test_char_poly_matches_hessenberg():
    for M in _char_poly_cases():
        assert M.char_poly() == hessenberg_char_poly(M), M.rows


def test_char_poly_cases_cover_den_and_dimension():
    cases = list(_char_poly_cases())
    assert sum(M.den > 1 and is_quasi_unipotent(M) for M in cases) >= 5
    assert max(M.dim for M in cases) == 22
    assert any(M.char_poly()[0] == 0 for M in cases if M.dim == 22)
    assert any(M.num[0][0].bit_length() > 13000 for M in cases if M.dim == 4)


def test_char_poly_inexact_division_raises(monkeypatch):
    # the traces of Faddeev-LeVerrier are divisible by k for any integer
    # matrix; a wrong product must raise, also under python -O
    mul = RationalMatrix.__mul__

    def off_by_one(A, B):
        C = mul(A, B)
        return RationalMatrix(((C.num[0][0] + 1,) + C.num[0][1:],) + C.num[1:], C.den)
    monkeypatch.setattr(RationalMatrix, "__mul__", off_by_one)
    with pytest.raises(InvariantViolationError, match="not divisible"):
        RationalMatrix.identity(2).char_poly()


def test_char_poly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for M in _char_poly_cases():
        expected = sympy.Matrix(M.dim, M.dim, [sympy.Rational(a.numerator, a.denominator)
                                               for row in M.rows for a in row])
        coeffs = expected.charpoly(x).all_coeffs()[::-1]
        assert M.char_poly() == [Fraction(int(c.p), int(c.q)) for c in coeffs], M.rows


def test_matmul_and_inverse_match_fraction_reference():
    rng = random.Random(29)
    for A in _pivot_edge_cases():
        assert A * A == fraction_product(A, A)
    for _ in range(150):
        d = rng.randint(1, 8)
        A, B = _random_rational(rng, d), _random_rational(rng, d)
        assert A * B == fraction_product(A, B)
        if faddeev_leverrier(A)[0] == 0:
            with pytest.raises(SingularInputError):
                A.inverse()
        else:
            assert fraction_product(A, A.inverse()) == RationalMatrix.identity(d)


def test_is_unipotent():
    assert is_unipotent(RationalMatrix.identity(3))
    assert is_unipotent(JORDAN)
    assert not is_unipotent(ROTATION)
    assert not is_unipotent(RM([[1, 0], [0, 2]]))
    assert not is_unipotent(RM([[1, 1], [1, 1]]))  # singular: no exception
    # against the definition (M - I)^d = 0
    rng = random.Random(5)
    cases = [random_quasi_unipotent(rng, rng.randint(1, 5))[0] for _ in range(60)]
    cases += [random_non_quasi_unipotent(rng, rng.randint(2, 5)) for _ in range(20)]
    cases += [RM([[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)]
                  for _ in range(3)]) for _ in range(20)]
    for M in cases:
        d = M.dim
        assert is_unipotent(M) == (M - RationalMatrix.identity(d)).power(d).is_zero()


def test_jordan_chevalley_examples():
    S, U = jordan_chevalley(JORDAN)
    assert S.is_identity() and U == JORDAN

    S, U = jordan_chevalley(NEG_JORDAN)
    assert S == RM([[-1, 0], [0, -1]])
    assert U == RM([[1, -1], [0, 1]])
    assert S * U == NEG_JORDAN and S.power(2).is_identity()
    assert is_unipotent(U)

    # the split is read from the order of the finite-order part, so a
    # matrix that is not quasi-unipotent has none
    with pytest.raises(PreconditionViolatedError):
        jordan_chevalley(RM([[2, 0], [0, 3]]))

    with pytest.raises(SingularInputError):
        jordan_chevalley(RM([[0, 0], [0, 0]]))


def test_jordan_chevalley_is_polynomial_in_input():
    # solve for S in the span of I, M, ..., M^(d^2-1) on random cases
    rng = random.Random(7)
    for _ in range(10):
        d = rng.randint(2, 3)
        M, _ = random_quasi_unipotent(rng, d)
        S, _ = jordan_chevalley(M)
        powers = [RationalMatrix.identity(d)]
        for _ in range(d * d - 1):
            powers.append(powers[-1] * M)
        assert _in_span(S, powers)


def _in_span(target, basis):
    rows = []
    rhs = []
    d = target.dim
    for i in range(d):
        for j in range(d):
            rows.append([B.rows[i][j] for B in basis])
            rhs.append(target.rows[i][j])
    return _solvable(rows, rhs)


def _solvable(rows, rhs):
    rows = [list(r) + [v] for r, v in zip(rows, rhs)]
    cols = len(rows[0]) - 1
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    # inconsistent iff some row is (0 ... 0 | nonzero)
    return not any(all(x == 0 for x in row[:-1]) and row[-1] != 0
                   for row in rows)


def test_is_quasi_unipotent():
    assert is_quasi_unipotent(ROTATION)
    assert is_quasi_unipotent(NEG_JORDAN)
    assert not is_quasi_unipotent(RM([[2, 0], [0, Fraction(1, 2)]]))
    with pytest.raises(SingularInputError):
        is_quasi_unipotent(RM([[0, 0], [0, 1]]))


def test_quasi_unipotence_is_false_off_the_cyclotomic_products():
    # char poly x^2 - 5/2 x + 1 is not integral; x^2 - 3x + 1 is integral
    # but not a product of cyclotomic polynomials
    assert is_quasi_unipotent(RM([[Fraction(1, 2), 0], [0, 2]])) is False
    assert is_quasi_unipotent(RM([[2, 1], [1, 1]])) is False
    for M in (RM([[0, 0], [0, 2]]), RM([[0, 1], [0, 3]])):
        for check in (is_quasi_unipotent, semisimple_order, trace_criterion,
                      lambda M: wd_pair(M, 1)):
            with pytest.raises(SingularInputError):
                check(M)


def test_non_quasi_unipotent_at_d22_is_refused():
    # the order bound lcm{i : phi(i) <= 22} is about 1.6e11; nothing may
    # be raised to that power
    M = random_non_quasi_unipotent(random.Random(31), 22)
    assert not is_quasi_unipotent(M)
    with pytest.raises(PreconditionViolatedError):
        wd_pair(M, 1)


def test_trace_criterion_examples():
    assert trace_criterion(RM([[1, 5], [0, 1]]))
    assert not trace_criterion(ROTATION)
    with pytest.raises(PreconditionViolatedError):
        trace_criterion(RM([[2, 0], [0, 2]]))


def test_trace_criterion_matches_unipotence():
    rng = random.Random(11)
    for _ in range(200):
        d = rng.randint(1, 4)
        M, expected_unipotent = random_quasi_unipotent(rng, d)
        assert is_unipotent(M) == expected_unipotent
        assert trace_criterion(M) == expected_unipotent


def test_nilpotency_boundaries():
    for d in range(1, 8):
        # full Jordan block: N^(d-1) != 0 and N^d = 0
        N = RM([[int(j == i + 1) for j in range(d)] for i in range(d)])
        assert not N.power(d - 1).is_zero() and N.power(d).is_zero()
        E = nilpotent_exp(N)
        assert E == RM([[Fraction(1, math.factorial(j - i)) if j >= i else 0
                         for j in range(d)] for i in range(d)])
        assert nilpotent_log(E) == N
        assert nilpotent_log(RationalMatrix.identity(d)).is_zero()
        # one nonzero eigenvalue: X^k != 0 for every k
        X = RM([[1 if (i, j) == (d - 1, d - 1) else int(j == i + 1)
                 for j in range(d)] for i in range(d)])
        with pytest.raises(NotNilpotentError):
            nilpotent_exp(X)
        with pytest.raises(NotUnipotentError):
            nilpotent_log(X - RationalMatrix.identity(d).scale(-1))
    assert nilpotent_exp(RM([[0]])) == RM([[1]])
    with pytest.raises(NotNilpotentError):
        nilpotent_exp(RM([[Fraction(1, 3)]]))
    with pytest.raises(NotUnipotentError):
        nilpotent_log(RM([[-1]]))


def test_nilpotent_log_exp_examples():
    assert nilpotent_exp(RM([[0] * 3 for _ in range(3)])).is_identity()
    assert nilpotent_log(JORDAN) == RM([[0, 1], [0, 0]])
    with pytest.raises(NotUnipotentError):
        nilpotent_log(ROTATION)
    with pytest.raises(NotNilpotentError):
        nilpotent_exp(RationalMatrix.identity(2))


def test_log_exp_round_trip():
    rng = random.Random(13)
    for _ in range(50):
        d = rng.randint(1, 5)
        P = random_unimodular(rng, d)
        upper = [[1 if i == j else (rng.randint(-3, 3) if j > i else 0)
                  for j in range(d)] for i in range(d)]
        U = P * RM(upper) * P.inverse()
        N = nilpotent_log(U)
        assert nilpotent_exp(N) == U
        assert nilpotent_log(nilpotent_exp(N)) == N


def test_wd_pair_examples():
    pair = wd_pair(JORDAN, 1)
    assert pair.r.is_identity()
    assert pair.n == RM([[0, 1], [0, 0]])

    pair = wd_pair(NEG_JORDAN, 1)
    assert pair.r == RM([[-1, 0], [0, -1]])
    assert pair.n == RM([[0, -1], [0, 0]])

    pair = wd_pair(RM([[1, 2], [0, 1]]), 2)
    assert pair.n == RM([[0, 1], [0, 0]])


def test_wd_pair_validation():
    with pytest.raises(ZeroTauError):
        wd_pair(JORDAN, 0)
    with pytest.raises(PreconditionViolatedError):
        wd_pair(RM([[2, 0], [0, 2]]), 1)


def test_the_library_takes_exact_numbers_only(monkeypatch):
    # a float, a string or a bool is refused before any work: no 332 193-bit
    # tau from "1e100000", no binary value of 0.1, no tau = 1 from True
    def no_split(M):
        raise AssertionError("the split ran")

    monkeypatch.setattr(wd_matrix, "_split", no_split)
    for bad in ("1e100000", True, 0.5):
        with pytest.raises(ValidationError, match="need an int or a Fraction"):
            wd_pair(JORDAN, bad)
        with pytest.raises(ValidationError, match="need an int or a Fraction"):
            JORDAN.scale(bad)
    for bad in (0.1, "1", True, None):
        with pytest.raises(ValidationError, match="need an int or a Fraction"):
            RM([[1, 0], [0, bad]])


def test_the_constructor_takes_ints_only_and_normalizes():
    # the record itself refuses what from_rows would have to convert: a
    # float never reaches wd_pair, a Fraction never hides a second denominator
    M = RationalMatrix(((2, 4), (6, 8)), -2)
    assert (M.num, M.den) == (((-1, -2), (-3, -4)), 1)
    assert M == RM([[-1, -2], [-3, -4]])
    assert RationalMatrix(((0, 0), (0, 0)), -7) == RationalMatrix(((0, 0), (0, 0)))
    assert RationalMatrix(((3,),), 6) == RM([[Fraction(1, 2)]])
    for bad in (0.5, True, "1", Fraction(1)):
        with pytest.raises(ValidationError, match="must be ints"):
            RationalMatrix(((1, 0), (0, bad)))
        with pytest.raises(ValidationError, match="must be ints"):
            RationalMatrix(((1, 0), (0, 1)), bad)
    with pytest.raises(ValidationError, match="nonzero int"):
        RationalMatrix(((1, 0), (0, 1)), 0)
    assert RationalMatrix(((1, 2), (3, 4))) == RM([[1, 2], [3, 4]])


def test_the_constructor_refuses_list_rows():
    # a list is unhashable and never equal to a tuple: such a record would
    # break hashing and == ; from_rows is the way in for lists
    for num in ([[1, 2], [3, 4]], [(1, 2), (3, 4)], ((1, 2), [3, 4])):
        with pytest.raises(ValidationError, match="tuple rows"):
            RationalMatrix(num)
    assert hash(RM([[1, 2], [3, 4]])) == hash(RationalMatrix(((1, 2), (3, 4))))


def test_matrices_of_different_sizes_are_refused():
    # zip stops at the shorter rows, so A - B would answer a 2x2 matrix
    A, B = RationalMatrix.identity(3), RationalMatrix.identity(2)
    with pytest.raises(ValidationError, match="3x3 and 2x2"):
        A - B
    with pytest.raises(ValidationError, match="3x3 and 2x2"):
        A * B
    with pytest.raises(ValidationError, match="2x2 and 3x3"):
        B * A


def _in_lowest_terms(M):
    return M.den >= 1 and math.gcd(M.den, *(x for row in M.num for x in row)) == 1


def _fraction_entrywise(f, *mats):
    """f applied to the Fraction entries at each (i, j), the reference for - and scale."""
    return RM([[f(*xs) for xs in zip(*rows)] for rows in zip(*(M.rows for M in mats))])


def _fraction_series(X, coeff):
    """sum coeff(k) X^k by Fraction products, up to the first zero power."""
    d = X.dim
    total = RM([[coeff(0) * (i == j) for j in range(d)] for i in range(d)])
    power, k = X, 1
    while not all(a == 0 for row in power.rows for a in row):
        total = _fraction_entrywise(lambda t, a: t + coeff(k) * a, total, power)
        power, k = fraction_product(power, X), k + 1
    return total


def test_integer_arithmetic_matches_fraction_reference():
    rng = random.Random(43)
    cases = list(_pivot_edge_cases())
    cases += [_random_rational(rng, rng.randint(1, 6)) for _ in range(120)]
    cases += [RM([[Fraction(rng.randint(-9, 9), rng.randint(1, 9))]]) for _ in range(10)]
    negative_det = 0
    for A in cases:
        d = A.dim
        B = _random_rational(rng, d)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        e = rng.randint(0, 4)
        results = [A * B, A - B, A.scale(c), A.power(e)]
        assert results[0] == fraction_product(A, B)
        assert results[1] == _fraction_entrywise(lambda a, b: a - b, A, B)
        assert results[2] == _fraction_entrywise(lambda a: c * a, A)
        expected = RationalMatrix.identity(d)
        for _ in range(e):
            expected = fraction_product(expected, A)
        assert results[3] == expected
        det = faddeev_leverrier(A)[0] * (-1) ** d
        if det != 0:
            negative_det += det < 0
            inverse = A.inverse()
            assert fraction_product(A, inverse) == RationalMatrix.identity(d)
            assert fraction_product(A.power(2), inverse.power(2)) == RationalMatrix.identity(d)
            results += [inverse, inverse.power(3)]
        assert all(_in_lowest_terms(R) and RM(R.rows) == R for R in results)
    assert negative_det > 20
    # log and exp on conjugated strictly upper triangular rational matrices
    for _ in range(40):
        d = rng.randint(1, 5)
        P = random_unimodular(rng, d)
        T = RM([[Fraction(rng.randint(-4, 4), rng.randint(1, 4)) if j > i else 0
                 for j in range(d)] for i in range(d)])
        N = P * T * P.inverse()
        E = nilpotent_exp(N)
        assert E == _fraction_series(N, lambda k: Fraction(1, math.factorial(k)))
        X = E - RationalMatrix.identity(d)
        assert nilpotent_log(E) == _fraction_series(
            X, lambda k: Fraction((-1) ** (k + 1), k) if k else 0) == N
        assert _in_lowest_terms(E) and _in_lowest_terms(nilpotent_log(E))


def test_wd_pair_never_reads_the_fraction_grid(monkeypatch):
    # no step reads `rows`, the char poly included: all of it stays on the
    # integers, and only its coefficients are Fractions
    M, _ = random_quasi_unipotent(random.Random(16), 16)
    reads = []
    rows = RationalMatrix.rows
    monkeypatch.setattr(RationalMatrix, "rows",
                        property(lambda M: reads.append(M) or rows.fget(M)))
    wd_pair(M, 1)
    assert reads == []


def test_int_and_fraction_inputs_are_unchanged():
    M = RM([[1, Fraction(1, 2)], [0, -3]])
    assert M.rows == ((Fraction(1), Fraction(1, 2)), (Fraction(0), Fraction(-3)))
    assert all(type(x) is Fraction for row in M.rows for x in row)
    assert M.scale(2) == M.scale(Fraction(2)) == RM([[2, 1], [0, -6]])
    pair = wd_pair(RM([[1, 2], [0, 1]]), 2)
    assert pair == wd_pair(RM([[1, 2], [0, 1]]), Fraction(2))
    assert type(pair.tau) is Fraction and pair.tau == 2


def test_wd_pair_reconstruction_check_raises(monkeypatch):
    # a wrong exp(L) from the split (here L itself) must trip the
    # reconstruction check, also under python -O; r is untouched, so
    # r^m = I still holds
    true_split = wd_matrix._split

    def split_with_wrong_exp(M):
        m, L, r, _ = true_split(M)
        return m, L, r, L
    monkeypatch.setattr(wd_matrix, "_split", split_with_wrong_exp)
    with pytest.raises(InvariantViolationError, match="reproduce M"):
        wd_pair(JORDAN, 1)


def test_wd_pair_finite_order_check_raises(monkeypatch):
    # a wrong log passes the reconstruction check, since r = M * exp(-L);
    # r^m = I must catch it
    true_log = wd_matrix.nilpotent_log
    monkeypatch.setattr(wd_matrix, "nilpotent_log", lambda U: true_log(U).scale(2))
    with pytest.raises(InvariantViolationError):
        wd_pair(NEG_JORDAN, 1)


def test_quasi_unipotent_with_non_integer_entries():
    # quasi-unipotence is read off the char poly, which stays integral
    # under conjugation by diag(2, 1, ..., 1), while the entries do not
    rng = random.Random(41)
    cases = [(RM([[0, Fraction(1, 2)], [-2, 0]]), 4)]
    for _ in range(40):
        d = rng.randint(2, 5)
        B, _ = random_quasi_unipotent(rng, d)
        P = RM([[2 if i == j == 0 else int(i == j) for j in range(d)]
                for i in range(d)]) * random_unimodular(rng, d)
        M = P * B * P.inverse()
        if any(a.denominator != 1 for row in M.rows for a in row):
            cases.append((M, semisimple_order(B)))
    assert len(cases) > 20
    for M, order in cases:
        assert semisimple_order(M) == order
        tau = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        pair = wd_pair(M, tau)
        assert pair.r * nilpotent_exp(pair.n.scale(tau)) == M
        assert pair.r.power(order).is_identity()


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# cyclotomic polynomials, low-to-high
PHI = {3: [1, 1, 1], 5: [1] * 5, 6: [1, -1, 1], 7: [1] * 7, 11: [1] * 11}


def _companion_blocks(polys):
    """Block-diagonal matrix of the companion matrices of monic polys."""
    d = sum(len(p) - 1 for p in polys)
    rows = [[0] * d for _ in range(d)]
    pos = 0
    for p in polys:
        k = len(p) - 1
        for i in range(k):
            if i:
                rows[pos + i][pos + i - 1] = 1
            rows[pos + i][pos + k - 1] = -p[i]
        pos += k
    return RM(rows)


def _large_order_cases():
    """(block matrix, semisimple order, whether N = 0) at d = 22; the
    generated matrices only reach orders up to 12."""
    yield _companion_blocks([PHI[11], PHI[7], PHI[5], PHI[6]]), 2310, True
    # the companion matrix of Phi_7^2 is not semisimple
    yield (_companion_blocks([_poly_mul(PHI[7], PHI[7]),
                              _poly_mul(PHI[5], PHI[5]), PHI[3]]), 105, False)


def test_wd_pair_reconstruction_and_commutation():
    rng = random.Random(17)
    cases = [(random_quasi_unipotent(rng, rng.randint(1, 4))[0], None)
             for _ in range(50)]
    for B, order, n_is_zero in _large_order_cases():
        P = random_unimodular(rng, B.dim)
        M = P * B * P.inverse()
        assert semisimple_order(M) == order
        cases.append((M, n_is_zero))
    for M, n_is_zero in cases:
        tau = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        pair = wd_pair(M, tau)
        L = pair.n.scale(tau)
        # one split, two views: jordan_chevalley gives the same r and exp(L)
        S, U = jordan_chevalley(M)
        assert (S, U) == (pair.r, nilpotent_exp(L))
        assert (U * nilpotent_exp(L.scale(-1))).is_identity()
        assert pair.r * U == M
        assert pair.r * pair.n == pair.n * pair.r
        assert pair.n.power(M.dim).is_zero()
        assert pair.r.power(semisimple_order(M)).is_identity()
        if n_is_zero is not None:
            assert pair.n.is_zero() == n_is_zero


def _brute_force_order(S, bound):
    power = S
    for k in range(1, bound + 1):
        if power.is_identity():
            return k
        power = power * S
    raise AssertionError(f"no S^k = I for k <= {bound}")


def test_semisimple_order_matches_brute_force():
    rng = random.Random(37)
    for _ in range(60):
        d = rng.randint(1, 6)
        M, _ = random_quasi_unipotent(rng, d)
        S, _ = jordan_chevalley(M)
        bound = math.lcm(*phi_inverse_set(d))
        assert semisimple_order(M) == _brute_force_order(S, bound)
    for M, order in ((ROTATION, 4), (NEG_JORDAN, 2), (JORDAN, 1),
                     (RM([[0, -1], [1, -1]]), 3), (RM([[0, -1], [1, 1]]), 6)):
        assert semisimple_order(M) == order


def test_semisimple_order_divides_totient_lcm():
    rng = random.Random(19)
    for _ in range(100):
        d = rng.randint(1, 4)
        M, _ = random_quasi_unipotent(rng, d)
        order = semisimple_order(M)
        assert math.lcm(*phi_inverse_set(d)) % order == 0
    assert semisimple_order(ROTATION) == 4
    with pytest.raises(PreconditionViolatedError):
        semisimple_order(RM([[2, 0], [0, 2]]))


@given(st.integers(min_value=0, max_value=2 ** 32),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_semisimple_order_divides_c_d_and_tame_lcm(seed, d):
    # the finite-order part generates a finite subgroup of GL_d(Q) of that
    # order, so the order divides Minkowski's bound c_d(d, p), and it is
    # the lcm of orders i with phi(i) <= d, so it divides tame_lcm
    M, _ = random_quasi_unipotent(random.Random(seed), d)
    order = semisimple_order(M)
    for p in (2, 3, 5):
        assert c_d(d, p)[0].value() % order == 0
        assert refined_bound(d, p).tame_lcm % order == 0
