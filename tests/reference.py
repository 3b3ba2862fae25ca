"""Independent oracles used only by the tests: naive determinants,
companion matrices, matrix polynomials and k-stability by exact powers."""

import itertools
from fractions import Fraction

from monomap import dynamics, exact


def det_leibniz(M: exact.Matrix) -> Fraction:
    """Naive permutation-sum determinant; test oracle for small m."""
    n = M.m
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        p = Fraction(1)
        for i, j in enumerate(perm):
            p *= M.rows[i][j]
        total += _perm_sign(perm) * p
    return total


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def companion(chi: exact.CharPoly) -> exact.Matrix:
    """The companion matrix whose characteristic polynomial is chi."""
    L = chi.degree
    rows = []
    for i in range(L):
        row = [Fraction(0)] * L
        if i > 0:
            row[i - 1] = Fraction(1)
        row[L - 1] = -chi.coeffs[i]
        rows.append(tuple(row))
    return exact.Matrix(tuple(rows))


def evaluate_char_poly_at_matrix(chi: exact.CharPoly, M: exact.Matrix) -> exact.Matrix:
    """chi(M) as the sum of c_i M^i, entry by entry."""
    acc = exact.Matrix.identity(M.m)
    total = [[Fraction(0)] * M.m for _ in range(M.m)]
    for c in chi.full_coeffs():
        for row, acc_row in zip(total, acc.rows):
            for j, x in enumerate(acc_row):
                row[j] += c * x
        acc = acc @ M
    return exact.Matrix.from_rows(total)


def stability_by_powers(A: exact.Matrix, model, k: int, horizon: int):
    """(verdict, failure_power, minor_signs) of a k-stability check the slow
    way: for n = 2..horizon, the n-th power of the pullback of A against the
    pullback of the exact power A^n.  Mixed signs without a failure up to the
    horizon read NO_FAILURE_UP_TO_HORIZON."""
    pb = dynamics.pullback_matrix(A, model, k)
    signs = tuple(tuple((x > 0) - (x < 0) for x in row) for row in pb.signed.rows)
    if not {1, -1} <= {x for row in signs for x in row}:
        return "STABLE_BY_SIGN", None, signs
    iterated = pb.matrix
    for n in range(2, horizon + 1):
        iterated = iterated @ pb.matrix
        if iterated != dynamics.pullback_matrix(exact.mat_pow(A, n), model, k).matrix:
            return "FUNCTORIALITY_FAILS", n, signs
    return "NO_FAILURE_UP_TO_HORIZON", None, signs
