"""Independent oracles used only by the tests: naive determinants,
companion matrices and matrix polynomials."""

import itertools
from fractions import Fraction

from monomap import exact


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
    acc = exact.Matrix.identity(M.m)
    total = acc.scale(0)
    for c in chi.full_coeffs():
        total = total + acc.scale(c)
        acc = acc @ M
    return total
