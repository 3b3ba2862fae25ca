"""Exact arbitrary-precision linear algebra over the rationals.

Matrices are immutable, entries are `fractions.Fraction` (always canonically
reduced with positive denominator, so equality is bit-exact).  Everything in
this module is a pure function; values can be shared freely between threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import SingularMatrixError

Vec = tuple[Fraction, ...]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def vec(entries) -> Vec:
    return tuple(_frac(x) for x in entries)


@dataclass(frozen=True)
class Matrix:
    """Square matrix with exact rational entries, stored row-major."""

    rows: tuple[Vec, ...]

    def __post_init__(self):
        m = len(self.rows)
        if m == 0 or any(len(r) != m for r in self.rows):
            raise ValueError("matrix must be square and non-empty")

    @staticmethod
    def from_rows(rows) -> "Matrix":
        return Matrix(tuple(vec(r) for r in rows))

    @staticmethod
    def identity(m: int) -> "Matrix":
        one, zero = Fraction(1), Fraction(0)
        return Matrix(tuple(tuple(one if i == j else zero for j in range(m))
                            for i in range(m)))

    @staticmethod
    def diagonal(entries) -> "Matrix":
        d = vec(entries)
        zero = Fraction(0)
        return Matrix(tuple(tuple(d[i] if i == j else zero for j in range(len(d)))
                            for i in range(len(d))))

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def is_integer(self) -> bool:
        return all(x.denominator == 1 for r in self.rows for x in r)

    @property
    def is_dominant(self) -> bool:
        """Whether the attached monomial map is dominant: det != 0, exactly."""
        return det(self) != 0

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def column(self, j: int) -> Vec:
        return tuple(r[j] for r in self.rows)

    def transpose(self) -> "Matrix":
        return Matrix(tuple(zip(*self.rows)))

    def trace(self) -> Fraction:
        return sum((self.rows[i][i] for i in range(self.m)), Fraction(0))

    def scale(self, c) -> "Matrix":
        c = _frac(c)
        return Matrix(tuple(tuple(c * x for x in r) for r in self.rows))

    def abs_entries(self) -> "Matrix":
        return Matrix(tuple(tuple(abs(x) for x in r) for r in self.rows))

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.m != other.m:
            raise ValueError("dimension mismatch")
        return Matrix(tuple(tuple(a + b for a, b in zip(ra, rb))
                            for ra, rb in zip(self.rows, other.rows)))

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.m != other.m:
            raise ValueError("dimension mismatch")
        cols = other.transpose().rows
        return Matrix(tuple(tuple(_dot(r, c) for c in cols) for r in self.rows))

    def apply(self, v) -> Vec:
        v = vec(v)
        if len(v) != self.m:
            raise ValueError("dimension mismatch")
        return tuple(_dot(r, v) for r in self.rows)

    def __pow__(self, n: int) -> "Matrix":
        return mat_pow(self, n)


def _dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def multi_indices(m: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All size-k multi-indices of {1,...,m} in lexicographic order."""
    return tuple(itertools.combinations(range(1, m + 1), k))


def det(M: Matrix) -> Fraction:
    """Determinant by fraction-free (Bareiss) elimination.

    Rows are first scaled to integers; intermediate values are then minors of
    the scaled matrix, which keeps entry growth polynomial.
    """
    n = M.m
    scale = 1
    rows = []
    for r in M.rows:
        d = lcm(*(x.denominator for x in r)) if n else 1
        scale *= d
        rows.append([int(x * d) for x in r])
    sign = 1
    prev = 1
    for j in range(n - 1):
        piv = next((i for i in range(j, n) if rows[i][j] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != j:
            rows[j], rows[piv] = rows[piv], rows[j]
            sign = -sign
        pj = rows[j][j]
        for i in range(j + 1, n):
            rij = rows[i][j]
            ri, rj = rows[i], rows[j]
            for c in range(j + 1, n):
                ri[c] = (ri[c] * pj - rij * rj[c]) // prev
            ri[j] = 0
        prev = pj
    return Fraction(sign * rows[n - 1][n - 1], scale)


def submatrix(M: Matrix, rows_1based, cols_1based) -> Matrix:
    return Matrix(tuple(tuple(M.rows[i - 1][j - 1] for j in cols_1based)
                        for i in rows_1based))


def minor(M: Matrix, I, J) -> Fraction:
    """Determinant of the submatrix with rows I and columns J (1-based)."""
    I, J = tuple(I), tuple(J)
    if len(I) != len(J):
        raise ValueError("row and column multi-indices must have equal size")
    return det(submatrix(M, I, J))


@dataclass(frozen=True)
class ExteriorMatrix:
    """Matrix of all k x k minors in lex multi-index order (the map on Lambda^k)."""

    source_dim: int
    k: int
    matrix: Matrix

    @property
    def labels(self) -> tuple[tuple[int, ...], ...]:
        return multi_indices(self.source_dim, self.k)


def exterior_power(M: Matrix, k: int) -> ExteriorMatrix:
    m = M.m
    if not 1 <= k <= m:
        raise ValueError(f"k must satisfy 1 <= k <= {m}")
    idx = multi_indices(m, k)
    rows = tuple(tuple(minor(M, I, J) for J in idx) for I in idx)
    return ExteriorMatrix(m, k, Matrix(rows))


def mat_pow(M: Matrix, n: int) -> Matrix:
    if n < 0:
        raise ValueError("negative power")
    result = Matrix.identity(M.m)
    base = M
    while n:
        if n & 1:
            result = result @ base
        base = base @ base if n > 1 else base
        n >>= 1
    return result


@dataclass(frozen=True)
class CharPoly:
    """Monic characteristic polynomial; coeffs[i] is the coefficient of r^i."""

    coeffs: tuple[Fraction, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def full_coeffs(self) -> tuple[Fraction, ...]:
        """Ascending coefficients including the leading 1."""
        return self.coeffs + (Fraction(1),)


def char_poly(M) -> CharPoly:
    """Characteristic polynomial det(rI - M) by Faddeev-LeVerrier (exact)."""
    if isinstance(M, ExteriorMatrix):
        M = M.matrix
    n = M.m
    coeffs = [Fraction(0)] * n
    Mk = M
    coeffs[n - 1] = -Mk.trace()
    for k in range(2, n + 1):
        Mk = M @ (Mk + Matrix.identity(n).scale(coeffs[n - k + 1]))
        coeffs[n - k] = -Mk.trace() / k
    return CharPoly(tuple(coeffs))


def row_reduce(rows):
    """Gauss-Jordan elimination over the rationals, one row at a time.

    Returns (ids, pivots): ids lists, in order, the rows that are independent
    of the rows before them; pivots maps each pivot column to its reduced row,
    which is 1 in that column and 0 in every other pivot column.  Stops once
    every column has a pivot.
    """
    ids, pivots = [], {}
    for i, row in enumerate(rows):
        row = vec(row)
        for col, prow in pivots.items():
            f = row[col]
            if f != 0:
                row = tuple(a - f * b for a, b in zip(row, prow))
        col = next((j for j, x in enumerate(row) if x != 0), None)
        if col is None:
            continue
        p = row[col]
        row = tuple(x / p for x in row)
        for c, prow in pivots.items():
            f = prow[col]
            if f != 0:
                pivots[c] = tuple(a - f * b for a, b in zip(prow, row))
        pivots[col] = row
        ids.append(i)
        if len(pivots) == len(row):
            break
    return ids, pivots


def solve_matrix(V: Matrix, C: Matrix) -> Matrix:
    """Solve V X = C exactly; raises SingularMatrixError if V is singular."""
    n = V.m
    _, pivots = row_reduce(a + b for a, b in zip(V.rows, C.rows))
    if any(j not in pivots for j in range(n)):
        raise SingularMatrixError("matrix is singular")
    return Matrix(tuple(pivots[j][n:] for j in range(n)))


def inverse(M: Matrix) -> Matrix:
    return solve_matrix(M, Matrix.identity(M.m))


def change_of_basis(A: Matrix, basis) -> Matrix:
    """Matrix of A in the given basis: returns B with A V = V B (V columns = basis)."""
    cols = [vec(b) for b in basis]
    if len(cols) != A.m or any(len(c) != A.m for c in cols):
        raise ValueError("basis must consist of m vectors of length m")
    V = Matrix(tuple(zip(*cols)))
    return solve_matrix(V, A @ V)


def primitive_vector(v) -> tuple[int, ...]:
    """The unique integer point on the ray R+ v with coordinate gcd 1."""
    v = vec(v)
    if all(x == 0 for x in v):
        raise ValueError("zero vector has no primitive representative")
    denom = lcm(*(x.denominator for x in v))
    ints = [int(x * denom) for x in v]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def rank_of_rows(rows) -> int:
    """Exact rank of a list of rational row vectors."""
    return len(row_reduce(rows)[0])
