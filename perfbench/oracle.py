"""Independent exact arithmetic for checking monomap's answers.

Nothing here calls monomap: determinants and minors come from Laplace
expansion over column subsets (not elimination), ranks and inverses from
plain Gauss-Jordan on Fractions, characteristic polynomials from
Faddeev-LeVerrier, and eigenvalues from mpmath's QR eigensolver on the
matrix itself (monomap finds them as roots of factors of its exact
characteristic polynomial).  Matrices are lists of rows.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial

import mpmath


def mat_mul(X, Y):
    cols = list(zip(*Y))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in X]


def mat_pow(X, n):
    m = len(X)
    out = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(n):
        out = mat_mul(out, X)
    return out


def all_minors(X, k):
    """{(I, J): det X[I, J]} for all size-k row and column sets (0-based).

    Built row by row: a minor on rows I is the expansion along its last row
    of minors on I minus that row.
    """
    m = len(X)
    layer = {((), ()): 1}
    for size in range(1, k + 1):
        nxt = {}
        for I in combinations(range(m), size):
            row, rest = X[I[-1]], I[:-1]
            for J in combinations(range(m), size):
                total = 0
                for pos, j in enumerate(J):
                    if row[j]:
                        sub = layer[(rest, J[:pos] + J[pos + 1:])]
                        term = row[j] * sub
                        total += -term if (size - 1 + pos) % 2 else term
                nxt[(I, J)] = total
        layer = nxt
    return layer


def det(X):
    """Determinant by Laplace expansion, memoised over column subsets."""
    n = len(X)
    if n == 0:
        return 1
    layer = {(): 1}
    for r in range(n):
        nxt = {}
        for J in combinations(range(n), r + 1):
            total = 0
            for pos, j in enumerate(J):
                if X[r][j]:
                    term = X[r][j] * layer[J[:pos] + J[pos + 1:]]
                    total += -term if (r + pos) % 2 else term
            nxt[J] = total
        layer = nxt
    return layer[tuple(range(n))]


def rank(rows):
    work = [[Fraction(x) for x in r] for r in rows]
    r = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(r + 1, len(work)):
            if work[i][c] != 0:
                f = work[i][c] / work[r][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
    return r


def inverse(X):
    n = len(X)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(X)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        p = aug[c][c]
        aug[c] = [x / p for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def in_basis(A, U):
    """U^-1 A U: the matrix of A in the basis given by the columns of U."""
    return mat_mul(inverse(U), mat_mul(A, U))


def char_poly(X):
    """(c_0, ..., c_{m-1}) of det(xI - X) = x^m + c_{m-1} x^{m-1} + ... + c_0,
    by Faddeev-LeVerrier."""
    m = len(X)
    coeffs = [Fraction(0)] * m
    M = [[0] * m for _ in range(m)]
    c = Fraction(1)
    for k in range(1, m + 1):
        M = [[M[i][j] + (c if i == j else 0) for j in range(m)] for i in range(m)]
        AM = mat_mul(X, M)
        c = -sum(AM[i][i] for i in range(m)) / k
        coeffs[m - k] = c
        M = AM
    return tuple(coeffs)


EIGEN_DIGITS = 50
TIE = mpmath.mpf("1e-15")  # relative modulus gap below which two moduli tie
APART = mpmath.mpf("1e-8")  # and above which they clearly differ
ROOT_ORDERS = range(1, 7)


def modulus_gaps(X):
    """What the eigensolver says about |mu_k| versus |mu_{k+1}|, k = 1..m-1.

    Eigenvalues come from mpmath's QR eigensolver at EIGEN_DIGITS digits: a
    simple one to about that many digits, an r-fold one to about 1/r of them.
    Returns (apart, orders, odd_tie): apart[k-1] is True when the moduli
    clearly differ, False when they tie and None when the eigensolver cannot
    tell; orders[k] lists the j in 1..6 with (mu_k / mu_{k+1})^j = 1 when
    exactly two eigenvalues share that modulus, and is None when more do,
    since the pair is then ambiguous; odd_tie is True when the eigensolver
    cannot tell some gap, or when two eigenvalues of one modulus are neither
    equal nor complex conjugates (the only ties exact data cannot settle).
    """
    m = len(X)
    with mpmath.workdps(EIGEN_DIGITS):
        ev = sorted(mpmath.eig(mpmath.matrix(X), left=False, right=False),
                    key=abs, reverse=True)
        mods = [abs(z) for z in ev]
        apart = []
        for k in range(1, m):
            d = (mods[k - 1] - mods[k]) / max(1, mods[k - 1])
            apart.append(True if d > APART else False if d < TIE else None)
        close = lambda a, b: abs(a - b) < APART * max(1, abs(a))  # noqa: E731
        odd_tie = None in apart
        start = 0
        for k in range(1, m + 1):
            if k == m or apart[k - 1] is not False:  # a tie group ends at k
                group = ev[start:k]
                odd_tie |= any(not close(a, b) and not close(a, mpmath.conj(b))
                               for i, a in enumerate(group) for b in group[i + 1:])
                start = k
        orders = {}
        for k in range(1, m):
            if apart[k - 1] is not False:
                continue
            if (k >= 2 and apart[k - 2] is not True) or (k < m - 1 and apart[k] is not True):
                orders[k] = None
                continue
            r = ev[k - 1] / ev[k]
            orders[k] = tuple(j for j in ROOT_ORDERS if abs(r ** j - 1) < APART)
    return apart, orders, odd_tie


def exterior_power(X, k):
    """Matrix of the k x k minors of X, rows and columns in lex order."""
    mins = all_minors(X, k)
    idx = list(combinations(range(len(X)), k))
    return [[mins[(I, J)] for J in idx] for I in idx]


def minor_signs(B, k):
    """Sign matrix of the k x k minors of B, rows and columns in lex order."""
    return tuple(tuple((v > 0) - (v < 0) for v in row) for row in exterior_power(B, k))


def uniform_sign(signs):
    """'+' or '-' when no two minors have opposite signs, else None."""
    flat = [s for row in signs for s in row]
    if -1 not in flat:
        return "+"
    if 1 not in flat:
        return "-"
    return None


# ---------------------------------------------------------------------------
# closed forms

def simplex_degree_k1(A):
    """deg_1 of f_A on projective space, O(1): the degree of the monomial map."""
    m = len(A)
    lows = sum(max(0, -min(A[i][j] for j in range(m))) for i in range(m))
    return lows + max(0, max(sum(A[i][j] for i in range(m)) for j in range(m)))


def zonotope_degree(A, U, k):
    """deg_k of f_A on the product-divisor polytope sum_j [0, u_j].

    Mixed volumes of zonotopes are sums of |det| over generator choices; in
    the basis u that is k!(m-k)! |det U| times the sum of |k-minors|.
    """
    m = len(A)
    B = in_basis(A, U)
    total = sum(abs(v) for v in all_minors(B, k).values())
    return factorial(k) * factorial(m - k) * abs(det(U)) * total


def segment_family_volume(us):
    """V([0,u_1], ..., [0,u_m]) = |det u| / m!."""
    return Fraction(abs(det(us)), factorial(len(us)))


def body_with_segments_volume(vertices, us):
    """V(K, [0,u_1], ..., [0,u_{m-1}]) = width of K along det(u, .) / m!."""
    m = len(vertices[0])
    vals = [det([list(u) for u in us] + [list(v)]) for v in vertices]
    return Fraction(max(vals) - min(vals), factorial(m))


# ---------------------------------------------------------------------------
# recurrences

def recurrence_fits(vals, r):
    """True when some monic order-r recurrence holds on every term."""
    eqs = [list(vals[n:n + r]) for n in range(len(vals) - r)]
    rhs = [[-vals[n + r]] for n in range(len(vals) - r)]
    return rank(eqs) == rank([e + b for e, b in zip(eqs, rhs)])


def hankel_ranks(vals, size):
    return tuple(rank([vals[i:i + s] for i in range(s)]) for s in range(1, size + 1))
