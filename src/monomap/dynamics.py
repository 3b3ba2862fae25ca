"""Skew-product toric models and stability of monomial maps.

A rational basis epsilon_1, ..., epsilon_m of M_Q determines a complete
simplicial projective fan whose rays are spanned by primitive vectors +-v_j;
the variety is a twisted product of projective lines.  On such a model the
pullback of f_A on codimension-k classes is the matrix of absolute k x k
minors of A written in the dual-normalized basis u_j, so sign-uniform minors
certify k-stability exactly.  This module builds the models, checks the sign
certificates, constructs a stabilizing basis (Theorem A) and a model for the
stabilizing-power search (Theorem B), runs that search, and computes degree
sequences as exact mixed volumes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import mpmath

from . import exact, geometry, spectral
from .errors import (
    DegeneratePolytopeError,
    PreconditionError,
    SearchExhausted,
    SingularMatrixError,
)

DEFAULT_MAX_L = 64
DEFAULT_CONFIRM_WINDOW = 8
DEFAULT_DENOMINATOR_BOUND = 10**4


@dataclass(frozen=True)
class SkewModel:
    """Skew-product model data: epsilon basis, primitive rays v, duals u.

    Invariants: <v_i, u_j> = delta_ij exactly, epsilon_j = alpha_j u_j with
    alpha_j > 0, and each v_j is a primitive integer vector.
    """

    m: int
    epsilon: tuple[exact.Vec, ...]
    u: tuple[exact.Vec, ...]
    v: tuple[tuple[int, ...], ...]
    alpha: tuple[Fraction, ...]


def build_skew_model(epsilon) -> SkewModel:
    """Build the model determined by a rational basis of M_Q.

    v_j spans the line annihilated by all epsilon_l with l != j, chosen
    primitive and signed so that alpha_j > 0; u_j is the dual basis of v.
    """
    eps = tuple(exact.vec(e) for e in epsilon)
    m = len(eps)
    if any(len(e) != m for e in eps):
        raise ValueError("basis vectors must have length m")
    E = exact.Matrix(eps)  # row j is epsilon_j
    Einv = exact.inverse(E)  # raises SingularMatrixError when dependent
    v = []
    for j in range(m):
        col = Einv.column(j)
        v.append(exact.primitive_vector(col))
    V = exact.Matrix.from_rows(v)
    U = exact.inverse(V)  # columns are u_j
    u = tuple(U.column(j) for j in range(m))
    alpha = []
    for j in range(m):
        a = sum((Fraction(vi) * ei for vi, ei in zip(v[j], eps[j])), Fraction(0))
        if a <= 0:
            raise AssertionError("alpha_j must be positive by construction")
        alpha.append(a)
    model = SkewModel(m=m, epsilon=eps, u=u, v=tuple(tuple(x) for x in v),
                      alpha=tuple(alpha))
    _validate_model(model)
    return model


def _validate_model(model: SkewModel):
    m = model.m
    for i in range(m):
        for j in range(m):
            pair = sum(
                (Fraction(a) * b for a, b in zip(model.v[i], model.u[j])),
                Fraction(0),
            )
            if pair != (1 if i == j else 0):
                raise AssertionError("<v_i, u_j> != delta_ij")
    for j in range(m):
        if tuple(model.alpha[j] * x for x in model.u[j]) != model.epsilon[j]:
            raise AssertionError("epsilon_j != alpha_j u_j")


@functools.cache
def standard_model(m: int) -> SkewModel:
    """The model of the m-fold product of projective lines (one frozen record
    per m, shared by every caller)."""
    return build_skew_model(exact.Matrix.identity(m).rows)


@dataclass(frozen=True)
class PullbackMatrix:
    """Matrix of the pullback on codimension-k classes: |minors| in the u basis."""

    k: int
    matrix: exact.Matrix  # entrywise absolute values, non-negative
    signed: exact.Matrix  # the signed minors behind it
    labels: tuple[tuple[int, ...], ...]


def pullback_matrix(A: exact.Matrix, model: SkewModel, k: int) -> PullbackMatrix:
    m = A.m
    if not 1 <= k <= m - 1:
        raise ValueError(f"k must satisfy 1 <= k <= {m - 1}")
    if exact.det(A) == 0:
        raise SingularMatrixError("map is not dominant (det A = 0)")
    B = exact.change_of_basis(A, model.u)
    signed = exact.exterior_power(B, k)
    return PullbackMatrix(
        k=k,
        matrix=signed.abs_entries(),
        signed=signed,
        labels=exact.multi_indices(m, k),
    )


def _signs(values) -> tuple[int, ...]:
    return tuple((x > 0) - (x < 0) for x in values)


def _minor_signs(B: exact.Matrix, k: int):
    """Sign rows of the k-minors of B in lex multi-index order, computed lazily."""
    idx = exact.multi_indices(B.m, k)
    return (_signs(exact.minor(B, I, J) for J in idx) for I in idx)


@dataclass(frozen=True)
class StabilityCertificate:
    k: int
    verdict: str  # STABLE_BY_SIGN | STABLE_ALL_POWERS | FUNCTORIALITY_FAILS
    sign: str | None
    minor_signs: tuple[tuple[int, ...], ...]
    failure_power: int | None = None


def _sign_certificate(rows, k: int):
    """The STABLE_BY_SIGN certificate of the sign rows of the k-minors, or None
    at the first row that brings the opposite sign (zeros allowed)."""
    seen, signs = set(), []
    for row in rows:
        seen.update(row)
        if {1, -1} <= seen:
            return None
        signs.append(row)
    return StabilityCertificate(k=k, verdict="STABLE_BY_SIGN", sign="-" if -1 in seen else "+",
                                minor_signs=tuple(signs))


def _first_mixed_power(signs) -> int | None:
    """The least n >= 2 at which length-n paths of both signs join some (I, J)
    in a matrix of these signs, or None when no n does; reach[s][I] holds the J
    joined to I.  Each reach pair fixes the next, so it stops at a repeat."""
    reach = step = {s: tuple(frozenset(J for J, x in enumerate(r) if x == s) for r in signs)
                    for s in (1, -1)}
    seen, n = set(), 1
    while (state := (reach[1], reach[-1])) not in seen:
        seen.add(state)
        n += 1
        reach = {s: tuple(frozenset().union(*(step[s * t][L] for t in (1, -1) for L in reach[t][I]))
                          for I in range(len(signs))) for s in (1, -1)}
        if any(p & q for p, q in zip(reach[1], reach[-1])):
            return n
    return None


def check_k_stable(A: exact.Matrix, model: SkewModel, k: int) -> StabilityCertificate:
    """Decide k-stability on the model: is the pullback of f_A^n the n-th power
    of the pullback of f_A for every n?

    Sign-uniform minors in the u basis are sufficient (STABLE_BY_SIGN).  When
    signs are mixed, the question is decided from signs alone: for B = A in the
    u basis and S = Lambda^k B, Cauchy-Binet gives Lambda^k(B^n) = S^n, so the
    two pullbacks are |S|^n and |S^n|.  By the triangle inequality their (I, J)
    entries agree exactly when all nonzero length-n path products of S from I
    to J have one sign.  The sets of J joined to I by paths of each sign at
    length n + 1 depend only on those at length n, so once a state of these
    sets repeats, the sequence is periodic and every later state has been
    checked.  Paths of both signs give the least failing n
    (FUNCTORIALITY_FAILS); a repeat without them proves STABLE_ALL_POWERS.
    """
    signs = tuple(map(_signs, pullback_matrix(A, model, k).signed.rows))
    cert = _sign_certificate(signs, k)
    if cert is not None:
        return cert
    n = _first_mixed_power(signs)
    verdict = "STABLE_ALL_POWERS" if n is None else "FUNCTORIALITY_FAILS"
    return StabilityCertificate(k=k, verdict=verdict, sign=None, minor_signs=signs,
                                failure_power=n)


def _sign_certificates(A: exact.Matrix, model: SkewModel, ks):
    """STABLE_BY_SIGN certificates for every k in ks, or None at the first k
    without one; a rejected model costs its minors up to the first sign conflict."""
    B = exact.change_of_basis(A, model.u)
    certs = []
    for k in ks:
        certs.append(_sign_certificate(_minor_signs(B, k), k))
        if certs[-1] is None:
            return None
    return tuple(certs)


@dataclass(frozen=True)
class StabilizationResult:
    mode: str  # BASIS | POWER
    model: SkewModel
    certified_k: tuple[int, ...]
    certificates: tuple[StabilityCertificate, ...]
    l0: int | None = None
    window: int | None = None
    log: tuple = ()


# ---------------------------------------------------------------------------
# Theorem A: a basis on which the matrix of A is totally nonnegative

def _three_term(mul, cur, prev, a, b):
    """mul(cur) - a cur - b prev, entrywise: one step of a three-term recurrence."""
    return tuple(y - a * c - b * p for y, c, p in zip(mul(cur), cur, prev))


def _stieltjes(M: exact.Matrix):
    """Coefficients (a_j, b_j), j < m - 1, of the monic orthogonal polynomials
    p_{j+1} = (x - a_j) p_j - b_j p_{j-1} for <p, q> = sum_i p(mu_i) q(mu_i)
    over the eigenvalues mu_i of M (Stieltjes procedure, exact).

    The form is sum_{a,b} p_a q_b s_{a+b} in the power sums s_j = tr(M^j).  It
    is positive definite on degrees < m when the spectrum is real and
    distinct, so every b_j with j >= 1 is positive.
    """
    m = M.m
    s, power = [], exact.Matrix.identity(m)
    for _ in range(2 * m - 1):
        s.append(power.trace())
        power = power @ M

    def inner(p, q):
        return sum((pa * qb * s[a + b] for a, pa in enumerate(p) for b, qb in enumerate(q)),
                   Fraction(0))

    def shift(p):  # multiplication by x; p has degree < m - 1 here
        return (Fraction(0),) + p[:-1]

    prev, cur = (Fraction(0),) * m, (Fraction(1),) + (Fraction(0),) * (m - 1)
    coeffs, prev_norm = [], Fraction(1)
    for _ in range(m - 1):
        norm = inner(cur, cur)
        a, b = inner(shift(cur), cur) / norm, norm / prev_norm
        coeffs.append((a, b))
        prev, cur, prev_norm = cur, _three_term(shift, cur, prev, a, b), norm
    return coeffs


def _tridiagonal_model(M: exact.Matrix, log) -> SkewModel:
    """The model of the basis w_j = p_j(M) x, p_j from `_stieltjes`, for
    x = (1, t, ..., t^(m-1)) with the first t = 0, 1, ... that makes the w_j
    independent.  Appends one log entry per t tried.

    Each eigencomponent of x is a nonzero polynomial in t of degree < m, so at
    most m(m-1) values of t fail.
    """
    m = M.m
    coeffs = _stieltjes(M)
    for t in range(m * (m - 1) + 1):
        log.append({"attempt": len(log), "t": t, "certified": False})
        prev, cur = (Fraction(0),) * m, exact.vec(t**i for i in range(m))
        basis = [cur]
        for a, b in coeffs:
            prev, cur = cur, _three_term(M.apply, cur, prev, a, b)
            basis.append(cur)
        try:
            return build_skew_model(basis)
        except SingularMatrixError:
            continue
    raise AssertionError(f"no cyclic vector (1, t, ..., t^{m - 1}) for t <= {m * (m - 1)}")


def stabilize_basis_search(A: exact.Matrix) -> StabilizationResult:
    """A rational basis on which the matrix of A is totally nonnegative (Theorem A).

    A singular A raises SingularMatrixError.  The standard model is kept when
    it passes the sign test for every k, whatever the spectrum.  Otherwise the
    precondition, certified exactly by sympy's real-root counts, is a real,
    distinct spectrum that is entirely positive or entirely negative
    (PreconditionError), and the basis is built, not searched for: with
    M = +-A of positive spectrum, M acts on the basis of `_tridiagonal_model`
    as a tridiagonal matrix with subdiagonal 1 and superdiagonal b_j > 0.  A
    positive diagonal similarity makes that a positive definite Jacobi matrix,
    which is totally nonnegative (Gantmacher-Krein), so the k-minors of A have
    one sign for every k.  The exact sign test confirms this; its failure is a
    broken invariant (AssertionError).  The log holds the standard model and
    one entry per cyclic vector tried.
    """
    if exact.det(A) == 0:
        raise SingularMatrixError("map is not dominant (det A = 0)")
    ks = range(1, A.m)
    model = standard_model(A.m)
    certs = _sign_certificates(A, model, ks)
    log = [{"attempt": 0, "candidate": "standard-basis", "certified": certs is not None}]
    if certs is None:
        kind = spectral.real_spectrum_certificate(A)
        if kind is None:
            raise PreconditionError(
                "spectrum is not certified real, distinct, and of uniform sign"
            )
        model = _tridiagonal_model(A if kind == "positive" else -A, log)
        certs = _sign_certificates(A, model, ks)
        if certs is None:
            raise AssertionError("the sign test rejected the tridiagonal basis")
        log[-1]["certified"] = True
    return StabilizationResult(
        mode="BASIS", model=model, certified_k=tuple(ks),
        certificates=certs, log=tuple(log),
    )


# ---------------------------------------------------------------------------
# Theorem-B-style search: a stabilizing power

def check_power_search(A: exact.Matrix, ks, max_l: int, confirm_window: int) -> list[int]:
    """The sorted distinct ks of a power search, once its bounds are valid
    (ValueError) and |mu_k| > |mu_{k+1}| is certified for each k
    (PreconditionError).  Costs one spectral profile and no search."""
    ks = sorted(set(int(k) for k in ks))
    if any(not 1 <= k <= A.m - 1 for k in ks):
        raise ValueError(f"every k must satisfy 1 <= k <= {A.m - 1}")
    if max_l < 1 or confirm_window < 0:
        raise ValueError("need max_l >= 1 and confirm_window >= 0")
    report = spectral.gap_report(spectral.spectral_profile(A))
    for k in ks:
        if report.verdict(k) != "CERTIFIED_GAP":
            raise PreconditionError(
                f"|mu_{k}| > |mu_{k + 1}| is not certified "
                f"(verdict {report.verdict(k)})"
            )
    return ks


def find_power_l0(
    A: exact.Matrix,
    model: SkewModel,
    ks,
    max_l: int = DEFAULT_MAX_L,
    confirm_window: int = DEFAULT_CONFIRM_WINDOW,
) -> StabilizationResult:
    """Smallest l0 such that the k-minors of A^l are sign-uniform on the model
    for every l in [l0, l0 + confirm_window] and every requested k.

    Requires a certified modulus gap |mu_k| > |mu_{k+1}| for each requested k.
    The confirmation window guards against accidental sign-uniformity at an
    isolated power; the window length does not certify all larger powers, so
    the trace (one entry per power scanned, ending at l0 + confirm_window) is
    returned alongside.
    """
    ks = check_power_search(A, ks, max_l, confirm_window)
    B = exact.change_of_basis(A, model.u)
    trace = []  # per power: dict k -> sign or 'mixed'
    power = exact.Matrix.identity(A.m)
    run = 0  # sign-uniform powers in a row, ending at power l
    for l in range(1, max_l + confirm_window + 1):
        power = power @ B
        certs = {k: _sign_certificate(_minor_signs(power, k), k) for k in ks}
        row = {k: "mixed" if c is None else c.sign for k, c in certs.items()}
        trace.append(row)
        run = run + 1 if "mixed" not in row.values() else 0
        if run > confirm_window:
            l0 = l - confirm_window
            certs = _sign_certificates(exact.mat_pow(A, l0), model, ks)
            if certs is None:
                raise AssertionError("re-certification of A^l0 failed")
            return StabilizationResult(
                mode="POWER", model=model, certified_k=tuple(ks),
                certificates=certs, l0=l0, window=confirm_window,
                log=tuple(trace),
            )
    raise SearchExhausted(
        f"no stabilizing power up to {max_l} with window {confirm_window}",
        log=trace,
    )


# ---------------------------------------------------------------------------
# Theorem B: a model whose leading wedges are eventually sign-uniform

def _orthant_frame(A: exact.Matrix):
    """Columns of G = W S^-1 in floating point (see `orthant_basis`)."""
    m = A.m
    with mpmath.workprec(128):  # the frame is rounded to a few digits anyway
        E, ER = mpmath.eig(mpmath.matrix([list(r) for r in A.rows]))
        order = sorted(range(m), key=lambda i: (-abs(E[i]), -mpmath.re(E[i]),
                                                -mpmath.im(E[i])))
        W, used = [], set()
        for i in order:
            if i in used:
                continue
            # the eigenvalue nearest to conj(mu_i): mu_i itself when it is real
            j = min((j for j in order if j not in used),
                    key=lambda j: abs(mpmath.conj(E[i]) - E[j]))
            used.update((i, j))
            col = [ER[r, i] for r in range(m)]
            W.append([mpmath.re(z) for z in col])
            if j != i:
                W.append([mpmath.im(z) for z in col])
        # S^-1 = 2 S / (m + 1); the positive factor drops out in _rationalize_columns
        S = [[mpmath.sin(i * j * mpmath.pi / (m + 1)) for j in range(1, m + 1)]
             for i in range(1, m + 1)]
        return [[mpmath.fsum(W[i][r] * S[i][j] for i in range(m)) for r in range(m)]
                for j in range(m)]


def _rationalize_columns(cols, bound: int):
    """Each column scaled to max-norm 1 and rounded to rationals with
    denominators at most bound; a zero column stays zero."""
    out = []
    for c in cols:
        top = max(abs(x) for x in c) or 1
        out.append([Fraction(float(x / top)).limit_denominator(bound) for x in c])
    return out


def orthant_basis(
    A: exact.Matrix, denominator_bound: int = DEFAULT_DENOMINATOR_BOUND
) -> SkewModel:
    """A model for the stabilizing-power iteration (Theorem B).

    The standard model is kept when it passes the sign test for every k.
    Otherwise the basis is the frame G = W S^-1, rationalized column by column
    with denominators at most denominator_bound.  W is the real Jordan frame
    of A from mpmath, ordered by decreasing modulus (a complex pair gives its
    real and imaginary parts), and S_ij = sin(ij pi / (m + 1)) holds the
    eigenvectors of the oscillatory matrix tridiag(1, 0, 1) in decreasing
    eigenvalue order.  A acts on G as S J S^-1.  For every k with
    |mu_k| > |mu_{k+1}|, the k-th compound of its l-th power tends to
    (mu_1 ... mu_k)^l p q^T, where p and q hold the k-minors of the first k
    columns of S and of the first k rows of S^-1 = 2 S / (m + 1).  These are
    positive (Gantmacher-Krein), so the k-minors of A^l become sign-uniform.
    Nothing is certified here; `find_power_l0` certifies exactly.  No frame
    (mpmath's eigensolver fails) or a singular rationalized one raises
    SearchExhausted.
    """
    std = standard_model(A.m)
    if _sign_certificates(A, std, range(1, A.m)) is not None:
        return std
    try:
        return build_skew_model(_rationalize_columns(_orthant_frame(A), denominator_bound))
    except RuntimeError as e:  # mpmath's QR iteration, e.g. at a defective eigenvalue
        cause = f"no eigenvector frame W: mpmath.eig: {e}"
    except SingularMatrixError:
        cause = f"frame W S^-1 is singular once rationalized at denominator bound {denominator_bound}"
    raise SearchExhausted(cause, log=[{"frame": "W S^-1", "cause": cause}])


# ---------------------------------------------------------------------------
# degrees

@dataclass(frozen=True)
class DegreeSequence:
    k: int
    polytope: geometry.Polytope
    values: tuple[Fraction, ...]  # deg_{D,k}(f_A^n) for n = 1..N

    @property
    def N(self) -> int:
        return len(self.values)


def degree(A: exact.Matrix, k: int, P: geometry.Polytope) -> Fraction:
    """deg_{D,k}(f_A) = m! Vol(A P_D [k], P_D [m-k]), computed exactly."""
    m = A.m
    if P.m != m:
        raise ValueError("polytope ambient dimension does not match the matrix")
    if not 0 <= k <= m:
        raise ValueError(f"k must satisfy 0 <= k <= {m}")
    if P.dim != m:
        raise DegeneratePolytopeError("divisor polytope must be full-dimensional")
    if exact.det(A) == 0:
        raise SingularMatrixError("map is not dominant (det A = 0)")
    AP = geometry.linear_image(A, P)
    bodies = []
    if k > 0:
        bodies.append((AP, k))
    if k < m:
        bodies.append((P, m - k))
    return factorial(m) * geometry.mixed_volume(bodies)


def degree_sequence(
    A: exact.Matrix, k: int, P: geometry.Polytope, N: int
) -> DegreeSequence:
    if N < 1:
        raise ValueError("N must be at least 1")
    values = tuple(degree(exact.mat_pow(A, n), k, P) for n in range(1, N + 1))
    return DegreeSequence(k=k, polytope=P, values=values)


@dataclass(frozen=True)
class LambdaEstimate:
    k: int
    N: int
    estimate: float
    lambda_spectral: float
    relative_deviation: float


def lambda_estimate(seq: DegreeSequence, profile: spectral.SpectralProfile) -> LambdaEstimate:
    """(deg_k(f^N))^(1/N) compared against lambda_k from the spectral profile."""
    import math

    N = seq.N
    if N < 5:
        raise ValueError("need at least 5 terms for a growth estimate")
    last = seq.values[-1]
    est = math.exp((math.log(last.numerator) - math.log(last.denominator)) / N)
    lam = profile.lambdas[seq.k]
    dev = abs(est - lam) / lam if lam != 0 else float("inf")
    return LambdaEstimate(
        k=seq.k, N=N, estimate=est, lambda_spectral=lam, relative_deviation=dev
    )


def product_divisor_polytope(model: SkewModel) -> geometry.Polytope:
    """Polytope of the ample divisor sum over all rays: the zonotope sum [0, u_j]."""
    import itertools as it

    m = model.m
    pts = set()
    for choice in it.product((0, 1), repeat=m):
        p = tuple(
            sum((Fraction(c) * uj[i] for c, uj in zip(choice, model.u)), Fraction(0))
            for i in range(m)
        )
        pts.add(p)
    return geometry.convex_hull(pts)
