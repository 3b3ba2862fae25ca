"""Skew-product toric models and stability of monomial maps.

A rational basis epsilon_1, ..., epsilon_m of M_Q determines a complete
simplicial projective fan whose rays are spanned by primitive vectors +-v_j;
the variety is a twisted product of projective lines.  On such a model the
pullback of f_A on codimension-k classes is the matrix of absolute k x k
minors of A written in the dual-normalized basis u_j, so sign-uniform minors
certify k-stability exactly.  This module builds the models, checks the sign
certificates, runs the two heuristic searches (stabilizing basis, stabilizing
power), and computes degree sequences as exact mixed volumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np

from . import exact, geometry, spectral
from .errors import (
    DegeneratePolytopeError,
    PreconditionError,
    SearchExhausted,
    SingularMatrixError,
)

DEFAULT_HORIZON = 10
DEFAULT_MAX_L = 64
DEFAULT_CONFIRM_WINDOW = 8
DEFAULT_ATTEMPTS = 80
DEFAULT_PERTURB = 0.05
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

    @property
    def is_standard(self) -> bool:
        return self.u == tuple(tuple(Fraction(int(i == j)) for j in range(self.m))
                               for i in range(self.m))


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


def standard_model(m: int) -> SkewModel:
    """The model of the m-fold product of projective lines."""
    return build_skew_model(exact.Matrix.identity(m).rows)


@dataclass(frozen=True)
class PullbackMatrix:
    """Matrix of the pullback on codimension-k classes: |minors| in the u basis."""

    k: int
    matrix: exact.Matrix  # entrywise absolute values, non-negative
    signed: exact.ExteriorMatrix  # the signed minors behind it
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
        matrix=signed.matrix.abs_entries(),
        signed=signed,
        labels=signed.labels,
    )


def _sign_matrix(M: exact.Matrix):
    return tuple(tuple((x > 0) - (x < 0) for x in row) for row in M.rows)


def _uniform_sign(M: exact.Matrix) -> str | None:
    """'+' if all entries >= 0, '-' if all <= 0, else None (zeros allowed)."""
    has_pos = any(x > 0 for row in M.rows for x in row)
    has_neg = any(x < 0 for row in M.rows for x in row)
    if not has_neg:
        return "+"
    if not has_pos:
        return "-"
    return None


@dataclass(frozen=True)
class StabilityCertificate:
    k: int
    verdict: str  # STABLE_BY_SIGN | NOT_SIGN_UNIFORM | FUNCTORIALITY_FAILS
    sign: str | None
    minor_signs: tuple[tuple[int, ...], ...]
    horizon: int
    failure_power: int | None = None


def check_k_stable(
    A: exact.Matrix, model: SkewModel, k: int, horizon: int = DEFAULT_HORIZON
) -> StabilityCertificate:
    """Certify k-stability by the exact sign-uniformity of minors in the u basis.

    Sign-uniform minors are sufficient for k-stability (functoriality of the
    pullback under iteration).  When signs are mixed, a falsifier compares the
    powered pullback matrix with the pullback of the power up to the horizon:
    an exact mismatch proves instability; agreement is reported as
    NOT_SIGN_UNIFORM, which is inconclusive, since the sign condition is
    sufficient but not necessary.
    """
    pb = pullback_matrix(A, model, k)
    sign = _uniform_sign(pb.signed.matrix)
    signs = _sign_matrix(pb.signed.matrix)
    if sign is not None:
        return StabilityCertificate(
            k=k, verdict="STABLE_BY_SIGN", sign=sign, minor_signs=signs,
            horizon=horizon,
        )
    iterated = pb.matrix
    for n in range(2, horizon + 1):
        iterated = iterated @ pb.matrix
        direct = pullback_matrix(exact.mat_pow(A, n), model, k).matrix
        if iterated != direct:
            return StabilityCertificate(
                k=k, verdict="FUNCTORIALITY_FAILS", sign=None,
                minor_signs=signs, horizon=horizon, failure_power=n,
            )
    return StabilityCertificate(
        k=k, verdict="NOT_SIGN_UNIFORM", sign=None, minor_signs=signs,
        horizon=horizon,
    )


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
# Theorem-A-style search: a basis making the matrix of A totally positive

def _min_minor_numeric(B: np.ndarray, m: int) -> float:
    import itertools

    worst = float("inf")
    for k in range(1, m):
        for I in itertools.combinations(range(m), k):
            for J in itertools.combinations(range(m), k):
                sub = B[np.ix_(I, J)]
                d = float(np.linalg.det(sub)) if k > 1 else float(sub[0, 0])
                worst = min(worst, d)
    return worst


def _cauchy_reference_eigvecs(m: int, rng) -> np.ndarray:
    """Eigenvector matrix of a strictly totally positive Cauchy matrix."""
    x = np.arange(1, m + 1) + rng.uniform(0.0, 0.4, m)
    y = np.arange(1, m + 1) + rng.uniform(0.0, 0.4, m)
    C = 1.0 / (x[:, None] + y[None, :])
    w, S = np.linalg.eig(C)
    order = np.argsort(-w.real)
    S = S.real[:, order]
    for j in range(m):
        pivot = np.argmax(np.abs(S[:, j]))
        if S[pivot, j] < 0:
            S[:, j] = -S[:, j]
    return S


def _rationalize_columns(V: np.ndarray, bound: int):
    cols = []
    for j in range(V.shape[1]):
        c = V[:, j]
        mx = np.max(np.abs(c))
        if mx == 0:
            return None
        c = c / mx
        cols.append([Fraction(float(t)).limit_denominator(bound) for t in c])
    return cols


def _candidate_models(frame, spectrum, attempts, perturb_scale, denominator_bound,
                      seed, log):
    """Models from the rationalized columns of frame @ S^-1, for perturbed
    reference frames S whose auxiliary map S diag(spectrum) S^-1 has only
    positive minors numerically.  Each scored attempt is appended to log."""
    m = len(spectrum)
    rng = np.random.default_rng(seed)
    for attempt in range(1, attempts + 1):
        S = _cauchy_reference_eigvecs(m, rng)
        if attempt > 1:
            # grow the perturbation slowly so early attempts stay close to
            # the reference frame
            scale = perturb_scale * (1 + attempt / 10.0)
            S = S + scale * rng.standard_normal((m, m))
        try:
            Sinv = np.linalg.inv(S)
        except np.linalg.LinAlgError:
            continue
        score = _min_minor_numeric(S @ np.diag(spectrum) @ Sinv, m)
        log.append({"attempt": attempt, "numeric_min_minor": score, "certified": False})
        if score <= 0:
            continue
        cols = _rationalize_columns(frame @ Sinv, denominator_bound)
        if cols is None:
            continue
        try:
            yield build_skew_model(cols)
        except SingularMatrixError:
            continue


def _sign_certificates(A: exact.Matrix, model: SkewModel):
    """STABLE_BY_SIGN certificates for k = 1..m-1, or None at the first k without."""
    certs = []
    for k in range(1, A.m):
        cert = check_k_stable(A, model, k)
        if cert.verdict != "STABLE_BY_SIGN":
            return None
        certs.append(cert)
    return tuple(certs)


def stabilize_basis_search(
    A: exact.Matrix,
    attempts: int = DEFAULT_ATTEMPTS,
    perturb_scale: float = DEFAULT_PERTURB,
    denominator_bound: int = DEFAULT_DENOMINATOR_BOUND,
    seed: int = 0,
) -> StabilizationResult:
    """Search for a rational basis on which the matrix of A is totally positive.

    Precondition (certified exactly via Sturm counts): the spectrum is real,
    distinct, and entirely positive or entirely negative.  The search is
    heuristic: numeric eigenbases are steered towards the eigenvector frame of
    a reference strictly totally positive matrix, perturbed and rationalized
    with bounded denominators, and every candidate is certified exactly
    through the sign test for all k.  Exhaustion is reported as such and is
    never a refutation (a suitable basis always exists under the
    precondition).
    """
    kind = spectral.real_spectrum_certificate(A)
    if kind is None:
        raise PreconditionError(
            "spectrum is not certified real, distinct, and of uniform sign"
        )
    model = standard_model(A.m)
    certs = _sign_certificates(A, model)
    log = [{"attempt": 0, "candidate": "standard-basis", "certified": certs is not None}]
    if certs is None:
        M = A if kind == "positive" else -A
        w, W = np.linalg.eig(np.array([[float(x) for x in row] for row in M.rows]))
        order = np.argsort(-w.real)
        for model in _candidate_models(W.real[:, order], w.real[order], attempts,
                                       perturb_scale, denominator_bound, seed, log):
            certs = _sign_certificates(A, model)
            if certs is not None:
                log[-1]["certified"] = True  # the attempt that yielded model
                break
    if certs is None:
        raise SearchExhausted(
            f"no certified basis within {attempts} attempts "
            "(not a refutation; a stabilizing basis exists under the precondition)",
            log=log,
        )
    return StabilizationResult(
        mode="BASIS", model=model, certified_k=tuple(range(1, A.m)),
        certificates=certs, log=tuple(log),
    )


# ---------------------------------------------------------------------------
# Theorem-B-style search: a stabilizing power

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
    the trace is returned alongside.
    """
    ks = sorted(set(int(k) for k in ks))
    m = A.m
    if any(not 1 <= k <= m - 1 for k in ks):
        raise ValueError(f"every k must satisfy 1 <= k <= {m - 1}")
    profile = spectral.spectral_profile(A)
    report = spectral.gap_report(profile)
    for k in ks:
        if report.verdict(k) != "CERTIFIED_GAP":
            raise PreconditionError(
                f"|mu_{k}| > |mu_{k + 1}| is not certified "
                f"(verdict {report.verdict(k)})"
            )
    B = exact.change_of_basis(A, model.u)
    trace = []  # per power: dict k -> sign or 'mixed'
    power = exact.Matrix.identity(m)
    uniform = []
    for _ in range(1, max_l + confirm_window + 1):
        power = power @ B
        row = {}
        for k in ks:
            sign = _uniform_sign(exact.exterior_power(power, k).matrix)
            row[k] = sign if sign is not None else "mixed"
        trace.append(row)
        uniform.append(all(row[k] != "mixed" for k in ks))
    for l0 in range(1, max_l + 1):
        if all(uniform[l - 1] for l in range(l0, l0 + confirm_window + 1)):
            Al0 = exact.mat_pow(A, l0)
            certs = tuple(check_k_stable(Al0, model, k) for k in ks)
            if not all(c.verdict == "STABLE_BY_SIGN" for c in certs):
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
# Theorem-B-style search: a model whose first orthant is eventually invariant

def orthant_basis(
    A: exact.Matrix,
    denominator_bound: int = DEFAULT_DENOMINATOR_BOUND,
    attempts: int = DEFAULT_ATTEMPTS,
    seed: int = 0,
) -> SkewModel:
    """Search for a model suited to the stabilizing-power iteration.

    Builds a numeric real-Jordan-like frame of A (complex pairs become
    rotation blocks), attaches a fake positive distinct spectrum, and searches
    for a rational basis on which that auxiliary map is totally positive;
    by construction the leading wedge powers of the frame then sit inside the
    first orthant of the model.  Validation here is numeric only; exact
    certificates come from the downstream power search.
    """
    if exact.det(A) == 0:
        raise SingularMatrixError("map is not dominant (det A = 0)")
    m = A.m
    profile = spectral.spectral_profile(A)
    report = spectral.gap_report(profile)
    if not any(v == "CERTIFIED_GAP" for v in report.verdicts):
        raise PreconditionError("no certified modulus gap at any k")
    std = standard_model(m)
    if _sign_certificates(A, std) is not None:
        return std
    Af = np.array([[float(x) for x in row] for row in A.rows])
    w, W = np.linalg.eig(Af)
    order = sorted(range(m), key=lambda i: (-abs(w[i]), -w[i].real, -w[i].imag))
    cols = []
    used = set()
    for i in order:
        if i in used:
            continue
        lam = w[i]
        if abs(lam.imag) < 1e-10:
            cols.append(W[:, i].real)
            used.add(i)
        else:
            partner = min(
                (j for j in order if j not in used and j != i),
                key=lambda j: abs(np.conj(lam) - w[j]),
            )
            cols.append(W[:, i].real)
            cols.append(W[:, i].imag)
            used.update({i, partner})
    log = []
    fake = np.arange(m, 0, -1, dtype=float)
    model = next(_candidate_models(np.column_stack(cols), fake, attempts,
                                   DEFAULT_PERTURB, denominator_bound, seed, log), None)
    if model is None:
        raise SearchExhausted(f"no orthant basis within {attempts} attempts", log=log)
    return model


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
