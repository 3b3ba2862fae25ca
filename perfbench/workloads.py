"""The three workloads: seeded job pools, one job call each, and checkers.

A pool is one pass of jobs drawn from a fixed plan of job classes, so every
pass costs about the same; the seed and the pass number only change the
matrices and bodies.  Passes never repeat an input, so no cache inside the
library or sympy sees a job twice.
Each plan is laid out so that the median and the tail percentile (ten jobs
beyond it) fall inside one class, not on the border between two classes of
different cost.
`run_*` calls monomap's public API exactly as a user would.  `check_*`
returns a list of problems found with the independent routes in `oracle`
and runs outside the timed interval.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

import oracle
from monomap import dynamics, exact, geometry, recurrence, spectral
from monomap.errors import PrecisionExhausted, PreconditionError, SearchExhausted

# Outcomes the library documents as verdicts rather than errors; the CLI maps
# PrecisionExhausted to the same exit code as SearchExhausted.
DOCUMENTED = (PreconditionError, SearchExhausted, PrecisionExhausted)


@dataclass
class Job:
    label: str
    inputs: dict = field(repr=False)


def _int_matrix(rng, m, bound):
    """Nonsingular integer matrix with entries in [-bound, bound]."""
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(m)]
        if oracle.det(rows) != 0:
            return rows


def _columns(vectors):
    """Matrix (list of rows) whose columns are the given vectors."""
    return [list(r) for r in zip(*vectors)]


# ---------------------------------------------------------------------------
# degree-sequences: one `monomap recurrence --from-degrees` per job

MAX_ORDER = 12
DEGREE_PLAN = (
    # label, m, polytope, k (None: 1 or 2 at random), terms, entry bound, per pass
    ("m3-simplex-k1", 3, "simplex", 1, 6, 2, 8),
    ("m3-simplex-k2", 3, "simplex", 2, 5, 2, 6),
    ("m4-simplex-k1", 4, "simplex", 1, 1, 1, 3),
    ("m3-cube", 3, "cube", None, 4, 2, 1),
    ("m3-skew", 3, "skew", None, 4, 2, 1),
)


def _rng(seed, pass_index):
    return random.Random(seed * 1_000_003 + pass_index)


def build_degrees(seed, pass_index):
    rng = _rng(seed, pass_index)
    jobs = []
    for label, m, kind, k, terms, bound, count in DEGREE_PLAN:
        for _ in range(count):
            A = _int_matrix(rng, m, bound)
            if kind == "simplex":
                P, U = geometry.standard_simplex(m), None
            else:
                if kind == "cube":
                    model = dynamics.standard_model(m)
                else:
                    model = dynamics.build_skew_model(_int_matrix(rng, m, 2))
                P = dynamics.product_divisor_polytope(model)
                U = _columns(model.u)
            jobs.append(Job(label, {
                "A": A, "matrix": exact.Matrix.from_rows(A), "polytope": P, "U": U,
                "k": k if k is not None else rng.randint(1, m - 1), "terms": terms,
            }))
    return jobs


def run_degrees(job):
    x = job.inputs
    A, k, N = x["matrix"], x["k"], x["terms"]
    values = dynamics.degree_sequence(A, k, x["polytope"], N).values
    out = {"values": values}
    if N < 4:
        return out  # too short for any recurrence verdict
    rec = recurrence.minimal_recurrence(values, MAX_ORDER)
    out["recurrence"] = (rec.status, rec.order, rec.coefficients, rec.order_cap)
    out["hankel"] = recurrence.hankel_ranks(values, min(MAX_ORDER, (N + 1) // 2)).ranks
    if 1 <= k <= A.m - 1:
        out["certificate"] = dynamics.check_k_stable(A, dynamics.standard_model(A.m), k)
        chi = exact.char_poly(exact.exterior_power(A, k))
        out["char_poly"] = chi.coeffs
        if N > chi.degree:
            out["residuals"] = recurrence.cayley_hamilton_check(values, chi)
    return out


def check_degrees(job, out):
    x = job.inputs
    A, k, U, N = x["A"], x["k"], x["U"], x["terms"]
    values = out["values"]
    problems = []
    if len(values) != N:
        problems.append("wrong number of terms")
    for n, v in enumerate(values, start=1):
        An = oracle.mat_pow(A, n)
        if U is not None:
            want = oracle.zonotope_degree(An, U, k)
        elif k == 1:
            want = oracle.simplex_degree_k1(An)
        else:
            want = None
            if v.denominator != 1 or v <= 0:
                problems.append(f"degree {n} on the simplex is not a positive integer")
        if want is not None and v != want:
            problems.append(f"degree {n}: got {v}, closed form {want}")
    if N >= 4:
        problems += _check_recurrence(values, out["recurrence"], out["hankel"])
    if "certificate" in out:
        problems += check_certificate(A, None, out["certificate"])
        L = comb(len(A), k)
        wedge = oracle.exterior_power(A, k)
        if out["char_poly"] != oracle.char_poly(wedge):
            problems.append("characteristic polynomial of the exterior power differs")
        if N > L:
            chi = out["char_poly"]
            want = tuple(values[n + L] + sum(chi[i] * values[n + i] for i in range(L))
                         for n in range(N - L))
            if out["residuals"] != want:
                problems.append("Cayley-Hamilton residuals differ")
    return problems


def _check_recurrence(values, rec, hankel):
    status, order, coeffs, cap = rec
    problems = []
    N = len(values)
    if cap != min(MAX_ORDER, (N - 2) // 2):
        problems.append("recurrence order cap")
    fits = [r for r in range(1, cap + 1) if oracle.recurrence_fits(values, r)]
    if status == "FOUND":
        if not fits or order != fits[0]:
            problems.append(f"recurrence order {order}, expected {fits[:1]}")
        elif any(values[n + order] + sum(coeffs[i] * values[n + i] for i in range(order))
                 for n in range(N - order)):
            problems.append("recurrence coefficients do not fit")
    elif fits:
        problems.append(f"no recurrence reported but order {fits[0]} fits")
    if hankel != oracle.hankel_ranks(values, len(hankel)):
        problems.append("Hankel ranks differ")
    return problems


# ---------------------------------------------------------------------------
# mixed-volumes: one family of s >= 3 bodies by both routes

MV_PLAN = (
    # label, m, simplices (multiplicity each), segments, per pass
    ("m3-segments", 3, (), 3, 8),
    ("m3-simplex-segments", 3, (1,), 2, 8),
    ("m3-simplices-segment", 3, (1, 1), 1, 5),
    ("m4-simplex2-segments", 4, (2,), 2, 1),
    ("m4-segments", 4, (), 4, 1),
)


def _lattice_simplex(rng, m):
    while True:
        pts = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(m + 1)]
        if oracle.det([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]) != 0:
            return pts


def _segments(rng, m, count):
    while True:
        us = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(count)]
        if oracle.rank(us) == count:
            return us


def build_mixed(seed, pass_index):
    rng = _rng(seed, pass_index)
    jobs = []
    for label, m, simplex_ks, n_segments, count in MV_PLAN:
        for _ in range(count):
            simplices = [_lattice_simplex(rng, m) for _ in simplex_ks]
            us = _segments(rng, m, n_segments)
            bodies = [geometry.Polytope(m, tuple(sorted(tuple(map(Fraction, p)) for p in s)), m)
                      for s in simplices] + [geometry.segment(u) for u in us]
            jobs.append(Job(label, {
                "bodies": bodies, "ks": list(simplex_ks) + [1] * n_segments,
                "simplices": simplices, "segments": us,
                "lift_seed": rng.randrange(1 << 30),
            }))
    return jobs


def run_mixed(job):
    x = job.inputs
    interpolated = geometry.mixed_volume(list(zip(x["bodies"], x["ks"])))
    sub = geometry.mixed_volume_subdivision(x["bodies"], x["ks"], seed=x["lift_seed"])
    return {"interpolation": interpolated, "subdivision": sub.mixed_volume,
            "lift_attempts": sub.lift_attempts, "cells": len(sub.cells)}


def check_mixed(job, out):
    x = job.inputs
    problems = []
    if out["interpolation"] != out["subdivision"]:
        problems.append(f"routes disagree: {out['interpolation']} != {out['subdivision']}")
    want = None
    if not x["simplices"]:
        want = oracle.segment_family_volume(x["segments"])
    elif x["ks"][0] == 1 and len(x["simplices"]) == 1:
        want = oracle.body_with_segments_volume(x["simplices"][0], x["segments"])
    if want is not None and out["interpolation"] != want:
        problems.append(f"mixed volume {out['interpolation']}, closed form {want}")
    return problems


# ---------------------------------------------------------------------------
# certify: one `spectrum` + `stability` + `stabilize` analysis per job

CURATED = (
    # acceptance criterion 6: name, matrix, model basis, expected l0
    ("tp", [[2, 1], [1, 1]], None, 1),
    ("neg-tp", [[-2, -1], [-1, -1]], None, 1),
    ("late-positive", [[-1, 2], [2, 2]], None, 4),
    ("diag-sign-flip", [[4, -1], [-1, 2]], [[1, 0], [0, -1]], 1),
    ("vandermonde", [[1, 1, 1], [1, 2, 4], [1, 3, 9]], None, 1),
)
CERTIFY_PLAN = (
    # label, m, kind, entry bound, per pass
    ("m3-positive-spectrum", 3, "conjugate", 2, 3),
    ("m2-random", 2, "random", 2, 1),
    ("m3-random", 3, "random", 2, 1),
    ("m4-random", 4, "random", 2, 2),
    ("m5-random", 5, "random", 1, 10),
    ("m6-random", 6, "random", 1, 11),
    ("m7-random", 7, "random", 1, 1),
)
DEFAULT_SEARCH = (dynamics.DEFAULT_MAX_L, dynamics.DEFAULT_CONFIRM_WINDOW)


def power_search_budget(m):
    """(max_l, confirm_window) for random matrices: short, since their minors
    rarely become sign-uniform and each power scanned costs one exterior
    power per gap k."""
    return (8, 2) if m <= 5 else (2, 1)


def _conjugate(rng, m, bound):
    """(P D P^-1, D) with P unimodular (unit triangular factors) and D
    distinct positive integers, as in acceptance criterion 7."""
    L = [[int(i == j) if i <= j else rng.randint(-bound, bound) for j in range(m)]
         for i in range(m)]
    U = [[int(i == j) if i >= j else rng.randint(-bound, bound) for j in range(m)]
         for i in range(m)]
    P = oracle.mat_mul(L, U)
    D = sorted(rng.sample(range(1, 10), m))
    PD = [[P[i][j] * D[j] for j in range(m)] for i in range(m)]
    return [[int(x) for x in row] for row in oracle.mat_mul(PD, oracle.inverse(P))], D


def build_certify(seed, pass_index):
    rng = _rng(seed, pass_index)
    jobs = [Job(f"curated-{name}", {"A": A, "matrix": exact.Matrix.from_rows(A), "basis": basis,
                                    "expected_l0": l0, "search": DEFAULT_SEARCH,
                                    "spectrum": None})
            for name, A, basis, l0 in CURATED]
    for label, m, kind, bound, count in CERTIFY_PLAN:
        for _ in range(count):
            A, D = _conjugate(rng, m, bound) if kind == "conjugate" else (
                _int_matrix(rng, m, bound), None)
            jobs.append(Job(label, {"A": A, "matrix": exact.Matrix.from_rows(A), "basis": None,
                                    "expected_l0": None, "search": power_search_budget(m),
                                    "spectrum": D}))
    return jobs


def run_certify(job):
    x = job.inputs
    A = x["matrix"]
    m = A.m
    verdicts = []
    gaps, roots, precision = None, (), None
    try:
        profile = spectral.spectral_profile(A)
    except PrecisionExhausted as exc:  # moduli tie without exact evidence
        verdicts.append(type(exc).__name__)
    else:
        precision = profile.precision
        gaps = spectral.gap_report(profile, A).verdicts
        roots = tuple((k, spectral.root_of_unity_test(A, k)) for k in range(1, m)
                      if gaps[k - 1] == "CERTIFIED_EQUAL")
    model = (dynamics.standard_model(m) if x["basis"] is None
             else dynamics.build_skew_model(x["basis"]))
    certs = tuple(dynamics.check_k_stable(A, model, k) for k in range(1, m))
    gap_ks = [k for k in range(1, m) if gaps and gaps[k - 1] == "CERTIFIED_GAP"]
    power = None
    if gap_ks:
        max_l, window = x["search"]
        try:
            power = dynamics.find_power_l0(A, model, gap_ks, max_l=max_l,
                                           confirm_window=window)
        except DOCUMENTED as exc:
            verdicts.append(type(exc).__name__)
    spectrum_kind = spectral.real_spectrum_certificate(A)
    basis = None
    if spectrum_kind is not None:
        try:
            basis = dynamics.stabilize_basis_search(A)
        except DOCUMENTED as exc:
            verdicts.append(type(exc).__name__)
    return {"gaps": gaps, "roots": roots, "precision": precision,
            "model_u": model.u, "certificates": certs, "gap_ks": tuple(gap_ks),
            "power": power, "spectrum_kind": spectrum_kind, "basis": basis,
            "verdicts": tuple(verdicts)}


def check_certificate(A, U, cert, power=1):
    """Re-derive one certificate's minor signs from the oracle."""
    X = oracle.mat_pow(A, power)
    B = X if U is None else oracle.in_basis(X, U)
    signs = oracle.minor_signs(B, cert.k)
    sign = oracle.uniform_sign(signs)
    if cert.verdict == "STABLE_BY_SIGN":
        if signs != cert.minor_signs or sign != cert.sign:
            return [f"k={cert.k}: sign certificate differs from the oracle"]
    elif sign is not None:
        return [f"k={cert.k}: {cert.verdict} but the minors are sign-uniform"]
    return []


def oracle_l0(A, U, ks, max_l, window):
    """Smallest l0 <= max_l with sign-uniform k-minors of B^l for every k and
    every l in [l0, l0 + window], B = A in the basis U; None if there is none."""
    B = oracle.in_basis(A, U)
    power = B
    uniform = []
    for _ in range(max_l + window):
        uniform.append(all(oracle.uniform_sign(oracle.minor_signs(power, k)) is not None
                           for k in ks))
        power = oracle.mat_mul(power, B)
    return next((l0 for l0 in range(1, max_l + 1) if all(uniform[l0 - 1:l0 + window])),
                None)


def _check_spectrum(A, out):
    """Gap verdicts, PrecisionExhausted and root-of-unity verdicts against
    the oracle's eigenvalues."""
    apart, orders, odd_tie = oracle.modulus_gaps(A)
    if out["gaps"] is None:
        if not odd_tie:
            return ["PrecisionExhausted, but every tie is between equal or conjugate eigenvalues"]
        return []
    problems = [f"gap {k}: {verdict}, but the moduli {'differ' if a else 'tie'}"
                for k, (verdict, a) in enumerate(zip(out["gaps"], apart), start=1)
                if a is not None and a != (verdict == "CERTIFIED_GAP")]
    for k, res in out["roots"]:
        found = orders.get(k)
        if found is None or res.status == "UNDECIDED":
            continue
        if res.status == "EXACT_YES":
            want = min((j for j in found if j in (1, 2, 3, 4, 6)), default=None)
            if res.order != want:
                problems.append(f"gap {k}: ratio order {res.order}, eigensolver {want}")
        elif found:
            problems.append(f"gap {k}: {res.status}, but ratio^{found[0]} = 1")
    return problems


def check_certify(job, out):
    x = job.inputs
    A = x["A"]
    m = len(A)
    U = _columns(out["model_u"])
    problems = _check_spectrum(A, out)
    for cert in out["certificates"]:
        problems += check_certificate(A, U, cert)
    max_l, window = x["search"]
    if out["gap_ks"]:
        want = oracle_l0(A, U, out["gap_ks"], max_l, window)
        got = out["power"].l0 if out["power"] is not None else None
        if got != want:
            problems.append(f"l0 {got}, oracle {want}")
        if out["power"] is not None:
            for cert in out["power"].certificates:
                problems += check_certificate(A, U, cert, power=got)
    if x["expected_l0"] is not None and (
            out["power"] is None or out["power"].l0 != x["expected_l0"]):
        problems.append(f"curated l0 expected {x['expected_l0']}")
    if x["spectrum"] is not None:
        diag = [[d if i == j else 0 for j in range(m)] for i, d in enumerate(x["spectrum"])]
        if oracle.char_poly(A) != oracle.char_poly(diag):
            problems.append("conjugate's characteristic polynomial is not that of D")
        if out["gaps"] != ("CERTIFIED_GAP",) * (m - 1):
            problems.append("distinct positive spectrum without a certified gap at every k")
        if out["spectrum_kind"] != "positive":
            problems.append("positive distinct spectrum not certified")
    if out["basis"] is not None:
        res = out["basis"]
        if res.certified_k != tuple(range(1, m)):
            problems.append("basis search certified too few k")
        for cert in res.certificates:
            problems += check_certificate(A, _columns(res.model.u), cert)
    return problems


WORKLOADS = {
    "degree-sequences": (build_degrees, run_degrees, check_degrees),
    "mixed-volumes": (build_mixed, run_mixed, check_mixed),
    "certify": (build_certify, run_certify, check_certify),
}
