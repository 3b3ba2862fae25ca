"""Release-gating acceptance suite.

Each criterion is a function of the seed returning a JSON-safe dict with a
boolean `passed`; `run_all` assembles the full deterministic report.  All
randomness is drawn from per-criterion seeded generators, so reports are
byte-identical for a fixed seed (criterion 10 checks exactly that by
re-running the seeded sub-suites once and comparing with the reports
`run_all` already holds).
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import factorial

from . import __version__, dynamics, exact, geometry, recurrence, spectral

DEFAULT_SEED = 20260808


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _rand_int_matrix(rng, m, lo=-5, hi=5, nonsingular=False):
    while True:
        A = exact.Matrix.from_rows(
            [[rng.randint(lo, hi) for _ in range(m)] for _ in range(m)]
        )
        if not nonsingular or exact.det(A) != 0:
            return A


def criterion_cauchy_binet(seed: int) -> dict:
    """Exterior powers turn products into products, exactly."""
    rng = random.Random(seed + 1)
    pairs = 0
    products_checked = 0
    ok = True
    for m in (2, 3, 4, 5):
        for _ in range(25):
            A = _rand_int_matrix(rng, m)
            B = _rand_int_matrix(rng, m)
            AB = A @ B
            for k in range(1, m + 1):
                lhs = exact.exterior_power(AB, k)
                rhs = exact.exterior_power(A, k) @ exact.exterior_power(B, k)
                ok = ok and lhs == rhs
                products_checked += 1
            pairs += 1
    return {
        "id": 1,
        "name": "cauchy-binet-product-rule",
        "passed": ok,
        "details": {"pairs": pairs, "products_checked": products_checked},
    }


def _rand_lattice_simplex(rng, m):
    while True:
        pts = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(m)) for _ in range(m + 1)]
        P = geometry.convex_hull(pts)
        if P.dim == m:
            return P


def criterion_mixed_volume_oracles(seed: int) -> dict:
    """Polarization and fine-mixed-subdivision mixed volumes agree exactly."""
    rng = random.Random(seed + 2)
    ok = True
    checked = 0
    for t in range(50):
        m = rng.choice((2, 3))
        P = _rand_lattice_simplex(rng, m)
        Q = _rand_lattice_simplex(rng, m)
        k1 = rng.randint(1, m - 1)
        k2 = m - k1
        mv_polar = geometry.mixed_volume([(P, k1), (Q, k2)])
        mv_subdiv = geometry.mixed_volume_subdivision(
            [P, Q], [k1, k2], seed=seed + 1000 + t
        ).mixed_volume
        ok = ok and mv_polar == mv_subdiv
        checked += 1
    return {
        "id": 2,
        "name": "mixed-volume-two-route-agreement",
        "passed": ok,
        "details": {"pairs": checked},
    }


def criterion_segment_families(seed: int) -> dict:
    """Mixed volume of segments [0, u_j] equals |det u| / m!, exactly."""
    rng = random.Random(seed + 3)
    ok = True
    families = 0
    for _ in range(20):
        m = rng.choice((2, 3, 4))
        us = [
            tuple(Fraction(rng.randint(-4, 4)) for _ in range(m)) for _ in range(m)
        ]
        if all(all(x == 0 for x in u) for u in us):
            us[0] = tuple([Fraction(1)] + [Fraction(0)] * (m - 1))
        segs = [(geometry.segment(u), 1) for u in us]
        mv = geometry.mixed_volume(segs)
        expected = abs(exact.det(exact.Matrix.from_rows(us))) / factorial(m)
        ok = ok and mv == expected
        families += 1
    return {
        "id": 3,
        "name": "segment-family-parallelepiped-volume",
        "passed": ok,
        "details": {"families": families},
    }


def criterion_degree_baseline(seed: int) -> dict:
    """deg_k(identity) = 1 and deg_k(f_{2I}^n) = 2^{kn} on projective space."""
    ok = True
    cases = 0
    for m in (2, 3, 4):
        P = geometry.standard_simplex(m)
        I = exact.Matrix.identity(m)
        for k in range(0, m + 1):
            ok = ok and dynamics.degree(I, k, P) == 1
            cases += 1
        twoI = I.scale(2)
        for n in range(1, 6):
            An = exact.mat_pow(twoI, n)
            for k in range(0, m + 1):
                ok = ok and dynamics.degree(An, k, P) == 2 ** (k * n)
                cases += 1
    return {
        "id": 4,
        "name": "degree-baseline-identity-and-doubling",
        "passed": ok,
        "details": {"cases": cases},
    }


def criterion_stable_degree_pipeline(seed: int) -> dict:
    """Sign-stable Vandermonde map: degree sequences obey the minor-matrix
    characteristic recurrence with zero residuals."""
    A = exact.Matrix.from_rows([[1, 1, 1], [1, 2, 4], [1, 3, 9]])
    model = dynamics.standard_model(3)
    P = dynamics.product_divisor_polytope(model)
    ok = True
    details = {}
    for k in (1, 2):
        cert = dynamics.check_k_stable(A, model, k)
        ok = ok and cert.verdict == "STABLE_BY_SIGN" and cert.sign == "+"
        seq = dynamics.degree_sequence(A, k, P, 15)
        chi = exact.char_poly(exact.exterior_power(A, k))
        residuals = recurrence.cayley_hamilton_check(seq.values, chi)
        ok = ok and all(r == 0 for r in residuals)
        details[f"k{k}"] = {
            "verdict": cert.verdict,
            "sign": cert.sign,
            "first_degrees": [str(v) for v in seq.values[:5]],
            "residuals_all_zero": all(r == 0 for r in residuals),
        }
    return {
        "id": 5,
        "name": "stable-pipeline-vandermonde-recurrence",
        "passed": ok,
        "details": details,
    }


def criterion_power_search(seed: int) -> dict:
    """Curated stabilizing-power suite, including alternating diagonal-sign cases."""
    M = exact.Matrix.from_rows
    suite = [
        ("tp", M([[2, 1], [1, 1]]), None, (1,), 1),
        ("neg-tp", M([[-2, -1], [-1, -1]]), None, (1,), 1),
        ("late-positive", M([[-1, 2], [2, 2]]), None, (1,), 4),
        ("diag-sign-flip", M([[4, -1], [-1, 2]]), [[1, 0], [0, -1]], (1,), 1),
        ("vandermonde", M([[1, 1, 1], [1, 2, 4], [1, 3, 9]]), None, (1, 2), 1),
    ]
    ok = True
    rows = []
    for name, A, basis, ks, expected_l0 in suite:
        model = (
            dynamics.standard_model(A.m)
            if basis is None
            else dynamics.build_skew_model(basis)
        )
        res = dynamics.find_power_l0(A, model, ks)
        recert = all(c.verdict == "STABLE_BY_SIGN" for c in res.certificates)
        ok = ok and res.l0 == expected_l0 and recert
        rows.append(
            {"case": name, "l0": res.l0, "expected": expected_l0, "recertified": recert}
        )
    return {
        "id": 6,
        "name": "stabilizing-power-curated-suite",
        "passed": ok,
        "details": {"cases": rows},
    }


def _criterion7_matrices():
    M = exact.Matrix.from_rows

    def conj(P, D):
        Pm = M(P)
        return Pm @ exact.Matrix.diagonal(D) @ exact.inverse(Pm)

    return [
        M([[1, 1, 1], [1, 2, 4], [1, 3, 9]]),
        conj([[1, 1, 0], [0, 1, 1], [0, 0, 1]], [1, 2, 4]),
        conj([[1, 0, 1], [1, 1, 1], [0, 1, 1]], [2, 3, 7]),
        conj([[1, 2, 0], [0, 1, 1], [1, 2, 1]], [1, 3, 5]),
        conj([[1, 1, 1], [0, 1, 2], [0, 0, 1]], [2, 5, 11]),
        conj([[2, 1, 0], [1, 1, 0], [0, 0, 1]], [1, 4, 6]),
        conj([[1, 0, 0], [2, 1, 0], [1, 1, 1]], [3, 5, 8]),
        conj([[1, 1, 0], [1, 2, 0], [0, 1, 1]], [1, 2, 6]),
        conj([[1, 0, 1], [0, 1, 1], [1, 1, 1]], [2, 4, 9]),
        conj([[1, 1, 2], [0, 1, 1], [0, 0, 1]], [1, 5, 7]),
    ]


def criterion_basis_search(seed: int) -> dict:
    """The constructed stabilizing basis certifies every k on all 10 matrices.

    The name still says "heuristic" so that the golden report stays
    byte-identical.
    """
    wins = 0
    rows = []
    for i, A in enumerate(_criterion7_matrices()):
        res = dynamics.stabilize_basis_search(A)
        certified = all(
            c.verdict == "STABLE_BY_SIGN" for c in res.certificates
        ) and res.certified_k == (1, 2)
        wins += certified
        rows.append({"matrix": i, "success": bool(certified)})
    return {
        "id": 7,
        "name": "stabilizing-basis-heuristic-rate",
        "passed": wins == 10,
        "details": {"successes": wins, "out_of": 10, "cases": rows},
    }


def criterion_desk_evidence(seed: int) -> dict:
    """Bounded-order non-recurrence evidence for the rotation-by-irrational family."""
    A = exact.Matrix.from_rows([[2, 1, 0], [-1, 2, 0], [0, 0, 2]])
    profile = spectral.spectral_profile(A)
    report = spectral.gap_report(profile)
    verdicts_ok = report.verdicts == ("CERTIFIED_EQUAL", "CERTIFIED_GAP")
    rou = spectral.root_of_unity_test(A, 1)
    rou_ok = rou.status == "EXACT_NO"
    P = geometry.standard_simplex(3)
    seq = dynamics.degree_sequence(A, 1, P, 30)
    positive_integers = all(v > 0 and v.denominator == 1 for v in seq.values)
    rec = recurrence.minimal_recurrence(seq.values, 12)
    rec_ok = rec.status == "NONE_UP_TO" and rec.order == 12
    profile_ranks = recurrence.hankel_ranks(seq.values, 12)
    ranks_ok = profile_ranks.ranks == tuple(range(1, 13))
    chi = exact.char_poly(exact.exterior_power(A, 1))
    residuals = recurrence.cayley_hamilton_check(seq.values, chi)
    ch_ok = any(r != 0 for r in residuals)
    passed = all([verdicts_ok, rou_ok, positive_integers, rec_ok, ranks_ok, ch_ok])
    return {
        "id": 8,
        "name": "non-recurrence-desk-evidence",
        "passed": passed,
        "details": {
            "gap_verdicts": list(report.verdicts),
            "root_of_unity": rou.status,
            "first_degrees": [str(v) for v in seq.values[:6]],
            "recurrence": {"status": rec.status, "order_cap": rec.order},
            "hankel_ranks": list(profile_ranks.ranks),
            "cayley_hamilton_residual_nonzero": ch_ok,
        },
    }


def criterion_lambda_convergence(seed: int) -> dict:
    """(deg_k(f^20))^(1/20) within 5 percent of |mu_1| ... |mu_k|."""
    M = exact.Matrix.from_rows
    samples = [
        M([[2, 0], [0, 2]]),
        M([[2, 0], [0, 3]]),
        M([[2, 1], [1, 1]]),
        M([[3, 1], [1, 3]]),
        M([[2, 0, 0], [0, 3, 0], [0, 0, 5]]),
    ]
    ok = True
    rows = []
    for A in samples:
        prof = spectral.spectral_profile(A)
        P = geometry.standard_simplex(A.m)
        devs = []
        for k in range(1, A.m + 1):
            seq = dynamics.degree_sequence(A, k, P, 20)
            est = dynamics.lambda_estimate(seq, prof)
            devs.append(round(est.relative_deviation, 6))
            ok = ok and est.relative_deviation < 0.05
        rows.append({"matrix": [[str(x) for x in r] for r in A.rows],
                     "deviations": devs})
    return {
        "id": 9,
        "name": "dynamical-degree-convergence",
        "passed": ok,
        "details": {"samples": rows, "tolerance": 0.05},
    }


def criterion_determinism(seed: int, first: list[dict]) -> dict:
    """Criteria 1-3 serialize byte-identically when re-run with the same seed.

    `first` holds their reports from the run being checked.
    """
    second = [fn(seed) for fn in CRITERIA[:3]]
    same = canonical_json(first) == canonical_json(second)
    return {
        "id": 10,
        "name": "determinism-rerun-byte-identical",
        "passed": same,
        "details": {"rerun_bytes_identical": same},
    }


CRITERIA = (
    criterion_cauchy_binet,
    criterion_mixed_volume_oracles,
    criterion_segment_families,
    criterion_degree_baseline,
    criterion_stable_degree_pipeline,
    criterion_power_search,
    criterion_basis_search,
    criterion_desk_evidence,
    criterion_lambda_convergence,
    criterion_determinism,
)


def run_all(seed: int = DEFAULT_SEED) -> dict:
    criteria = [fn(seed) for fn in CRITERIA[:-1]]
    criteria.append(criterion_determinism(seed, criteria[:3]))
    return {
        "tool": {"name": "monomap", "version": __version__},
        "seed": seed,
        "criteria": criteria,
        "all_passed": all(c["passed"] for c in criteria),
    }
