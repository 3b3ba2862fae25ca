"""Command-line front end: JSON I/O and pipeline orchestration.

All integers and rationals cross the wire as strings ("123", "-3/7") to dodge
64-bit overflow and float corruption; floats appear only in clearly labeled
numeric fields.  Exit codes: 0 success, 1 search-exhausted / not-found,
2 input error, 3 precondition violated, 4 internal error (a library error
without its own code, or a broken invariant).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from importlib import resources

from . import __version__, acceptance, dynamics, exact, geometry, recurrence, spectral
from .errors import (
    DegeneratePolytopeError,
    InputError,
    InsufficientData,
    MonomapError,
    PrecisionExhausted,
    PreconditionError,
    SearchExhausted,
    SingularMatrixError,
)

EXIT_OK = 0
EXIT_SEARCH_EXHAUSTED = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


def _parse_frac(s, where: str) -> Fraction:
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as e:
        raise InputError(f"{where}: cannot parse rational {s!r}: {e}") from e


def load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from e


def _rows_of_length(rows, m, where: str, count: int | None = None) -> list:
    """rows, if it is a non-empty list of lists of length m (count of them, when
    given); InputError otherwise."""
    if (not isinstance(rows, list) or not rows
            or (count is not None and len(rows) != count)
            or any(not isinstance(r, list) or len(r) != m for r in rows)):
        n = "one or more" if count is None else count
        raise InputError(f"{where}: expected a list of {n} lists of length {m}")
    return rows


def parse_matrix(obj, where: str = "matrix") -> exact.Matrix:
    if not isinstance(obj, dict) or "entries" not in obj:
        raise InputError(f'{where}: expected {{"m": int, "entries": [[...]]}}')
    entries = obj["entries"]
    m = obj.get("m", len(entries) if isinstance(entries, list) else 0)
    rows = [
        [_parse_frac(x, f"{where} entry ({i})") for x in row]
        for i, row in enumerate(_rows_of_length(entries, m, where, count=m))
    ]
    M = exact.Matrix.from_rows(rows)
    if not M.is_integer:
        raise InputError(f"{where}: exponent matrices must have integer entries")
    if M.m < 2 or M.m > 8:
        raise InputError(f"{where}: supported dimensions are 2 <= m <= 8")
    return M


def parse_basis(obj, m: int, where: str = "basis"):
    if not isinstance(obj, dict) or "vectors" not in obj:
        raise InputError(f'{where}: expected {{"vectors": [[...]]}}')
    vectors = _rows_of_length(obj["vectors"], m, where, count=m)
    return [[_parse_frac(x, where) for x in v] for v in vectors]


def parse_polytope(obj, m: int, where: str = "polytope") -> geometry.Polytope:
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise InputError(f'{where}: expected {{"vertices": [[...]]}}')
    verts = _rows_of_length(obj["vertices"], m, where)
    return geometry.convex_hull(
        [[_parse_frac(x, where) for x in v] for v in verts]
    )


def parse_sequence(obj, where: str = "sequence"):
    if not isinstance(obj, dict) or not isinstance(obj.get("values"), list):
        raise InputError(f'{where}: expected {{"values": ["...", ...]}}')
    return [_parse_frac(x, where) for x in obj["values"]]


def matrix_json(M: exact.Matrix) -> dict:
    return {"m": M.m, "entries": [[str(x) for x in row] for row in M.rows]}


def _certificate_json(c: dynamics.StabilityCertificate) -> dict:
    return {
        "k": c.k,
        "verdict": c.verdict,
        "sign": c.sign,
        "minor_signs": [list(r) for r in c.minor_signs],
        "failure_power": c.failure_power,
    }


def _model_json(model: dynamics.SkewModel) -> dict:
    return {
        "epsilon": [[str(x) for x in e] for e in model.epsilon],
        "u": [[str(x) for x in u] for u in model.u],
        "v": [list(v) for v in model.v],
        "alpha": [str(a) for a in model.alpha],
    }


# ---------------------------------------------------------------------------
# subcommands

def cmd_spectrum(args) -> dict:
    A = parse_matrix(load_json(args.matrix))
    profile = spectral.spectral_profile(A, precision=args.precision)
    report = spectral.gap_report(profile, A)
    eigen = [
        {
            "re": e.re,
            "im": e.im,
            "radius": e.radius,
            "exact_value": str(e.value_exact) if e.value_exact is not None else None,
            "mod2_exact": str(e.mod2_exact) if e.mod2_exact is not None else None,
        }
        for e in profile.eigenvalues
    ]
    gaps = [
        {
            "k": k,
            "verdict": report.verdict(k),
            "margin": report.margins[k - 1][0],
            "error_bound": report.margins[k - 1][1],
        }
        for k in range(1, profile.m)
    ]
    roots_of_unity = []
    for k in range(1, profile.m):
        if report.verdict(k) == "CERTIFIED_EQUAL":
            v = spectral.root_of_unity_test(A, k)
            roots_of_unity.append(
                {"k": k, "status": v.status, "order": v.order, "witness": v.witness}
            )
    result = {
        "det": str(exact.det(A)),
        "char_poly_ascending": [str(c) for c in exact.char_poly(A).full_coeffs()],
        "eigenvalues": eigen,
        "lambdas": list(profile.lambdas),
        "gaps": gaps,
        "roots_of_unity": roots_of_unity,
    }
    provenance = {
        "exact": ["det", "char_poly_ascending", "gaps[].verdict",
                  "eigenvalues[].exact_value", "eigenvalues[].mod2_exact",
                  "roots_of_unity[].status"],
        "numeric": ["eigenvalues[].re/im/radius", "lambdas", "gaps[].margin"],
        "precision_bits": profile.precision,
    }
    return {
        "result": result,
        "provenance": provenance,
        "input": {"matrix": matrix_json(A)},
        "config": {"precision": args.precision},
    }


def cmd_stability(args) -> dict:
    A = parse_matrix(load_json(args.matrix))
    if args.basis:
        model = dynamics.build_skew_model(parse_basis(load_json(args.basis), A.m))
    else:
        model = dynamics.standard_model(A.m)
    if not 1 <= args.k <= A.m - 1:
        raise InputError(f"k must satisfy 1 <= k <= m-1 = {A.m - 1}")
    cert = dynamics.check_k_stable(A, model, args.k)
    pb = dynamics.pullback_matrix(A, model, args.k)
    result = {
        "certificate": _certificate_json(cert),
        "pullback_abs": [[str(x) for x in row] for row in pb.matrix.rows],
        "signed_minors": [[str(x) for x in row] for row in pb.signed.rows],
        "labels": [list(t) for t in pb.labels],
        "model": _model_json(model),
    }
    provenance = {"exact": ["certificate", "pullback_abs", "signed_minors"],
                  "numeric": []}
    return {
        "result": result,
        "provenance": provenance,
        "input": {"matrix": matrix_json(A),
                  "basis": [[str(x) for x in e] for e in model.epsilon]},
        "config": {"k": args.k},
    }


def cmd_stabilize(args) -> dict:
    A = parse_matrix(load_json(args.matrix))
    config = {
        "mode": args.mode,
        "denominator_bound": args.denominator_bound,
        "max_l": args.max_l,
        "confirm_window": args.confirm_window,
    }
    if args.mode == "basis":
        res = dynamics.stabilize_basis_search(A)
        result = {
            "mode": "BASIS",
            "model": _model_json(res.model),
            "certified_k": list(res.certified_k),
            "certificates": [_certificate_json(c) for c in res.certificates],
            "attempts_logged": len(res.log),
        }
    else:
        ks = _parse_ks(args.ks, A.m)
        if args.basis:
            model = dynamics.build_skew_model(parse_basis(load_json(args.basis), A.m))
        else:
            # bounds and gaps first, so a bad request costs no frame
            dynamics.check_power_search(A, ks, args.max_l, args.confirm_window)
            model = dynamics.orthant_basis(A, denominator_bound=args.denominator_bound)
        res = dynamics.find_power_l0(
            A, model, ks, max_l=args.max_l, confirm_window=args.confirm_window
        )
        result = {
            "mode": "POWER",
            "l0": res.l0,
            "confirm_window": res.window,
            "certified_k": list(res.certified_k),
            "certificates": [_certificate_json(c) for c in res.certificates],
            "model": _model_json(res.model),
        }
    provenance = {
        "exact": ["certificates (sign certificates and minors)"],
        "numeric": ["power-mode model without --basis (rounded eigenvector frame)"],
    }
    return {
        "result": result,
        "provenance": provenance,
        "input": {"matrix": matrix_json(A)},
        "config": config,
    }


def _parse_ks(spec: str | None, m: int):
    if spec is None:
        return list(range(1, m))
    try:
        ks = sorted({int(t) for t in spec.split(",") if t.strip()})
    except ValueError as e:
        raise InputError(f"--ks: expected comma-separated integers: {e}") from e
    if not ks or any(not 1 <= k <= m - 1 for k in ks):
        raise InputError(f"--ks: every k must satisfy 1 <= k <= {m - 1}")
    return ks


def _default_polytope(args, m: int) -> geometry.Polytope:
    if args.polytope:
        return parse_polytope(load_json(args.polytope), m)
    return geometry.standard_simplex(m)


def cmd_degrees(args) -> dict:
    A = parse_matrix(load_json(args.matrix))
    P = _default_polytope(args, A.m)
    if not 0 <= args.k <= A.m:
        raise InputError(f"k must satisfy 0 <= k <= m = {A.m}")
    seq = dynamics.degree_sequence(A, args.k, P, args.terms)
    integral = all(v.denominator == 1 for v in seq.values)
    if not args.polytope and not integral:
        raise MonomapError(
            "degrees on projective space must be integers; this is a bug"
        )
    result = {
        "k": args.k,
        "degrees": {str(n + 1): str(v) for n, v in enumerate(seq.values)},
        "integral": integral,
    }
    if args.terms >= 5:
        profile = spectral.spectral_profile(A)
        est = dynamics.lambda_estimate(seq, profile)
        result["lambda_estimate"] = {
            "estimate": est.estimate,
            "lambda_spectral": est.lambda_spectral,
            "relative_deviation": est.relative_deviation,
        }
    provenance = {"exact": ["degrees"], "numeric": ["lambda_estimate"]}
    return {
        "result": result,
        "provenance": provenance,
        "input": {
            "matrix": matrix_json(A),
            "polytope": {"vertices": [[str(x) for x in v] for v in P.vertices]},
        },
        "config": {"k": args.k, "terms": args.terms},
    }


def cmd_recurrence(args) -> dict:
    inputs = {}
    config = {"max_order": args.max_order}
    ch_check = None
    if args.sequence:
        values = parse_sequence(load_json(args.sequence))
        inputs["sequence"] = [str(v) for v in values]
    elif args.from_degrees:
        if args.matrix is None or args.k is None or args.terms is None:
            raise InputError("--from-degrees needs --matrix, --k and --terms")
        A = parse_matrix(load_json(args.matrix))
        P = _default_polytope(args, A.m)
        seq = dynamics.degree_sequence(A, args.k, P, args.terms)
        values = list(seq.values)
        inputs["matrix"] = matrix_json(A)
        config.update({"k": args.k, "terms": args.terms})
        if 1 <= args.k <= A.m - 1:
            cert = dynamics.check_k_stable(A, dynamics.standard_model(A.m), args.k)
            chi = exact.char_poly(exact.exterior_power(A, args.k))
            residuals = recurrence.cayley_hamilton_check(values, chi)
            ch_check = {
                "stability_verdict": cert.verdict,
                "char_poly_ascending": [str(c) for c in chi.full_coeffs()],
                "residuals_all_zero": all(r == 0 for r in residuals),
                "nonzero_residuals": sum(1 for r in residuals if r != 0),
            }
    else:
        raise InputError("need --sequence FILE or --from-degrees")
    report = recurrence.minimal_recurrence(values, args.max_order)
    max_hankel = min(args.max_order, (len(values) + 1) // 2)
    ranks = recurrence.hankel_ranks(values, max_hankel)
    result = {
        "recurrence": {
            "status": report.status,
            "order": report.order,
            "coefficients": [str(c) for c in report.coefficients]
            if report.coefficients is not None
            else None,
            "checked_terms": report.checked_terms,
            "order_cap": report.order_cap,
        },
        "hankel_ranks": list(ranks.ranks),
    }
    if ch_check is not None:
        result["cayley_hamilton"] = ch_check
    provenance = {"exact": ["recurrence", "hankel_ranks", "cayley_hamilton"],
                  "numeric": []}
    return {
        "result": result,
        "provenance": provenance,
        "input": inputs,
        "config": config,
    }


def cmd_verify_acceptance(args) -> int:
    report = acceptance.run_all(seed=args.seed)
    payload = acceptance.canonical_json(report) + "\n"
    for c in report["criteria"]:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"[{status}] criterion {c['id']:2d}: {c['name']}", file=sys.stderr)
    if args.output_file:
        with open(args.output_file, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    golden_status = "skipped"
    golden_path = resources.files("monomap").joinpath("golden/acceptance.json")
    if args.update_golden:
        with open(str(golden_path), "w") as fh:
            fh.write(payload)
        golden_status = "updated"
    elif args.seed == acceptance.DEFAULT_SEED:
        try:
            golden_status = "match" if golden_path.read_text() == payload else "MISMATCH"
        except FileNotFoundError:
            golden_status = "missing"
    print(f"golden: {golden_status}", file=sys.stderr)
    if not report["all_passed"] or golden_status == "MISMATCH":
        return EXIT_SEARCH_EXHAUSTED
    return EXIT_OK


# ---------------------------------------------------------------------------
# rendering and dispatch

def _render_table(env: dict) -> str:
    lines = [f"monomap {env['command']} (v{env['tool']['version']})"]

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for key, val in obj.items():
                walk(f"{prefix}{key}.", val)
        elif isinstance(obj, list) and obj and isinstance(obj[0], (dict, list)):
            for i, val in enumerate(obj):
                walk(f"{prefix}{i}.", val)
        else:
            lines.append(f"  {prefix[:-1]:48s} {obj}")

    walk("", env["result"])
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="monomap",
        description="Exact stability certificates and degree growth for monomial maps",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", choices=("json", "table"), default="json")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("spectrum", parents=[common],
                        help="eigenvalues, dynamical degrees, gap report")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--precision", type=int, default=spectral.DEFAULT_PRECISION)
    sp.set_defaults(func=cmd_spectrum)

    st = sub.add_parser("stability", parents=[common], help="exact k-stability certificate on a model")
    st.add_argument("--matrix", required=True)
    st.add_argument("--basis")
    st.add_argument("--k", type=int, required=True)
    st.set_defaults(func=cmd_stability)

    sz = sub.add_parser("stabilize", parents=[common],
                        help="construct a stabilizing basis, or find a stabilizing power")
    sz.add_argument("--matrix", required=True)
    sz.add_argument("--mode", choices=("basis", "power"), required=True)
    sz.add_argument("--ks", help="comma-separated k values (power mode)")
    sz.add_argument("--basis", help="model basis for power mode (default: orthant frame)")
    sz.add_argument("--denominator-bound", type=int,
                    default=dynamics.DEFAULT_DENOMINATOR_BOUND,
                    help="rounding of the orthant frame (power mode)")
    sz.add_argument("--max-l", type=int, default=dynamics.DEFAULT_MAX_L)
    sz.add_argument("--confirm-window", type=int,
                    default=dynamics.DEFAULT_CONFIRM_WINDOW)
    sz.set_defaults(func=cmd_stabilize)

    dg = sub.add_parser("degrees", parents=[common], help="exact degree sequence deg_{D,k}(f_A^n)")
    dg.add_argument("--matrix", required=True)
    dg.add_argument("--k", type=int, required=True)
    dg.add_argument("--terms", type=int, required=True)
    dg.add_argument("--polytope")
    dg.set_defaults(func=cmd_degrees)

    rc = sub.add_parser("recurrence", parents=[common], help="minimal recurrence and Hankel profile")
    rc.add_argument("--sequence")
    rc.add_argument("--from-degrees", action="store_true")
    rc.add_argument("--matrix")
    rc.add_argument("--k", type=int)
    rc.add_argument("--terms", type=int)
    rc.add_argument("--polytope")
    rc.add_argument("--max-order", type=int, required=True)
    rc.set_defaults(func=cmd_recurrence)

    va = sub.add_parser("verify-acceptance", help="run the acceptance suite")
    va.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    va.add_argument("--output-file")
    va.add_argument("--update-golden", action="store_true")
    va.set_defaults(func=None)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.cmd == "verify-acceptance":
        return cmd_verify_acceptance(args)
    t0 = time.perf_counter()
    try:
        parts = args.func(args)
    except (InputError, InsufficientData, SingularMatrixError, DegeneratePolytopeError,
            ValueError) as e:
        _emit_error(type(e).__name__, str(e))
        return EXIT_INPUT
    except PreconditionError as e:
        _emit_error("PreconditionError", str(e))
        return EXIT_PRECONDITION
    except (SearchExhausted, PrecisionExhausted) as e:
        extra = {"log_entries": len(getattr(e, "log", []) or [])}
        _emit_error(type(e).__name__, str(e), extra)
        return EXIT_SEARCH_EXHAUSTED
    except (MonomapError, AssertionError) as e:  # any other library error, or a broken invariant
        _emit_error(type(e).__name__, str(e))
        return EXIT_INTERNAL
    env = {
        "tool": {"name": "monomap", "version": __version__},
        "command": args.cmd,
        **parts,
        "timing_ms": round(1000 * (time.perf_counter() - t0), 3),
    }
    if args.output == "table":
        sys.stdout.write(_render_table(env))
    else:
        sys.stdout.write(json.dumps(env, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _emit_error(kind: str, message: str, extra: dict | None = None):
    payload = {"error": {"type": kind, "message": message, **(extra or {})}}
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
