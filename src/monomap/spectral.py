"""Certified spectral analysis of integer matrices.

Eigenvalues are computed from the exact characteristic polynomial, factored
into irreducible pieces over Q first.  Rational roots and quadratic factors
are handled exactly; higher-degree factors get numeric roots with a
posteriori inclusion disks (Smith-style bound: the disk around each
approximation z_i of a degree-n factor p with radius n|p(z_i)| / prod|z_i-z_j|
contains a true root, and pairwise disjoint disks isolate the roots).
Floating steps run in mpmath at the working precision with explicit slack for
rounding, so the stored intervals are honest upper bounds.

Equalities of moduli are only ever certified through exact data (conjugate
pairs, shared exact squared modulus, identical roots), never numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath
import sympy

from . import exact
from .errors import PrecisionExhausted, PreconditionError, SingularMatrixError

DEFAULT_PRECISION = 128
MAX_PRECISION = 1024

Poly = tuple[Fraction, ...]  # ascending coefficients, leading included


# ---------------------------------------------------------------------------
# small exact polynomial toolbox (ascending coefficient tuples)

def poly_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def poly_eval(p, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def poly_deriv(p):
    return poly_trim(tuple(p[i] * i for i in range(1, len(p))))


def poly_divmod(p, q):
    p = list(p)
    q = poly_trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    while len(poly_trim(p)) >= len(q):
        p = list(poly_trim(p))
        shift = len(p) - len(q)
        f = p[-1] / q[-1]
        quot[shift] = f
        for i, c in enumerate(q):
            p[shift + i] -= f * c
    return poly_trim(quot), poly_trim(p)


def poly_gcd(p, q):
    a, b = poly_trim(p), poly_trim(q)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = tuple(c / lead for c in a)
    return a


def sturm_chain(p):
    chain = [poly_trim(p), poly_deriv(p)]
    while chain[-1]:
        _, r = poly_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append(tuple(-c for c in r))
    return [c for c in chain if c]


def _sign_at(p, x) -> int:
    """Sign of p at x; x may be +-inf (strings '+inf'/'-inf')."""
    if x == "+inf":
        return 1 if p[-1] > 0 else -1
    if x == "-inf":
        s = 1 if p[-1] > 0 else -1
        return s if (len(p) - 1) % 2 == 0 else -s
    v = poly_eval(p, x)
    return (v > 0) - (v < 0)


def _sign_variations(chain, x) -> int:
    signs = [s for s in (_sign_at(p, x) for p in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(p, lo="-inf", hi="+inf") -> int:
    """Number of distinct real roots of p in (lo, hi], by Sturm's theorem."""
    chain = sturm_chain(p)
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)


def rational_factors(p) -> list[tuple[Poly, int]]:
    """Irreducible monic factors of p over Q with multiplicities (exact)."""
    x = sympy.Symbol("x")
    sp = sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(p)],
        x,
        domain="QQ",
    )
    _, factors = sp.factor_list()
    out = []
    for f, mult in factors:
        cs = [Fraction(c.p, c.q) for c in reversed(f.all_coeffs())]
        lead = cs[-1]
        cs = tuple(c / lead for c in cs)
        out.append((cs, int(mult)))
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    check = (Fraction(1),)
    for f, mult in out:
        for _ in range(mult):
            check = poly_mul(check, f)
    if poly_trim(check) != poly_trim(p):
        raise AssertionError("factorization does not multiply back")
    return out


# ---------------------------------------------------------------------------
# eigenvalue records

@dataclass(frozen=True)
class EigenValue:
    """One eigenvalue with a certified inclusion disk and exact side data."""

    re: float
    im: float
    radius: float
    mod_lo: Fraction  # rigorous bounds on |mu|
    mod_hi: Fraction
    factor_index: int
    root_index: int
    copy: int  # which multiplicity copy
    mod2_exact: Fraction | None  # exact |mu|^2 when derivable from the factor
    value_exact: Fraction | None  # exact value for rational eigenvalues
    is_real: bool
    conj_root_index: int | None  # certified conjugate partner within the factor

    @property
    def mod_mid(self) -> Fraction:
        return (self.mod_lo + self.mod_hi) / 2


@dataclass(frozen=True)
class SpectralProfile:
    m: int
    precision: int
    eigenvalues: tuple[EigenValue, ...]  # sorted by modulus, largest first
    factors: tuple[tuple[Poly, int], ...]
    det_abs: Fraction
    lambdas: tuple[float, ...]  # dynamical degrees |mu_1| ... |mu_k|, k = 0 .. m


@dataclass(frozen=True)
class GapReport:
    m: int
    verdicts: tuple[str, ...]  # index k-1 holds the verdict for gap k
    margins: tuple[tuple[float, float], ...]  # (|mu_k|-|mu_{k+1}|, error bound)

    def verdict(self, k: int) -> str:
        return self.verdicts[k - 1]


@dataclass(frozen=True)
class RootOfUnityVerdict:
    status: str  # EXACT_YES | EXACT_NO | NUMERIC_PROBABLY_NO | UNDECIDED
    order: int | None = None
    bound: int | None = None
    witness: str | None = None


def _mpf_frac(q: Fraction):
    return mpmath.mpf(q.numerator) / mpmath.mpf(q.denominator)


def _frac_from_mpf_up(x) -> Fraction:
    """Convert an mpf to a Fraction, never decreasing it.

    float() rounds to nearest, so pad by one part in 2^40 plus an absolute
    floor to stay a true upper bound.
    """
    f = Fraction(float(x))
    return f + abs(f) / 2**40 + Fraction(1, 2**80)


def _frac_from_mpf_down(x) -> Fraction:
    f = Fraction(float(x))
    f = f - abs(f) / 2**40 - Fraction(1, 2**80)
    return f if f > 0 else Fraction(0)


def _roots_of_factor(f: Poly, prec: int):
    """Roots of an irreducible monic factor with rigorous disk radii.

    Returns a list of (re, im, radius, value_exact, is_real, conj_index) with
    mp values; radii are mpf upper bounds.
    """
    deg = len(f) - 1
    with mpmath.workprec(prec + 64):
        if deg == 1:
            r = -f[0]
            return [(_mpf_frac(r), mpmath.mpf(0), mpmath.mpf(0), r, True, None)]
        if deg == 2:
            b, c = f[1], f[0]
            disc = b * b - 4 * c
            half_b = _mpf_frac(-b / 2)
            slack = mpmath.mpf(2) ** (16 - prec)
            if disc < 0:
                s = mpmath.sqrt(_mpf_frac(-disc)) / 2
                rad = (abs(half_b) + s + 1) * slack
                return [
                    (half_b, s, rad, None, False, 1),
                    (half_b, -s, rad, None, False, 0),
                ]
            s = mpmath.sqrt(_mpf_frac(disc)) / 2
            rad = (abs(half_b) + s + 1) * slack
            return [
                (half_b + s, mpmath.mpf(0), rad, None, True, None),
                (half_b - s, mpmath.mpf(0), rad, None, True, None),
            ]
        coeffs = [_mpf_frac(c) for c in reversed(f)]
        try:
            roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=prec)
        except mpmath.libmp.NoConvergence:
            return None  # retry at higher working precision
        # Smith-style a posteriori disks
        absf = [abs(c) for c in coeffs]
        u = mpmath.mpf(2) ** (1 - (prec + 64))
        out = []
        for i, z in enumerate(roots):
            val = mpmath.mpf(0)
            mag = mpmath.mpf(0)
            az = abs(z)
            for c, ac in zip(coeffs, absf):
                val = val * z + c
                mag = mag * az + ac
            num = abs(val) + mag * (4 * deg) * u
            den = mpmath.mpf(1)
            for j, w in enumerate(roots):
                if j != i:
                    den *= abs(z - w)
            den = den * (1 - 8 * deg * u)
            if den <= 0:
                return None
            out.append([z, deg * num / den])
        # realness via Sturm count of the exact factor
        n_real = count_real_roots(f)
        order = sorted(range(deg), key=lambda i: abs(mpmath.im(out[i][0])))
        real_ids = set(order[:n_real])
        for i in real_ids:
            if abs(mpmath.im(out[i][0])) > out[i][1]:
                return None  # inconsistent; refine
        result = []
        complex_ids = [i for i in range(deg) if i not in real_ids]
        conj_of = {}
        for i in complex_ids:
            z = out[i][0]
            partners = [
                j
                for j in complex_ids
                if j != i
                and abs(mpmath.conj(z) - out[j][0]) <= out[i][1] + out[j][1]
            ]
            if len(partners) != 1:
                return None
            conj_of[i] = partners[0]
        for i in complex_ids:
            if conj_of[conj_of[i]] != i:
                return None
        for i in range(deg):
            z, rad = out[i]
            if i in real_ids:
                result.append((mpmath.re(z), mpmath.mpf(0), rad, None, True, None))
            else:
                result.append(
                    (mpmath.re(z), mpmath.im(z), rad, None, False, conj_of[i])
                )
        return result


def _mod2_exact_for_quadratic(f: Poly):
    """Exact |root|^2 shared by both roots of x^2+bx+c, when it exists."""
    b, c = f[1], f[0]
    disc = b * b - 4 * c
    if disc < 0:
        return c  # conjugate pair
    if b == 0:
        return -c  # roots +-sqrt(-c), real
    return None


def spectral_profile(A: exact.Matrix, precision: int = DEFAULT_PRECISION) -> SpectralProfile:
    """All eigenvalues of A with certified disks, sorted moduli, and lambda_k."""
    if not 1 <= precision <= MAX_PRECISION:
        raise ValueError(f"precision must satisfy 1 <= precision <= {MAX_PRECISION} bits")
    d = exact.det(A)
    if d == 0:
        raise SingularMatrixError("matrix is singular; map is not dominant")
    m = A.m
    chi = exact.char_poly(A)
    factors = rational_factors(chi.full_coeffs())
    prec = precision
    while True:
        records = _build_records(factors, prec)
        if records is not None and _sortable(records):
            break
        if prec >= MAX_PRECISION:
            raise PrecisionExhausted(
                f"eigenvalue disks still overlap at {MAX_PRECISION} bits"
            )
        prec = min(2 * prec, MAX_PRECISION)
    records.sort(key=lambda r: (-r.mod_mid, -r.re, -r.im))
    det_abs = abs(d)
    mods = [r.mod_mid for r in records]
    lambdas = [1.0]
    acc = Fraction(1)
    for k in range(1, m + 1):
        acc *= mods[k - 1]
        lambdas.append(float(acc))
    lambdas[m] = float(det_abs)
    prod_lo = Fraction(1)
    prod_hi = Fraction(1)
    for r in records:
        prod_lo *= r.mod_lo
        prod_hi *= r.mod_hi
    if not prod_lo <= det_abs <= prod_hi:
        raise AssertionError("product of moduli inconsistent with |det|")
    return SpectralProfile(
        m=m,
        precision=prec,
        eigenvalues=tuple(records),
        factors=tuple(factors),
        det_abs=det_abs,
        lambdas=tuple(lambdas),
    )


def _build_records(factors, prec):
    records = []
    for fi, (f, mult) in enumerate(factors):
        roots = _roots_of_factor(f, prec)
        if roots is None:
            return None
        deg = len(f) - 1
        mod2 = _mod2_exact_for_quadratic(f) if deg == 2 else None
        for ri, (re, im, rad, val_exact, is_real, conj) in enumerate(roots):
            with mpmath.workprec(prec + 64):
                modulus = mpmath.hypot(re, im)
                lo = modulus - rad
                hi = modulus + rad
                mod_lo = _frac_from_mpf_down(lo) if lo > 0 else Fraction(0)
                mod_hi = _frac_from_mpf_up(hi)
            if val_exact is not None:
                mod_lo = mod_hi = abs(val_exact)
            m2 = val_exact * val_exact if val_exact is not None else mod2
            for copy in range(mult):
                records.append(
                    EigenValue(
                        re=float(re),
                        im=float(im),
                        radius=float(rad) if val_exact is None else 0.0,
                        mod_lo=mod_lo,
                        mod_hi=mod_hi,
                        factor_index=fi,
                        root_index=ri,
                        copy=copy,
                        mod2_exact=m2,
                        value_exact=val_exact,
                        is_real=is_real,
                        conj_root_index=conj,
                    )
                )
    return records


def _certified_equal(a: EigenValue, b: EigenValue) -> bool:
    if a.factor_index == b.factor_index and a.root_index == b.root_index:
        return True  # same root, different multiplicity copy
    if (
        a.factor_index == b.factor_index
        and a.conj_root_index is not None
        and a.conj_root_index == b.root_index
    ):
        return True  # certified conjugate pair
    if a.mod2_exact is not None and b.mod2_exact is not None:
        return a.mod2_exact == b.mod2_exact
    return False


def _certified_apart(a: EigenValue, b: EigenValue) -> bool:
    if a.mod2_exact is not None and b.mod2_exact is not None:
        return a.mod2_exact != b.mod2_exact
    if a.mod2_exact is not None:
        return a.mod2_exact > b.mod_hi**2 or a.mod2_exact < b.mod_lo**2
    if b.mod2_exact is not None:
        return b.mod2_exact > a.mod_hi**2 or b.mod2_exact < a.mod_lo**2
    return a.mod_lo > b.mod_hi or b.mod_lo > a.mod_hi


def _sortable(records) -> bool:
    recs = sorted(records, key=lambda r: (-r.mod_mid, -r.re, -r.im))
    for a, b in zip(recs, recs[1:]):
        if not (_certified_equal(a, b) or _certified_apart(a, b)):
            return False
    return True


def gap_report(profile: SpectralProfile, A: exact.Matrix | None = None) -> GapReport:
    """Per-k verdict on |mu_k| > |mu_{k+1}| versus |mu_k| = |mu_{k+1}|.

    Equality is only certified through exact data; a gap needs disjoint
    certified intervals (or exact squared moduli).  Anything else is
    UNDECIDED, which is a valid verdict.
    """
    recs = profile.eigenvalues
    verdicts = []
    margins = []
    for k in range(1, profile.m):
        a, b = recs[k - 1], recs[k]
        if _certified_equal(a, b):
            verdicts.append("CERTIFIED_EQUAL")
        elif _certified_apart(a, b):
            verdicts.append("CERTIFIED_GAP")
        else:
            verdicts.append("UNDECIDED")
        margins.append(
            (float(a.mod_mid - b.mod_mid), a.radius + b.radius)
        )
    return GapReport(m=profile.m, verdicts=tuple(verdicts), margins=tuple(margins))


def _quadratic_ratio_power_is_one(b: Fraction, c: Fraction, n: int) -> bool:
    """Test (mu/mu')^n == 1 exactly in Q[x]/(x^2+bx+c), mu' the other root."""
    # ratio = mu^2/c = (-b*mu - c)/c represented as (x0, x1) = x0 + x1*mu
    x0, x1 = Fraction(-1), -b / c
    p0, p1 = Fraction(1), Fraction(0)
    for _ in range(n):
        p0, p1 = p0 * x0 - c * p1 * x1, p0 * x1 + p1 * x0 - b * p1 * x1
    return p0 == 1 and p1 == 0


def root_of_unity_test(
    A: exact.Matrix, k: int, denominator_bound: int = 10**6
) -> RootOfUnityVerdict:
    """Decide whether mu_k / mu_{k+1} is a root of unity.

    Exact when the two eigenvalues are the roots of one irreducible quadratic
    factor of the characteristic polynomial: the ratio then lives in a
    quadratic field, whose roots of unity have order in {1, 2, 3, 4, 6}.
    Other certified-equal configurations fall back to a continued-fraction
    test of the angle, which can only ever say "probably not" or "undecided".
    """
    profile = spectral_profile(A)
    if not 1 <= k <= profile.m - 1:
        raise PreconditionError(f"k must be in [1, {profile.m - 1}]")
    report = gap_report(profile)
    if report.verdict(k) != "CERTIFIED_EQUAL":
        raise PreconditionError(
            f"|mu_{k}| = |mu_{k + 1}| is not certified (verdict "
            f"{report.verdict(k)}); root-of-unity test needs an exact equality"
        )
    a, b = profile.eigenvalues[k - 1], profile.eigenvalues[k]
    if a.factor_index == b.factor_index and a.root_index == b.root_index:
        return RootOfUnityVerdict(status="EXACT_YES", order=1, witness="ratio is 1")
    f, _ = profile.factors[a.factor_index]
    if a.factor_index == b.factor_index and len(f) - 1 == 2:
        cb, cc = f[1], f[0]
        field = f"Q[x]/(x^2 + ({cb})x + ({cc}))"
        for n in (1, 2, 3, 4, 6):
            if _quadratic_ratio_power_is_one(cb, cc, n):
                return RootOfUnityVerdict(
                    status="EXACT_YES",
                    order=n,
                    witness=f"ratio^{n} = 1 in {field}",
                )
        ratio_re = -1 + cb * cb / (2 * cc)
        return RootOfUnityVerdict(
            status="EXACT_NO",
            witness=(
                f"ratio has no order in {{1,2,3,4,6}} in {field}; "
                f"Re(ratio) = {ratio_re}"
            ),
        )
    # numeric fallback: angle of the ratio against rationals with small denominator
    import math

    theta = math.atan2(a.im, a.re) - math.atan2(b.im, b.re)
    phi = (theta / (2 * math.pi)) % 1.0
    p, q = _best_rational(phi, denominator_bound)
    if abs(phi - p / q) < 1e-12:
        return RootOfUnityVerdict(
            status="UNDECIDED",
            bound=denominator_bound,
            witness=f"angle/2pi ~ {p}/{q}; exact decision unavailable here",
        )
    return RootOfUnityVerdict(
        status="NUMERIC_PROBABLY_NO",
        bound=denominator_bound,
        witness=f"no rational with denominator <= {denominator_bound} within 1e-12",
    )


def _best_rational(x: float, max_den: int) -> tuple[int, int]:
    best = Fraction(x).limit_denominator(max_den)
    return best.numerator, best.denominator


def real_spectrum_certificate(A: exact.Matrix) -> str | None:
    """Exactly certify 'm distinct real eigenvalues, all positive/negative'.

    Returns "positive", "negative", or None, using Sturm counts on the exact
    characteristic polynomial (no numerics involved).
    """
    chi = exact.char_poly(A).full_coeffs()
    m = len(chi) - 1
    if poly_eval(chi, Fraction(0)) == 0:
        return None  # zero eigenvalue
    g = poly_gcd(chi, poly_deriv(chi))
    if len(g) - 1 != 0:
        return None  # repeated eigenvalue
    if count_real_roots(chi) != m:
        return None
    if count_real_roots(chi, Fraction(0), "+inf") == m:
        return "positive"
    if count_real_roots(chi, "-inf", Fraction(0)) == m:
        return "negative"
    return None
