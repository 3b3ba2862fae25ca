"""Certified spectral analysis of integer matrices.

Eigenvalues are computed from the exact characteristic polynomial, factored
into irreducible pieces over Q first; sympy does the factoring and the exact
(Sturm) real-root counts.  Rational roots are exact; every other factor
gets numeric roots with a posteriori inclusion disks (Smith-style bound: the
disk around each approximation z_i of a degree-n factor p with radius
n|p(z_i)| / prod|z_i-z_j| contains a true root, and pairwise disjoint disks
isolate the roots).  Quadratic factors take their roots from these disks too,
but keep an exact squared modulus (c for a conjugate pair, -c for roots
+-sqrt(-c)), so equal moduli within and across them stay exact.
Floating steps run in mpmath at the working precision with explicit slack for
rounding, so the stored intervals are honest upper bounds; a stored float
radius also covers the rounding of its centre to a float.

Equalities of moduli are only ever certified through exact data (conjugate
pairs, shared exact squared modulus, identical roots), never numerically.

`spectral_profile` remembers its last result, so a caller that works on one
matrix (the gap report, each root-of-unity test, the power search) factors
its characteristic polynomial once.  The memo keeps one entry only: a hit
means the same matrix is still being worked on, never that an old input came
back.  sympy is imported on first use, in `_qq_poly`, not with the module.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from . import exact
from .errors import PrecisionExhausted, PreconditionError, SingularMatrixError

DEFAULT_PRECISION = 128
MAX_PRECISION = 1024

Poly = tuple[Fraction, ...]  # ascending coefficients, leading included


def _qq_poly(p) -> sympy.Poly:
    """The polynomial with ascending coefficients p, over QQ in sympy."""
    import sympy

    return sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(p)],
        sympy.Symbol("x"),
        domain="QQ",
    )


def rational_factors(p) -> list[tuple[Poly, int]]:
    """Irreducible monic factors of p over Q with multiplicities (exact)."""
    sp = _qq_poly(p)
    _, factors = sp.factor_list()
    out = []
    for f, mult in factors:
        cs = tuple(Fraction(c.p, c.q) for c in reversed(f.monic().all_coeffs()))
        out.append((cs, int(mult)))
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    check = _qq_poly((Fraction(1),))
    for f, mult in out:
        check *= _qq_poly(f) ** mult
    if check != sp:
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


def _frac_from_mpf(x) -> Fraction:
    """The exact value of a finite mpf, mantissa * 2^exp."""
    man, exp = x.man_exp  # mpmath reports |mantissa|
    return (-1 if x < 0 else 1) * Fraction(man) * Fraction(2) ** exp


def _modulus_bounds(re, im, rad, prec: int) -> tuple[Fraction, Fraction]:
    """Rigorous bounds on |mu| for a root mu in the disk of radius rad about
    re + i im.  hypot is the only rounded step: pad it by a few ulps of the
    working precision prec + 64, then apply the radius exactly."""
    with mpmath.workprec(prec + 64):
        modulus = _frac_from_mpf(mpmath.hypot(re, im))
    slack = modulus / 2 ** (prec + 60) + _frac_from_mpf(rad)
    return max(modulus - slack, Fraction(0)), modulus + slack


def _float_disk(re: Fraction, im: Fraction, rad: Fraction) -> tuple[float, float, float]:
    """The disk of radius rad about re + i im as floats: the centre rounded to
    nearest, and the radius plus that rounding error, rounded up."""
    x, y = float(re), float(im)
    r = rad + abs(re - Fraction(x)) + abs(im - Fraction(y))
    radius = float(r)
    return x, y, radius if radius >= r else math.nextafter(radius, math.inf)


def _roots_of_factor(f: Poly, fi: int, mult: int, prec: int):
    """EigenValue records for the roots of the irreducible monic factor f,
    factors[fi] of multiplicity mult, each root repeated mult times; None
    when the disks at precision prec do not certify the roots."""
    deg = len(f) - 1
    with mpmath.workprec(prec + 64):
        if deg == 1:
            r = -f[0]
            x, y, radius = _float_disk(r, Fraction(0), Fraction(0))
            return [EigenValue(re=x, im=y, radius=radius, mod_lo=abs(r), mod_hi=abs(r),
                               factor_index=fi, root_index=0, mod2_exact=r * r,
                               value_exact=r, is_real=True, conj_root_index=None)] * mult
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
        # realness via the exact real-root count of the factor
        n_real = _qq_poly(f).count_roots()
        order = sorted(range(deg), key=lambda i: abs(mpmath.im(out[i][0])))
        real_ids = set(order[:n_real])
        for i in real_ids:
            if abs(mpmath.im(out[i][0])) > out[i][1]:
                return None  # inconsistent; refine
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
        mod2 = _mod2_exact_for_quadratic(f) if deg == 2 else None
        result = []
        for i, (z, rad) in enumerate(out):
            re, im = mpmath.re(z), (mpmath.mpf(0) if i in real_ids else mpmath.im(z))
            mod_lo, mod_hi = _modulus_bounds(re, im, rad, prec)
            x, y, radius = _float_disk(*map(_frac_from_mpf, (re, im, rad)))
            result += [EigenValue(re=x, im=y, radius=radius,
                                  mod_lo=mod_lo, mod_hi=mod_hi, factor_index=fi, root_index=i,
                                  mod2_exact=mod2, value_exact=None, is_real=i in real_ids,
                                  conj_root_index=conj_of.get(i))] * mult
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
    """All eigenvalues of A with certified disks, sorted moduli, and lambda_k.

    The last profile is memoized on (A, precision): repeated calls on the same
    matrix return the same frozen record without factoring again.  One entry
    is enough for a caller that is still working on A, and a larger memo
    would only answer inputs seen before.  Errors are raised on every call.
    """
    if not 1 <= precision <= MAX_PRECISION:
        raise ValueError(f"precision must satisfy 1 <= precision <= {MAX_PRECISION} bits")
    return _profile(A, precision)


@functools.lru_cache(maxsize=1)
def _profile(A: exact.Matrix, precision: int) -> SpectralProfile:
    chi = exact.char_poly(A)
    if chi.coeffs[0] == 0:  # chi(0) = (-1)^m det A
        raise SingularMatrixError("matrix is singular; map is not dominant")
    m = A.m
    factors = rational_factors(chi.full_coeffs())
    prec = precision
    while True:
        records = _build_records(factors, prec)
        if records is not None:
            records.sort(key=lambda r: (-r.mod_mid, -r.re, -r.im))
            if "UNDECIDED" not in map(_pair_verdict, records, records[1:]):
                break
        if prec >= MAX_PRECISION:
            raise PrecisionExhausted(
                f"eigenvalue disks still overlap at {MAX_PRECISION} bits"
            )
        prec = min(2 * prec, MAX_PRECISION)
    det_abs = abs(chi.coeffs[0])
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
        roots = _roots_of_factor(f, fi, mult, prec)
        if roots is None:
            return None
        records += roots
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


def _pair_verdict(a: EigenValue, b: EigenValue) -> str:
    """Verdict on |a| >= |b| for neighbours in the sorted spectrum."""
    if _certified_equal(a, b):
        return "CERTIFIED_EQUAL"
    if _certified_apart(a, b):
        return "CERTIFIED_GAP"
    return "UNDECIDED"


def gap_report(profile: SpectralProfile, A: exact.Matrix | None = None) -> GapReport:
    """Per-k verdict on |mu_k| > |mu_{k+1}| versus |mu_k| = |mu_{k+1}|.

    Equality is only certified through exact data; a gap needs disjoint
    certified intervals (or exact squared moduli).  Anything else is
    UNDECIDED, which is a valid verdict.
    """
    pairs = list(zip(profile.eigenvalues, profile.eigenvalues[1:]))
    return GapReport(
        m=profile.m,
        verdicts=tuple(_pair_verdict(a, b) for a, b in pairs),
        margins=tuple((float(a.mod_mid - b.mod_mid), a.radius + b.radius) for a, b in pairs),
    )


DENOMINATOR_BOUND = 10**6  # largest angle denominator of the numeric fallback
_ORDER_BY_TRACE = {2: 1, 1: 6, 0: 4, -1: 3, -2: 2}  # ratio + 1/ratio -> order


def root_of_unity_test(A: exact.Matrix, k: int) -> RootOfUnityVerdict:
    """Decide whether mu_k / mu_{k+1} is a root of unity.

    Exact when the two eigenvalues are the roots of one irreducible quadratic
    factor x^2 + bx + c of the characteristic polynomial: the ratio's trace
    ratio + 1/ratio is then b^2/c - 2.  By Niven's theorem the ratio is a
    root of unity exactly when that trace is 2, 1, 0, -1 or -2, of order 1,
    6, 4, 3 or 2.  Other certified-equal configurations fall back to a
    continued-fraction test of the angle against denominators up to
    DENOMINATOR_BOUND, which can only ever say "probably not" or "undecided".
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
    if a.value_exact is not None and b.value_exact is not None:  # rationals r, -r
        return RootOfUnityVerdict(status="EXACT_YES", order=2,
                                  witness=f"ratio is {a.value_exact / b.value_exact}")
    f, _ = profile.factors[a.factor_index]
    if a.factor_index == b.factor_index and len(f) - 1 == 2:
        cb, cc = f[1], f[0]
        field = f"Q[x]/(x^2 + ({cb})x + ({cc}))"
        trace = cb * cb / cc - 2
        if trace in _ORDER_BY_TRACE:
            n = _ORDER_BY_TRACE[trace]
            return RootOfUnityVerdict(
                status="EXACT_YES",
                order=n,
                witness=f"ratio^{n} = 1 in {field}",
            )
        return RootOfUnityVerdict(
            status="EXACT_NO",
            witness=(
                f"ratio has no order in {{1,2,3,4,6}} in {field}; "
                f"Re(ratio) = {trace / 2}"
            ),
        )
    # numeric fallback: angle of the ratio against rationals with small denominator
    import math

    theta = math.atan2(a.im, a.re) - math.atan2(b.im, b.re)
    phi = (theta / (2 * math.pi)) % 1.0
    best = Fraction(phi).limit_denominator(DENOMINATOR_BOUND)
    if abs(phi - best) < 1e-12:
        return RootOfUnityVerdict(
            status="UNDECIDED",
            bound=DENOMINATOR_BOUND,
            witness=(f"angle/2pi ~ {best.numerator}/{best.denominator}; "
                     "exact decision unavailable here"),
        )
    return RootOfUnityVerdict(
        status="NUMERIC_PROBABLY_NO",
        bound=DENOMINATOR_BOUND,
        witness=f"no rational with denominator <= {DENOMINATOR_BOUND} within 1e-12",
    )


def real_spectrum_certificate(A: exact.Matrix) -> str | None:
    """Exactly certify 'm distinct real eigenvalues, all positive/negative'.

    Returns "positive", "negative", or None, using sympy's Sturm counts of
    real roots on the exact characteristic polynomial (no numerics involved).
    """
    chi = _qq_poly(exact.char_poly(A).full_coeffs())
    m = chi.degree()
    if chi.eval(0) == 0 or not chi.is_sqf or chi.count_roots() != m:
        return None  # a zero, repeated or non-real eigenvalue
    positive = chi.count_roots(0, None)
    if positive == m:
        return "positive"
    if positive == 0:
        return "negative"
    return None
