import math
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from monomap import exact, spectral
from monomap.errors import PreconditionError, SingularMatrixError
from reference import companion

M = exact.Matrix.from_rows


def test_profile_diagonal():
    p = spectral.spectral_profile(exact.Matrix.diagonal([2, 3, 5]))
    assert [e.value_exact for e in p.eigenvalues] == [5, 3, 2]
    assert p.lambdas == (1.0, 5.0, 15.0, 30.0)


def test_profile_conjugate_pair():
    p = spectral.spectral_profile(M([[2, 1], [-1, 2]]))
    assert all(e.mod2_exact == 5 for e in p.eigenvalues)
    assert p.lambdas[2] == 5.0  # |det| pinned exactly
    assert abs(p.lambdas[1] - math.sqrt(5)) < 1e-12


def test_profile_golden_mean_like():
    p = spectral.spectral_profile(M([[2, 1], [1, 1]]))
    assert abs(p.lambdas[1] - (3 + math.sqrt(5)) / 2) < 1e-12


def test_profile_triangular_matches_diagonal():
    A = M([[2, 7, 1], [0, -3, 4], [0, 0, 5]])
    p = spectral.spectral_profile(A)
    assert sorted(e.value_exact for e in p.eigenvalues) == [-3, 2, 5]
    assert all(e.radius == 0.0 for e in p.eigenvalues)


def test_float_disk_holds_a_rational_eigenvalue():
    p = spectral.spectral_profile(M([[F(1, 3), 0], [0, 2]]))
    third = next(e for e in p.eigenvalues if e.value_exact == F(1, 3))
    assert 0 < abs(F(third.re) - F(1, 3)) <= F(third.radius) and third.im == 0.0


def test_profile_precision_bounds():
    A = M([[0, 0, -2], [1, 0, 0], [0, 1, 0]])  # companion matrix of x^3 + 2
    for bad in (0, -5, spectral.MAX_PRECISION + 1, 2000):
        with pytest.raises(ValueError):
            spectral.spectral_profile(A, precision=bad)
    for ok in (1, spectral.MAX_PRECISION):
        p = spectral.spectral_profile(M([[2, 1], [1, 1]]), precision=ok)
        assert p.precision >= ok and abs(p.lambdas[1] - (3 + math.sqrt(5)) / 2) < 1e-12


def test_profile_singular_rejected():
    with pytest.raises(SingularMatrixError):
        spectral.spectral_profile(M([[1, 1], [1, 1]]))


def test_profile_reads_det_off_char_poly(monkeypatch):
    calls = []
    det = exact.det
    monkeypatch.setattr(exact, "det", lambda A: calls.append(A) or det(A))
    p = spectral.spectral_profile(M([[2, 1, 0], [-1, 2, 0], [0, 1, 3]]))
    with pytest.raises(SingularMatrixError, match="map is not dominant"):
        spectral.spectral_profile(M([[1, 2], [2, 4]]))
    assert p.det_abs == 15 and calls == []


def test_profile_memo_keeps_the_last_matrix_and_precision(monkeypatch):
    calls = []
    factors = spectral.rational_factors
    monkeypatch.setattr(spectral, "rational_factors", lambda p: calls.append(p) or factors(p))
    spectral._profile.cache_clear()
    A, B = M([[2, 1], [1, 1]]), M([[3, 1], [1, 1]])
    p = spectral.spectral_profile(A)
    assert spectral.spectral_profile(A, precision=spectral.DEFAULT_PRECISION) is p
    assert spectral.spectral_profile(M([[2, 1], [1, 1]])) is p and len(calls) == 1
    assert spectral.spectral_profile(B) is not p and len(calls) == 2
    assert spectral.spectral_profile(A) == p and len(calls) == 3
    assert spectral.spectral_profile(A, precision=256).precision == 256 and len(calls) == 4
    singular = M([[1, 2], [2, 4]])
    for _ in range(2):
        with pytest.raises(SingularMatrixError):
            spectral.spectral_profile(singular)


def test_lambda_m_is_det_exact():
    import random

    rng = random.Random(11)
    for _ in range(10):
        m = rng.randint(2, 4)
        A = M([[rng.randint(-4, 4) for _ in range(m)] for _ in range(m)])
        if exact.det(A) == 0:
            continue
        p = spectral.spectral_profile(A)
        assert p.lambdas[m] == float(abs(exact.det(A)))


def test_gap_report_diagonal():
    p = spectral.spectral_profile(exact.Matrix.diagonal([2, 3, 5]))
    r = spectral.gap_report(p)
    assert r.verdicts == ("CERTIFIED_GAP", "CERTIFIED_GAP")


def test_gap_report_conjugate_block():
    A = M([[2, 1, 0], [-1, 2, 0], [0, 0, 2]])
    r = spectral.gap_report(spectral.spectral_profile(A))
    assert r.verdict(1) == "CERTIFIED_EQUAL"
    assert r.verdict(2) == "CERTIFIED_GAP"


def test_gap_report_sign_flip_diag():
    r = spectral.gap_report(spectral.spectral_profile(M([[-3, 0], [0, 1]])))
    assert r.verdict(1) == "CERTIFIED_GAP"


def test_gap_report_plus_minus_pair():
    # char poly r^2 - 2: roots +-sqrt(2) share modulus exactly
    A = M([[0, 2], [1, 0]])
    r = spectral.gap_report(spectral.spectral_profile(A))
    assert r.verdict(1) == "CERTIFIED_EQUAL"


def test_gap_report_equal_moduli_across_factors():
    # (r^2 - 2)(r^2 + 2): moduli all sqrt(2), certified via exact |mu|^2
    A = M([[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, -2], [0, 0, 1, 0]])
    r = spectral.gap_report(spectral.spectral_profile(A))
    assert r.verdicts == ("CERTIFIED_EQUAL",) * 3


@pytest.mark.parametrize("N, max_precision", [(10**13, 128), (10**30, 256)])
def test_gap_finer_than_double_precision(N, max_precision):
    # eigenvalues N +- sqrt(2): the gap is 2.8 / N relative to the moduli
    p = spectral.spectral_profile(M([[N, 2], [1, N]]))
    assert p.precision <= max_precision
    assert spectral.gap_report(p).verdicts == ("CERTIFIED_GAP",)
    assert p.eigenvalues[1].mod_hi < N < p.eigenvalues[0].mod_lo


def test_gap_monotone_under_refinement():
    A = M([[2, 1, 0], [-1, 2, 0], [0, 0, 2]])
    r1 = spectral.gap_report(spectral.spectral_profile(A, precision=128))
    r2 = spectral.gap_report(spectral.spectral_profile(A, precision=512))
    assert r1.verdicts == r2.verdicts


def test_repeated_eigenvalue_certified_equal():
    A = M([[3, 0], [0, 3]])
    r = spectral.gap_report(spectral.spectral_profile(A))
    assert r.verdict(1) == "CERTIFIED_EQUAL"


# --- roots of unity ----------------------------------------------------------

def companion2(b, c):
    """Companion of r^2 + b r + c, padded with a far-away eigenvalue."""
    return M([[0, -c], [1, -b]])


def test_root_of_unity_gaussian():
    # mu = i: ratio mu/conj(mu) = -1, order 2
    v = spectral.root_of_unity_test(companion2(0, 1), 1)
    assert v.status == "EXACT_YES" and v.order == 2


def test_root_of_unity_exact_no():
    # r^2 - 4r + 5: ratio (3+4i)/5 is not a root of unity
    v = spectral.root_of_unity_test(companion2(-4, 5), 1)
    assert v.status == "EXACT_NO"


def test_root_of_unity_sixth_root():
    # r^2 - r + 1: mu primitive 6th root, ratio has order 3
    v = spectral.root_of_unity_test(companion2(-1, 1), 1)
    assert v.status == "EXACT_YES" and v.order == 3


def test_root_of_unity_order_four():
    # rotation-by-(1+i): ratio = i has order 4
    v = spectral.root_of_unity_test(M([[1, -1], [1, 1]]), 1)
    assert v.status == "EXACT_YES" and v.order == 4


def test_root_of_unity_order_six():
    # r^2 - 3r + 3: mu = sqrt(3) e^(i pi/6), ratio e^(i pi/3) has order 6
    v = spectral.root_of_unity_test(companion2(-3, 3), 1)
    assert (v.status, v.order, v.witness) == (
        "EXACT_YES", 6, "ratio^6 = 1 in Q[x]/(x^2 + (-3)x + (3))")


def test_root_of_unity_real_pair():
    # roots +-sqrt(2): ratio -1, order 2
    v = spectral.root_of_unity_test(M([[0, 2], [1, 0]]), 1)
    assert v.status == "EXACT_YES" and v.order == 2


@pytest.mark.parametrize("rows", [
    [[0, 4], [1, 0]],
    [[0, 4, 0], [1, 0, 0], [0, 0, 1]],
])
def test_root_of_unity_rational_pair(rows):
    # chi has the rational roots 2 and -2 in separate factors: ratio -1, order 2
    v = spectral.root_of_unity_test(M(rows), 1)
    assert (v.status, v.order, v.witness) == ("EXACT_YES", 2, "ratio is -1")


def test_root_of_unity_remark_family():
    # exponent block of (z1^b1 z2^b2, z1^-b2 z2^b1)
    def block(b1, b2):
        return M([[b1, -b2], [b2, b1]])

    for b in (1, 2, 3):
        v = spectral.root_of_unity_test(block(b, b), 1)
        assert v.status == "EXACT_YES"
    for b1, b2 in ((2, 1), (3, 1), (3, 2), (5, -2)):
        v = spectral.root_of_unity_test(block(b1, b2), 1)
        assert v.status == "EXACT_NO"


def test_root_of_unity_requires_certified_equality():
    with pytest.raises(PreconditionError):
        spectral.root_of_unity_test(exact.Matrix.diagonal([2, 3]), 1)


def test_root_of_unity_identical_roots():
    v = spectral.root_of_unity_test(exact.Matrix.diagonal([3, 3]), 1)
    assert v.status == "EXACT_YES" and v.order == 1


# --- exact spectrum certificates ---------------------------------------------

def test_real_spectrum_positive():
    assert spectral.real_spectrum_certificate(M([[2, 1], [1, 1]])) == "positive"


def test_real_spectrum_negative():
    assert spectral.real_spectrum_certificate(M([[-2, -1], [-1, -1]])) == "negative"


def test_real_spectrum_rejects_complex():
    assert spectral.real_spectrum_certificate(M([[2, 1], [-1, 2]])) is None


def test_real_spectrum_rejects_mixed_sign():
    assert spectral.real_spectrum_certificate(M([[2, 0], [0, -1]])) is None


def test_real_spectrum_rejects_repeated():
    assert spectral.real_spectrum_certificate(M([[3, 0], [0, 3]])) is None


@settings(max_examples=60, deadline=None)
@example(([[1, 1], [0, 1]], [0, 2]))  # a zero eigenvalue
@given(
    st.integers(2, 4).flatmap(
        lambda m: st.tuples(
            st.lists(st.lists(st.integers(-3, 3), min_size=m, max_size=m),
                     min_size=m, max_size=m),
            st.lists(st.integers(-6, 6), min_size=m, max_size=m),
        )
    )
)
def test_real_spectrum_certificate_property(data):
    rows, D = data
    P = M(rows)
    assume(exact.det(P) != 0)
    A = P @ exact.Matrix.diagonal(D) @ exact.inverse(P)
    if len(set(D)) < len(D) or 0 in D or min(D) < 0 < max(D):
        want = None  # repeated, zero or mixed-sign eigenvalues
    else:
        want = "positive" if D[0] > 0 else "negative"
    assert spectral.real_spectrum_certificate(A) == want


def _companion(*coeffs):
    """Companion matrix of x^n + c_{n-1} x^{n-1} + ... + c_0, coeffs ascending."""
    return companion(exact.CharPoly(tuple(F(c) for c in coeffs)))


def test_profile_irreducible_cubic_real_roots():
    # x^3 - 3x + 1 is irreducible with three real roots 2cos(2 pi j / 9)
    p = spectral.spectral_profile(_companion(1, -3, 0))
    assert [len(f) - 1 for f, _ in p.factors] == [3]
    assert [e.is_real for e in p.eigenvalues] == [True, True, True]
    # x^3 - x - 1: one real root, a conjugate pair of smaller modulus
    p = spectral.spectral_profile(_companion(-1, -1, 0))
    assert [e.is_real for e in p.eigenvalues] == [True, False, False]


def test_roots_of_cube_root_of_two_one_real():
    # x^3 + 2 has three roots of one modulus, so spectral_profile cannot sort
    # them; its factor's roots still carry the exact real-root count
    f = spectral.rational_factors((F(2), F(0), F(0), F(1)))[0][0]
    roots = spectral._roots_of_factor(f, 0, 1, spectral.DEFAULT_PRECISION)
    assert sorted(e.is_real for e in roots) == [False, False, True]


@settings(max_examples=80, deadline=None)
@example([2, 1, -1, 2])  # 2 +- i
@example([0, 2, 1, 0])  # +-sqrt(2): exact squared modulus, no disk gap
@given(st.lists(st.integers(-9, 9), min_size=4, max_size=4))
def test_quadratic_roots_from_disks_property(entries):
    """An irreducible quadratic chi gets its roots from the disk path: realness
    is disc >= 0, complex roots pair up as conjugates, and each certified
    modulus interval contains the closed-form |root|."""
    a, b, c, d = entries
    tr, det = a + d, a * d - b * c
    disc = tr * tr - 4 * det
    assume(det != 0 and (disc < 0 or math.isqrt(disc) ** 2 != disc))
    p = spectral.spectral_profile(M([[a, b], [c, d]]))
    assert [len(f) - 1 for f, _ in p.factors] == [2]
    if disc < 0:
        moduli = [sympy.sqrt(det)] * 2
    else:
        moduli = sorted((abs((tr + s * sympy.sqrt(disc)) / 2) for s in (1, -1)), reverse=True)
    for e, modulus in zip(p.eigenvalues, moduli):
        assert e.is_real == (disc >= 0)
        assert sympy.Rational(e.mod_lo) <= modulus <= sympy.Rational(e.mod_hi)
    first, second = p.eigenvalues
    if disc < 0:
        assert (first.conj_root_index, second.conj_root_index) == (
            second.root_index, first.root_index)
        assert first.im == pytest.approx(-second.im)
        assert first.re == pytest.approx(second.re)
    else:
        assert first.conj_root_index is None and second.conj_root_index is None


def test_rational_factors_multiply_back():
    chi = exact.char_poly(M([[2, 1, 0], [-1, 2, 0], [0, 0, 2]]))
    factors = spectral.rational_factors(chi.full_coeffs())
    assert sorted(len(f) - 1 for f, _ in factors) == [1, 2]
