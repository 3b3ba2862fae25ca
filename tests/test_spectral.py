import math
from fractions import Fraction as F

import pytest

from monomap import exact, spectral
from monomap.errors import PreconditionError, SingularMatrixError

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


def test_root_of_unity_real_pair():
    # roots +-sqrt(2): ratio -1, order 2
    v = spectral.root_of_unity_test(M([[0, 2], [1, 0]]), 1)
    assert v.status == "EXACT_YES" and v.order == 2


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


def test_sturm_counts():
    # (x-1)(x-2)(x+3) = x^3 - 7x + 6
    p = (F(6), F(-7), F(0), F(1))
    assert spectral.count_real_roots(p) == 3
    assert spectral.count_real_roots(p, F(0), "+inf") == 2
    assert spectral.count_real_roots(p, "-inf", F(0)) == 1
    assert spectral.count_real_roots(p, F(1), F(2)) == 1  # (1, 2] holds just 2


def test_rational_factors_multiply_back():
    chi = exact.char_poly(M([[2, 1, 0], [-1, 2, 0], [0, 0, 2]]))
    factors = spectral.rational_factors(chi.full_coeffs())
    assert sorted(len(f) - 1 for f, _ in factors) == [1, 2]
