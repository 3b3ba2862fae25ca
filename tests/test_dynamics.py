import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from monomap import dynamics as dyn, exact, geometry as geo, recurrence, spectral
from monomap.errors import (
    DegeneratePolytopeError,
    PreconditionError,
    SearchExhausted,
    SingularMatrixError,
)
from reference import stability_by_powers

M = exact.Matrix.from_rows

VAND = M([[1, 1, 1], [1, 2, 4], [1, 3, 9]])


# --- skew models ----------------------------------------------------------------

def test_standard_model():
    m = dyn.standard_model(3)
    assert m.u == exact.Matrix.identity(3).rows
    assert m.alpha == (F(1),) * 3
    assert m.v == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_standard_model_is_built_once_per_m():
    assert dyn.standard_model(3) is dyn.standard_model(3)
    assert dyn.standard_model(2) is not dyn.standard_model(3)


def test_scaled_basis_model():
    m = dyn.build_skew_model([[2, 0], [0, 2]])
    assert m.u == ((F(1), F(0)), (F(0), F(1)))
    assert m.alpha == (F(2), F(2))


def test_skew_basis_duality():
    m = dyn.build_skew_model([[1, 1], [1, -1]])
    for i in range(2):
        for j in range(2):
            pair = sum(F(a) * b for a, b in zip(m.v[i], m.u[j]))
            assert pair == (1 if i == j else 0)
    assert all(a > 0 for a in m.alpha)


def test_model_primitive_rays():
    from math import gcd

    m = dyn.build_skew_model([[F(2, 3), F(1, 5)], [F(-1, 7), F(1, 2)]])
    for v in m.v:
        assert gcd(*v) == 1


def test_singular_basis_rejected():
    with pytest.raises(SingularMatrixError):
        dyn.build_skew_model([[1, 1], [2, 2]])


# --- pullback matrices ------------------------------------------------------------

def test_pullback_identity():
    pb = dyn.pullback_matrix(exact.Matrix.identity(3), dyn.standard_model(3), 2)
    assert pb.matrix == exact.Matrix.identity(3)


def test_pullback_positive_matrix():
    pb = dyn.pullback_matrix(M([[1, 1], [1, 2]]), dyn.standard_model(2), 1)
    assert pb.matrix == M([[1, 1], [1, 2]])


def test_pullback_absolute_values():
    pb = dyn.pullback_matrix(M([[-3, 0], [0, 1]]), dyn.standard_model(2), 1)
    assert pb.matrix == M([[3, 0], [0, 1]])
    assert pb.signed == M([[-3, 0], [0, 1]])


def test_pullback_k_range():
    with pytest.raises(ValueError):
        dyn.pullback_matrix(VAND, dyn.standard_model(3), 3)


# --- stability certificates ---------------------------------------------------------

def test_vandermonde_stable_all_k():
    model = dyn.standard_model(3)
    for k in (1, 2):
        c = dyn.check_k_stable(VAND, model, k)
        assert c.verdict == "STABLE_BY_SIGN" and c.sign == "+"


def test_negated_tp_alternating_signs():
    model = dyn.standard_model(3)
    c1 = dyn.check_k_stable(-VAND, model, 1)
    c2 = dyn.check_k_stable(-VAND, model, 2)
    assert (c1.verdict, c1.sign) == ("STABLE_BY_SIGN", "-")
    assert (c2.verdict, c2.sign) == ("STABLE_BY_SIGN", "+")


def test_mixed_signs_inconclusive_for_diagonal():
    # mixed signs, yet |S|^n = |S^n| for every n: decided, not inconclusive
    for rows in ([[-3, 0], [0, 1]], [[2, 0], [0, -3]]):
        c = dyn.check_k_stable(M(rows), dyn.standard_model(2), 1)
        assert (c.verdict, c.sign, c.failure_power) == ("STABLE_ALL_POWERS", None, None)


def test_functoriality_falsifier():
    c = dyn.check_k_stable(M([[1, -1], [1, 1]]), dyn.standard_model(2), 1)
    assert c.verdict == "FUNCTORIALITY_FAILS" and c.failure_power == 2


def test_pullback_power_consistency_for_stable():
    # with uniform signs, pullback of the power equals power of the pullback
    model = dyn.standard_model(3)
    for k in (1, 2):
        pb = dyn.pullback_matrix(VAND, model, k)
        for n in range(1, 11):
            assert dyn.pullback_matrix(exact.mat_pow(VAND, n), model, k).matrix == \
                exact.mat_pow(pb.matrix, n)


def test_sign_pattern_invariant_under_alpha_scaling():
    # minors in the u basis and in the epsilon basis have the same signs
    A = M([[3, -1], [-1, 2]])
    model = dyn.build_skew_model([[2, 1], [F(1, 3), -1]])
    for k in (1,):
        Bu = exact.change_of_basis(A, model.u)
        Be = exact.change_of_basis(A, model.epsilon)
        assert tuple(dyn._minor_signs(Bu, k)) == tuple(dyn._minor_signs(Be, k))


def test_nonnegative_minors_imply_stability_for_all_k():
    # any matrix with all k x k minors >= 0 is k-stable on the standard model
    for A in (VAND, M([[1, 1], [1, 2]]), M([[2, 1], [1, 1]])):
        model = dyn.standard_model(A.m)
        for k in range(1, A.m):
            assert dyn.check_k_stable(A, model, k).verdict == "STABLE_BY_SIGN"


@pytest.mark.parametrize("rows, horizon, failure_power", [
    ([[0, 1, 0], [-2, 0, -2], [0, 0, 1]], 10, 3),
    ([[0, 2, 0], [0, 0, -2], [2, 2, 0]], 10, 5),
    # exact powers cut off below the failure at n = 5 see none
    ([[0, 2, 0], [0, 0, -2], [2, 2, 0]], 4, None),
    # the first failures past n = 10: a falsifier with a fixed bound misses them
    ([[0, 1, 0, 0, 0], [0, 0, -1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1], [1, 1, 0, 0, 0]], 17, 17),
    ([[0, 1, 0, 0, 0], [0, 0, -1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1], [1, 0, 1, 0, 0]], 13, 13),
])
def test_falsifier_finds_late_failures(rows, horizon, failure_power):
    # `horizon` bounds only the reference: exact powers up to it fail first at
    # `failure_power`, or not at all, while the falsifier needs no bound
    A = M(rows)
    model = dyn.standard_model(A.m)
    c = dyn.check_k_stable(A, model, 1)
    assert c.verdict == "FUNCTORIALITY_FAILS"
    if failure_power is None:
        assert c.failure_power > horizon
    else:
        assert c.failure_power == failure_power
    expected = "NO_FAILURE_UP_TO_HORIZON" if failure_power is None else c.verdict
    assert (expected, failure_power, c.minor_signs) == stability_by_powers(A, model, 1, horizon)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(lambda m: st.tuples(
    st.lists(st.lists(st.integers(-2, 2), min_size=m, max_size=m), min_size=m, max_size=m),
    st.lists(st.lists(st.fractions(-3, 3, max_denominator=3), min_size=m, max_size=m),
             min_size=m, max_size=m),
    st.integers(1, m - 1),
)))
def test_sign_falsifier_matches_exact_powers(data):
    rows, basis, k = data
    assume(exact.det(M(rows)) != 0 and exact.det(M(basis)) != 0)
    A, model = M(rows), dyn.build_skew_model(basis)
    c = dyn.check_k_stable(A, model, k)
    # exact powers up to the failing one, or up to 12 for a stable verdict
    expected = "NO_FAILURE_UP_TO_HORIZON" if c.verdict == "STABLE_ALL_POWERS" else c.verdict
    assert (expected, c.failure_power, c.minor_signs) == \
        stability_by_powers(A, model, k, c.failure_power or 12)


def test_falsifier_needs_one_pullback_and_no_powers(monkeypatch):
    calls = []
    pullback = dyn.pullback_matrix

    def counted(*args):
        calls.append(args)
        return pullback(*args)

    def no_powers(*args):
        raise AssertionError("the falsifier computed a power of A")

    monkeypatch.setattr(dyn, "pullback_matrix", counted)
    monkeypatch.setattr(dyn.exact, "mat_pow", no_powers)
    c = dyn.check_k_stable(M([[1, -1], [1, 1]]), dyn.standard_model(2), 1)
    assert c.verdict == "FUNCTORIALITY_FAILS" and len(calls) == 1


def test_sign_test_stops_at_first_conflict(monkeypatch):
    model, minors = dyn.standard_model(3), []
    minor = exact.minor

    def counted(*args):
        minors.append(args)
        return minor(*args)

    monkeypatch.setattr(dyn.exact, "minor", counted)
    assert dyn._sign_certificates(M([[1, -1, 0], [0, 1, 0], [0, 0, 1]]), model, [1]) is None
    assert len(minors) <= 3  # the first row already holds both signs


# --- stabilizing basis search ---------------------------------------------------------

def test_basis_search_tp_immediate():
    res = dyn.stabilize_basis_search(M([[2, 1], [1, 1]]))
    assert res.model == dyn.standard_model(2) and res.mode == "BASIS"


def test_basis_search_positive_diagonal():
    res = dyn.stabilize_basis_search(M([[3, 0], [0, 1]]))
    assert all(c.verdict == "STABLE_BY_SIGN" for c in res.certificates)


def test_basis_search_checkerboard():
    res = dyn.stabilize_basis_search(M([[3, -1], [-1, 2]]))
    assert res.certified_k == (1,)
    assert all(c.verdict == "STABLE_BY_SIGN" for c in res.certificates)


def test_basis_search_negative_spectrum():
    # the first is stable on the standard model, the second needs the construction
    for rows in ([[-2, -1], [-1, -1]], [[-3, 1], [1, -2]]):
        res = dyn.stabilize_basis_search(M(rows))
        c = res.certificates[0]
        assert c.verdict == "STABLE_BY_SIGN" and c.sign == "-"


def test_basis_search_self_certifies():
    res = dyn.stabilize_basis_search(M([[3, -1], [-1, 2]]))
    for c in res.certificates:
        again = dyn.check_k_stable(M([[3, -1], [-1, 2]]), res.model, c.k)
        assert again.verdict == "STABLE_BY_SIGN"


def _conjugate(P, D):
    P = M(P)
    return P @ exact.Matrix.diagonal(D) @ exact.inverse(P)


@pytest.mark.parametrize("P, D", [
    ([[1, 2, 0, 1], [0, 1, -1, 2], [1, 0, 1, 0], [2, 1, 0, 1]], [1, 3, 4, 7]),
    ([[1, 2, 0, 1], [0, 1, -1, 2], [1, 0, 1, 0], [2, 1, 0, 1]], [-2, -3, -5, -9]),
    ([[2, -1, 0, 1, 0], [1, 1, 2, 0, -1], [0, 1, 1, 1, 2], [1, 0, -1, 2, 1],
      [0, 2, 1, 0, 1]], [1, 2, 4, 5, 8]),
    ([[2, -1, 0, 1, 0], [1, 1, 2, 0, -1], [0, 1, 1, 1, 2], [1, 0, -1, 2, 1],
      [0, 2, 1, 0, 1]], [-1, -3, -4, -6, -11]),
])
def test_basis_construction_certifies_every_k_at_m4_and_m5(P, D):
    A = _conjugate(P, D)
    res = dyn.stabilize_basis_search(A)
    assert res.certified_k == tuple(range(1, A.m))
    assert all(c.verdict == "STABLE_BY_SIGN" for c in res.certificates)
    assert res.model != dyn.standard_model(A.m)
    assert res.log[-1]["certified"] and len(res.log) == 2 + res.log[-1]["t"]


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5).flatmap(lambda m: st.tuples(
    st.lists(st.lists(st.integers(-3, 3), min_size=m, max_size=m), min_size=m, max_size=m),
    st.lists(st.integers(1, 12), min_size=m, max_size=m, unique=True),
    st.booleans(),
)))
def test_basis_construction_certifies_every_k_property(data):
    rows, D, negative = data
    assume(exact.det(M(rows)) != 0)
    A = _conjugate(rows, [-d for d in D] if negative else D)
    res = dyn.stabilize_basis_search(A)
    assert res.certified_k == tuple(range(1, A.m))
    assert all(c.verdict == "STABLE_BY_SIGN" for c in res.certificates)


def test_basis_search_precondition():
    with pytest.raises(PreconditionError):
        dyn.stabilize_basis_search(M([[2, 1], [-1, 2]]))  # complex spectrum
    with pytest.raises(PreconditionError):
        dyn.stabilize_basis_search(M([[2, 0], [0, -1]]))  # mixed signs


# --- stabilizing power search ----------------------------------------------------------

def test_power_tp_is_one():
    res = dyn.find_power_l0(M([[2, 1], [1, 1]]), dyn.standard_model(2), [1])
    assert res.l0 == 1


def test_power_negated_tp_alternates_but_certifies():
    res = dyn.find_power_l0(M([[-2, -1], [-1, -1]]), dyn.standard_model(2), [1])
    assert res.l0 == 1  # each power is sign-uniform on its own


def test_power_late_positivity():
    res = dyn.find_power_l0(M([[-1, 2], [2, 2]]), dyn.standard_model(2), [1])
    assert res.l0 == 4
    # powers 1 and 3 are genuinely mixed
    assert res.log[0][1] == "mixed" and res.log[2][1] == "mixed"


def test_power_alternating_never_uniformizes():
    with pytest.raises(SearchExhausted) as info:
        dyn.find_power_l0(
            M([[-3, 0], [0, 1]]), dyn.standard_model(2), [1],
            max_l=12, confirm_window=2,
        )
    assert len(info.value.log) == 12 + 2  # an exhausted search logs every power


def test_power_requires_certified_gap():
    with pytest.raises(PreconditionError):
        dyn.find_power_l0(M([[2, 1], [-1, 2]]), dyn.standard_model(2), [1])


def test_search_bounds_must_be_positive():
    A, model = M([[-1, 2], [2, 2]]), dyn.standard_model(2)
    for max_l, window in ((12, -1), (3, -2), (0, 2), (-1, 0)):
        with pytest.raises(ValueError):
            dyn.find_power_l0(A, model, [1], max_l=max_l, confirm_window=window)
    # window 0 accepts the first sign-uniform power on its own
    assert dyn.find_power_l0(A, model, [1], max_l=4, confirm_window=0).l0 == 2


@pytest.mark.parametrize("A, basis, ks, l0", [
    # the curated cases of acceptance criterion 6
    ([[2, 1], [1, 1]], None, [1], 1),
    ([[-2, -1], [-1, -1]], None, [1], 1),
    ([[-1, 2], [2, 2]], None, [1], 4),
    ([[4, -1], [-1, 2]], [[1, 0], [0, -1]], [1], 1),
    ([[1, 1, 1], [1, 2, 4], [1, 3, 9]], None, [1, 2], 1),
])
def test_power_search_stops_at_window(A, basis, ks, l0):
    A = M(A)
    model = dyn.standard_model(A.m) if basis is None else dyn.build_skew_model(basis)
    res = dyn.find_power_l0(A, model, ks)
    assert res.l0 == l0 and res.window == dyn.DEFAULT_CONFIRM_WINDOW
    assert len(res.log) == res.l0 + res.window


def test_check_power_search_bounds_and_gaps():
    A = M([[2, 1, 0], [-1, 2, 0], [0, 0, 1]])  # |2 +- i| > 1: only gap 2
    assert dyn.check_power_search(A, [2, 2], 1, 0) == [2]
    with pytest.raises(PreconditionError):
        dyn.check_power_search(A, [1, 2], 1, 0)
    with pytest.raises(ValueError):
        dyn.check_power_search(A, [3], 1, 0)


def test_rejected_model_runs_no_falsifier(monkeypatch):
    def falsifier(*args, **kwargs):
        raise AssertionError("falsifier ran on a rejected model")

    monkeypatch.setattr(dyn, "check_k_stable", falsifier)
    monkeypatch.setattr(dyn.exact, "mat_pow", falsifier)
    A = M([[-3, 1], [1, -2]])  # mixed-sign minors on the standard model
    assert dyn._sign_certificates(A, dyn.standard_model(2), [1]) is None
    res = dyn.stabilize_basis_search(A)
    assert res.model != dyn.standard_model(2)
    assert all(c.verdict == "STABLE_BY_SIGN" for c in res.certificates)


def test_power_search_recertifies():
    res = dyn.find_power_l0(VAND, dyn.standard_model(3), [1, 2])
    assert res.l0 == 1
    assert all(c.verdict == "STABLE_BY_SIGN" for c in res.certificates)


# --- orthant basis -----------------------------------------------------------------------

def test_orthant_basis_positive_diagonal_standard():
    assert dyn.orthant_basis(exact.Matrix.diagonal([3, 2, 1])) == dyn.standard_model(3)


def test_orthant_basis_checkerboard_pipeline():
    A = M([[4, -1], [-1, 2]])
    model = dyn.orthant_basis(A)
    res = dyn.find_power_l0(A, model, [1])
    assert res.l0 >= 1


def test_orthant_basis_complex_pair_k2():
    A = M([[2, 1, 0], [-1, 2, 0], [0, 0, 1]])
    model = dyn.orthant_basis(A)
    res = dyn.find_power_l0(A, model, [2])
    assert res.l0 >= 1


def test_orthant_basis_stabilizes_a_4x4_power():
    A = M([[4, 1, 0, 0], [1, 3, 1, 0], [0, 1, 2, 1], [0, 0, 1, -1]])
    res = dyn.find_power_l0(A, dyn.orthant_basis(A), [1, 2, 3])
    assert res.certified_k == (1, 2, 3)
    assert all(c.verdict == "STABLE_BY_SIGN" for c in res.certificates)


def test_orthant_basis_requires_gap():
    A = M([[0, 2], [1, 0]])  # moduli equal at k=1
    with pytest.raises(PreconditionError):
        dyn.check_power_search(A, [1], 1, 0)
    with pytest.raises(PreconditionError):
        dyn.find_power_l0(A, dyn.orthant_basis(A), [1])


@pytest.mark.parametrize("rows, bound, cause", [
    # denominator bound 1 rounds the frame to entries in {-1, 0, 1}
    ([[0, 1, 3], [3, -3, 2], [0, -1, 2]], 1, "singular"),
    # chi = (x - 1)^2 (x^2 - 2x + 2): mpmath's QR iteration stalls at 128 bits
    ([[1, 0, 0, -1], [0, 1, 0, 0], [1, -1, 1, 0], [1, -1, 0, 1]], 10**4, "converge"),
])
def test_orthant_basis_failures_are_search_exhausted(rows, bound, cause):
    with pytest.raises(SearchExhausted) as info:
        dyn.orthant_basis(M(rows), denominator_bound=bound)
    assert cause in str(info.value) and cause in info.value.log[0]["cause"]


# --- degrees ------------------------------------------------------------------------------

def test_degree_identity_is_one():
    for m in (2, 3):
        P = geo.standard_simplex(m)
        for k in range(m + 1):
            assert dyn.degree(exact.Matrix.identity(m), k, P) == 1


def test_degree_doubling():
    P = geo.standard_simplex(2)
    A = exact.Matrix.identity(2).scale(2)
    assert [dyn.degree(A, k, P) for k in (0, 1, 2)] == [1, 2, 4]


def test_degree_shear():
    assert dyn.degree(M([[1, 1], [0, 1]]), 1, geo.standard_simplex(2)) == 2


def test_degree_top_is_det_times_baseline():
    rng = random.Random(13)
    P = geo.standard_simplex(3)
    for _ in range(5):
        A = M([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
        if exact.det(A) == 0:
            continue
        assert dyn.degree(A, 3, P) == abs(exact.det(A)) * dyn.degree(
            exact.Matrix.identity(3), 3, P
        )


def test_degree_zero_is_constant_in_A():
    P = geo.standard_simplex(3)
    for A in (VAND, M([[2, 1, 0], [-1, 2, 0], [0, 0, 2]])):
        assert dyn.degree(A, 0, P) == 1


def test_degree_scalar_matrix_powers():
    P = geo.standard_simplex(3)
    for c in (2, 3):
        A = exact.Matrix.identity(3).scale(c)
        for k in range(4):
            assert dyn.degree(A, k, P) == c**k


def test_degree_rejects_degenerate_polytope():
    seg = geo.segment((1, 0))
    with pytest.raises(DegeneratePolytopeError):
        dyn.degree(exact.Matrix.identity(2), 1, seg)


def test_degree_rejects_singular_matrix():
    with pytest.raises(SingularMatrixError):
        dyn.degree(M([[1, 1], [1, 1]]), 1, geo.standard_simplex(2))


def test_degree_sequence_examples():
    P = geo.standard_simplex(2)
    assert dyn.degree_sequence(exact.Matrix.identity(2).scale(2), 1, P, 3).values == (
        F(2), F(4), F(8),
    )
    assert dyn.degree_sequence(exact.Matrix.identity(2), 1, P, 3).values == (
        F(1), F(1), F(1),
    )
    assert dyn.degree_sequence(M([[1, 1], [0, 1]]), 1, P, 3).values == (
        F(2), F(3), F(4),
    )


def test_lambda_estimate_exact_doubling():
    A = exact.Matrix.identity(2).scale(2)
    prof = spectral.spectral_profile(A)
    seq = dyn.degree_sequence(A, 1, geo.standard_simplex(2), 6)
    est = dyn.lambda_estimate(seq, prof)
    assert est.estimate == pytest.approx(2.0, abs=1e-12)
    assert est.relative_deviation < 1e-12


def test_lambda_estimate_within_five_percent():
    for rows, k in (([[2, 0], [0, 3]], 1), ([[2, 1], [1, 1]], 1)):
        A = M(rows)
        prof = spectral.spectral_profile(A)
        seq = dyn.degree_sequence(A, k, geo.standard_simplex(2), 20)
        est = dyn.lambda_estimate(seq, prof)
        assert est.relative_deviation < 0.05


def test_product_divisor_polytope_is_cube_on_standard_model():
    Q = dyn.product_divisor_polytope(dyn.standard_model(3))
    assert geo.volume(Q) == 1 and len(Q.vertices) == 8


def test_stable_degrees_satisfy_minor_matrix_recurrence():
    model = dyn.standard_model(3)
    Q = dyn.product_divisor_polytope(model)
    for k in (1, 2):
        seq = dyn.degree_sequence(VAND, k, Q, 10)
        chi = exact.char_poly(exact.exterior_power(VAND, k))
        residuals = recurrence.cayley_hamilton_check(seq.values, chi)
        assert all(r == 0 for r in residuals)
