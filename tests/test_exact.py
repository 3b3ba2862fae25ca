import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monomap import exact
from reference import companion, det_leibniz, evaluate_char_poly_at_matrix
from monomap.errors import SingularMatrixError

M = exact.Matrix.from_rows


def rand_matrix(rng, m, lo=-5, hi=5):
    return M([[rng.randint(lo, hi) for _ in range(m)] for _ in range(m)])


# --- determinants ---------------------------------------------------------

def test_det_identity():
    assert exact.det(exact.Matrix.identity(3)) == 1


def test_det_2x2_cofactor():
    # cofactor oracle: 1*2 - 1*1
    assert exact.det(M([[1, 1], [1, 2]])) == 1


def test_det_repeated_row_is_zero():
    assert exact.det(M([[1, 2, 3], [4, 5, 6], [1, 2, 3]])) == 0


def test_det_matches_leibniz_oracle():
    rng = random.Random(1)
    for _ in range(40):
        m = rng.randint(1, 4)
        A = rand_matrix(rng, m)
        assert exact.det(A) == det_leibniz(A)


def test_det_rational_entries():
    A = M([[F(1, 2), F(1, 3)], [F(1, 5), F(1, 7)]])
    assert exact.det(A) == F(1, 14) - F(1, 15)


def test_dominant_flag_is_exact():
    assert M([[2, 1], [1, 1]]).is_dominant
    assert not M([[1, 1], [1, 1]]).is_dominant


def test_det_multiplicative():
    rng = random.Random(2)
    for _ in range(20):
        m = rng.randint(2, 4)
        A, B = rand_matrix(rng, m), rand_matrix(rng, m)
        assert exact.det(A @ B) == exact.det(A) * exact.det(B)


# --- minors ----------------------------------------------------------------

def test_minor_identity():
    I3 = exact.Matrix.identity(3)
    assert exact.minor(I3, (1, 2), (1, 2)) == 1
    assert exact.minor(I3, (1, 2), (1, 3)) == 0


def test_minor_vandermonde():
    V = M([[1, 1, 1], [1, 2, 4], [1, 3, 9]])
    assert exact.minor(V, (1, 2), (2, 3)) == 2


def test_minor_full_is_det():
    rng = random.Random(3)
    A = rand_matrix(rng, 4)
    assert exact.minor(A, (1, 2, 3, 4), (1, 2, 3, 4)) == exact.det(A)


def test_minor_size_mismatch():
    with pytest.raises(ValueError):
        exact.minor(exact.Matrix.identity(3), (1, 2), (1,))


def test_minor_agrees_with_leibniz_oracle():
    rng = random.Random(4)
    A = rand_matrix(rng, 5)
    for k in (1, 2, 3):
        for I in itertools.combinations(range(1, 6), k):
            for J in itertools.combinations(range(1, 6), k):
                sub = exact.submatrix(A, I, J)
                assert exact.minor(A, I, J) == det_leibniz(sub)


# --- exterior powers -------------------------------------------------------

def test_exterior_identity():
    for m, k in ((3, 1), (3, 2), (4, 2)):
        E = exact.exterior_power(exact.Matrix.identity(m), k)
        from math import comb

        assert E.matrix == exact.Matrix.identity(comb(m, k))


def test_exterior_diagonal_products():
    E = exact.exterior_power(exact.Matrix.diagonal([2, 3, 5]), 2)
    assert E.matrix == exact.Matrix.diagonal([6, 10, 15])
    assert E.labels == ((1, 2), (1, 3), (2, 3))


def test_exterior_top_is_det():
    rng = random.Random(5)
    A = rand_matrix(rng, 4)
    E = exact.exterior_power(A, 4)
    assert E.matrix.rows == ((exact.det(A),),)


def test_cauchy_binet_random():
    rng = random.Random(6)
    for _ in range(10):
        A, B = rand_matrix(rng, 3), rand_matrix(rng, 3)
        for k in (1, 2, 3):
            lhs = exact.exterior_power(A @ B, k).matrix
            rhs = exact.exterior_power(A, k).matrix @ exact.exterior_power(B, k).matrix
            assert lhs == rhs


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.lists(
                st.lists(st.integers(-5, 5), min_size=m, max_size=m),
                min_size=2 * m,
                max_size=2 * m,
            ),
        )
    )
)
def test_cauchy_binet_property(data):
    m, rows = data
    A, B = M(rows[:m]), M(rows[m:])
    for k in range(1, m + 1):
        lhs = exact.exterior_power(A @ B, k).matrix
        rhs = exact.exterior_power(A, k).matrix @ exact.exterior_power(B, k).matrix
        assert lhs == rhs


def test_exterior_power_compatibility():
    rng = random.Random(7)
    A = rand_matrix(rng, 3, -3, 3)
    for k in (1, 2, 3):
        Ek = exact.exterior_power(A, k).matrix
        for n in range(0, 9):
            assert exact.exterior_power(exact.mat_pow(A, n), k).matrix == exact.mat_pow(Ek, n)


def test_exterior_k_out_of_range():
    with pytest.raises(ValueError):
        exact.exterior_power(exact.Matrix.identity(3), 4)


# --- powers ----------------------------------------------------------------

def test_mat_pow_zero_is_identity():
    A = M([[2, 1], [1, 1]])
    assert exact.mat_pow(A, 0) == exact.Matrix.identity(2)


def test_mat_pow_square():
    assert exact.mat_pow(M([[2, 1], [1, 1]]), 2) == M([[5, 3], [3, 2]])


def test_mat_pow_diagonal():
    for n in range(6):
        assert exact.mat_pow(exact.Matrix.diagonal([2, 3]), n) == exact.Matrix.diagonal(
            [2**n, 3**n]
        )


# --- characteristic polynomials -------------------------------------------

def test_char_poly_identity():
    chi = exact.char_poly(exact.Matrix.identity(2))
    assert chi.coeffs == (F(1), F(-2))  # r^2 - 2r + 1


def test_char_poly_trace_det():
    chi = exact.char_poly(M([[2, 1], [1, 1]]))
    assert chi.coeffs == (F(1), F(-3))  # r^2 - 3r + 1


def test_char_poly_companion_round_trip():
    chi = exact.CharPoly((F(-2), F(0), F(0)))  # r^3 - 2
    C = companion(chi)
    assert exact.char_poly(C).coeffs == chi.coeffs


def test_cayley_hamilton_matrix_substitution():
    rng = random.Random(8)
    for _ in range(10):
        m = rng.randint(2, 4)
        A = rand_matrix(rng, m)
        chi = exact.char_poly(A)
        zero = evaluate_char_poly_at_matrix(chi, A)
        assert all(x == 0 for row in zero.rows for x in row)


def test_char_poly_of_exterior_matrix():
    A = M([[1, 1, 1], [1, 2, 4], [1, 3, 9]])
    chi = exact.char_poly(exact.exterior_power(A, 2))
    assert chi.degree == 3
    # det of the exterior power is det(A)^C(m-1,k-1) = 2^2
    assert chi.coeffs[0] == -4  # (-1)^3 * det


# --- basis changes ----------------------------------------------------------

def test_change_of_basis_standard():
    A = M([[1, 2], [3, 4]])
    std = [(1, 0), (0, 1)]
    assert exact.change_of_basis(A, std) == A


def test_change_of_basis_example():
    A = exact.Matrix.diagonal([2, 1])
    B = exact.change_of_basis(A, [(1, 1), (1, -1)])
    assert B == M([[F(3, 2), F(1, 2)], [F(1, 2), F(3, 2)]])


def test_change_of_basis_round_trip():
    rng = random.Random(9)
    A = rand_matrix(rng, 3)
    basis = [(1, 1, 0), (0, 1, 1), (1, 0, 1)]
    B = exact.change_of_basis(A, basis)
    V = exact.Matrix(tuple(zip(*[exact.vec(b) for b in basis])))
    assert V @ B == A @ V


def test_change_of_basis_singular():
    with pytest.raises(SingularMatrixError):
        exact.change_of_basis(exact.Matrix.identity(2), [(1, 1), (2, 2)])


# --- row reduction ----------------------------------------------------------

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
        lambda shape: st.lists(
            st.lists(fractions, min_size=shape[1], max_size=shape[1]),
            min_size=shape[0], max_size=shape[0],
        )
    )
)
def test_row_reduce_property(rows):
    import sympy

    ids, pivots = exact.row_reduce(rows)
    assert len(ids) == len(pivots) == exact.rank_of_rows(rows)
    assert len(ids) == sympy.Matrix(rows).rank()
    for col, row in pivots.items():
        assert all(x == 0 for x in row[:col]) and row[col] == 1
        assert all(row[c] == 0 for c in pivots if c != col)
    # exactly the rows that raise the rank of the rows before them are chosen
    ranks = [sympy.Matrix(rows[:i]).rank() for i in range(len(rows) + 1)]
    assert ids == [i for i in range(len(rows)) if ranks[i + 1] > ranks[i]]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda m: st.lists(
            st.lists(fractions, min_size=m, max_size=m), min_size=2 * m, max_size=2 * m
        )
    )
)
def test_solve_matrix_property(rows):
    m = len(rows) // 2
    V, C = M(rows[:m]), M(rows[m:])
    if exact.det(V) == 0:
        with pytest.raises(SingularMatrixError):
            exact.solve_matrix(V, C)
    else:
        assert V @ exact.solve_matrix(V, C) == C


# --- primitive vectors ------------------------------------------------------

def test_primitive_vector_examples():
    assert exact.primitive_vector([F(2, 3), F(4, 3)]) == (1, 2)
    assert exact.primitive_vector([5, 0, 0]) == (1, 0, 0)
    assert exact.primitive_vector([F(-1, 2), F(1, 2)]) == (-1, 1)


def test_primitive_vector_zero_raises():
    with pytest.raises(ValueError):
        exact.primitive_vector([0, 0])


def test_primitive_vector_stays_on_ray():
    v = exact.primitive_vector([F(-6, 4), F(9, 4)])
    assert v == (-2, 3)
