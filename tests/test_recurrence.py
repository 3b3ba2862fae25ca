import random
from fractions import Fraction as F

import pytest

from monomap import exact, recurrence as rec
from monomap.errors import InsufficientData

M = exact.Matrix.from_rows


def test_fibonacci_found_order_two():
    r = rec.minimal_recurrence([1, 1, 2, 3, 5, 8, 13, 21], 3)
    assert r.status == "FOUND" and r.order == 2
    assert r.coefficients == (F(-1), F(-1))  # a_{n+2} - a_{n+1} - a_n = 0


def test_constant_found_order_one():
    r = rec.minimal_recurrence([7] * 10, 3)
    assert r.status == "FOUND" and r.order == 1
    assert r.coefficients == (F(-1),)


def test_power_sum_sequence():
    seq = [2**n + 3**n for n in range(16)]
    r = rec.minimal_recurrence(seq, 5)
    assert r.status == "FOUND" and r.order == 2
    assert r.coefficients == (F(6), F(-5))  # x^2 - 5x + 6


def test_geometric_with_rational_ratio():
    seq = [F(3, 2) ** n for n in range(12)]
    r = rec.minimal_recurrence(seq, 4)
    assert r.status == "FOUND" and r.order == 1 and r.coefficients == (F(-3, 2),)


def test_no_low_order_recurrence():
    # n! grows too fast for any fixed-order linear recurrence
    import math

    seq = [math.factorial(n) for n in range(14)]
    r = rec.minimal_recurrence(seq, 4)
    assert r.status == "NONE_UP_TO" and r.order == 4


def test_order_cap_from_short_window():
    r = rec.minimal_recurrence([1, 2, 4, 8, 16, 32], 10)
    assert r.order_cap == 2  # floor((6-2)/2)
    assert r.status == "FOUND" and r.order == 1


def test_insufficient_data():
    with pytest.raises(InsufficientData):
        rec.minimal_recurrence([1, 2, 3], 2)


def test_found_recurrence_verified_on_all_terms():
    seq = [1, 1, 2, 3, 5, 8, 13, 21, 34, 56]  # corrupted tail
    r = rec.minimal_recurrence(seq, 3)
    assert r.status == "NONE_UP_TO"


def test_zero_sequence_found_order_one():
    # every coefficient column is free: phi is pinned to 0
    r = rec.minimal_recurrence([0] * 8, 3)
    assert r.status == "FOUND" and r.order == 1 and r.coefficients == (F(0),)


def test_impulse_found_order_one():
    r = rec.minimal_recurrence([1, 0, 0, 0, 0, 0], 3)
    assert r.status == "FOUND" and r.order == 1 and r.coefficients == (F(0),)
    assert rec.hankel_ranks([1, 0, 0, 0, 0], 3).ranks == (1, 1, 1)


def test_scaling_invariance():
    base = [2**n + 3**n for n in range(16)]
    r1 = rec.minimal_recurrence(base, 5)
    r2 = rec.minimal_recurrence([F(7, 3) * v for v in base], 5)
    assert r1.order == r2.order and r1.coefficients == r2.coefficients


# --- Hankel ranks -----------------------------------------------------------------

def test_hankel_fibonacci_stagnates():
    fib = [1, 1, 2, 3, 5, 8, 13, 21, 34]
    assert rec.hankel_ranks(fib, 5).ranks == (1, 2, 2, 2, 2)


def test_hankel_constant():
    assert rec.hankel_ranks([5] * 9, 5).ranks == (1, 1, 1, 1, 1)


def test_hankel_needs_enough_terms():
    with pytest.raises(InsufficientData):
        rec.hankel_ranks([1, 2, 3], 3)


def test_hankel_stagnation_matches_found_order():
    rng = random.Random(20)
    for _ in range(5):
        # random order-3 recurrence with random initial data
        phis = [F(rng.randint(-3, 3)) for _ in range(3)]
        seq = [F(rng.randint(1, 5)) for _ in range(3)]
        for n in range(17):
            seq.append(-sum(p * seq[n + i] for i, p in enumerate(phis)))
        r = rec.minimal_recurrence(seq, 6)
        assert r.status == "FOUND" and r.order <= 3
        hp = rec.hankel_ranks(seq, 6)
        assert hp.ranks[-1] == hp.ranks[-2] == r.order


def test_hankel_ranks_non_decreasing():
    rng = random.Random(21)
    seq = [rng.randint(-9, 9) for _ in range(19)]
    ranks = rec.hankel_ranks(seq, 10).ranks
    assert all(a <= b for a, b in zip(ranks, ranks[1:]))


# --- Cayley-Hamilton checks ----------------------------------------------------------

def test_matrix_entry_sequences_satisfy_char_poly():
    B = M([[1, 1], [1, 0]])
    chi = exact.char_poly(B)
    entries = [exact.mat_pow(B, n).rows[0][0] for n in range(1, 12)]
    assert all(r == 0 for r in rec.cayley_hamilton_check(entries, chi))


def test_matrix_entries_random_batch():
    rng = random.Random(22)
    done = 0
    while done < 20:
        m = rng.randint(2, 4)
        B = M([[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)])
        i, j = rng.randrange(m), rng.randrange(m)
        entries = [exact.mat_pow(B, n).rows[i][j] for n in range(1, 13)]
        chi = exact.char_poly(B)
        assert all(r == 0 for r in rec.cayley_hamilton_check(entries, chi))
        done += 1


def test_found_recurrence_char_poly_annihilates():
    seq = [2**n + 3**n for n in range(16)]
    r = rec.minimal_recurrence(seq, 5)
    assert r.status == "FOUND"
    residuals = rec.cayley_hamilton_check(seq, exact.CharPoly(r.coefficients))
    assert all(x == 0 for x in residuals)


def test_cayley_hamilton_nonzero_residual_detected():
    chi = exact.CharPoly((F(1), F(-1)))  # pretends Fibonacci rule
    residuals = rec.cayley_hamilton_check([1, 2, 4, 8, 16], chi)
    assert any(x != 0 for x in residuals)


def test_cayley_hamilton_needs_enough_terms():
    chi = exact.CharPoly((F(1), F(-1), F(0)))
    with pytest.raises(InsufficientData):
        rec.cayley_hamilton_check([1, 2, 3], chi)
