import itertools
import random
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from monomap import exact, geometry as geo
from monomap.errors import DegeneratePolytopeError
from reference import det_leibniz

M = exact.Matrix.from_rows


def cube(m):
    return geo.convex_hull(list(itertools.product((0, 1), repeat=m)))


def minkowski(P, Q):
    """P + Q as the hull of all vertex sums."""
    return geo.convex_hull([tuple(a + b for a, b in zip(p, q))
                            for p in P.vertices for q in Q.vertices])


def scaled(P, r):
    return geo.convex_hull([tuple(r * x for x in v) for v in P.vertices])


def mv_polarization(bodies_with_mult):
    """Inclusion-exclusion oracle for mixed volumes (independent of both routes)."""
    K = []
    for P, k in bodies_with_mult:
        K.extend([P] * k)
    m = K[0].m
    total = F(0)
    for r in range(1, m + 1):
        for S in itertools.combinations(range(m), r):
            pts = {tuple([F(0)] * m)}
            for i in S:
                pts = {
                    tuple(a + b for a, b in zip(p, v)) for p in pts for v in K[i].vertices
                }
            total += (-1) ** (m - r) * geo._volume_of_points(pts, m)
    return total / factorial(m)


def rand_simplex(rng, m, span=3):
    while True:
        pts = [
            tuple(F(rng.randint(-span, span)) for _ in range(m)) for _ in range(m + 1)
        ]
        P = geo.convex_hull(pts)
        if P.dim == m:
            return P


# --- convex hull -------------------------------------------------------------

def test_hull_collinear_points():
    P = geo.convex_hull([(0, 0), (1, 1), (2, 2)])
    assert P.dim == 1
    assert P.vertices == ((F(0), F(0)), (F(2), F(2)))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_hull_shuffled_collinear_points(m):
    # one-dimensional hulls take the general incremental path
    rng = random.Random(m)
    for _ in range(5):
        base = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)]
        u = [F(rng.randint(-3, 3)) for _ in range(m)]
        u[rng.randrange(m)] = F(rng.choice((-2, -1, 1, 2)))
        ts = [F(t, 2) for t in rng.sample(range(-12, 13), 7)]
        rng.shuffle(ts)
        pts = [tuple(b + t * x for b, x in zip(base, u)) for t in ts]
        P = geo.convex_hull(pts)
        ends = [tuple(b + t * x for b, x in zip(base, u)) for t in (min(ts), max(ts))]
        assert P.dim == 1 and P.vertices == tuple(sorted(ends))
        if m == 1:
            assert geo.volume(P) == abs(u[0]) * (max(ts) - min(ts))
        else:
            assert geo.volume(P) == 0


def test_hull_drops_interior_point():
    pts = list(itertools.product((0, 1), repeat=3)) + [(F(1, 2), F(1, 2), F(1, 2))]
    P = geo.convex_hull(pts)
    assert len(P.vertices) == 8 and P.dim == 3


def test_hull_unit_square():
    P = geo.convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert len(P.vertices) == 4


def test_hull_empty_raises():
    with pytest.raises(ValueError):
        geo.convex_hull([])


def test_hull_boundary_collinear_vertex_pruned():
    # (1,0) lies inside the segment (0,0)-(2,0) after extension
    P = geo.convex_hull([(0, 0), (1, 0), (1, 1), (0, 1), (2, 0)])
    assert (F(1), F(0)) not in P.vertices
    assert len(P.vertices) == 4


def test_hull_idempotent():
    rng = random.Random(0)
    for m in (2, 3, 4):
        pts = [tuple(F(rng.randint(-4, 4)) for _ in range(m)) for _ in range(12)]
        P = geo.convex_hull(pts)
        Q = geo.convex_hull(P.vertices)
        assert P == Q


def test_hull_vertices_are_minimal():
    rng = random.Random(1)
    for m in (2, 3):
        pts = [tuple(F(rng.randint(-3, 3)) for _ in range(m)) for _ in range(10)]
        P = geo.convex_hull(pts)
        for v in P.vertices:
            others = [w for w in P.vertices if w != v]
            if len(others) >= 1:
                Q = geo.convex_hull(others)
                # dropping a true vertex must shrink the hull
                R = geo.convex_hull(list(others) + [v])
                assert R == P and Q != P


# --- volume -------------------------------------------------------------------

def test_volume_standard_simplex():
    for m in (1, 2, 3, 4):
        assert geo.volume(geo.standard_simplex(m)) == F(1, factorial(m))


def test_volume_unit_cube():
    for m in (2, 3, 4):
        assert geo.volume(cube(m)) == 1


def test_volume_lower_dimensional_is_zero():
    P = geo.convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    assert geo.volume(P) == 0


def test_volume_scales_with_det():
    rng = random.Random(2)
    for _ in range(8):
        m = rng.choice((2, 3))
        P = rand_simplex(rng, m)
        A = M([[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)])
        assert geo.volume(geo.linear_image(A, P)) == abs(exact.det(A)) * geo.volume(P)


def point_rows(coordinate):
    return st.integers(1, 4).flatmap(
        lambda m: st.lists(st.lists(coordinate, min_size=m, max_size=m),
                           min_size=m + 1, max_size=m + 1)
    )


lattice_rows = point_rows(st.integers(-3, 3))
# denominators up to 9, so the hull's scale is not 1
rational_rows = point_rows(st.builds(F, st.integers(-9, 9), st.integers(1, 9)))


@settings(max_examples=60, deadline=None)
@given(st.one_of(lattice_rows, rational_rows))
def test_volume_simplex_and_parallelepiped_property(rows):
    # oracles independent of the hull: the Leibniz determinant of the edges
    p0, *ps = [tuple(map(F, r)) for r in rows]
    m = len(p0)
    edges = M([[a - b for a, b in zip(p, p0)] for p in ps])
    assert geo.volume(geo.convex_hull([p0] + ps)) == abs(det_leibniz(edges)) / factorial(m)
    u = M(rows[:m])
    box = [u.transpose().apply(eps) for eps in itertools.product((0, 1), repeat=m)]
    assert geo.volume(geo.convex_hull(box)) == abs(det_leibniz(u))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=3, max_size=9),
    st.integers(3, 4),
    st.data(),
)
def test_hull_of_embedded_polygon_property(plane_pts, n, data):
    # a rational injective affine map x -> B x + t of a lattice polygon into
    # R^n: the hull is the image of the polygon's hull, of dimension 2
    polygon = geo.convex_hull(plane_pts)
    assume(polygon.dim == 2)
    rational = st.builds(F, st.integers(-5, 5), st.integers(1, 7))
    B = data.draw(st.lists(st.tuples(rational, rational), min_size=n, max_size=n))
    assume(any(a * d != b * c for (a, b), (c, d) in itertools.combinations(B, 2)))
    t = data.draw(st.tuples(*[rational] * n))
    image = [tuple(a * x + b * y + c for (a, b), c in zip(B, t)) for x, y in plane_pts]
    P = geo.convex_hull(image)
    assert P.dim == 2
    assert P.vertices == tuple(sorted(
        tuple(a * x + b * y + c for (a, b), c in zip(B, t)) for x, y in polygon.vertices
    ))


def test_hull_rejects_ragged_points():
    for pts in ([(0, 0), (1,), (0, 1)], [(0, 0), (1, 0, 0), (0, 1)]):
        with pytest.raises(ValueError):
            geo.convex_hull(pts)


def test_geometry_builds_no_matrix_and_no_rational_det(monkeypatch):
    # every hull runs on integer coordinates and exact.int_det
    D3, D2 = geo.standard_simplex(3), geo.standard_simplex(2)
    skew = geo.convex_hull([(0, 0, 0), (F(1, 2), 0, 0), (0, F(2, 3), 1), (1, 1, F(1, 5))])
    flat = geo.convex_hull([(0, 0, 0), (F(1, 3), 1, 0), (1, F(1, 2), 0)])
    segs = [geo.segment((1, 0)), geo.segment((F(1, 2), 3))]
    calls = []
    monkeypatch.setattr(exact, "det", lambda A: calls.append("det"))
    post_init = exact.Matrix.__post_init__
    monkeypatch.setattr(exact.Matrix, "__post_init__",
                        lambda self: calls.append("Matrix") or post_init(self))
    assert geo.convex_hull(flat.vertices + skew.vertices).dim == 3
    assert geo.volume(skew) == F(13, 30) / 6  # |det of the edges| / 3!
    assert geo.mixed_volume([(D3, 2), (skew, 1)]) > 0
    assert geo.mixed_volume_subdivision([D2, D2], [1, 1], seed=7).mixed_volume == F(1, 2)
    # a flat lifted sum: every lift of a sum of segments is flat
    assert geo.mixed_volume_subdivision(segs, [1, 1], seed=7).mixed_volume == F(3, 2)
    assert calls == []


def test_volume_adds_no_determinant_to_the_hull(monkeypatch):
    # the facet planes of the hull already hold every cone volume
    calls = []
    det = exact.int_det
    monkeypatch.setattr(exact, "int_det", lambda A: calls.append(A) or det(A))
    P = geo.linear_image(M([[2, 1, 0], [1, 2, 1], [0, 1, 3]]), cube(3))
    calls.clear()
    geo.convex_hull(P.vertices)
    hull_calls = len(calls)
    calls.clear()
    assert geo.volume(P) == 7
    assert hull_calls > 0 and len(calls) == hull_calls


# --- Minkowski sums and linear images ------------------------------------------

def test_minkowski_translate():
    P = geo.standard_simplex(2)
    Q = geo.convex_hull([(3, 4)])
    assert minkowski(P, Q) == geo.convex_hull([(3, 4), (4, 4), (3, 5)])


def test_minkowski_segments_make_square():
    sq = minkowski(geo.segment((1, 0)), geo.segment((0, 1)))
    assert sq == geo.convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert geo.volume(sq) == 1 and len(sq.vertices) == 4


def test_minkowski_simplex_doubling():
    D = geo.standard_simplex(2)
    assert minkowski(D, D) == geo.convex_hull([(0, 0), (2, 0), (0, 2)])


def test_linear_image_identity():
    P = geo.standard_simplex(3)
    assert geo.linear_image(exact.Matrix.identity(3), P) == P


def test_linear_image_scaling():
    D = geo.standard_simplex(3)
    img = geo.linear_image(exact.Matrix.identity(3).scale(2), D)
    assert img == geo.convex_hull([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)])
    assert geo.volume(img) == 2**3 * geo.volume(D)


def test_linear_image_shear():
    sq = geo.convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    sheared = geo.linear_image(M([[1, 1], [0, 1]]), sq)
    assert geo.volume(sheared) == 1


# --- mixed volume: polarization route ------------------------------------------

def test_mixed_volume_single_body():
    D = geo.standard_simplex(3)
    assert geo.mixed_volume([(D, 3)]) == geo.volume(D)


def test_mixed_volume_segments_det_formula():
    rng = random.Random(3)
    for _ in range(10):
        m = rng.choice((2, 3, 4))
        us = [tuple(F(rng.randint(-4, 4)) for _ in range(m)) for _ in range(m)]
        mv = geo.mixed_volume([(geo.segment(u), 1) for u in us])
        assert mv == abs(exact.det(M(us))) / factorial(m)


def test_mixed_volume_homogeneity():
    D = geo.standard_simplex(3)
    for k in (1, 2):
        mv = geo.mixed_volume([(scaled(D, 2), k), (D, 3 - k)])
        assert mv == F(2**k, factorial(3))


def test_mixed_volume_homogeneity_rational_scale():
    D = geo.standard_simplex(2)
    r = F(3, 2)
    assert geo.mixed_volume([(scaled(D, r), 1), (D, 1)]) == r * F(1, 2)


def test_mixed_volume_symmetry():
    rng = random.Random(4)
    P, Q = rand_simplex(rng, 3), rand_simplex(rng, 3)
    assert geo.mixed_volume([(P, 2), (Q, 1)]) == geo.mixed_volume([(Q, 1), (P, 2)])


def test_mixed_volume_minkowski_additive_on_segments():
    # Vol((P+P')[1], rest) = Vol(P[1], rest) + Vol(P'[1], rest) on segments
    a, b = geo.segment((1, 0)), geo.segment((1, 2))
    rest = geo.segment((0, 1))
    ab = geo.convex_hull([(0, 0), (1, 0), (1, 2), (2, 2)])  # a + b
    lhs = geo.mixed_volume([(ab, 1), (rest, 1)])
    rhs = geo.mixed_volume([(a, 1), (rest, 1)]) + geo.mixed_volume([(b, 1), (rest, 1)])
    assert lhs == rhs


def test_mixed_volume_matches_polarization_oracle():
    rng = random.Random(5)
    for _ in range(6):
        m = rng.choice((2, 3))
        P, Q = rand_simplex(rng, m), rand_simplex(rng, m)
        k1 = rng.randint(1, m - 1)
        assert geo.mixed_volume([(P, k1), (Q, m - k1)]) == mv_polarization(
            [(P, k1), (Q, m - k1)]
        )


def test_mixed_volume_three_bodies():
    rng = random.Random(6)
    P, Q, R = (rand_simplex(rng, 3) for _ in range(3))
    assert geo.mixed_volume([(P, 1), (Q, 1), (R, 1)]) == mv_polarization(
        [(P, 1), (Q, 1), (R, 1)]
    )


def test_mixed_volume_bad_multiplicities():
    D = geo.standard_simplex(2)
    for bodies, ks in (([D], [1]), ([D, D], [0, 2]), ([D, geo.standard_simplex(3)], [1, 1])):
        with pytest.raises(ValueError):
            geo.mixed_volume(list(zip(bodies, ks)))
        with pytest.raises(ValueError):
            geo.mixed_volume_subdivision(bodies, ks)


@settings(max_examples=20, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
def test_mixed_volume_segment_pair_property(a, b, c, d):
    mv = geo.mixed_volume([(geo.segment((a, b)), 1), (geo.segment((c, d)), 1)])
    assert mv == F(abs(a * d - b * c), 2)


# --- mixed volume: subdivision route --------------------------------------------

def test_subdivision_two_segments():
    res = geo.mixed_volume_subdivision(
        [geo.segment((1, 0)), geo.segment((0, 1))], [1, 1], seed=7
    )
    assert res.mixed_volume == F(1, 2)
    assert len(res.cells) == 1 and res.cells[0].dims == (1, 1)


def test_subdivision_simplex_pair():
    D = geo.standard_simplex(2)
    res = geo.mixed_volume_subdivision([D, D], [1, 1], seed=7)
    assert res.mixed_volume == geo.mixed_volume([(D, 1), (D, 1)]) == F(1, 2)


def test_subdivision_triangulates_single_body():
    rng = random.Random(8)
    for m in (2, 3):
        P = rand_simplex(rng, m)
        res = geo.mixed_volume_subdivision([P], [m], seed=3)
        assert res.mixed_volume == geo.volume(P)
        assert sum(c.cell_volume for c in res.cells) == geo.volume(P)
        assert all(c.vertex_counts[0] == m + 1 for c in res.cells)


def test_subdivision_cells_tile_the_sum():
    rng = random.Random(9)
    P, Q = rand_simplex(rng, 2), rand_simplex(rng, 2)
    res = geo.mixed_volume_subdivision([P, Q], [1, 1], seed=11)
    total = sum(c.cell_volume for c in res.cells)
    assert total == geo.volume(minkowski(P, Q))


def rand_segment(rng, m, span=3):
    return geo.segment(tuple(F(rng.randint(-span, span)) for _ in range(m)))


def test_subdivision_matches_polarization_random():
    rng = random.Random(10)
    families = []
    for _ in range(8):
        m = rng.choice((2, 3))
        P, Q = rand_simplex(rng, m), rand_simplex(rng, m)
        k1 = rng.randint(1, m - 1)
        families.append(([P, Q], [k1, m - k1]))
    for _ in range(2):
        families.append(
            ([rand_simplex(rng, 4), rand_segment(rng, 4), rand_segment(rng, 4)], [2, 1, 1])
        )
        families.append(([rand_simplex(rng, 3) for _ in range(3)], [1, 1, 1]))
    for t, (bodies, ks) in enumerate(families):
        assert geo.mixed_volume_subdivision(
            bodies, ks, seed=50 + t
        ).mixed_volume == geo.mixed_volume(list(zip(bodies, ks)))


def test_subdivision_fine_cell_conditions():
    D = geo.standard_simplex(2)
    res = geo.mixed_volume_subdivision([D, D], [1, 1], seed=7)
    for cell in res.cells:
        assert sum(cell.dims) == 2
        assert sum(cell.vertex_counts) - len(cell.parts) == 2


def test_subdivision_degenerate_sum_rejected():
    with pytest.raises(DegeneratePolytopeError):
        geo.mixed_volume_subdivision(
            [geo.segment((1, 0)), geo.segment((2, 0))], [1, 1], seed=1
        )


def test_subdivision_seed_recorded():
    res = geo.mixed_volume_subdivision(
        [geo.segment((1, 0)), geo.segment((0, 1))], [1, 1], seed=99
    )
    assert res.seed == 99 and res.lift_attempts >= 1
