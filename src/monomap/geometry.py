"""Exact rational convex geometry in ambient dimension up to 8.

Hulls use an incremental beneath-beyond algorithm with exact rational
orientation predicates, so every facet, volume, and mixed volume below is
exact.  Facets are kept simplicial; collinear/coplanar input only produces
coplanar simplicial facets, which still tile the boundary (volumes stay
correct) and are compensated for when the minimal vertex set is extracted.

Two independent mixed-volume algorithms are provided: the polarization
formula, a signed sum of volumes of Minkowski sums (primary), and fine mixed
subdivisions obtained from random integral lifts (cross-check oracle).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd, lcm, prod

from . import exact
from .errors import DegenerateLiftError, DegeneratePolytopeError

Point = tuple[Fraction, ...]

MAX_AMBIENT_DIM = 8


def _point(p) -> Point:
    return tuple(Fraction(x) for x in p)


@dataclass(frozen=True)
class Polytope:
    """Exact V-representation: minimal vertex set, sorted for determinism."""

    m: int
    vertices: tuple[Point, ...]
    dim: int

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("polytope needs at least one vertex")
        if any(len(v) != self.m for v in self.vertices):
            raise ValueError("vertex length does not match ambient dimension")

    def translate(self, t) -> "Polytope":
        t = _point(t)
        return Polytope(
            self.m,
            tuple(sorted(tuple(a + b for a, b in zip(v, t)) for v in self.vertices)),
            self.dim,
        )

    def scale(self, r) -> "Polytope":
        r = Fraction(r)
        if r < 0:
            raise ValueError("scaling factor must be non-negative")
        if r == 0:
            return Polytope(self.m, (tuple([Fraction(0)] * self.m),), 0)
        return Polytope(
            self.m,
            tuple(sorted(tuple(r * x for x in v) for v in self.vertices)),
            self.dim,
        )


# ---------------------------------------------------------------------------
# affine structure

def _affine_basis(pts):
    """row_reduce of the differences pts[i] - pts[0]: the ids of a greedy
    affinely independent subset besides pts[0], and the reduced pivot rows."""
    origin = pts[0]
    return exact.row_reduce(tuple(a - b for a, b in zip(p, origin)) for p in pts)


# ---------------------------------------------------------------------------
# incremental hull on full-dimensional coordinate points

def _cofactor_normal(rows, n):
    """Vector orthogonal to n-1 independent rows in R^n (generalized cross product)."""
    normal = []
    for j in range(n):
        sub = (
            exact.Matrix.from_rows([[r[c] for c in range(n) if c != j] for r in rows])
            if n > 1
            else None
        )
        dj = exact.det(sub) if sub is not None else Fraction(1)
        normal.append(dj if j % 2 == 0 else -dj)
    return tuple(normal)


def _facet_plane(points):
    """Unoriented hyperplane through d points spanning a (d-1)-flat in R^d."""
    d = len(points[0])
    base = points[0]
    rows = [tuple(a - b for a, b in zip(p, base)) for p in points[1:]]
    normal = _cofactor_normal(rows, d)
    offset = sum((n * x for n, x in zip(normal, base)), Fraction(0))
    return normal, offset


def _hull_incremental(pts):
    """Facets of the hull of full-dimensional pts (exact, simplicial).

    Returns (facets, interior) where facets maps fid -> (ids, normal, offset)
    with normal . x <= offset for hull points, and interior is a point
    strictly inside.
    """
    d = len(pts[0])
    simplex = [0] + _affine_basis(pts)[0]
    assert len(simplex) == d + 1, "input not full-dimensional"
    interior = tuple(
        sum((pts[i][c] for i in simplex), Fraction(0)) / (d + 1) for c in range(d)
    )

    facets = {}
    ridge_map = {}
    next_fid = [0]

    def add_facet(ids):
        ids = tuple(sorted(ids))
        normal, offset = _facet_plane([pts[i] for i in ids])
        val = sum((n * x for n, x in zip(normal, interior)), Fraction(0))
        if val > offset:
            normal = tuple(-n for n in normal)
            offset = -offset
        elif val == offset:
            raise AssertionError("interior point on facet hyperplane")
        fid = next_fid[0]
        next_fid[0] += 1
        facets[fid] = (ids, normal, offset)
        for ridge in itertools.combinations(ids, d - 1):
            ridge_map.setdefault(ridge, set()).add(fid)
        return fid

    def drop_facet(fid):
        ids, _, _ = facets.pop(fid)
        for ridge in itertools.combinations(ids, d - 1):
            ridge_map[ridge].discard(fid)
            if not ridge_map[ridge]:
                del ridge_map[ridge]

    for sub in itertools.combinations(simplex, d):
        add_facet(sub)

    in_simplex = set(simplex)
    for pid in range(len(pts)):
        if pid in in_simplex:
            continue
        p = pts[pid]
        visible = [
            fid
            for fid, (_, normal, offset) in facets.items()
            if sum((n * x for n, x in zip(normal, p)), Fraction(0)) > offset
        ]
        if not visible:
            continue
        visible_set = set(visible)
        horizon = []
        for fid in visible:
            ids = facets[fid][0]
            for ridge in itertools.combinations(ids, d - 1):
                others = ridge_map[ridge] - visible_set
                if others:
                    horizon.append(ridge)
        for fid in visible:
            drop_facet(fid)
        for ridge in horizon:
            add_facet(ridge + (pid,))
    return facets, interior


def _hull_structure(points):
    """Dedupe, find the affine hull, and build facets in hull coordinates.

    Returns (pts, dim, coords, facets, interior); facets/interior are None for
    dim 0, and for dim 1 facets degenerate to the two endpoint ids.
    """
    pts = sorted(set(_point(p) for p in points))
    _, pivots = _affine_basis(pts)
    d = len(pivots)
    if d == 0:
        return pts, 0, None, None, None
    if d == len(pts[0]):
        coords = pts  # full-dimensional: keep ambient coordinates (volumes, normals)
    else:
        # the reduced basis of the affine hull is the identity on the pivot
        # columns, so projecting onto them is an affine isomorphism
        cols = sorted(pivots)
        coords = [tuple(p[c] for c in cols) for p in pts]
    if d == 1:
        order = sorted(range(len(pts)), key=lambda i: coords[i][0])
        lo, hi = order[0], order[-1]
        facets = {
            0: ((lo,), (Fraction(-1),), -coords[lo][0]),
            1: ((hi,), (Fraction(1),), coords[hi][0]),
        }
        mid = ((coords[lo][0] + coords[hi][0]) / 2,)
        return pts, 1, coords, facets, mid
    facets, interior = _hull_incremental(coords)
    return pts, d, coords, facets, interior


def _minimal_vertices(pts, dim, coords, facets):
    if dim == 0:
        return [pts[0]]
    candidate_ids = sorted({i for ids, _, _ in facets.values() for i in ids})
    if dim == 1:
        return [pts[i] for i in candidate_ids]
    verts = []
    for v in candidate_ids:
        planes = set()
        for ids, normal, offset in facets.values():
            val = sum(
                (n * x for n, x in zip(normal, coords[v])), Fraction(0)
            )
            if val == offset:
                planes.add(_canonical_plane(normal, offset))
        if exact.rank_of_rows([pl[0] for pl in planes]) == dim:
            verts.append(pts[v])
    return verts


def _primitive_plane(normal, offset):
    """Scale (normal, offset) by a positive rational to primitive integers."""
    denoms = [x.denominator for x in normal] + [offset.denominator]
    scale = lcm(*denoms)
    ints = [int(x * scale) for x in normal]
    off = int(offset * scale)
    g = gcd(*(ints + [off])) or 1
    return tuple(x // g for x in ints), off // g


def _canonical_plane(normal, offset):
    """The primitive plane with its first nonzero normal entry positive."""
    ints, off = _primitive_plane(normal, offset)
    if next((x for x in ints if x != 0), 1) < 0:
        return tuple(-x for x in ints), -off
    return ints, off


def convex_hull(points) -> Polytope:
    """Minimal vertex set of the convex hull of the given rational points."""
    points = list(points)
    if not points:
        raise ValueError("convex hull of an empty point set")
    m = len(points[0])
    if not 1 <= m <= MAX_AMBIENT_DIM:
        raise ValueError(f"ambient dimension must be in [1, {MAX_AMBIENT_DIM}], got {m}")
    pts, dim, coords, facets, _ = _hull_structure(points)
    verts = _minimal_vertices(pts, dim, coords, facets)
    return Polytope(m, tuple(sorted(verts)), dim)


def _volume_of_points(points, m) -> Fraction:
    """Exact volume of conv(points) in R^m; 0 when lower-dimensional."""
    pts, dim, coords, facets, interior = _hull_structure(points)
    if dim < m:
        return Fraction(0)
    total = Fraction(0)
    for ids, _, _ in facets.values():
        rows = [
            tuple(a - b for a, b in zip(coords[i], interior)) for i in ids
        ]
        total += abs(exact.det(exact.Matrix.from_rows(rows)))
    return total / factorial(m)


def volume(P: Polytope) -> Fraction:
    """Lebesgue volume normalized so the standard lattice cube has volume 1."""
    if P.dim < P.m:
        return Fraction(0)
    return _volume_of_points(P.vertices, P.m)


def _minkowski_points(vertex_sets, scales, m):
    """Points whose convex hull is the Minkowski sum of r_i * conv(V_i) in R^m."""
    acc = {tuple([Fraction(0)] * m)}
    for verts, r in zip(vertex_sets, scales):
        if r == 0:
            continue
        if r != 1:
            verts = [tuple(r * x for x in v) for v in verts]
        acc = {tuple(a + b for a, b in zip(p, v)) for p in acc for v in verts}
    return acc


def minkowski_sum(P: Polytope, Q: Polytope) -> Polytope:
    if P.m != Q.m:
        raise ValueError("ambient dimension mismatch")
    return convex_hull(_minkowski_points([P.vertices, Q.vertices], (1, 1), P.m))


def linear_image(A: exact.Matrix, P: Polytope) -> Polytope:
    if A.m != P.m:
        raise ValueError("ambient dimension mismatch")
    return convex_hull([A.apply(v) for v in P.vertices])


def standard_simplex(m: int) -> Polytope:
    """conv(0, e_1, ..., e_m): the polytope of O(1) on projective m-space."""
    zero = tuple([Fraction(0)] * m)
    pts = [zero]
    for i in range(m):
        e = [Fraction(0)] * m
        e[i] = Fraction(1)
        pts.append(tuple(e))
    return Polytope(m, tuple(sorted(pts)), m)


def segment(u) -> Polytope:
    """The segment [0, u]."""
    u = _point(u)
    zero = tuple([Fraction(0)] * len(u))
    dim = 0 if u == zero else 1
    verts = (zero,) if dim == 0 else tuple(sorted((zero, u)))
    return Polytope(len(u), verts, dim)


# ---------------------------------------------------------------------------
# mixed volumes, route 1: polarization of the Minkowski volume polynomial

def _check_bodies(bodies, ks) -> int:
    """Ambient dimension of the bodies; ValueError unless the multiplicities fit."""
    if not bodies or len(bodies) != len(ks) or any(k <= 0 for k in ks):
        raise ValueError("need one positive multiplicity per body")
    m = bodies[0].m
    if any(P.m != m for P in bodies):
        raise ValueError("bodies live in different ambient dimensions")
    if sum(ks) != m:
        raise ValueError("multiplicities must sum to the ambient dimension")
    return m


def mixed_volume(query) -> Fraction:
    """The coefficient Vol(K_1[k_1], ..., K_s[k_s]) of the volume expansion.

    query is a sequence of (body, multiplicity) pairs.  Polarization
    (Schneider, Convex Bodies, 5.1) gives the coefficient as one signed sum:

        m! Vol(K_1[k_1], ..., K_s[k_s])
            = sum over 0 <= c_i <= k_i of
              (-1)^(m - sum c) prod C(k_i, c_i) Vol(c_1 K_1 + ... + c_s K_s).

    Vol(g Q) = g^m Vol(Q), so each primitive scale vector c / gcd(c) costs
    one hull.  Normalization is the one with Vol(K[m]) = volume(K).
    """
    pairs = list(query)
    bodies = [P for P, _ in pairs]
    ks = [int(k) for _, k in pairs]
    m = _check_bodies(bodies, ks)
    vertex_sets = [P.vertices for P in bodies]
    primitive_volumes = {}
    total = Fraction(0)
    for c in itertools.product(*(range(k + 1) for k in ks)):
        g = gcd(*c)
        if g == 0:
            continue  # c = 0: the sum is a point, of volume 0
        key = tuple(x // g for x in c)
        if key not in primitive_volumes:
            pts = _minkowski_points(vertex_sets, key, m)
            primitive_volumes[key] = _volume_of_points(pts, m)
        weight = prod(comb(k, x) for k, x in zip(ks, c)) * g**m
        total += (-1) ** (m - sum(c)) * weight * primitive_volumes[key]
    return total / factorial(m)


# ---------------------------------------------------------------------------
# mixed volumes, route 2: fine mixed subdivisions from random lifts

@dataclass(frozen=True)
class MixedCell:
    """One cell (C_1, ..., C_s) of a fine mixed subdivision."""

    parts: tuple[Polytope, ...]
    dims: tuple[int, ...]
    vertex_counts: tuple[int, ...]

    @property
    def cell_volume(self) -> Fraction:
        m = self.parts[0].m
        vertex_sets = [part.vertices for part in self.parts]
        pts = _minkowski_points(vertex_sets, [1] * len(vertex_sets), m)
        return _volume_of_points(pts, m)


@dataclass(frozen=True)
class SubdivisionResult:
    mixed_volume: Fraction
    cells: tuple[MixedCell, ...]
    seed: int
    lift_attempts: int


LIFT_RANGE = 10**6
MAX_LIFT_RETRIES = 8


def mixed_volume_subdivision(
    bodies, multiplicities, seed: int = 0
) -> SubdivisionResult:
    """Mixed volume via a fine mixed subdivision (lift-and-project).

    Vertices of each body get random integral lifts; the lower hull of the
    lifted Minkowski sum projects to a subdivision whose cells decompose as
    sums of faces of the bodies.  The fine-cell conditions (complementary
    dimensions, simplex parts) are verified exactly; a degenerate lift is
    retried with fresh randomness.  Cells whose per-body dimensions match the
    multiplicities contribute k_1! ... k_s! / m! times their volume.
    """
    bodies = list(bodies)
    ks = [int(k) for k in multiplicities]
    m = _check_bodies(bodies, ks)
    s = len(bodies)
    ones = [1] * s
    all_sum = _minkowski_points([P.vertices for P in bodies], ones, m)
    if exact.rank_of_rows(
        [[x - y for x, y in zip(p, next(iter(all_sum)))] for p in all_sum]
    ) < m:
        raise DegeneratePolytopeError("Minkowski sum of the bodies is not full-dimensional")

    for attempt in range(MAX_LIFT_RETRIES):
        rng = random.Random(seed * 1000003 + attempt)
        lifted_sets = []
        for P in bodies:
            lifted_sets.append(
                [(v, Fraction(rng.randint(1, LIFT_RANGE))) for v in P.vertices]
            )
        lifted_points = [[v + (w,) for v, w in lifted] for lifted in lifted_sets]
        acc = _minkowski_points(lifted_points, ones, m + 1)
        pts, dim, _, facets, _ = _hull_structure(acc)
        if dim == m + 1:
            # hull ran in ambient m+1 coordinates, so normals live in R^{m+1};
            # one lower FACE may be tiled by several coplanar simplicial
            # facets, so dedupe by the supporting hyperplane
            seen = {}
            for _, normal, offset in facets.values():
                if normal[m] < 0:
                    seen.setdefault(_primitive_plane(normal, offset), normal)
            normals = [seen[key] for key in sorted(seen)]
        else:
            # lifted sum is flat (dim == m: every lift of a sum of segments is);
            # the lower hull is the whole polytope and the subdivision is trivial
            normal = _cofactor_normal(list(_affine_basis(pts)[1].values()), m + 1)
            if normal[m] == 0:
                raise AssertionError("flat lifted sum cannot be vertical")
            if normal[m] > 0:
                normal = tuple(-x for x in normal)
            normals = [normal]
        cells = _cells_from_lower_normals(normals, lifted_sets, m, s)
        if cells is None:
            continue
        k_factor = Fraction(1)
        for k in ks:
            k_factor *= factorial(k)
        total = Fraction(0)
        for cell in cells:
            if cell.dims == tuple(ks):
                total += cell.cell_volume
        mv = k_factor * total / factorial(m)
        return SubdivisionResult(
            mixed_volume=mv,
            cells=tuple(cells),
            seed=seed,
            lift_attempts=attempt + 1,
        )
    raise DegenerateLiftError(
        f"no fine mixed subdivision after {MAX_LIFT_RETRIES} random lifts"
    )


def _cells_from_lower_normals(normals, lifted_sets, m, s):
    cells = []
    for normal in normals:
        parts = []
        for lifted in lifted_sets:
            vals = [
                sum((n * x for n, x in zip(normal, v + (w,))), Fraction(0))
                for (v, w) in lifted
            ]
            mx = max(vals)
            support = [lifted[i][0] for i in range(len(lifted)) if vals[i] == mx]
            parts.append(convex_hull(support))
        dims = tuple(p.dim for p in parts)
        counts = tuple(len(p.vertices) for p in parts)
        if sum(dims) != m or sum(counts) - s != m:
            return None  # not a fine subdivision; lift was degenerate
        cells.append(MixedCell(parts=tuple(parts), dims=dims, vertex_counts=counts))
    return cells
