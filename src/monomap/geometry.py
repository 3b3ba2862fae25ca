"""Exact rational convex geometry in ambient dimension up to 8.

Hulls use an incremental beneath-beyond algorithm with exact integer
orientation predicates: each point set is projected onto its affine hull and
its denominators are cleared once, so every facet, volume, and mixed volume
below is exact.  Facets are kept simplicial; collinear/coplanar input only
produces coplanar simplicial facets, which still tile the boundary (volumes
stay correct) and are compensated for when the minimal vertex set is extracted.
Both are read off the facet planes: a volume sums the facets' offsets from
an interior point, and a vertex is a point whose facet normals have full rank.

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
from operator import mul
from typing import NamedTuple

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


# ---------------------------------------------------------------------------
# affine structure

def _affine_basis(pts):
    """row_reduce of the differences pts[i] - pts[0]: the ids of a greedy
    affinely independent subset besides pts[0], and the reduced pivot rows."""
    return exact.row_reduce(tuple(a - b for a, b in zip(p, pts[0])) for p in pts)


# ---------------------------------------------------------------------------
# incremental hull on full-dimensional integer points

def _cofactor_normal(rows, n):
    """Integer vector orthogonal to n-1 independent integer rows in R^n
    (generalized cross product): entry j is (-1)^j times the minor without
    column j."""
    return tuple(
        (-1) ** j * exact.int_det([r[:j] + r[j + 1:] for r in rows]) for j in range(n)
    )


def _facet_plane(points):
    """Unoriented hyperplane through d integer points spanning a (d-1)-flat in R^d.

    The normal is the unnormalized cofactor vector of the points, which
    _volume_of_points relies on: do not rescale it.
    """
    base = points[0]
    rows = [tuple(a - b for a, b in zip(p, base)) for p in points[1:]]
    normal = _cofactor_normal(rows, len(base))
    return normal, sum(map(mul, normal, base))


def _hull_incremental(pts, simplex):
    """Facets of the hull of full-dimensional integer pts (exact, simplicial).

    simplex lists d + 1 affinely independent ids; every coordinate must be a
    multiple of d + 1, so that the simplex's centroid is an integer point.
    Returns (facets, interior) where facets maps fid -> (ids, normal, offset)
    with normal . x <= offset for hull points, and interior is that centroid,
    strictly inside.
    """
    d = len(pts[0])
    interior = tuple(sum(pts[i][c] for i in simplex) // (d + 1) for c in range(d))

    facets = {}
    ridge_map = {}
    fids = itertools.count()

    def add_facet(ids):
        ids = tuple(sorted(ids))
        normal, offset = _facet_plane([pts[i] for i in ids])
        val = sum(map(mul, normal, interior))
        if val > offset:
            normal = tuple(-n for n in normal)
            offset = -offset
        elif val == offset:
            raise AssertionError("interior point on facet hyperplane")
        fid = next(fids)
        facets[fid] = (ids, normal, offset)
        for ridge in itertools.combinations(ids, d - 1):
            ridge_map.setdefault(ridge, set()).add(fid)

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
            if sum(map(mul, normal, p)) > offset
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


class _Hull(NamedTuple):
    """Deduplicated points, the reduced pivot rows of their affine hull, and
    the hull on coords[i] = scale * (pts[i] on the pivot columns); coords,
    facets and interior are None for dim 0."""

    pts: list
    dim: int
    pivots: dict
    scale: int
    coords: list | None
    facets: dict | None
    interior: tuple | None


def _hull_structure(points) -> _Hull:
    """Dedupe, find the affine hull, and build facets in hull coordinates."""
    pts = sorted(set(_point(p) for p in points))
    ids, pivots = _affine_basis(pts)
    d = len(ids)
    if d == 0:
        return _Hull(pts, 0, pivots, 1, None, None, None)
    # the reduced basis of the affine hull is the identity on the pivot
    # columns, so projecting onto them is an affine isomorphism (the identity
    # when d = m); so is scaling by L (d + 1), L the common denominator, which
    # makes the coordinates integers divisible by d + 1
    cols = sorted(pivots)
    scale = lcm(*(p[c].denominator for p in pts for c in cols)) * (d + 1)
    coords = [tuple(p[c].numerator * (scale // p[c].denominator) for c in cols) for p in pts]
    facets, interior = _hull_incremental(coords, [0] + ids)
    return _Hull(pts, d, pivots, scale, coords, facets, interior)


def convex_hull(points) -> Polytope:
    """Minimal vertex set of the convex hull of the given rational points.

    The vertices are the points where the normals of the facets through them
    have full rank; neither scaling nor repeating a normal changes that rank.
    """
    points = list(points)
    if not points:
        raise ValueError("convex hull of an empty point set")
    m = len(points[0])
    if not 1 <= m <= MAX_AMBIENT_DIM:
        raise ValueError(f"ambient dimension must be in [1, {MAX_AMBIENT_DIM}], got {m}")
    if any(len(p) != m for p in points):
        raise ValueError(f"every point must have length {m}")
    h = _hull_structure(points)
    if h.dim == 0:
        return Polytope(m, (h.pts[0],), 0)
    verts = []
    for v in sorted({i for ids, _, _ in h.facets.values() for i in ids}):
        normals = [
            normal
            for _, normal, offset in h.facets.values()
            if sum(map(mul, normal, h.coords[v])) == offset
        ]
        if exact.rank_of_rows(normals) == h.dim:
            verts.append(h.pts[v])
    return Polytope(m, tuple(sorted(verts)), h.dim)


def _volume_of_points(points, m) -> Fraction:
    """Exact volume of conv(points) in R^m; 0 when lower-dimensional.

    The hull is the union of the cones from its interior point c over the
    facets.  A facet's normal n is the unnormalized cofactor vector of its
    points p_i (see _facet_plane), so expanding det(p_i - c) along its first
    row gives |det(p_i - c)| = offset - n . c, and the cone has volume
    (offset - n . c) / m!.  A rescaled normal would break this.  The hull's
    coordinates are the points times its scale, so the sum is divided by
    scale^m as well.
    """
    h = _hull_structure(points)
    if h.dim < m:
        return Fraction(0)
    total = sum(offset - sum(map(mul, normal, h.interior))
                for _, normal, offset in h.facets.values())
    return Fraction(total, h.scale**m * factorial(m))


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
    all_sum = list(_minkowski_points([P.vertices for P in bodies], ones, m))
    if len(_affine_basis(all_sum)[0]) < m:
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
        h = _hull_structure(acc)
        if h.dim == m + 1:
            # hull ran in scaled ambient m+1 coordinates, so normals live in
            # R^{m+1}; one lower FACE may be tiled by several coplanar
            # simplicial facets, so dedupe by the supporting hyperplane, taken
            # in the points' own coordinates: normal . x = offset / scale
            seen = {}
            for _, normal, offset in h.facets.values():
                if normal[m] < 0:
                    plane = normal + (Fraction(offset, h.scale),)
                    seen.setdefault(exact.primitive_vector(plane), normal)
            normals = [seen[key] for key in sorted(seen)]
        else:
            # lifted sum is flat (dim == m: every lift of a sum of segments is);
            # the lower hull is the whole polytope and the subdivision is trivial
            rows = [exact.primitive_vector(r) for r in h.pivots.values()]
            normal = _cofactor_normal(rows, m + 1)
            if normal[m] == 0:
                raise AssertionError("flat lifted sum cannot be vertical")
            if normal[m] > 0:
                normal = tuple(-x for x in normal)
            normals = [normal]
        cells = _cells_from_lower_normals(normals, lifted_sets, m, s)
        if cells is None:
            continue
        total = sum(cell.cell_volume for cell in cells if cell.dims == tuple(ks))
        mv = Fraction(prod(map(factorial, ks)) * total, factorial(m))
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
            vals = [sum(map(mul, normal, v + (w,))) for v, w in lifted]
            mx = max(vals)
            support = [lifted[i][0] for i in range(len(lifted)) if vals[i] == mx]
            parts.append(convex_hull(support))
        dims = tuple(p.dim for p in parts)
        counts = tuple(len(p.vertices) for p in parts)
        if sum(dims) != m or sum(counts) - s != m:
            return None  # not a fine subdivision; lift was degenerate
        cells.append(MixedCell(parts=tuple(parts), dims=dims, vertex_counts=counts))
    return cells
