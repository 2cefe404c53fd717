"""Star-shaped polytope geometry.

Shapes are simple polygons (2D) or closed, connected triangulated polyhedra
(3D), each star-shaped about its centre: construction certifies the centre
(``certify_star_centre``) and fails with ``CertificationFailure`` if it is
not a non-tangential star centre (rays from it meet the boundary once, at
angles bounded away from zero).  Every shape carries that certificate.  The
module provides membership classification and the ray-to-boundary
projection psi, both read off the one crossing of the ray from the centre
through x (``_crossing``: on a polygon a scan of its edges, on a polyhedron
a scan of cone frames precomputed per surface triangle; a box has its own
closed form), and the local Lipschitz constants of psi that follow from the
certificate.

Polyhedral surfaces are oriented outward at construction, so the star test
is one exact sign per boundary simplex: the signed area of (a, v_i, v_i+1)
in 2D, the signed volume of (a, triangle) in 3D.  ``_det3_signs`` decides
each such sign in floats where Shewchuk's orient3d error bound certifies
it, and only the determinants inside that bound (zero ones among them) in
``fractions.Fraction``; the boundary-map validation of ``star_extend``
takes its orientations from it too, and the 2D test (``_area_signs``) is
the same filter on Python floats.  The vertex term of the certificate
runs all vertices of a shape through each of its kernels in one stacked
call, and a polyhedron takes the normals, plane coordinates and edge
lengths of all its facets from one stacked pass (``_facet_coordinates``).

All shapes are immutable after construction; every operation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np


class GeometryError(ValueError):
    """Malformed shape or precondition violation."""


class CertificationFailure(GeometryError):
    """Star-centre certification failed (angle or visibility)."""


# Relative tolerance for boundary classification, scaled by shape diameter.
TAU_GEOM = 1e-12
# Certification fails below this angle (radians).
THETA_MIN = 1e-3


@dataclass(frozen=True)
class Certificate:
    """Non-tangentiality certificate: every short boundary chord at w makes
    an acute angle > theta with the ray centre->w, for chords shorter than
    eps.  Both come from finitely many exact or closed-form terms over the
    vertices, edges and facets of the shape (``certify_star_centre``)."""

    theta: float
    eps: float

    def __post_init__(self):
        if not (0.0 < self.theta < math.pi / 4):
            raise GeometryError(f"certificate theta out of range: {self.theta}")
        if self.eps <= 0.0:
            raise GeometryError("certificate eps must be positive")


@dataclass(frozen=True)
class BoundaryHit:
    point: np.ndarray
    facet: int
    t: float


@dataclass(frozen=True)
class Location:
    kind: str          # "interior" | "boundary" | "exterior"
    facet: Optional[int] = None


def _as_array(x, dim):
    a = np.asarray(x, dtype=float)
    if a.shape != (dim,):
        raise GeometryError(f"expected a {dim}-vector, got shape {a.shape}")
    if not all(map(math.isfinite, a.tolist())):
        raise GeometryError("non-finite coordinates are not admitted")
    return a


class StarShape:
    """A polygon (dim 2) or triangulated polyhedron (dim 3) with a certified
    star centre.

    2D: ``vertices`` is the boundary loop in order; facet i is the edge from
    vertex i to vertex i+1.
    3D: ``vertices`` is a vertex pool, ``facet_polys`` lists each planar facet
    as an ordered index loop, and ``triangles`` triangulates the surface with
    ``tri_facet`` recording which facet each triangle came from.

    Construction ends with ``certify_star_centre(self, centre)`` and keeps
    its result as ``certificate``, so a shape whose centre is not a
    non-tangential star centre is never built: it raises
    ``CertificationFailure``.
    """

    def __init__(self, dim, vertices, centre, facet_polys=None, box=None):
        self.dim = int(dim)
        self.vertices = np.asarray(vertices, dtype=float)
        if not np.all(np.isfinite(self.vertices)):
            raise GeometryError("non-finite vertex coordinates")
        self.centre = _as_array(centre, self.dim)
        self.box = box  # (lo, hi) arrays for axis-aligned cuboids, else None

        mins = self.vertices.min(axis=0)
        maxs = self.vertices.max(axis=0)
        self.diameter = float(np.linalg.norm(maxs - mins))
        if self.diameter <= 0.0:
            raise GeometryError("degenerate shape (zero diameter)")
        self.tol = TAU_GEOM * self.diameter

        if self.dim == 2:
            self._init_polygon()
        elif self.dim == 3:
            self._init_polyhedron(facet_polys)
        else:
            raise GeometryError("only dimensions 2 and 3 are supported")
        self.certificate = certify_star_centre(self, self.centre)

    # -- construction ------------------------------------------------------

    def _init_polygon(self):
        n = len(self.vertices)
        if n < 3:
            raise GeometryError("polygon needs at least 3 vertices")
        self.facet_count = n
        self._loop = self.vertices.tolist()
        lengths = np.hypot(*zip(*[(x1 - x0, y1 - y0)
                                  for (x0, y0), (x1, y1) in _loop_edges(self._loop)]))
        if np.any(lengths <= self.tol):
            raise GeometryError("degenerate polygon edge")
        self._edge_len = lengths
        if _polygon_self_intersects(self._loop):
            raise GeometryError("polygon boundary is self-intersecting")
        self.min_feature = float(lengths.min())

    def _init_polyhedron(self, facet_polys):
        if facet_polys is None:
            raise GeometryError("3D shape requires facet polygons")
        self.facet_polys = [list(map(int, p)) for p in facet_polys]
        self.facet_count = len(self.facet_polys)
        if any(len(poly) < 3 for poly in self.facet_polys):
            raise GeometryError("facet with fewer than 3 vertices")
        self._facet_normal, plane, edge_lens = _facet_coordinates(
            self.vertices, self.facet_polys, self.tol * 10)
        tris = []
        tri_facet = []
        for fi, (poly, pts2) in enumerate(zip(self.facet_polys, plane)):
            for tri in _triangulate_planar(poly, pts2):
                tris.append(tri)
                tri_facet.append(fi)
        self.triangles = _orient_outward(self.vertices, tris)
        self.tri_facet = np.asarray(tri_facet, dtype=int)
        self._cones = _cone_frames(self.vertices[self.triangles] - self.centre,
                                   self.tri_facet)
        self.min_feature = float(edge_lens.min())

    # -- factories ---------------------------------------------------------

    @classmethod
    def polygon(cls, vertices, centre):
        return cls(2, vertices, centre)

    @classmethod
    def polyhedron(cls, vertices, facet_polys, centre):
        return cls(3, vertices, centre, facet_polys=facet_polys)

    @classmethod
    def cuboid(cls, lo, hi, centre=None):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if np.any(hi <= lo):
            raise GeometryError("cuboid needs lo < hi per axis")
        xs, ys, zs = zip(lo, hi)
        verts = np.array([[x, y, z] for x in xs for y in ys for z in zs])
        # index: bit2 = x (0 lo), bit1 = y, bit0 = z
        faces = [
            [0, 1, 3, 2],  # x = lo
            [4, 6, 7, 5],  # x = hi
            [0, 4, 5, 1],  # y = lo
            [2, 3, 7, 6],  # y = hi
            [0, 2, 6, 4],  # z = lo
            [1, 5, 7, 3],  # z = hi
        ]
        if centre is None:
            centre = 0.5 * (lo + hi)
        return cls(3, verts, centre, facet_polys=faces, box=(lo, hi))


# ---------------------------------------------------------------------------
# basic polygon helpers

def _facet_coordinates(vertices, polys, tol):
    """(normals, plane, edge_lens) of the facets ``polys`` (vertex index
    loops) of a polyhedron, all facets in one stacked pass: each facet's
    unit Newell normal n, its vertices' coordinates in the frame (e1,
    n x e1) at its first vertex, e1 along its first edge, as lists of float
    pairs, and the length of every facet edge.  Every dot product and norm
    is numpy's (``_dots``).  Raises GeometryError if a facet has a zero
    normal, or if one with more than three vertices leaves its plane by
    more than max(tol, 1e-9 max |x|) over its vertices x."""
    newell = []
    rows = vertices.tolist()
    for poly in polys:
        n0 = n1 = n2 = 0.0
        for p, q in _loop_edges([rows[i] for i in poly]):
            n0 += (p[1] - q[1]) * (p[2] + q[2])
            n1 += (p[2] - q[2]) * (p[0] + q[0])
            n2 += (p[0] - q[0]) * (p[1] + q[1])
        newell.append((n0, n1, n2))
    newell = np.array(newell)
    norm = np.sqrt(_dots(newell, newell))
    if not norm.all():
        raise GeometryError("degenerate facet (zero normal)")
    normals = newell / norm[:, None]
    sizes = np.array([len(poly) for poly in polys])
    starts = np.cumsum(sizes) - sizes
    at = np.repeat(np.arange(len(polys)), sizes)
    pts = vertices[np.concatenate(polys)]
    origin = vertices[[poly[0] for poly in polys]]
    e1 = vertices[[poly[1] for poly in polys]] - origin
    e1 = e1 / np.sqrt(_dots(e1, e1))[:, None]
    rel = pts - origin[at]
    u, v, off = (_dots(rel, e[at]) for e in (e1, np.cross(normals, e1), normals))
    scale = np.maximum.reduceat(np.abs(pts).max(axis=1), starts)
    flat = np.maximum.reduceat(np.abs(off), starts) <= np.maximum(tol, 1e-9 * scale)
    warped = np.flatnonzero(~flat & (sizes > 3))
    if warped.size:
        raise GeometryError(f"facet {warped[0]} is not planar")
    uv = np.column_stack([u, v]).tolist()
    plane = [uv[k:k + n] for k, n in zip(starts.tolist(), sizes.tolist())]
    prev = vertices[[poly[i - 1] for poly in polys for i in range(len(poly))]]
    return normals, plane, np.sqrt(_dots(pts - prev, pts - prev))


def _triangulate_planar(poly, pts2):
    """Ear-clip a planar facet given as a vertex-index loop and its
    vertices' coordinates pts2 in the facet plane."""
    idx = list(range(len(poly)))
    ccw = sum(p[0] * q[1] - q[0] * p[1] for p, q in _loop_edges(pts2)) > 0
    tris = []
    while len(idx) > 3:
        for k in range(len(idx)):
            i0, i1, i2 = idx[k - 1], idx[k], idx[(k + 1) % len(idx)]
            a, b, c = pts2[i0], pts2[i1], pts2[i2]
            cross = (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])
            if (cross > 0) != ccw or abs(cross) < 1e-14:
                continue
            if any(_point_in_tri2(pts2[j], a, b, c) for j in idx
                   if j not in (i0, i1, i2)):
                continue
            tris.append((poly[i0], poly[i1], poly[i2]))
            idx.pop(k)
            break
        else:
            raise GeometryError("ear clipping failed (non-simple facet?)")
    tris.append((poly[idx[0]], poly[idx[1]], poly[idx[2]]))
    return tris


def _point_in_tri2(p, a, b, c):
    d1 = (p[0] - a[0]) * (b[1] - a[1]) - (b[0] - a[0]) * (p[1] - a[1])
    d2 = (p[0] - b[0]) * (c[1] - b[1]) - (c[0] - b[0]) * (p[1] - b[1])
    d3 = (p[0] - c[0]) * (a[1] - c[1]) - (a[0] - c[0]) * (p[1] - c[1])
    has_neg = (d1 < 0) or (d2 < 0) or (d3 < 0)
    has_pos = (d1 > 0) or (d2 > 0) or (d3 > 0)
    return not (has_neg and has_pos)


def _loop_edges(loop):
    """The (start, end) vertex pairs of the edges of a vertex loop."""
    return zip(loop, loop[1:] + loop[:1])


def _polygon_self_intersects(v):
    """True if two non-adjacent edges of the vertex loop v (a list of float
    pairs) cross."""
    n = len(v)
    for i in range(n):
        a0, a1 = v[i], v[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            b0, b1 = v[j], v[(j + 1) % n]
            if _segments_cross(a0, a1, b0, b1):
                return True
    return False


def _segments_cross(a0, a1, b0, b1):
    def orient(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (r[0] - p[0]) * (q[1] - p[1])
    d1 = orient(a0, a1, b0)
    d2 = orient(a0, a1, b1)
    d3 = orient(b0, b1, a0)
    d4 = orient(b0, b1, a1)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and \
        d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0


def _edges(t):
    return ((t[0], t[1]), (t[1], t[2]), (t[2], t[0]))


def _check_watertight(triangles):
    """Each directed edge occurs once and its reverse once: the surface is
    closed and consistently oriented."""
    for t in triangles:
        if len(set(t)) < 3:
            raise GeometryError(f"degenerate triangle {t}")
    directed = [e for t in triangles for e in _edges(t)]
    if len(set(directed)) < len(directed) or \
            set(directed) != {(v, u) for u, v in directed}:
        raise GeometryError("surface is not closed or not orientable")


def _orient_outward(vertices, tris):
    """The triangles turned to one orientation with outward normals (a
    positive enclosed volume), flipping by swapping the last two vertices;
    raises if the surface is not connected (the star test's winding
    argument needs one component), not closed or not orientable."""
    tris = [list(map(int, t)) for t in tris]
    by_edge = {}
    for k, t in enumerate(tris):
        for e in _edges(t):
            by_edge.setdefault(frozenset(e), []).append(k)
    todo = set(range(1, len(tris)))
    stack = [0]
    while stack:
        for u, v in _edges(tris[stack.pop()]):
            for k in by_edge[frozenset((u, v))]:
                if k in todo:
                    todo.discard(k)
                    if (u, v) in _edges(tris[k]):    # must run v -> u
                        tris[k][1:] = tris[k][:0:-1]
                    stack.append(k)
    if todo:
        raise GeometryError("surface is not connected")
    _check_watertight(tris)
    p = vertices[tris]
    if np.einsum("ij,ij->", p[:, 0], np.cross(p[:, 1], p[:, 2])) < 0.0:
        tris = [[a, c, b] for a, b, c in tris]
    return np.asarray(tris, dtype=int)


# ---------------------------------------------------------------------------
# classification and the ray projection psi

def locate(shape: StarShape, x) -> Location:
    """Classify x as interior / boundary(facet) / exterior of the shape.

    A box decides by its closed form, boundary within tol of a face.  Other
    shapes read the class off the crossing of the ray from the centre c
    through x that psi uses (``_crossing``): boundary where it lies within
    4 tol of x, interior where it lies beyond x or x lies within tol of c,
    and exterior otherwise."""
    x = _as_array(x, shape.dim)
    if shape.box is not None:
        lo, hi = shape.box
        d_out = max(np.max(lo - x), np.max(x - hi))
        if abs(d_out) <= shape.tol:
            gaps = np.stack([x - lo, hi - x], axis=1).ravel()
            return Location("boundary", int(np.argmin(gaps)))
        return Location("interior" if d_out < 0 else "exterior")
    c, r, d = _centre_ray(shape, x)
    if d <= shape.tol:
        return Location("interior")
    hit = _crossing(shape, c, r, d)
    if hit is None:
        return Location("exterior")
    return Location("boundary", hit[1]) if hit[0] == 1.0 else Location("interior")


def psi(shape: StarShape, x) -> BoundaryHit:
    """Boundary point hit by the ray from the star centre through x.

    Defined on closure(shape) minus the centre: the crossing at or beyond
    x, so boundary points (as ``locate`` classifies them) map to
    themselves with t = 1.  Ties on shared facet boundaries go to the lowest
    facet id.  The centre and exterior points raise GeometryError, exactly
    where ``locate`` says "exterior".  A box takes its exit facet in closed
    form; other shapes take the crossing from ``_crossing``, in Python
    floats.  The slab charts' ``AffineCellTable`` evaluates and inverts
    them; its inverse takes the codomain facet from psi.
    """
    x = _as_array(x, shape.dim)
    c, r, d = _centre_ray(shape, x)
    if d <= shape.tol:
        raise GeometryError("psi is undefined at the star centre")
    if shape.box is not None:
        if locate(shape, x).kind == "exterior":
            raise GeometryError("psi called on an exterior point")
        lo, hi = shape.box
        facet, t = _ray_box_scalar(*c, lo.tolist(), hi.tolist(), *x.tolist())
        return BoundaryHit(point=np.clip(shape.centre + t * (x - shape.centre), lo, hi),
                           facet=facet, t=t)
    hit = _crossing(shape, c, r, d)
    if hit is None:
        raise GeometryError("psi called on an exterior point")
    t, facet = hit
    return BoundaryHit(point=np.array([u + t * v for u, v in zip(c, r)]),
                       facet=facet, t=t)


def _centre_ray(shape, x):
    """(c, r, |r|) in Python floats: the centre c and r = x - c."""
    c = shape.centre.tolist()
    r = [u - v for u, v in zip(x.tolist(), c)]
    return c, r, math.hypot(*r)


def _cone_frames(rel, tri_facet):
    """[(frame, facet)]: for each surface triangle whose vertices rel[i]
    (relative to the centre) span a cone, the rows of the inverse of the
    matrix with columns rel[i] as a 9-tuple of floats, so that
    lambda = frame (x - centre) writes x - centre in the cone's
    generators."""
    m = np.swapaxes(rel, 1, 2)
    det = np.linalg.det(m)
    size = np.prod(np.linalg.norm(rel, axis=2), axis=1)
    keep = np.abs(det) > 1e-12 * size
    frames = np.linalg.inv(m[keep]).reshape(-1, 9).tolist()
    return [(tuple(f), int(k)) for f, k in zip(frames, tri_facet[keep])]


def _crossing(shape, c, r, d):
    """(t, facet) of the boundary crossing c + t r of the ray from the centre
    c along r = x - c, |r| = d > tol, or None where x is exterior.

    A polygon scans its edges (``_psi_polygon_scalar``).  A polyhedron scans
    the cone frames of its surface triangles: with lambda = frame r >= 0
    (barycentric slack 1e-9, as a fraction of sum(lambda)) the ray crosses
    the triangle at t = 1 / sum(lambda).  Of the crossings at or beyond x
    (within 4 tol) the nearest wins; the triangles come in facet order, so
    a later crossing displaces it only if nearer by more than a relative
    1e-12 plus tol, and ties go to the lowest facet.  The shape is star
    about c, so the ray crosses the boundary once: t is 1 where the crossing
    lies within 4 tol of x, larger where x is interior, and the crossing is
    missing or nearer than that where x is exterior."""
    tol = shape.tol
    if shape.dim == 2:
        hit = _psi_polygon_scalar(shape._loop, c[0], c[1], r[0], r[1])
        if hit is None:
            return None
        facet, _, t = hit
    else:
        rx, ry, rz = r
        s_max = d / (d - 4 * tol) if d > 4 * tol else math.inf
        t, facet = math.inf, -1
        for (m0, m1, m2, m3, m4, m5, m6, m7, m8), k in shape._cones:
            l0 = m0 * rx + m1 * ry + m2 * rz
            l1 = m3 * rx + m4 * ry + m5 * rz
            l2 = m6 * rx + m7 * ry + m8 * rz
            s = l0 + l1 + l2
            slack = -1e-9 * s
            if 0.0 < s <= s_max and l0 >= slack and l1 >= slack and l2 >= slack \
                    and 1.0 / s < t * (1 - 1e-12) - tol / d:
                t, facet = 1.0 / s, k
        if facet < 0:
            return None
    if abs(t - 1.0) * d <= 4 * tol:
        return 1.0, facet
    return (t, facet) if t > 1.0 else None


def _psi_polygon_scalar(verts, ax, ay, rx, ry):
    """The ray from (ax, ay) along (rx, ry) against the polygon's edges:
    (edge, s, t) of its first crossing with t >= 1 - 1e-9, or None; ties
    within 1e-9 go to the lowest edge.

    verts is a list of (x, y) floats in loop order.  t is the ray parameter
    (>= 1 for points in the closed region), s the position along the edge.
    """
    n = len(verts)
    best_t = math.inf
    best = None
    for i in range(n):
        px, py = verts[i]
        qx, qy = verts[(i + 1) % n]
        ex = qx - px
        ey = qy - py
        den = rx * ey - ry * ex
        if den == 0.0:
            continue
        dx = px - ax
        dy = py - ay
        t = (dx * ey - dy * ex) / den
        s = (dx * ry - dy * rx) / den
        if -1e-9 <= s <= 1 + 1e-9 and t >= 1 - 1e-9 and t < best_t - 1e-9:
            best_t = t
            best = (i, s)
    if best is None:
        return None
    i, s = best
    s = 0.0 if s < 0.0 else (1.0 if s > 1.0 else s)
    return i, s, best_t


def _ray_box_scalar(ax, ay, az, lo, hi, x, y, z):
    """Exit facet of the ray a->p from an axis-aligned box; (facet, t).

    Facet 2k is the face x_k = lo[k], facet 2k+1 the face x_k = hi[k].  An
    exit time within a relative 1e-12 of an earlier axis's does not displace
    it, so edges and corners go to the lowest axis.  t is at least 1."""
    best_t = math.inf
    best_f = -1
    d = x - ax
    if d > 1e-300:
        best_t, best_f = (hi[0] - ax) / d, 1
    elif d < -1e-300:
        best_t, best_f = (lo[0] - ax) / d, 0
    d = y - ay
    if d > 1e-300:
        t = (hi[1] - ay) / d
        if t < best_t * (1 - 1e-12):
            best_t, best_f = t, 3
    elif d < -1e-300:
        t = (lo[1] - ay) / d
        if t < best_t * (1 - 1e-12):
            best_t, best_f = t, 2
    d = z - az
    if d > 1e-300:
        t = (hi[2] - az) / d
        if t < best_t * (1 - 1e-12):
            best_t, best_f = t, 5
    elif d < -1e-300:
        t = (lo[2] - az) / d
        if t < best_t * (1 - 1e-12):
            best_t, best_f = t, 4
    if best_t < 1.0:
        best_t = 1.0
    return best_f, best_t


# ---------------------------------------------------------------------------
# star-centre certification

def _line_angles(u, d):
    """Acute angles between the lines spanned by the rows of u and d
    (pi/2 where either row is zero); u and d broadcast against each other."""
    den = (np.sqrt(np.einsum("...j,...j->...", u, u))
           * np.sqrt(np.einsum("...j,...j->...", d, d)))
    nonzero = den > 0.0
    c = np.abs(np.einsum("...j,...j->...", u, d)) / np.where(nonzero, den, 1.0)
    return np.where(nonzero, np.arccos(np.minimum(1.0, c)), math.pi / 2)


def _dots(x, y):
    """Row-wise dot products of two stacks of 3-vectors, each as numpy's dot
    of one pair of vectors computes it."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def _line_plane_angles(u, n):
    """Angles between the lines spanned by the rows of u and the planes with
    unit normals the rows of n; each equals the minimum line-line angle over
    directions in that plane."""
    s = np.abs(_dots(n, u)) / np.sqrt(_dots(u, u))
    return np.arcsin(np.minimum(1.0, s))


def _sector_min_angles(u, g1, g2):
    """Minimum line angle between the row u[k] and the directions of the
    planar sector spanned by the rows g1[k], g2[k] (non-negative
    combinations)."""
    best = np.minimum(_line_angles(u, g1), _line_angles(u, g2))
    n = np.cross(g1, g2)
    nn = np.sqrt(np.einsum("ij,ij->i", n, n))
    flat = nn < 1e-14
    n = n / np.where(flat, 1.0, nn)[:, None]
    # the projection w of u onto the sector's plane, or -w, inside the sector
    w = u - _dots(n, u)[:, None] * n
    s1 = np.einsum("ij,ij->i", np.cross(g1, w), n)
    s2 = np.einsum("ij,ij->i", np.cross(w, g2), n)
    inside = (((s1 >= -1e-12) & (s2 >= -1e-12))
              | ((s1 <= 1e-12) & (s2 <= 1e-12)))
    take = ~flat & (np.sqrt(np.einsum("ij,ij->i", w, w)) > 1e-14) & inside
    return np.where(take, np.minimum(best, _line_plane_angles(u, n)), best)


def _facet_vertex_cones(shape):
    """Generators of the direction cone of every facet of a 3D shape at each
    of its corners (directions d with q + eps*d inside the facet polygon at
    the corner q), split into convex sectors.

    Returns (corner_vertex, corner_facet, gens, gen_corner): the corners in
    facet order, each facet's in loop order, and the generators of all
    corners in that order, each with the index of its corner.  A facet loop
    runs counter-clockwise about its Newell normal n (``_facet_normal``), so
    in the facet frame (e1, n x e1), e1 along its first edge, the cone at a
    corner runs counter-clockwise from the edge to the next vertex to the
    edge to the previous one; its arc is cut into ceil(width / 1.5) equal
    sectors."""
    v = shape.vertices
    corner_facet, back, corner_vertex, ahead = np.array(
        [(f, p[k - 1], p[k], p[(k + 1) % len(p)])
         for f, p in enumerate(shape.facet_polys) for k in range(len(p))]).T
    e1 = v[[p[1] for p in shape.facet_polys]] - v[[p[0] for p in shape.facet_polys]]
    e1 = (e1 / np.sqrt(_dots(e1, e1))[:, None])[corner_facet]
    e2 = np.cross(shape._facet_normal[corner_facet], e1)

    def angle(to):
        d = v[to] - v[corner_vertex]
        return np.array(list(map(math.atan2, _dots(d, e2).tolist(), _dots(d, e1).tolist())))

    start, back = angle(ahead), angle(back)
    width = (2 * math.pi - (start - back) % (2 * math.pi)) % (2 * math.pi)
    pieces = np.maximum(1, np.ceil(width / 1.5)).astype(int).tolist()
    gen_corner = np.array([c for c, n in enumerate(pieces) for _ in range(n + 1)])
    phi = np.array([s + w * j / n for s, w, n in zip(start.tolist(), width.tolist(), pieces)
                    for j in range(n + 1)])
    gens = np.cos(phi)[:, None] * e1[gen_corner] + np.sin(phi)[:, None] * e2[gen_corner]
    return corner_vertex, corner_facet, gens, gen_corner


# the four generator triples of a four-generator cone
_CONE_TRIPLES = np.array([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def _cones_contain_line(cones, u, tol=1e-9):
    """Per cone: True if u[k] or -u[k] lies in the convex cone in R^3 spanned
    by the four generators cones[k] (``cones`` has shape (K, 4, 3)).  Every
    generator triple with |det| >= 1e-12 is solved for the unit vector along
    u[k] in one stacked call; the coefficients of -u[k] are exactly the
    negated ones."""
    m = np.swapaxes(cones[:, _CONE_TRIPLES, :], -1, -2).reshape(-1, 3, 3)
    un = u / np.sqrt(np.einsum("ij,ij->i", u, u))[:, None]
    keep = np.abs(np.linalg.det(m)) >= 1e-12
    lam = np.linalg.solve(m[keep], np.repeat(un, 4, axis=0)[keep][..., None])[..., 0]
    hit = np.all(lam >= -tol, axis=1) | np.all(lam <= tol, axis=1)
    return np.bincount(np.flatnonzero(keep)[hit] // 4, minlength=len(cones)) > 0


def certify_star_centre(shape: StarShape, a) -> Certificate:
    """Certify that ``a`` is a non-tangential star centre of the shape.

    ``StarShape`` runs it on its own centre at construction; it also takes
    any other point a of a built shape.  Star test (``_star_test``, exact):
    every boundary simplex with apex a is positively oriented.  A simple
    polygon, or a closed, connected, outward-oriented surface, then winds
    once about a, so a is interior and every ray from a meets the boundary
    exactly once; an exterior a (winding zero) or a boundary a (a simplex
    of zero volume) fails it.  theta_obs is the
    least of the vertex term (``_vertex_angle``, exact) and the plane term
    (``_plane_angle``): a chord inside a facet makes at least the angle
    asin(h / |w - a|) with the ray at w, h the distance from a to the facet
    plane, least at the triangle's (2D: edge's) vertex farthest from a.  The
    edge term adds nothing: along an edge the ray direction moves affinely,
    chords across the edge point into the wedge of the two incident
    half-planes, and with a strictly inside both facet planes no ray enters
    that wedge, so the least angle to it is a plane term.  A polygon's
    vertex is such an edge of its normal section, so in 2D the vertex term
    is the plane term of its two edges and no vertex is tangential.
    Returns half of theta_obs and eps = min(min_feature / 2, diameter / 4),
    or raises CertificationFailure: at the first simplex failing the star
    test, then at the first tangential vertex, then below 2 THETA_MIN.
    """
    a = _as_array(a, shape.dim)
    _star_test(shape, a)
    theta_obs = _plane_angle(shape, a)
    if shape.dim == 3:
        theta_obs = min(_vertex_angle(shape, a), theta_obs)
    eps = min(0.5 * shape.min_feature, 0.25 * shape.diameter)
    theta = theta_obs / 2
    if theta < THETA_MIN:
        raise CertificationFailure(f"observed angle too small: {theta_obs:.2e}")
    theta = min(theta, math.pi / 4 - 1e-9)
    return Certificate(theta=theta, eps=float(eps))


def _det3(u, v, w):
    return (u[0] * (v[1] * w[2] - v[2] * w[1]) - u[1] * (v[0] * w[2] - v[2] * w[0])
            + u[2] * (v[0] * w[1] - v[1] * w[0]))


# Shewchuk's orient3d filter (DCG 18 (1997)), eps = 2^-53: a determinant of
# three float differences, evaluated in the order of ``_det3_signs``, has the
# sign of the exact one where it exceeds this multiple of its permanent
_ORIENT3D_BOUND = (7.0 + 56.0 * 2.0 ** -53) * 2.0 ** -53
# differences in this range keep every product of three normal and finite,
# which the bound assumes
_SAFE_RANGE = (2.0 ** -340, 2.0 ** 340)


def _det3_signs(p, q):
    """(signs, values) of det(p[k] - q[k]) over a stack of 3x3 float
    matrices (p and q broadcast to shape (N, 3, 3); the rows of p[k] - q[k]
    are the determinant's rows).  A row's float determinant decides its sign
    where it exceeds Shewchuk's bound (7 + 56 eps) eps times the permanent
    and every nonzero difference lies in ``_SAFE_RANGE``; the other rows,
    zero determinants among them, are evaluated exactly in Fraction on the
    float coordinates.  Every sign is exact; the values are the float
    determinants, within the bound of the exact ones where the filter
    decides."""
    p, q = np.broadcast_arrays(p, q)
    with np.errstate(over="ignore", invalid="ignore"):   # such rows are unsafe
        d = p - q
        (ax, ay, az), (bx, by, bz), (cx, cy, cz) = d.transpose(1, 2, 0)
        bxcy, cxby = bx * cy, cx * by
        cxay, axcy = cx * ay, ax * cy
        axby, bxay = ax * by, bx * ay
        det = az * (bxcy - cxby) + bz * (cxay - axcy) + cz * (axby - bxay)
        permanent = ((abs(bxcy) + abs(cxby)) * abs(az) + (abs(cxay) + abs(axcy)) * abs(bz)
                     + (abs(axby) + abs(bxay)) * abs(cz))
    size = abs(d).reshape(-1, 9)
    lo, hi = _SAFE_RANGE
    safe = (np.where(size == 0.0, lo, size).min(axis=1) >= lo) & (size.max(axis=1) <= hi)
    sure = safe & (np.abs(det) > _ORIENT3D_BOUND * permanent)
    signs = np.where(sure, np.sign(det), 0.0).astype(int)
    for k in np.flatnonzero(~sure):
        exact = _det3(*[[Fraction(x) - Fraction(y) for x, y in zip(pr, qr)]
                        for pr, qr in zip(p[k].tolist(), q[k].tolist())])
        signs[k] = (exact > 0) - (exact < 0)
    return signs, det


def _area_signs(loop, ax, ay):
    """The exact signs of the areas of the triangles (a, v_i, v_i+1) over
    the edges of a vertex loop, by the filter of ``_det3_signs``: the
    determinant with the third row e3 evaluates there, in its order, to
    l - r with permanent |l| + |r| (l = u_x v_y, r = v_x u_y, u = v_i - a,
    v = v_i+1 - a), so the same bound decides its sign in floats; the rest
    are taken in Fraction."""
    lo, hi = _SAFE_RANGE
    signs = []
    for (x0, y0), (x1, y1) in _loop_edges(loop):
        d = (x0 - ax, y0 - ay, x1 - ax, y1 - ay)
        left, right = d[0] * d[3], d[2] * d[1]
        det = left - right
        if not (abs(det) > _ORIENT3D_BOUND * (abs(left) + abs(right))
                and all(lo <= abs(c) <= hi for c in d if c)):
            det = ((Fraction(x0) - Fraction(ax)) * (Fraction(y1) - Fraction(ay))
                   - (Fraction(x1) - Fraction(ax)) * (Fraction(y0) - Fraction(ay)))
        signs.append((det > 0) - (det < 0))
    return signs


def _star_test(shape, a):
    """Raise CertificationFailure naming the first edge (2D) or triangle (3D)
    whose simplex with apex a is not positively oriented: in 2D relative to
    the polygon's own orientation, in 3D to the outward one.

    The signs are exact: ``_det3_signs`` (3D) and ``_area_signs`` (2D)
    decide each sign that a float filter certifies and take the rest in
    Fraction on the float coordinates.  The polygon's orientation is the
    sign of the exact sum of its simplices' areas: where the signs all
    agree they give it, else that sum is taken in Fraction."""
    if shape.dim == 2:
        v = shape._loop
        simplices = [[i, (i + 1) % len(v)] for i in range(len(v))]
        signs = _area_signs(v, *a.tolist())
        if min(signs) == max(signs) != 0:
            flip = signs[0] < 0
        else:       # twice the area, exactly
            flip = sum(Fraction(x0) * Fraction(y1) - Fraction(x1) * Fraction(y0)
                       for (x0, y0), (x1, y1) in _loop_edges(v)) < 0
        signs = [-s for s in signs] if flip else signs
        what = "edge"
    else:
        simplices = shape.triangles
        signs = _det3_signs(shape.vertices[simplices], a)[0].tolist()
        what = "triangle"
    for k, sign in enumerate(signs):
        if sign <= 0:
            raise CertificationFailure(
                f"star test fails at {what} {k} {shape.vertices[simplices[k]].tolist()}: "
                f"it does not face the centre {a.tolist()}")


def _plane_angle(shape, a):
    """Least angle between the centre ray at a boundary point w and the
    facet (2D: edge) through w: asin(h / max |v - a|) over the vertices v
    of each triangle (2D: edge), h the distance from a to its plane."""
    if shape.dim == 2:
        p0 = shape.vertices - a
        p1 = np.concatenate((p0[1:], p0[:1]))
        h = np.abs(p0[:, 0] * p1[:, 1] - p0[:, 1] * p1[:, 0]) / shape._edge_len
        r = np.hypot(p0[:, 0], p0[:, 1])
        far = np.maximum(r, np.concatenate((r[1:], r[:1])))
    else:
        p = shape.vertices[shape.triangles] - a
        h = np.abs(np.einsum("ij,ij->i", shape._facet_normal[shape.tri_facet], p[:, 0]))
        far = np.linalg.norm(p, axis=2).max(axis=1)
    return float(np.arcsin(np.minimum(1.0, h / far)).min())


def _vertex_angle(shape, a):
    """The vertex term of a polyhedron: the minimum angle between the centre
    ray and the chord directions at every vertex; raises on a tangential
    chord direction.  The chord-direction limit set at a vertex q is the
    union over ordered pairs of incident facets (F, F') of the cones
    cone(F' at q) - cone(F at q); same-facet chords span the facet plane.

    All vertices go through each kernel in one stacked call, each row with
    its own u = q - a.  The vertices come in the order of their first
    corner; the failure raised is that of the first vertex that fails, for
    the first reason that applies: u within tol of zero, a tangential chord
    direction, or the least angle so far below 2 THETA_MIN."""
    corner_vertex, corner_facet, gens, gen_corner = _facet_vertex_cones(shape)
    u = shape.vertices - a
    near = np.sqrt(_dots(u, u)) <= shape.tol
    u[near] = 1.0       # a placeholder: those vertices fail before any angle
    vertex = corner_vertex[gen_corner]
    # the facet cones may be reflex; membership is tested per convex
    # sub-sector (consecutive generators of one corner), over the pairs of
    # sub-sectors of different corners at one vertex.  The limit set is
    # symmetric (cone(F) - cone(F') = -(cone(F') - cone(F))) and a line test
    # or a line angle does not see the sign, so each unordered pair of
    # corners is taken once
    sub = np.flatnonzero(gen_corner[:-1] == gen_corner[1:])
    jb, ia = np.nonzero((vertex[sub][:, None] == vertex[sub][None, :])
                        & (gen_corner[sub][:, None] < gen_corner[sub][None, :]))
    cones = np.stack([gens[sub[jb]], gens[sub[jb] + 1],
                      -gens[sub[ia]], -gens[sub[ia] + 1]], axis=1)
    at = vertex[sub[jb]]
    tangential = np.bincount(at[_cones_contain_line(cones, u[at])], minlength=len(u)) > 0
    ib, ia = np.nonzero((vertex[:, None] == vertex[None, :])
                        & (gen_corner[:, None] < gen_corner[None, :]))
    least = np.full(len(u), math.pi / 2)
    np.minimum.at(least, corner_vertex,
                  _line_plane_angles(u[corner_vertex], shape._facet_normal[corner_facet]))
    np.minimum.at(least, vertex[ib], _sector_min_angles(u[vertex[ib]], gens[ib], -gens[ia]))
    # the vertices in the order of their first corner
    order = corner_vertex[np.sort(np.unique(corner_vertex, return_index=True)[1])]
    so_far = np.minimum.accumulate(least[order])
    fails = np.flatnonzero(near[order] | tangential[order] | (so_far / 2 < THETA_MIN))
    if fails.size:
        k = fails[0]
        q = shape.vertices[order[k]]
        if near[order[k]]:
            raise CertificationFailure("centre coincides with a vertex")
        if tangential[order[k]]:
            raise CertificationFailure(f"tangential chord direction at vertex {q}")
        raise CertificationFailure(f"vertex angle too small at {q}: {so_far[k]:.2e}")
    return float(so_far[-1])


def local_lipschitz_constants(shape: StarShape):
    """(eta, T) such that psi is T/|xi - a|-Lipschitz on balls
    B(xi, eta*|xi - a|), from the shape's certificate."""
    cert = shape.certificate
    a = shape.centre
    max_r = float(np.max(np.linalg.norm(shape.vertices - a[None, :], axis=1)))
    s = math.sin(cert.theta / 2)
    eta = min(0.5, s / 4, cert.eps * s / (4 * max_r))
    T = 2.0 / s * max_r
    return eta, T
