"""Star-shaped polytope geometry.

Shapes are simple polygons (2D) or watertight triangulated polyhedra (3D)
that are star-shaped with respect to a designated centre.  The module
provides membership classification, the ray-to-boundary projection psi
(send x to the boundary point hit by the ray from the centre through x),
an exact certificate that a centre is a non-tangential star centre (rays
meet the boundary once, at angles bounded away from zero), and the local
Lipschitz constants of psi that follow from such a certificate.

Polyhedral surfaces are oriented outward at construction, so the star test
is one exact sign per boundary simplex: the signed area of (a, v_i, v_i+1)
in 2D, the signed volume of (a, triangle) in 3D, decided in
``fractions.Fraction``.

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
# Largest temporary of the batched surface-distance kernel, in float64
# elements.
BATCH_ELEMENTS = 400 * 400 * 3


def _row_chunks(rows, width):
    """Slices of ``rows`` point rows such that a (chunk, width) temporary
    stays within BATCH_ELEMENTS."""
    step = max(1, BATCH_ELEMENTS // max(1, width))
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


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
    if not np.all(np.isfinite(a)):
        raise GeometryError("non-finite coordinates are not admitted")
    return a


class StarShape:
    """A polygon (dim 2) or triangulated polyhedron (dim 3) with star centre.

    2D: ``vertices`` is the boundary loop in order; facet i is the edge from
    vertex i to vertex i+1.
    3D: ``vertices`` is a vertex pool, ``facet_polys`` lists each planar facet
    as an ordered index loop, and ``triangles`` triangulates the surface with
    ``tri_facet`` recording which facet each triangle came from.
    """

    def __init__(self, dim, vertices, centre, facet_polys=None, box=None):
        self.dim = int(dim)
        self.vertices = np.asarray(vertices, dtype=float)
        if not np.all(np.isfinite(self.vertices)):
            raise GeometryError("non-finite vertex coordinates")
        self.centre = _as_array(centre, self.dim)
        self.certificate: Optional[Certificate] = None
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

        if locate(self, self.centre).kind != "interior":
            raise GeometryError("star centre must be strictly interior")

    # -- construction ------------------------------------------------------

    def _init_polygon(self):
        v = self.vertices
        n = len(v)
        if n < 3:
            raise GeometryError("polygon needs at least 3 vertices")
        self.facet_count = n
        e = np.roll(v, -1, axis=0) - v
        lengths = np.hypot(e[:, 0], e[:, 1])
        if np.any(lengths <= self.tol):
            raise GeometryError("degenerate polygon edge")
        self._edge_len = lengths
        if _polygon_self_intersects(v):
            raise GeometryError("polygon boundary is self-intersecting")
        self.min_feature = float(lengths.min())

    def _init_polyhedron(self, facet_polys):
        if facet_polys is None:
            raise GeometryError("3D shape requires facet polygons")
        self.facet_polys = [list(map(int, p)) for p in facet_polys]
        self.facet_count = len(self.facet_polys)
        tris = []
        tri_facet = []
        for fi, poly in enumerate(self.facet_polys):
            if len(poly) < 3:
                raise GeometryError("facet with fewer than 3 vertices")
            if not _facet_is_planar(self.vertices[poly], self.tol * 10):
                raise GeometryError(f"facet {fi} is not planar")
            for tri in _triangulate_planar(self.vertices, poly):
                tris.append(tri)
                tri_facet.append(fi)
        self.triangles = _orient_outward(self.vertices, tris)
        self.tri_facet = np.asarray(tri_facet, dtype=int)
        self._facet_normal = np.array([_polygon_normal(self.vertices[poly])
                                       for poly in self.facet_polys])
        # triangle data for vectorized ray casting
        t = self.triangles
        self._tri_a = self.vertices[t[:, 0]]
        self._tri_e1 = self.vertices[t[:, 1]] - self._tri_a
        self._tri_e2 = self.vertices[t[:, 2]] - self._tri_a
        edge_lens = [np.linalg.norm(self.vertices[p[i]] - self.vertices[p[i - 1]])
                     for p in self.facet_polys for i in range(len(p))]
        self.min_feature = float(min(edge_lens))

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

def _polygon_normal(pts):
    """Unit normal of a planar 3D polygon (Newell's method)."""
    n = np.zeros(3)
    m = len(pts)
    for i in range(m):
        p, q = pts[i], pts[(i + 1) % m]
        n[0] += (p[1] - q[1]) * (p[2] + q[2])
        n[1] += (p[2] - q[2]) * (p[0] + q[0])
        n[2] += (p[0] - q[0]) * (p[1] + q[1])
    norm = np.linalg.norm(n)
    if norm == 0.0:
        raise GeometryError("degenerate facet (zero normal)")
    return n / norm


def _facet_is_planar(pts, tol):
    if len(pts) == 3:
        return True
    n = _polygon_normal(pts)
    d = (pts - pts[0]) @ n
    return float(np.max(np.abs(d))) <= max(tol, 1e-9 * np.abs(pts).max())


def _triangulate_planar(vertices, poly):
    """Ear-clip a planar facet given as a vertex-index loop."""
    n0 = _polygon_normal(vertices[poly])
    origin = vertices[poly[0]]
    # build an in-plane frame
    e1 = vertices[poly[1]] - origin
    e1 = e1 / np.linalg.norm(e1)
    e2 = np.cross(n0, e1)
    pts2 = [( (vertices[i] - origin) @ e1, (vertices[i] - origin) @ e2 ) for i in poly]
    idx = list(range(len(poly)))
    area2 = sum(pts2[i][0] * pts2[(i + 1) % len(pts2)][1]
                - pts2[(i + 1) % len(pts2)][0] * pts2[i][1]
                for i in range(len(pts2)))
    ccw = area2 > 0
    tris = []
    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 10000:
            raise GeometryError("ear clipping failed (non-simple facet?)")
        clipped = False
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
            clipped = True
            break
        if not clipped:
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


def _polygon_self_intersects(v):
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
    raises if the surface is not closed or not orientable."""
    tris = [list(map(int, t)) for t in tris]
    by_edge = {}
    for k, t in enumerate(tris):
        for e in _edges(t):
            by_edge.setdefault(frozenset(e), []).append(k)
    todo = set(range(len(tris)))
    while todo:
        stack = [todo.pop()]
        while stack:
            for u, v in _edges(tris[stack.pop()]):
                for k in by_edge[frozenset((u, v))]:
                    if k in todo:
                        todo.discard(k)
                        if (u, v) in _edges(tris[k]):    # must run v -> u
                            tris[k][1:] = tris[k][:0:-1]
                        stack.append(k)
    _check_watertight(tris)
    p = vertices[tris]
    if np.einsum("ij,ij->", p[:, 0], np.cross(p[:, 1], p[:, 2])) < 0.0:
        tris = [[a, c, b] for a, b, c in tris]
    return np.asarray(tris, dtype=int)


# ---------------------------------------------------------------------------
# classification and the ray projection psi

def locate(shape: StarShape, x) -> Location:
    """Classify x as interior / boundary(facet) / exterior of the shape."""
    x = _as_array(x, shape.dim)
    if shape.dim == 2:
        return _locate2(shape, x)
    return _locate3(shape, x)


def _locate2(shape, x):
    v = shape.vertices
    n = len(v)
    best = (math.inf, -1)
    for i in range(n):
        d = _point_segment_dist2(x, v[i], v[(i + 1) % n])
        if d < best[0]:
            best = (d, i)
    if best[0] <= shape.tol:
        return Location("boundary", best[1])
    inside = _point_in_polygon(v, x)
    return Location("interior" if inside else "exterior")


def _point_segment_dist2(p, a, b):
    ab = b - a
    t = float(np.dot(p - a, ab) / np.dot(ab, ab))
    t = min(1.0, max(0.0, t))
    return float(np.linalg.norm(p - (a + t * ab)))


def _point_in_polygon(v, p):
    # even-odd ray casting with a horizontal ray
    n = len(v)
    inside = False
    x, y = p
    for i in range(n):
        x0, y0 = v[i]
        x1, y1 = v[(i + 1) % n]
        if (y0 > y) != (y1 > y):
            xi = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
            if xi > x:
                inside = not inside
    return inside


def _locate3(shape, x):
    if shape.box is not None:
        lo, hi = shape.box
        d_out = max(np.max(lo - x), np.max(x - hi))
        if abs(d_out) <= shape.tol:
            fi = _box_facet_of(shape, x)
            return Location("boundary", fi)
        return Location("interior" if d_out < 0 else "exterior")
    # distance to surface
    d, fi = _surface_distance(shape, x[None, :])
    if d[0] <= shape.tol:
        return Location("boundary", int(fi[0]))
    return Location("interior" if _inside_parity(shape, x) else "exterior")


def _box_facet_of(shape, x):
    lo, hi = shape.box
    gaps = [x[0] - lo[0], hi[0] - x[0], x[1] - lo[1], hi[1] - x[1],
            x[2] - lo[2], hi[2] - x[2]]
    return int(np.argmin(gaps))


def _surface_distance(shape, x):
    """Distance from each row of x (shape (N, 3)) to the triangulated
    surface, and the facet of the nearest triangle: arrays of length N."""
    a = shape._tri_a
    e1 = shape._tri_e1
    e2 = shape._tri_e2
    n = np.cross(e1, e2)
    nn = np.einsum("ij,ij->i", n, n)
    dot11 = np.einsum("ij,ij->i", e1, e1)
    dot12 = np.einsum("ij,ij->i", e1, e2)
    dot22 = np.einsum("ij,ij->i", e2, e2)
    den = dot11 * dot22 - dot12 * dot12
    verts = shape.vertices
    tris = shape.triangles
    out = np.empty(len(x))
    facet = np.empty(len(x), dtype=int)
    for rows in _row_chunks(len(x), 3 * len(tris)):
        xr = x[rows, None, :]
        d = xr - a
        # project onto each triangle plane, clamp into the triangle
        # (approximate clamp via barycentric clip; good enough for tolerance
        # tests)
        h = np.einsum("...j,...j->...", d, n) / np.sqrt(np.maximum(nn, 1e-300))
        # barycentric coordinates of the in-plane projection
        dot1p = np.einsum("...j,...j->...", e1, d)
        dot2p = np.einsum("...j,...j->...", e2, d)
        u = (dot22 * dot1p - dot12 * dot2p) / den
        v = (dot11 * dot2p - dot12 * dot1p) / den
        inside = (u >= -1e-12) & (v >= -1e-12) & (u + v <= 1 + 1e-12)
        dist = np.where(inside, np.abs(h), np.inf)
        # edge distances for the rest
        for k in range(3):
            p0 = verts[tris[:, k]]
            p1 = verts[tris[:, (k + 1) % 3]]
            seg = p1 - p0
            t = (np.einsum("...j,...j->...", xr - p0, seg)
                 / np.einsum("ij,ij->i", seg, seg))
            t = np.clip(t, 0.0, 1.0)
            proj = p0 + t[..., None] * seg
            dist = np.minimum(dist, np.linalg.norm(xr - proj, axis=-1))
        ti = np.argmin(dist, axis=1)
        out[rows] = dist[np.arange(len(ti)), ti]
        facet[rows] = shape.tri_facet[ti]
    return out, facet


def _inside_parity(shape, x, _dirs=((1.0, 0.0, 0.0), (0.37, 0.61, 0.70), (0.2, -0.9, 0.38))):
    for dvec in _dirs:
        d = np.asarray(dvec) / np.linalg.norm(dvec)
        t, u, v, valid = _ray_tris(shape, x, d)
        hit = valid & (t > shape.tol)
        # reject grazing hits near triangle borders: retry with another direction
        grazing = hit & ((u < 1e-9) | (v < 1e-9) | (u + v > 1 - 1e-9))
        if np.any(grazing):
            continue
        return int(np.count_nonzero(hit)) % 2 == 1
    # fall back to the last direction, accepting grazing hits
    return int(np.count_nonzero(hit)) % 2 == 1


def _ray_tris(shape, origin, direction):
    """Moller-Trumbore over all triangles, for one direction (3,) or a stack
    of directions (N, 3) from a common origin.  Returns (t, u, v, valid),
    each of shape (T,) or (N, T)."""
    e1 = shape._tri_e1
    e2 = shape._tri_e2
    a = shape._tri_a
    direction = direction[..., None, :]
    p = np.cross(direction, e2)
    det = np.einsum("...j,...j->...", e1, p)
    eps = 1e-14 * max(1.0, shape.diameter)
    valid = np.abs(det) > eps
    inv = np.where(valid, 1.0 / np.where(valid, det, 1.0), 0.0)
    s = origin[None, :] - a
    u = np.einsum("...j,...j->...", s, p) * inv
    q = np.cross(s, e1)
    v = np.einsum("...j,...j->...", direction, q) * inv
    t = np.einsum("ij,ij->i", e2, q) * inv
    bt = 1e-9
    valid &= (u >= -bt) & (v >= -bt) & (u + v <= 1 + bt)
    return t, u, v, valid


def psi(shape: StarShape, x) -> BoundaryHit:
    """Boundary point hit by the ray from the star centre through x.

    Defined on closure(shape) minus the centre; boundary points map to
    themselves.  Ties on shared facet boundaries go to the lowest facet id.
    """
    x = _as_array(x, shape.dim)
    a = shape.centre
    r = x - a
    dist = float(np.linalg.norm(r))
    if dist <= shape.tol:
        raise GeometryError("psi is undefined at the star centre")
    loc = locate(shape, x)
    if loc.kind == "exterior":
        raise GeometryError("psi called on an exterior point")
    if shape.dim == 2:
        v = shape.vertices
        i, s, t = _psi_polygon_scalar(v.tolist(), *a.tolist(), *x.tolist())
        return BoundaryHit(point=v[i] + s * (v[(i + 1) % len(v)] - v[i]),
                           facet=i, t=t)
    if shape.box is not None:
        lo, hi = shape.box
        facet, t = _ray_box_scalar(*a.tolist(), lo.tolist(), hi.tolist(),
                                   *x.tolist())
        return BoundaryHit(point=np.clip(a + t * r, lo, hi), facet=facet, t=t)
    return _psi3(shape, a, x, r, dist)


def _psi_polygon_scalar(verts, ax, ay, ux, uy):
    """Ray (ax,ay)->(ux,uy) against polygon edges; returns (edge, s, t); ties
    within 1e-9 go to the lowest edge.

    verts is a list of (x, y) floats in loop order.  t is the ray parameter
    (>= 1 for points in the closed region), s the position along the edge.
    """
    rx = ux - ax
    ry = uy - ay
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
        raise GeometryError("ray found no boundary crossing (shape not star?)")
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


def _psi3(shape, a, x, r, dist):
    d = r / dist
    t, u, v, valid = _ray_tris(shape, a, d)
    t_x = dist
    rel = 1e-9 * max(1.0, t_x)
    ok = valid & (t >= t_x - max(rel, shape.tol * 4))
    if not np.any(ok):
        raise GeometryError("ray found no boundary crossing (shape not star?)")
    ts = np.where(ok, t, np.inf)
    tmin = float(ts.min())
    cand = np.nonzero(ts <= tmin * (1 + 1e-12) + shape.tol)[0]
    ti = int(cand[np.argmin(shape.tri_facet[cand])])
    point = a + t[ti] * d
    return BoundaryHit(point=point, facet=int(shape.tri_facet[ti]),
                       t=float(t[ti] / t_x))


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


def _line_plane_angles(u, n):
    """Angles between the line spanned by u and the planes with unit normals
    n (rows); each equals the minimum line-line angle over directions in
    that plane."""
    s = np.abs(n @ u) / np.linalg.norm(u)
    return np.arcsin(np.minimum(1.0, s))


def _sector_min_angles(u, g1, g2):
    """Minimum line angle between u and the directions of each planar sector
    spanned by the rows g1[k], g2[k] (non-negative combinations)."""
    best = np.minimum(_line_angles(u, g1), _line_angles(u, g2))
    n = np.cross(g1, g2)
    nn = np.sqrt(np.einsum("ij,ij->i", n, n))
    flat = nn < 1e-14
    n = n / np.where(flat, 1.0, nn)[:, None]
    # the projection w of u onto the sector's plane, or -w, inside the sector
    w = u - (n @ u)[:, None] * n
    s1 = np.einsum("ij,ij->i", np.cross(g1, w), n)
    s2 = np.einsum("ij,ij->i", np.cross(w, g2), n)
    inside = (((s1 >= -1e-12) & (s2 >= -1e-12))
              | ((s1 <= 1e-12) & (s2 <= 1e-12)))
    take = ~flat & (np.sqrt(np.einsum("ij,ij->i", w, w)) > 1e-14) & inside
    return np.where(take, np.minimum(best, _line_plane_angles(u, n)), best)


def _unit(v):
    n = np.linalg.norm(v)
    if n == 0:
        raise GeometryError("zero direction")
    return v / n


def _facet_vertex_cones(shape):
    """For each vertex of a 3D shape: the incident facets and, per facet,
    generators of the convex decomposition of the facet's direction cone at
    that vertex (directions d with q + eps*d inside the facet polygon)."""
    verts = shape.vertices
    cones = {}        # vertex index -> list of (facet id, [generators])
    for fi, poly in enumerate(shape.facet_polys):
        m = len(poly)
        n0 = shape._facet_normal[fi]
        origin = verts[poly[0]]
        e1ref = _unit(verts[poly[1]] - origin)
        e2ref = np.cross(n0, e1ref)
        pts2 = [((verts[i] - origin) @ e1ref, (verts[i] - origin) @ e2ref)
                for i in poly]
        for k in range(m):
            q = verts[poly[k]]
            eprev = verts[poly[k - 1]] - q
            enext = verts[poly[(k + 1) % m]] - q
            phi1 = math.atan2((eprev @ e2ref), (eprev @ e1ref))
            phi2 = math.atan2((enext @ e2ref), (enext @ e1ref))
            width_ccw = (phi2 - phi1) % (2 * math.pi)
            q2 = (float((q - origin) @ e1ref), float((q - origin) @ e2ref))
            eps = 1e-5 * min(np.linalg.norm(eprev), np.linalg.norm(enext))
            # choose the arc (from phi1 ccw to phi2, or the complement)
            # whose midpoint direction points into the polygon
            def _inside_at(phi):
                p = (q2[0] + eps * math.cos(phi), q2[1] + eps * math.sin(phi))
                return _point_in_polygon(np.asarray(pts2), np.asarray(p))
            if _inside_at(phi1 + width_ccw / 2):
                start, width = phi1, width_ccw
            else:
                start, width = phi2, (2 * math.pi - width_ccw) % (2 * math.pi)
            pieces = max(1, int(math.ceil(width / 1.5)))
            gens = []
            for j in range(pieces + 1):
                phi = start + width * j / pieces
                d = math.cos(phi) * e1ref + math.sin(phi) * e2ref
                gens.append(d)
            cones.setdefault(poly[k], []).append((fi, np.array(gens)))
    return cones


# the four generator triples of a four-generator cone
_CONE_TRIPLES = np.array([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def _cones_contain_line(cones, u, tol=1e-9):
    """True if u or -u lies in one of the convex cones in R^3 spanned by four
    generators each (``cones`` has shape (K, 4, 3)).  Every generator triple
    with |det| >= 1e-12 is solved for the unit vector along u in one stacked
    call; the coefficients of -u are exactly the negated ones."""
    m = np.swapaxes(cones[:, _CONE_TRIPLES, :], -1, -2).reshape(-1, 3, 3)
    m = m[np.abs(np.linalg.det(m)) >= 1e-12]
    un = _unit(np.asarray(u, dtype=float))
    lam = np.linalg.solve(m, np.broadcast_to(un[:, None], (len(m), 3, 1)))[..., 0]
    return bool(np.any(np.all(lam >= -tol, axis=1) | np.all(lam <= tol, axis=1)))


def certify_star_centre(shape: StarShape, a) -> Certificate:
    """Certify that ``a`` is a non-tangential star centre of the shape.

    Star test (``_star_test``, exact): every boundary simplex with apex a is
    positively oriented; a closed, outward-oriented boundary then winds once
    about a, so every ray from a meets it exactly once.  theta_obs is the
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
    loc = locate(shape, a)
    if loc.kind == "boundary":
        raise GeometryError("candidate centre lies on the boundary")
    if loc.kind == "exterior":
        raise GeometryError("candidate centre lies outside the shape")
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


def _star_test(shape, a):
    """Raise CertificationFailure naming the first edge (2D) or triangle (3D)
    whose simplex with apex a is not positively oriented: in 2D relative to
    the polygon's own orientation, in 3D to the outward one.  Every sign is
    decided in Fraction on the float coordinates."""
    o = [Fraction(c) for c in a.tolist()]
    v = [[Fraction(c) - oc for c, oc in zip(p, o)] for p in shape.vertices.tolist()]
    if shape.dim == 2:
        simplices = [[i, (i + 1) % len(v)] for i in range(len(v))]
        signs = [v[i][0] * v[j][1] - v[j][0] * v[i][1] for i, j in simplices]
        if sum(signs) < 0:
            signs = [-x for x in signs]
        what = "edge"
    else:
        simplices = shape.triangles.tolist()
        signs = [_det3(v[i], v[j], v[k]) for i, j, k in simplices]
        what = "triangle"
    for k, (sign, idx) in enumerate(zip(signs, simplices)):
        if sign <= 0:
            raise CertificationFailure(
                f"star test fails at {what} {k} {shape.vertices[idx].tolist()}: "
                f"it does not face the centre {a.tolist()}")


def _plane_angle(shape, a):
    """Least angle between the centre ray at a boundary point w and the
    facet (2D: edge) through w: asin(h / max |v - a|) over the vertices v
    of each triangle (2D: edge), h the distance from a to its plane."""
    if shape.dim == 2:
        p0 = shape.vertices - a
        p1 = np.roll(shape.vertices, -1, axis=0) - a
        h = np.abs(p0[:, 0] * p1[:, 1] - p0[:, 1] * p1[:, 0]) / shape._edge_len
        far = np.maximum(np.hypot(*p0.T), np.hypot(*p1.T))
    else:
        n = shape._facet_normal[shape.tri_facet]
        h = np.abs(np.einsum("ij,ij->i", n, shape._tri_a - a))
        far = np.linalg.norm(shape.vertices[shape.triangles] - a, axis=2).max(axis=1)
    return float(np.arcsin(np.minimum(1.0, h / far)).min())


def _vertex_angle(shape, a):
    """The vertex term of a polyhedron: the minimum angle between the centre
    ray and the chord directions at every vertex; raises on a tangential
    chord direction.  The chord-direction limit set at a vertex q is the
    union over ordered pairs of incident facets (F, F') of the cones
    cone(F' at q) - cone(F at q); same-facet chords span the facet plane."""
    theta_obs = math.pi / 2
    for vi, facet_cones in _facet_vertex_cones(shape).items():
        q = shape.vertices[vi]
        u = q - a
        if np.linalg.norm(u) <= shape.tol:
            raise CertificationFailure("centre coincides with a vertex")
        # generators of all incident facets, each labelled by its facet
        gens = np.concatenate([g for _, g in facet_cones])
        owner = np.repeat(np.arange(len(facet_cones)),
                          [len(g) for _, g in facet_cones])
        # the facet cones may be reflex; membership is tested per convex
        # sub-sector (consecutive generators of one facet), over all pairs
        # of sub-sectors of different facets
        sub = np.flatnonzero(owner[:-1] == owner[1:])
        jb, ia = np.nonzero(owner[sub][:, None] != owner[sub][None, :])
        cones = np.stack([gens[sub[jb]], gens[sub[jb] + 1],
                          -gens[sub[ia]], -gens[sub[ia] + 1]], axis=1)
        if _cones_contain_line(cones, u):
            raise CertificationFailure(f"tangential chord direction at vertex {q}")
        normals = shape._facet_normal[[fi for fi, _ in facet_cones]]
        ib, ia = np.nonzero(owner[:, None] != owner[None, :])
        theta_obs = min(theta_obs,
                        float(_line_plane_angles(u, normals).min()),
                        float(_sector_min_angles(u, gens[ib], -gens[ia]).min()))
        if theta_obs / 2 < THETA_MIN:
            raise CertificationFailure(
                f"vertex angle too small at {q}: {theta_obs:.2e}")
    return theta_obs


def attach_certificate(shape: StarShape) -> StarShape:
    """Certify the shape's own centre and attach the certificate in place."""
    cert = certify_star_centre(shape, shape.centre)
    shape.certificate = cert
    return shape


def local_lipschitz_constants(shape: StarShape):
    """(eta, T) such that psi is T/|xi - a|-Lipschitz on balls
    B(xi, eta*|xi - a|), from the shape's certificate."""
    cert = shape.certificate
    if cert is None:
        raise GeometryError("shape has no certificate")
    a = shape.centre
    max_r = float(np.max(np.linalg.norm(shape.vertices - a[None, :], axis=1)))
    s = math.sin(cert.theta / 2)
    eta = min(0.5, s / 4, cert.eps * s / (4 * max_r))
    T = 2.0 / s * max_r
    return eta, T


# ---------------------------------------------------------------------------
# 2D kernel (set of points that see the whole polygon)

def polygon_kernel(vertices):
    """Visibility kernel of a simple polygon, as a (possibly empty) convex
    polygon; computed by clipping a bounding box with every edge half-plane."""
    v = np.asarray(vertices, dtype=float)
    n = len(v)
    area2 = sum(v[i, 0] * v[(i + 1) % n, 1] - v[(i + 1) % n, 0] * v[i, 1]
                for i in range(n))
    sign = 1.0 if area2 > 0 else -1.0
    lo = v.min(axis=0) - 1.0
    hi = v.max(axis=0) + 1.0
    poly = [np.array([lo[0], lo[1]]), np.array([hi[0], lo[1]]),
            np.array([hi[0], hi[1]]), np.array([lo[0], hi[1]])]
    for i in range(n):
        p0 = v[i]
        d = v[(i + 1) % n] - p0
        # interior is to the left of each edge for CCW orientation
        nx, ny = -sign * d[1], sign * d[0]
        poly = _clip_halfplane(poly, p0, (nx, ny))
        if not poly:
            return []
    return poly


def _clip_halfplane(poly, p0, normal):
    nx, ny = normal
    out = []
    m = len(poly)
    for i in range(m):
        cur, nxt = poly[i], poly[(i + 1) % m]
        c_in = (cur[0] - p0[0]) * nx + (cur[1] - p0[1]) * ny >= 0
        n_in = (nxt[0] - p0[0]) * nx + (nxt[1] - p0[1]) * ny >= 0
        if c_in:
            out.append(cur)
        if c_in != n_in:
            d = nxt - cur
            den = d[0] * nx + d[1] * ny
            t = -((cur[0] - p0[0]) * nx + (cur[1] - p0[1]) * ny) / den
            out.append(cur + t * d)
    return out


def polygon_centroid(vertices):
    v = np.asarray(vertices, dtype=float)
    n = len(v)
    a = 0.0
    cx = cy = 0.0
    for i in range(n):
        x0, y0 = v[i]
        x1, y1 = v[(i + 1) % n]
        w = x0 * y1 - x1 * y0
        a += w
        cx += (x0 + x1) * w
        cy += (y0 + y1) * w
    if abs(a) < 1e-300:
        return v.mean(axis=0)
    return np.array([cx, cy]) / (3 * a)


def pick_star_centre_2d(vertices):
    """Area centroid if it lies in the visibility kernel, else the kernel
    centroid.  Raises if the kernel is empty (polygon is not star-shaped)."""
    kern = polygon_kernel(vertices)
    if not kern:
        raise CertificationFailure("polygon has an empty visibility kernel")
    c = polygon_centroid(vertices)
    kv = np.asarray(kern)
    # c in kernel?  kernel is convex: test against its edges
    m = len(kv)
    inside = True
    for i in range(m):
        d = kv[(i + 1) % m] - kv[i]
        if (c[0] - kv[i][0]) * d[1] - (c[1] - kv[i][1]) * d[0] > 1e-12:
            inside = False
            break
    if inside:
        return c
    return polygon_centroid(kv)
