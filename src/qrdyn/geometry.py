"""Star-shaped polytope geometry.

Shapes are simple polygons (2D) or watertight triangulated polyhedra (3D)
that are star-shaped with respect to a designated centre.  The module
provides membership classification, the ray-to-boundary projection psi
(send x to the boundary point hit by the ray from the centre through x),
numerical certification that a centre is non-tangential (rays meet the
boundary at angles bounded away from zero), and the local Lipschitz
constants of psi that follow from such a certificate.

All shapes are immutable after construction; every operation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


class GeometryError(ValueError):
    """Malformed shape or precondition violation."""


class CertificationFailure(GeometryError):
    """Star-centre certification failed (angle or visibility)."""


# Relative tolerance for boundary classification, scaled by shape diameter.
TAU_GEOM = 1e-12
# Certification fails below this angle (radians).
THETA_MIN = 1e-3
# Largest temporary of the batched kernels, in float64 elements: the size of
# the 400 x 400 x 3 pair-difference array of the certification sweep.
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
    an acute angle > theta with the ray centre->w, for chords shorter than eps."""

    theta: float
    eps: float
    resolution: int

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

    @property
    def interior(self):
        return self.kind == "interior"

    @property
    def exterior(self):
        return self.kind == "exterior"


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
        self._edge_dir = e
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
        self.triangles = np.asarray(tris, dtype=int)
        self.tri_facet = np.asarray(tri_facet, dtype=int)
        _check_watertight(self.triangles)
        # facet planes (unit normal, offset)
        normals = []
        offsets = []
        for poly in self.facet_polys:
            n = _polygon_normal(self.vertices[poly])
            normals.append(n)
            offsets.append(float(np.dot(n, self.vertices[poly[0]])))
        self._facet_normal = np.asarray(normals)
        self._facet_offset = np.asarray(offsets)
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

    def with_centre(self, centre):
        s = StarShape(self.dim, self.vertices, centre,
                      facet_polys=getattr(self, "facet_polys", None),
                      box=self.box)
        return s


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


def _check_watertight(triangles):
    counts = {}
    for tri in triangles:
        a, b, c = (int(tri[0]), int(tri[1]), int(tri[2]))
        if a == b or b == c or a == c:
            raise GeometryError(f"degenerate triangle {tri}")
        for e in ((a, b), (b, c), (c, a)):
            key = (min(e), max(e))
            counts[key] = counts.get(key, 0) + 1
    bad = {e: c for e, c in counts.items() if c != 2}
    if bad:
        raise GeometryError(f"surface not watertight; odd edges: {bad}")


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
        return _psi2(shape, a, x, r, dist)
    if shape.box is not None:
        return _psi_box(shape, a, x, r, dist)
    return _psi3(shape, a, x, r, dist)


def _psi2(shape, a, x, r, dist):
    v = shape.vertices
    n = len(v)
    best_t = math.inf
    best = None
    rel = 1e-9
    for i in range(n):
        p0 = v[i]
        e = v[(i + 1) % n] - p0
        den = r[0] * e[1] - r[1] * e[0]
        if abs(den) < 1e-300:
            continue
        dx = p0[0] - a[0]
        dy = p0[1] - a[1]
        t = (dx * e[1] - dy * e[0]) / den
        s = (dx * r[1] - dy * r[0]) / den
        if -rel <= s <= 1 + rel and t >= 1 - rel:
            if t < best_t - rel:
                best_t = t
                best = (i, min(max(s, 0.0), 1.0))
    if best is None:
        raise GeometryError("ray found no boundary crossing (shape not star?)")
    i, s = best
    point = v[i] + s * (v[(i + 1) % n] - v[i])
    return BoundaryHit(point=point, facet=i, t=best_t)


def _psi_box(shape, a, x, r, dist):
    lo, hi = shape.box
    best_t = math.inf
    best_f = -1
    for axis in range(3):
        d = r[axis]
        if d > 1e-300:
            t = (hi[axis] - a[axis]) / d
            f = 2 * axis + 1
        elif d < -1e-300:
            t = (lo[axis] - a[axis]) / d
            f = 2 * axis
        else:
            continue
        if t < best_t - 1e-15:
            best_t = t
            best_f = f
        elif abs(t - best_t) <= 1e-12 * max(1.0, abs(best_t)) and f < best_f:
            best_f = f
    if best_t < 1 - 1e-9:
        best_t = 1.0  # x is on the boundary within tolerance
    point = a + best_t * r
    point = np.minimum(np.maximum(point, lo), hi)
    return BoundaryHit(point=point, facet=best_f, t=float(best_t))


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


def _line_plane_angle(u, n):
    """Angle between the line spanned by u and the plane with unit normal n
    (equals the minimum line-line angle over directions in the plane)."""
    nu = np.linalg.norm(u)
    s = abs(float(np.dot(u, n))) / nu
    return math.asin(min(1.0, s))


def _sector_min_angle(u, g1, g2):
    """Minimum line angle between u and directions in the planar sector
    spanned by g1, g2 (non-negative combinations)."""
    best = float(_line_angles(u, np.array([g1, g2])).min())
    n = np.cross(g1, g2)
    nn = np.linalg.norm(n)
    if nn < 1e-14:
        return best
    n = n / nn
    # candidate: projection of u onto the plane, if it falls inside the sector
    w = u - np.dot(u, n) * n
    if np.linalg.norm(w) > 1e-14:
        for wc in (w, -w):
            inside = (np.dot(np.cross(g1, wc), n) >= -1e-12 and
                      np.dot(np.cross(wc, g2), n) >= -1e-12)
            if inside:
                best = min(best, _line_plane_angle(u, n))
    return best


def _boundary_samples(shape, count, rng):
    """Sample points on the boundary, roughly uniform by length/area."""
    if shape.dim == 2:
        v = shape.vertices
        n = len(v)
        w = shape._edge_len / shape._edge_len.sum()
        idx = rng.choice(n, size=count, p=w)
        s = rng.random(count)
        pts = v[idx] + s[:, None] * shape._edge_dir[idx]
        return pts
    areas = 0.5 * np.linalg.norm(np.cross(shape._tri_e1, shape._tri_e2), axis=1)
    w = areas / areas.sum()
    idx = rng.choice(len(areas), size=count, p=w)
    r1 = np.sqrt(rng.random(count))
    r2 = rng.random(count)
    u = 1 - r1
    v = r1 * (1 - r2)
    pts = (shape._tri_a[idx] + u[:, None] * shape._tri_e1[idx]
           + v[:, None] * shape._tri_e2[idx])
    return pts


def _visible_from(shape, a, w):
    """For each row of w: True if the open segment from a to it stays inside
    the shape (one segment test per edge in 2D, Moller-Trumbore in 3D)."""
    visible = np.empty(len(w), dtype=bool)
    width = shape.facet_count if shape.dim == 2 else 3 * len(shape.triangles)
    for rows in _row_chunks(len(w), width):
        r = w[rows] - a
        dist = np.sqrt(np.einsum("ij,ij->i", r, r))
        near = dist <= shape.tol
        dist = np.where(near, 1.0, dist)[:, None]
        if shape.dim == 2:
            p0 = shape.vertices
            e = shape._edge_dir
            den = r[:, None, 0] * e[:, 1] - r[:, None, 1] * e[:, 0]
            crossing = np.abs(den) >= 1e-300
            den = np.where(crossing, den, 1.0)
            dx, dy = p0[:, 0] - a[0], p0[:, 1] - a[1]
            t = (dx * e[:, 1] - dy * e[:, 0]) / den
            s = (dx * r[:, None, 1] - dy * r[:, None, 0]) / den
            blocked = (crossing & (1e-9 < s) & (s < 1 - 1e-9)
                       & (shape.tol / dist < t) & (t < 1 - 1e-7))
        else:
            t, _, _, valid = _ray_tris(shape, a, r / dist)
            blocked = valid & (t > shape.tol) & (t < dist * (1 - 1e-7))
        visible[rows] = near | ~blocked.any(axis=1)
    return visible


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
            cones.setdefault(poly[k], []).append((fi, gens))
    return cones


def _sector2_contains(g1, g2, u, tol=1e-9):
    """True if u is a nonnegative combination of g1, g2 in the plane."""
    det = g1[0] * g2[1] - g1[1] * g2[0]
    if abs(det) < 1e-15:
        return False
    a = (u[0] * g2[1] - u[1] * g2[0]) / det
    b = (g1[0] * u[1] - g1[1] * u[0]) / det
    scale = max(abs(a), abs(b), 1.0)
    return a >= -tol * scale and b >= -tol * scale


def _cone_contains(gens, u, tol=1e-9):
    """True if u lies in the convex cone spanned by gens (R^3)."""
    g = [np.asarray(x, dtype=float) for x in gens]
    un = _unit(np.asarray(u, dtype=float))
    k = len(g)
    for i in range(k):
        for j in range(i + 1, k):
            for l in range(j + 1, k):
                m = np.column_stack([g[i], g[j], g[l]])
                if abs(np.linalg.det(m)) < 1e-12:
                    continue
                lam = np.linalg.solve(m, un)
                if np.all(lam >= -tol):
                    return True
    return False


def certify_star_centre(shape: StarShape, a, resolution: int = 96) -> Certificate:
    """Certify that ``a`` is a non-tangential star centre of the shape.

    Exact evaluation at every vertex (against incident facet planes and all
    planar sectors spanned by incident edge directions) is combined with a
    randomized sweep over close boundary point pairs and a visibility audit
    of the vertices and of about 200 of the sampled boundary points.
    Returns a certificate carrying half the observed minimum angle and the
    tested chord radius, or raises CertificationFailure.

    The sweep and the audit are array kernels over all samples at once; they
    chunk their batches so that no temporary holds more than BATCH_ELEMENTS
    floats (the 400 x 400 x 3 pair-difference array of the pair sweep).
    """
    a = _as_array(a, shape.dim)
    loc = locate(shape, a)
    if loc.kind == "boundary":
        raise GeometryError("candidate centre lies on the boundary")
    if loc.kind == "exterior":
        raise GeometryError("candidate centre lies outside the shape")
    resolution = max(8, int(resolution))

    theta_obs = _vertex_angle(shape, a)
    rng = np.random.default_rng(20250810)
    count = resolution * max(4, shape.facet_count)
    pts = _boundary_samples(shape, count, rng)
    eps = min(0.5 * shape.min_feature, 0.25 * shape.diameter)
    theta_obs = min(theta_obs, _chord_sweep_angle(shape, a, pts, eps, rng))
    _visibility_audit(shape, a, pts[:: max(1, count // 200)])

    theta = theta_obs / 2
    if theta < THETA_MIN:
        raise CertificationFailure(f"observed angle too small: {theta_obs:.2e}")
    theta = min(theta, math.pi / 4 - 1e-9)
    return Certificate(theta=theta, eps=float(eps), resolution=resolution)


def _vertex_angle(shape, a):
    """Exact part of the certification: the minimum angle between the centre
    ray and the chord directions at every vertex; raises on a tangential
    chord direction."""
    theta_obs = math.pi / 2

    # exact part at vertices: the chord-direction limit set at a vertex q is
    # the union over ordered pairs of incident facets (F, F') of the cones
    # cone(F' at q) - cone(F at q); same-facet chords span the facet plane
    if shape.dim == 2:
        v = shape.vertices
        n = len(v)
        for i in range(n):
            q = v[i]
            u = q - a
            if np.linalg.norm(u) <= shape.tol:
                raise CertificationFailure("centre coincides with a vertex")
            e1 = v[i - 1] - q
            e2 = v[(i + 1) % n] - q
            theta_obs = min(theta_obs,
                            float(_line_angles(u, np.array([e1, e2])).min()))
            for first, second in ((e1, -e2), (e2, -e1)):
                if _sector2_contains(first, second, u) or \
                        _sector2_contains(first, second, -u):
                    raise CertificationFailure(
                        f"tangential chord direction at vertex {q}")
    else:
        cones = _facet_vertex_cones(shape)
        for vi, facet_cones in cones.items():
            q = shape.vertices[vi]
            u = q - a
            if np.linalg.norm(u) <= shape.tol:
                raise CertificationFailure("centre coincides with a vertex")
            for fi, _ in facet_cones:
                theta_obs = min(theta_obs,
                                _line_plane_angle(u, shape._facet_normal[fi]))
            for fa, gens_a in facet_cones:
                for fb, gens_b in facet_cones:
                    if fa == fb:
                        continue
                    # the facet cones may be reflex; membership must be tested
                    # per convex sub-sector (consecutive generator pairs)
                    for i in range(len(gens_a) - 1):
                        for j in range(len(gens_b) - 1):
                            cone = [gens_b[j], gens_b[j + 1],
                                    -gens_a[i], -gens_a[i + 1]]
                            if _cone_contains(cone, u) or _cone_contains(cone, -u):
                                raise CertificationFailure(
                                    f"tangential chord direction at vertex {q}")
                    for gb in gens_b:
                        for ga in gens_a:
                            theta_obs = min(theta_obs,
                                            _sector_min_angle(u, gb, -ga))
            if theta_obs / 2 < THETA_MIN:
                raise CertificationFailure(
                    f"vertex angle too small at {q}: {theta_obs:.2e}")
    return theta_obs


def _chord_sweep_angle(shape, a, pts, eps, rng):
    """Sampled part of the certification: the minimum angle between the
    centre ray at w and the chords from w shorter than eps, over close pairs
    (eight random candidates near each point of the first half of ``pts``,
    projected onto the boundary) and over the pairs of the first 400 points
    (at most 20000 of them)."""
    theta_obs = math.pi / 2
    count = len(pts)
    # one draw of (count // 2, 8, dim) offsets, taken in row chunks
    for rows in _row_chunks(count // 2, 8 * shape.dim):
        first = pts[rows]
        offsets = rng.random((len(first), 8, shape.dim)) - 0.5
        local = (first[:, None, :] + offsets * eps).reshape(-1, shape.dim)
        w = np.repeat(first, 8, axis=0)
        d = _nearest_boundary_points(shape, local) - w
        dn = np.linalg.norm(d, axis=1)
        close = (1e-12 * shape.diameter < dn) & (dn < eps)
        if np.any(close):
            theta_obs = min(theta_obs,
                            float(_line_angles(w[close] - a, d[close]).min()))
    # random pair sweep
    diffs = pts[None, : min(count, 400)] - pts[: min(count, 400), None]
    dn = np.linalg.norm(diffs, axis=2)
    ii, jj = np.nonzero((dn > 1e-12 * shape.diameter) & (dn < eps))
    ii, jj = ii[:20000], jj[:20000]
    if len(ii):
        theta_obs = min(theta_obs,
                        float(_line_angles(pts[ii] - a, diffs[ii, jj]).min()))
    return theta_obs


def _visibility_audit(shape, a, samples):
    """Raise CertificationFailure naming the first vertex, then the first
    boundary sample, that the centre does not see."""
    probes = np.concatenate([shape.vertices, samples])
    visible = _visible_from(shape, a, probes)
    if not np.all(visible):
        k = int(np.argmin(visible))
        what = "vertex" if k < len(shape.vertices) else "boundary point"
        raise CertificationFailure(f"{what} {probes[k]} is not visible from {a}")


def _nearest_boundary_points(shape, p):
    """Closest boundary point to each row of p: over the polygon edges in 2D,
    over the triangles in 3D (clamped barycentric projection)."""
    out = np.empty_like(p)
    if shape.dim == 2:
        v = shape.vertices
        ab = shape._edge_dir
        abab = np.einsum("ij,ij->i", ab, ab)
        for rows in _row_chunks(len(p), 2 * len(v)):
            pr = p[rows, None, :]
            t = np.clip(np.einsum("...j,...j->...", pr - v, ab) / abab, 0.0, 1.0)
            q = v + t[..., None] * ab
            k = np.argmin(np.linalg.norm(pr - q, axis=-1), axis=1)
            out[rows] = q[np.arange(len(k)), k]
        return out
    a = shape._tri_a
    e1 = shape._tri_e1
    e2 = shape._tri_e2
    dot11 = np.einsum("ij,ij->i", e1, e1)
    dot12 = np.einsum("ij,ij->i", e1, e2)
    dot22 = np.einsum("ij,ij->i", e2, e2)
    den = dot11 * dot22 - dot12 ** 2
    for rows in _row_chunks(len(p), 3 * len(a)):
        pr = p[rows, None, :]
        d = pr - a
        dot1p = np.einsum("...j,...j->...", e1, d)
        dot2p = np.einsum("...j,...j->...", e2, d)
        u = np.clip((dot22 * dot1p - dot12 * dot2p) / den, 0, 1)
        v = np.clip((dot11 * dot2p - dot12 * dot1p) / den, 0, 1)
        s = u + v
        scale = np.where(s > 1, 1.0 / np.maximum(s, 1e-300), 1.0)
        u *= scale
        v *= scale
        q = a + u[..., None] * e1 + v[..., None] * e2
        k = np.argmin(np.linalg.norm(q - pr, axis=-1), axis=1)
        out[rows] = q[np.arange(len(k)), k]
    return out


def attach_certificate(shape: StarShape, resolution: int = 96) -> StarShape:
    """Certify the shape's own centre and attach the certificate in place."""
    cert = certify_star_centre(shape, shape.centre, resolution)
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
