"""Radial extension of boundary maps between star shapes.

A boundary homeomorphism between two star shapes extends to the closed
regions by transporting radial fractions: a point at fraction s of the way
from the domain centre to the boundary maps to the point at fraction s from
the codomain centre to the image boundary point.  The same formula applied
to the inverse boundary map yields the inverse extension.

The boundary map itself is a dispatch table over domain facets; each piece
is an affine segment/triangle correspondence, a nested 2D radial extension
living on a planar face, a direct closed-form map, or the identity.

Every piece is affine on a few triangles of its patch, so the radial
extension is affine on the cone from the domain centre over each of them.
``AffineCellTable`` compiles a box-domain map into those cells; it evaluates
the same map with one facet test, one sector test and one affine product.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .geometry import (GeometryError, StarShape, locate, psi,
                       pick_star_centre_2d, attach_certificate,
                       _boundary_samples, _row_chunks, _surface_distance)

# Seam agreement tolerance for unit-scale charts; scaled by chart diameter.
TAU_SEAM = 1e-9
# Relative round-trip tolerance for the inverse.
TAU_INV = 1e-8


class Frame:
    """Orthonormal coordinates on a plane embedded in R^3."""

    __slots__ = ("origin", "e1", "e2", "normal",
                 "_ox", "_oy", "_oz", "_e1x", "_e1y", "_e1z",
                 "_e2x", "_e2y", "_e2z")

    def __init__(self, origin, e1, e2):
        self.origin = np.asarray(origin, dtype=float)
        e1 = np.asarray(e1, dtype=float)
        e2 = np.asarray(e2, dtype=float)
        e1 = e1 / np.linalg.norm(e1)
        e2 = e2 - np.dot(e2, e1) * e1
        e2 = e2 / np.linalg.norm(e2)
        self.e1 = e1
        self.e2 = e2
        self.normal = np.cross(e1, e2)
        self._ox, self._oy, self._oz = map(float, self.origin)
        self._e1x, self._e1y, self._e1z = map(float, e1)
        self._e2x, self._e2y, self._e2z = map(float, e2)

    @classmethod
    def through(cls, p0, p1, p2):
        p0 = np.asarray(p0, dtype=float)
        return cls(p0, np.asarray(p1, dtype=float) - p0,
                   np.asarray(p2, dtype=float) - p0)

    def to2d(self, p):
        """Plane coordinates of p = (x, y, z); the coordinates may be
        scalars or equal-length arrays."""
        dx = p[0] - self._ox
        dy = p[1] - self._oy
        dz = p[2] - self._oz
        return (dx * self._e1x + dy * self._e1y + dz * self._e1z,
                dx * self._e2x + dy * self._e2y + dz * self._e2z)

    def to3d(self, u, v):
        return (self._ox + u * self._e1x + v * self._e2x,
                self._oy + u * self._e1y + v * self._e2y,
                self._oz + u * self._e1z + v * self._e2z)


def frame_for_polygon(vertices3):
    """A frame spanning the plane of a planar 3D polygon."""
    v = np.asarray(vertices3, dtype=float)
    p0 = v[0]
    e1 = v[1] - p0
    best = None
    for q in v[2:]:
        w = q - p0
        n = np.cross(e1, w)
        if best is None or np.linalg.norm(n) > np.linalg.norm(best):
            best = n
    if best is None or np.linalg.norm(best) < 1e-14:
        raise GeometryError("degenerate polygon for frame")
    e2 = np.cross(best, e1)
    return Frame(p0, e1, e2)


class PlanarLoop:
    """A planar polygon in R^3, with its plane normal and in-plane frame
    computed once for containment tests."""

    def __init__(self, loop3):
        self.loop = [tuple(map(float, p)) for p in loop3]
        v0 = np.asarray(self.loop[0])
        n = np.cross(np.asarray(self.loop[1]) - v0, np.asarray(self.loop[-1]) - v0)
        self._origin = v0
        self._normal = n / np.linalg.norm(n)
        self._frame = frame_for_polygon(self.loop)
        self._pts2 = [self._frame.to2d(w) for w in self.loop]

    def contains(self, pts, tol):
        """Mask of the rows of pts (shape (N, 3)) within tol of the plane
        and inside the polygon or within tol of an edge."""
        pts = np.asarray(pts, dtype=float)
        on_plane = np.abs((pts - self._origin) @ self._normal) <= tol
        u, v = self._frame.to2d(pts.T)
        on_edge = np.zeros(len(pts), dtype=bool)
        inside = np.zeros(len(pts), dtype=bool)
        # even-odd with boundary tolerance
        m = len(self._pts2)
        for i in range(m):
            x0, y0 = self._pts2[i]
            x1, y1 = self._pts2[(i + 1) % m]
            ex, ey = x1 - x0, y1 - y0
            ln = math.hypot(ex, ey)
            d = np.abs((u - x0) * ey - (v - y0) * ex) / ln
            t = ((u - x0) * ex + (v - y0) * ey) / (ln * ln)
            on_edge |= (d <= tol) & (-tol <= t) & (t <= 1 + tol)
            if y0 != y1:
                xi = x0 + (v - y0) * (x1 - x0) / (y1 - y0)
                inside ^= ((y0 > v) != (y1 > v)) & (xi > u)
        return on_plane & (on_edge | inside)


# ---------------------------------------------------------------------------
# scalar helpers for the evaluation hot path

def _psi_polygon_scalar(verts, ax, ay, ux, uy):
    """Ray (ax,ay)->(ux,uy) against polygon edges; returns (edge, s, t).

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
        raise GeometryError("2D radial ray found no boundary crossing")
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
# 2D radial maps and facet pieces

class RadialMap2D:
    """Radial extension of the affine edge correspondence between two simple
    polygons with certified star centres.  Vertex i of the domain corresponds
    to vertex i of the codomain; edge maps are linear in arclength."""

    def __init__(self, domain: StarShape, codomain: StarShape):
        if domain.dim != 2 or codomain.dim != 2:
            raise GeometryError("RadialMap2D needs 2D shapes")
        if len(domain.vertices) != len(codomain.vertices):
            raise GeometryError("vertex correspondence requires equal counts")
        self.domain = domain
        self.codomain = codomain
        self._dverts = [tuple(map(float, p)) for p in domain.vertices]
        self._iverts = [tuple(map(float, p)) for p in codomain.vertices]
        self._a = (float(domain.centre[0]), float(domain.centre[1]))
        self._b = (float(codomain.centre[0]), float(codomain.centre[1]))
        self._tol = domain.tol

    def eval(self, u, v):
        ax, ay = self._a
        bx, by = self._b
        du = u - ax
        dv = v - ay
        if du * du + dv * dv <= self._tol * self._tol:
            return bx, by
        i, s, t = _psi_polygon_scalar(self._dverts, ax, ay, u, v)
        n = len(self._iverts)
        px, py = self._iverts[i]
        qx, qy = self._iverts[(i + 1) % n]
        wx = px + s * (qx - px)
        wy = py + s * (qy - py)
        frac = 1.0 / t
        return bx + frac * (wx - bx), by + frac * (wy - by)

    def invert(self, w1, w2):
        ax, ay = self._a
        bx, by = self._b
        dw1 = w1 - bx
        dw2 = w2 - by
        if dw1 * dw1 + dw2 * dw2 <= self.codomain.tol * self.codomain.tol:
            return ax, ay
        j, s, t = _psi_polygon_scalar(self._iverts, bx, by, w1, w2)
        n = len(self._dverts)
        px, py = self._dverts[j]
        qx, qy = self._dverts[(j + 1) % n]
        xb = px + s * (qx - px)
        yb = py + s * (qy - py)
        frac = 1.0 / t
        return ax + frac * (xb - ax), ay + frac * (yb - ay)


def build_radial_map_2d(domain_vertices, image_vertices, resolution=64,
                        domain_centre=None, image_centre=None):
    """RadialMap2D between two polygons given in corresponding vertex order.
    Centres default to the area centroid, falling back to the visibility
    kernel centroid; both are certified."""
    dc = pick_star_centre_2d(domain_vertices) if domain_centre is None else domain_centre
    ic = pick_star_centre_2d(image_vertices) if image_centre is None else image_centre
    dom = StarShape.polygon(domain_vertices, dc)
    cod = StarShape.polygon(image_vertices, ic)
    attach_certificate(dom, resolution)
    attach_certificate(cod, resolution)
    return RadialMap2D(dom, cod)


class FacetPiece:
    """One entry of a boundary dispatch table."""

    kind = "abstract"
    region: PlanarLoop           # the piece's planar domain patch

    def eval3(self, p):          # p, result: (x, y, z) float tuples
        raise NotImplementedError

    def invert3(self, q):
        raise NotImplementedError

    def contains_domain_points(self, pts, tol):
        """Mask of the rows of pts (shape (N, 3)) in the domain patch."""
        return self.region.contains(pts, tol)

    def domain_boundary_loops(self):
        """Ordered 3D vertex loops bounding the piece's domain patch."""
        return [self.region.loop]

    def trace(self, p):
        """Signature of the smooth sub-region of the piece containing p."""
        return 0

    def affine_cells(self):
        """(domain triangle, image triangle) pairs of 3D points: the piece is
        affine on each domain triangle, and together they cover its patch."""
        raise NotImplementedError


class IdentityPiece(FacetPiece):
    kind = "identity"

    def __init__(self, loop3):
        self.region = PlanarLoop(loop3)

    def eval3(self, p):
        return p

    def invert3(self, q):
        return q

    def affine_cells(self):
        tri = tuple(self.region.loop[:3])
        return [(tri, tri)]


class Radial2DPiece(FacetPiece):
    """A nested 2D radial extension living on a planar face."""

    kind = "radial2d"

    def __init__(self, domain_loop3, image_loop3, resolution=64,
                 domain_centre2=None, image_centre2=None):
        self.dom_frame = frame_for_polygon(domain_loop3)
        self.img_frame = frame_for_polygon(image_loop3)
        dom2 = [self.dom_frame.to2d(tuple(map(float, p))) for p in domain_loop3]
        img2 = [self.img_frame.to2d(tuple(map(float, p))) for p in image_loop3]
        self.map2d = build_radial_map_2d(dom2, img2, resolution,
                                         domain_centre2, image_centre2)
        self.region = PlanarLoop(domain_loop3)
        self.image_loop = [tuple(map(float, p)) for p in image_loop3]

    def eval3(self, p):
        u, v = self.dom_frame.to2d(p)
        w1, w2 = self.map2d.eval(u, v)
        return self.img_frame.to3d(w1, w2)

    def invert3(self, q):
        w1, w2 = self.img_frame.to2d(q)
        u, v = self.map2d.invert(w1, w2)
        return self.dom_frame.to3d(u, v)

    def trace(self, p):
        u, v = self.dom_frame.to2d(p)
        m = self.map2d
        ax, ay = m._a
        du, dv = u - ax, v - ay
        if du * du + dv * dv <= m._tol * m._tol:
            return -1
        edge, _, _ = _psi_polygon_scalar(m._dverts, ax, ay, u, v)
        return edge

    def affine_cells(self):
        """The cones of the 2D extension from the face centre over each edge."""
        c = self.dom_frame.to3d(*self.map2d._a)
        c_img = self.img_frame.to3d(*self.map2d._b)
        dom, img = self.region.loop, self.image_loop
        n = len(dom)
        return [((c, dom[i], dom[(i + 1) % n]), (c_img, img[i], img[(i + 1) % n]))
                for i in range(n)]


class AffineTrianglePiece(FacetPiece):
    """Affine correspondence between a domain triangle and an image triangle
    (used to invert closed-form facet maps; evaluation is exact barycentric
    transport)."""

    kind = "affine-triangle"

    def __init__(self, dom_tri, img_tri):
        self.dom = np.asarray(dom_tri, dtype=float)
        self.img = np.asarray(img_tri, dtype=float)
        self.region = PlanarLoop(self.dom)

    def _bary(self, tri, p):
        e1 = tri[1] - tri[0]
        e2 = tri[2] - tri[0]
        d = np.asarray(p, dtype=float) - tri[0]
        m = np.array([[e1 @ e1, e1 @ e2], [e1 @ e2, e2 @ e2]])
        rhs = np.array([e1 @ d, e2 @ d])
        u, v = np.linalg.solve(m, rhs)
        return u, v

    def eval3(self, p):
        u, v = self._bary(self.dom, p)
        q = self.img[0] + u * (self.img[1] - self.img[0]) + v * (self.img[2] - self.img[0])
        return (float(q[0]), float(q[1]), float(q[2]))

    def invert3(self, q):
        u, v = self._bary(self.img, q)
        p = self.dom[0] + u * (self.dom[1] - self.dom[0]) + v * (self.dom[2] - self.dom[0])
        return (float(p[0]), float(p[1]), float(p[2]))

    def affine_cells(self):
        return [(tuple(map(tuple, self.dom.tolist())),
                 tuple(map(tuple, self.img.tolist())))]


class FormulaPiece(FacetPiece):
    """A named closed-form facet map with piecewise-affine structure.

    ``fn`` evaluates the formula; ``triangles`` is a list of
    AffineTrianglePiece giving the exact affine restriction to each smooth
    region, used for inversion and containment."""

    kind = "formula"

    def __init__(self, fn, triangles, loop3):
        self.fn = fn
        self.triangles = triangles
        self.region = PlanarLoop(loop3)

    def eval3(self, p):
        return self.fn(p)

    def invert3(self, q):
        best = None
        best_def = math.inf
        for tri in self.triangles:
            u, v = tri._bary(tri.img, q)
            deficiency = max(-u, -v, u + v - 1, 0.0)
            if deficiency < best_def:
                best_def = deficiency
                best = tri
        return best.invert3(q)

    def trace(self, p):
        best = 0
        best_def = math.inf
        for k, tri in enumerate(self.triangles):
            u, v = tri._bary(tri.dom, p)
            deficiency = max(-u, -v, u + v - 1, 0.0)
            if deficiency < best_def:
                best_def = deficiency
                best = k
        return best

    def affine_cells(self):
        return [cell for tri in self.triangles for cell in tri.affine_cells()]


# ---------------------------------------------------------------------------
# piece selectors (dispatch within one domain facet)

class TrivialSelect:
    """The facet carries a single piece."""

    def __init__(self, piece):
        self.pieces = [piece]
        self._piece = piece

    def select(self, hp):
        return self._piece, 0


class QuadrantSelect:
    """Dispatch over four sub-squares of a facet by (x1, x2) quadrant."""

    def __init__(self, pieces, split=(1.0, 1.0)):
        self.pieces = list(pieces)   # order: (lo,lo), (hi,lo), (lo,hi), (hi,hi)
        self.split = split

    def select(self, hp):
        k = (1 if hp[0] > self.split[0] else 0) + \
            (2 if hp[1] > self.split[1] else 0)
        return self.pieces[k], k


class DiagonalSelect:
    """Dispatch between the two triangles of a quadrilateral facet split
    along a diagonal."""

    def __init__(self, p0, p1, face_normal, pieces=None):
        p0 = np.asarray(p0, dtype=float)
        d = np.asarray(p1, dtype=float) - p0
        n = np.cross(d, np.asarray(face_normal, dtype=float))
        self._p0 = tuple(p0)
        self._n = tuple(n / np.linalg.norm(n))
        self.pieces = list(pieces) if pieces is not None else [None, None]

    def side(self, hp):
        s = ((hp[0] - self._p0[0]) * self._n[0]
             + (hp[1] - self._p0[1]) * self._n[1]
             + (hp[2] - self._p0[2]) * self._n[2])
        return 1 if s > 0 else 0

    def select(self, hp):
        k = self.side(hp)
        return self.pieces[k], k


# ---------------------------------------------------------------------------
# the 3D radial map

def _pair_distances(p, rows):
    """Distances from the rows ``rows`` of p to every row of p."""
    d = p[None, :, :] - p[rows, None, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", d, d))


@dataclass
class ValidationReport:
    passed: bool
    worst_boundary_dev: float
    worst_seam_dev: float
    injectivity_violations: int
    detail: str = ""


class RadialMap:
    """Radial extension of a facet-dispatched boundary map between two star
    polyhedra.  Evaluation follows the radial formula; the inverse uses the
    same formula with the codomain's ray projection and per-piece inverses."""

    def __init__(self, domain: StarShape, codomain: StarShape,
                 selectors_by_facet, piece_by_codomain_facet):
        self.domain = domain
        self.codomain = codomain
        self.selectors_by_facet = dict(selectors_by_facet)
        self.piece_by_codomain_facet = dict(piece_by_codomain_facet)
        a = domain.centre
        b = codomain.centre
        self._ax, self._ay, self._az = map(float, a)
        self._bx, self._by, self._bz = map(float, b)
        self._lo = tuple(map(float, domain.box[0])) if domain.box is not None else None
        self._hi = tuple(map(float, domain.box[1])) if domain.box is not None else None
        self._ctol = domain.tol
        self.all_pieces = []
        for sel in self.selectors_by_facet.values():
            for p in sel.pieces:
                if p not in self.all_pieces:
                    self.all_pieces.append(p)

    @classmethod
    def from_pieces(cls, domain, codomain, piece_by_domain_facet,
                    piece_by_codomain_facet):
        sels = {f: TrivialSelect(p) for f, p in piece_by_domain_facet.items()}
        return cls(domain, codomain, sels, piece_by_codomain_facet)

    # -- evaluation --------------------------------------------------------

    def eval(self, p, with_trace=False):
        x, y, z = float(p[0]), float(p[1]), float(p[2])
        dx = x - self._ax
        dy = y - self._ay
        dz = z - self._az
        if dx * dx + dy * dy + dz * dz <= self._ctol * self._ctol:
            out = (self._bx, self._by, self._bz)
            return (out, ("centre",)) if with_trace else out
        if self._lo is not None:
            facet, t = _ray_box_scalar(self._ax, self._ay, self._az,
                                       self._lo, self._hi, x, y, z)
            hx = self._ax + t * dx
            hy = self._ay + t * dy
            hz = self._az + t * dz
        else:
            hit = psi(self.domain, np.array([x, y, z]))
            facet, t = hit.facet, hit.t
            hx, hy, hz = map(float, hit.point)
        sel = self.selectors_by_facet.get(facet)
        if sel is None:
            raise GeometryError(f"no boundary piece for facet {facet}")
        piece, sub = sel.select((hx, hy, hz))
        wx, wy, wz = piece.eval3((hx, hy, hz))
        frac = 1.0 / t
        out = (self._bx + frac * (wx - self._bx),
               self._by + frac * (wy - self._by),
               self._bz + frac * (wz - self._bz))
        if with_trace:
            return out, ("facet", facet, sub, piece.trace((hx, hy, hz)))
        return out

    def inverse(self, q):
        x, y, z = float(q[0]), float(q[1]), float(q[2])
        dx = x - self._bx
        dy = y - self._by
        dz = z - self._bz
        if dx * dx + dy * dy + dz * dz <= (self.codomain.tol) ** 2:
            return (self._ax, self._ay, self._az)
        hit = psi(self.codomain, np.array([x, y, z]))
        piece = self.piece_by_codomain_facet[hit.facet]
        hp = (float(hit.point[0]), float(hit.point[1]), float(hit.point[2]))
        ux, uy, uz = piece.invert3(hp)
        frac = 1.0 / hit.t
        return (self._ax + frac * (ux - self._ax),
                self._ay + frac * (uy - self._ay),
                self._az + frac * (uz - self._az))

    # -- diagnostics -------------------------------------------------------

    def boundary_eval(self, p):
        """Value of the boundary map at a boundary point of the domain."""
        if self._lo is not None:
            facet, _ = _ray_box_scalar(self._ax, self._ay, self._az,
                                       self._lo, self._hi,
                                       float(p[0]), float(p[1]), float(p[2]))
        else:
            facet = psi(self.domain, np.asarray(p, dtype=float)).facet
        piece, _ = self.selectors_by_facet[facet].select(tuple(map(float, p)))
        return piece.eval3(tuple(map(float, p)))

    def sample_domain_boundary(self, count, rng):
        return _boundary_samples(self.domain, count, rng)

    def validate_boundary_map(self, samples=2000, seed=0) -> ValidationReport:
        rng = np.random.default_rng(seed)
        pts = self.sample_domain_boundary(samples, rng)
        scale = self.codomain.diameter
        tol_boundary = max(self.codomain.tol * 1e3, 1e-12 * scale)
        tol_seam = TAU_SEAM * max(1.0, scale)

        images = np.array([self.boundary_eval(p) for p in pts], dtype=float)
        dist, _ = _surface_distance(self.codomain, images)
        worst_b = float(dist.max(initial=0.0))

        # seam agreement: six points on every edge of every piece, each
        # evaluated by every piece that claims it
        seam_pts = []
        for piece in self.all_pieces:
            for loop in piece.domain_boundary_loops():
                m = len(loop)
                for i in range(m):
                    p0 = np.asarray(loop[i])
                    p1 = np.asarray(loop[(i + 1) % m])
                    seam_pts.append(p0 + rng.random(6)[:, None] * (p1 - p0))
        seam_pts = np.concatenate(seam_pts)
        tolc = self.domain.tol * 1e3
        claims = np.array([other.contains_domain_points(seam_pts, tolc)
                           for other in self.all_pieces])
        worst_seam = 0.0
        for p, owners in zip(seam_pts.tolist(), claims.T):
            vals = [np.asarray(self.all_pieces[k].eval3(tuple(p)))
                    for k in np.flatnonzero(owners)]
            for v in vals[1:]:
                worst_seam = max(worst_seam, float(np.linalg.norm(v - vals[0])))

        # empirical injectivity, over row blocks of the pair arrays
        sep = 1e-3 * self.domain.diameter
        viol = 0
        for rows in _row_chunks(len(pts), 3 * len(pts)):
            d_dom = _pair_distances(pts, rows)
            d_img = _pair_distances(images, rows)
            viol += int(np.count_nonzero((d_dom > sep) & (d_img < sep / 10)))
        viol //= 2

        passed = (worst_b <= tol_boundary and worst_seam <= tol_seam
                  and viol == 0)
        return ValidationReport(passed=passed, worst_boundary_dev=worst_b,
                                worst_seam_dev=worst_seam,
                                injectivity_violations=viol,
                                detail=f"tol_boundary={tol_boundary:.3e} "
                                       f"tol_seam={tol_seam:.3e}")

    def sample_interior(self, count, rng):
        if self.domain.box is not None:
            lo, hi = self.domain.box
            return lo + rng.random((count, 3)) * (hi - lo)
        out = []
        lo = self.domain.vertices.min(axis=0)
        hi = self.domain.vertices.max(axis=0)
        while len(out) < count:
            cand = lo + rng.random((count, 3)) * (hi - lo)
            for c in cand:
                if locate(self.domain, c).kind == "interior":
                    out.append(c)
                    if len(out) == count:
                        break
        return np.asarray(out)

    def empirical_bilipschitz(self, pairs=2000, seed=0):
        rng = np.random.default_rng(seed)
        xs = self.sample_interior(pairs, rng)
        ys = self.sample_interior(pairs, rng)
        l_min = math.inf
        l_max = 0.0
        for x, y in zip(xs, ys):
            d = float(np.linalg.norm(x - y))
            if d < 1e-9 * self.domain.diameter:
                continue
            fx = self.eval(tuple(x))
            fy = self.eval(tuple(y))
            r = math.dist(fx, fy) / d
            l_min = min(l_min, r)
            l_max = max(l_max, r)
        return l_min, l_max


# ---------------------------------------------------------------------------
# the exact piecewise-affine form of a radial map on a box

def _cell_linear_part(a, b, dom, img):
    """The 3x3 matrix A of the affine map p -> b + A (p - a) that sends each
    domain triangle vertex dom[i] to img[i]."""
    d = np.asarray(dom, dtype=float) - np.asarray(a, dtype=float)
    w = np.asarray(img, dtype=float) - np.asarray(b, dtype=float)
    return np.linalg.solve(d, w).T          # rows: A d_i = w_i


def _sector_entry(cells, rows, iu, iv):
    """Locate the cells of one piece by the angle, in the face coordinates
    (iu, iv), about the centroid c of the vertices all cells share: the Radial2D
    face centre, or the midpoint of a split square's diagonal.  Returns
    (iu, iv, cu, cv, bounds, sectors): a point h of the patch lies in the cell
    whose row is sectors[bisect_right(bounds, atan2(h_v - cv, h_u - cu))]; the
    first and the last sector are the one that wraps through the angle pi."""
    if len(cells) == 1:
        return (iu, iv, 0.0, 0.0, [], [rows[0]])
    shared = set(cells[0][0]).intersection(*(dom for dom, _ in cells[1:]))
    if not shared:
        raise GeometryError("the cells of a piece share no vertex")
    cu = sum(p[iu] for p in shared) / len(shared)
    cv = sum(p[iv] for p in shared) / len(shared)
    rim = {p for dom, _ in cells for p in dom if (p[iu], p[iv]) != (cu, cv)}
    bounds = sorted({math.atan2(p[iv] - cv, p[iu] - cu) for p in rim})
    reach = 1e-6 * min(math.hypot(p[iu] - cu, p[iv] - cv) for p in rim)
    mids = [0.5 * (lo + hi) for lo, hi in zip(bounds, bounds[1:])]
    mids.append(0.5 * (bounds[-1] + bounds[0]) + math.pi)
    tris = [np.array([[p[iu], p[iv], 1.0] for p in dom]).T for dom, _ in cells]
    picks = []
    for th in mids:
        q = np.array([cu + reach * math.cos(th), cv + reach * math.sin(th), 1.0])
        depth = [float(np.linalg.solve(tri, q).min()) for tri in tris]
        k = int(np.argmax(depth))
        if depth[k] <= 0.0:
            raise GeometryError(f"no cell of the piece covers the sector at angle {th}")
        picks.append(rows[k])
    return (iu, iv, cu, cv, bounds, [picks[-1]] + picks[:-1] + [picks[-1]])


class AffineCellTable:
    """A radial map on a box domain as its exact affine cells.

    Each cell is the cone from the domain centre a over one triangle on which
    the boundary piece is affine (``FacetPiece.affine_cells``); on it the map
    is p -> b + A (p - a), fixed by a -> b and the triangle's three vertex
    images.  Evaluation takes the exit facet of the ray from a (as
    ``RadialMap.eval`` does), the facet's selector for the piece, a sector
    test about the piece's shared vertex for the cell, and one affine
    product.  The centre ball of radius ``domain.tol`` maps to b, as in
    ``RadialMap.eval``.
    """

    def __init__(self, rmap: RadialMap):
        if rmap._lo is None:
            raise GeometryError("a cell table needs a box domain")
        self._a = (rmap._ax, rmap._ay, rmap._az)
        self._b = (rmap._bx, rmap._by, rmap._bz)
        self._lo, self._hi = rmap._lo, rmap._hi
        self._ctol2 = rmap._ctol * rmap._ctol
        self.labels = []
        linear = []
        self._facets = []
        for facet in range(6):
            sel = rmap.selectors_by_facet.get(facet)
            if sel is None:
                raise GeometryError(f"no boundary piece for facet {facet}")
            iu, iv = [i for i in range(3) if i != facet // 2]
            entries = []
            for k, piece in enumerate(sel.pieces):
                cells = piece.affine_cells()
                rows = []
                for j, (dom, img) in enumerate(cells):
                    m = _cell_linear_part(self._a, self._b, dom, img)
                    linear.append(m)
                    rows.append(tuple(m.ravel().tolist()))
                    self.labels.append(f"facet {facet} piece {k} cell {j}")
                entries.append(_sector_entry(cells, rows, iu, iv))
            self._facets.append((sel, entries))
        self.linear = np.array(linear)

    def __len__(self):
        return len(self.labels)

    def determinants(self):
        """det of each cell's linear part, in ``labels`` order."""
        return np.linalg.det(self.linear)

    def eval(self, x, y, z):
        ax, ay, az = self._a
        bx, by, bz = self._b
        dx = x - ax
        dy = y - ay
        dz = z - az
        if dx * dx + dy * dy + dz * dz <= self._ctol2:
            return (bx, by, bz)
        facet, t = _ray_box_scalar(ax, ay, az, self._lo, self._hi, x, y, z)
        h = (ax + t * dx, ay + t * dy, az + t * dz)
        sel, entries = self._facets[facet]
        iu, iv, cu, cv, bounds, sectors = entries[sel.select(h)[1]]
        if bounds:
            m = sectors[bisect_right(bounds, math.atan2(h[iv] - cv, h[iu] - cu))]
        else:
            m = sectors[0]
        return (bx + m[0] * dx + m[1] * dy + m[2] * dz,
                by + m[3] * dx + m[4] * dy + m[5] * dz,
                bz + m[6] * dx + m[7] * dy + m[8] * dz)
