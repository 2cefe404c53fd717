"""Radial extension of boundary maps between star shapes.

A boundary homeomorphism between two star shapes extends to the closed
regions by transporting radial fractions: a point at fraction s of the way
from the domain centre to the boundary maps to the point at fraction s from
the codomain centre to the image boundary point.

The boundary map itself is a dispatch table over domain facets; each piece
is a nested 2D radial extension living on a planar face, a closed-form map
with the triangles on which it is affine, or the identity.

Every piece is affine on a few triangles of its patch, so the radial
extension of a box is affine on the cone from the domain centre over each
of them.  ``RadialMap`` is built from the pieces and compiles them into its
``AffineCellTable``, which both evaluates and inverts the map: forward by
one facet test, one sector test and one affine product, backward by the
codomain facet from ``psi``, a cone test among that facet's image cells and
one inverse affine product.  The same cells make the boundary map's
certificate finite: ``RadialMap.validate_boundary_map`` checks it exactly on
the cell vertices.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .geometry import (CertificationFailure, GeometryError, StarShape, psi,
                       _det3_signs, _dots, _psi_polygon_scalar, _ray_box_scalar)

# Seam agreement tolerance for unit-scale charts; scaled by chart diameter;
# also the relative tolerance of the facet area sums.
TAU_SEAM = 1e-9


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _norm(v):
    """|v| of a float triple as ``np.linalg.norm`` computes it: the square
    root of numpy's dot, whose rounding the Python sum does not repeat."""
    return math.sqrt(np.dot(v, v))


class Frame:
    """Orthonormal coordinates on a plane embedded in R^3: origin, e1 along
    the given e1 and e2 the given e2 made orthonormal to it (Gram-Schmidt),
    in Python floats with numpy's dot for every dot product and norm."""

    __slots__ = ("_ox", "_oy", "_oz", "_e1x", "_e1y", "_e1z",
                 "_e2x", "_e2y", "_e2z")

    def __init__(self, origin, e1, e2):
        n1 = _norm(e1)
        e1 = [float(c) / n1 for c in e1]
        d = float(np.dot(e2, e1))
        e2 = [float(c) - d * u for c, u in zip(e2, e1)]
        n2 = _norm(e2)
        self._ox, self._oy, self._oz = map(float, origin)
        self._e1x, self._e1y, self._e1z = e1
        self._e2x, self._e2y, self._e2z = (c / n2 for c in e2)

    def to2d(self, p):
        """Plane coordinates of p = (x, y, z)."""
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
    """A frame spanning the plane of a planar 3D polygon (float triples):
    origin the first vertex, e1 along the first edge, and e2 in the plane
    of e1 and the normal e1 x (q - p0) of largest norm over the later
    vertices q (the first on ties).  The crosses are taken in floats and
    the candidates' norms in one numpy call; raises GeometryError if every
    candidate normal is shorter than 1e-14."""
    p0, *rest = [tuple(map(float, p)) for p in vertices3]
    if len(rest) < 2:
        raise GeometryError("degenerate polygon for frame")
    e1 = tuple(q - o for q, o in zip(rest[0], p0))
    normals = [_cross(e1, tuple(c - o for c, o in zip(q, p0))) for q in rest[1:]]
    normals_array = np.array(normals)
    norms = np.sqrt(_dots(normals_array, normals_array)).tolist()
    k = norms.index(max(norms))
    if not norms[k] >= 1e-14:
        raise GeometryError("degenerate polygon for frame")
    return Frame(p0, e1, _cross(normals[k], e1))


# ---------------------------------------------------------------------------
# 2D star centres: the visibility kernel (the points that see the whole
# polygon) and area centroids

def polygon_kernel(vertices):
    """Visibility kernel of a simple polygon given by its (x, y) vertices,
    as the (possibly empty) list of the (x, y) float vertices of a convex
    polygon: a box around the polygon clipped by every edge's inner
    half-plane, in Python floats."""
    v = [tuple(map(float, p)) for p in vertices]
    n = len(v)
    area2 = sum(v[i][0] * v[(i + 1) % n][1] - v[(i + 1) % n][0] * v[i][1]
                for i in range(n))
    sign = 1.0 if area2 > 0 else -1.0
    xs, ys = zip(*v)
    lo, hi = (min(xs) - 1.0, min(ys) - 1.0), (max(xs) + 1.0, max(ys) + 1.0)
    poly = [lo, (hi[0], lo[1]), hi, (lo[0], hi[1])]
    for i in range(n):
        p0 = v[i]
        dx, dy = v[(i + 1) % n][0] - p0[0], v[(i + 1) % n][1] - p0[1]
        # interior is to the left of each edge for CCW orientation
        poly = _clip_halfplane(poly, p0, (-sign * dy, sign * dx))
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
            dx, dy = nxt[0] - cur[0], nxt[1] - cur[1]
            t = -((cur[0] - p0[0]) * nx + (cur[1] - p0[1]) * ny) / (dx * nx + dy * ny)
            out.append((cur[0] + t * dx, cur[1] + t * dy))
    return out


def polygon_centroid(vertices):
    """Area centroid (x, y) of a polygon, in Python floats; the vertex mean
    for a polygon of zero area."""
    v = [tuple(map(float, p)) for p in vertices]
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
        return tuple(np.mean(v, axis=0).tolist())
    return cx / (3 * a), cy / (3 * a)


def pick_star_centre_2d(vertices):
    """Area centroid if it lies in the visibility kernel, else the kernel
    centroid, as an (x, y) float pair.  Raises if the kernel is empty
    (polygon is not star-shaped)."""
    kern = polygon_kernel(vertices)
    if not kern:
        raise CertificationFailure("polygon has an empty visibility kernel")
    c = polygon_centroid(vertices)
    # c in kernel?  kernel is convex: test against its edges
    m = len(kern)
    for i in range(m):
        (x0, y0), (x1, y1) = kern[i], kern[(i + 1) % m]
        if (c[0] - x0) * (y1 - y0) - (c[1] - y0) * (x1 - x0) > 1e-12:
            return polygon_centroid(kern)
    return c


# ---------------------------------------------------------------------------
# 2D radial maps and facet pieces

class RadialMap2D:
    """Radial extension of the affine edge correspondence between two simple
    polygons with certified star centres.  Vertex i of the domain corresponds
    to vertex i of the codomain; edge maps are linear in arclength.  Only
    the boundary-map check evaluates it; the 3D chart's cell table carries
    its cones."""

    def __init__(self, domain: StarShape, codomain: StarShape):
        if domain.dim != 2 or codomain.dim != 2:
            raise GeometryError("RadialMap2D needs 2D shapes")
        if len(domain.vertices) != len(codomain.vertices):
            raise GeometryError("vertex correspondence requires equal counts")
        self.domain = domain
        self.codomain = codomain
        self._dverts = list(map(tuple, domain._loop))
        self._iverts = list(map(tuple, codomain._loop))
        self._a = tuple(domain.centre.tolist())
        self._b = tuple(codomain.centre.tolist())
        self._tol = domain.tol

    def eval(self, u, v):
        return _radial_2d(self._dverts, self._iverts, self._a, self._b,
                          self._tol, u, v)


def _radial_2d(src, dst, a, b, tol, u, v):
    """The radial extension from the polygon src about a to dst about b,
    at (u, v); the disc of radius tol about a maps to b."""
    ax, ay = a
    bx, by = b
    du = u - ax
    dv = v - ay
    if du * du + dv * dv <= tol * tol:
        return bx, by
    hit = _psi_polygon_scalar(src, ax, ay, du, dv)
    if hit is None:
        raise GeometryError("point outside the domain polygon")
    i, s, t = hit
    px, py = dst[i]
    qx, qy = dst[(i + 1) % len(dst)]
    wx = px + s * (qx - px)
    wy = py + s * (qy - py)
    frac = 1.0 / t
    return bx + frac * (wx - bx), by + frac * (wy - by)


def build_radial_map_2d(domain_vertices, image_vertices,
                        domain_centre=None, image_centre=None):
    """RadialMap2D between two polygons given in corresponding vertex order.
    Centres default to the area centroid, falling back to the visibility
    kernel centroid (``pick_star_centre_2d``); building each polygon
    certifies its centre, and raises ``CertificationFailure`` if it is not a
    non-tangential star centre."""
    dc = pick_star_centre_2d(domain_vertices) if domain_centre is None else domain_centre
    ic = pick_star_centre_2d(image_vertices) if image_centre is None else image_centre
    return RadialMap2D(StarShape.polygon(domain_vertices, dc),
                       StarShape.polygon(image_vertices, ic))


class FacetPiece:
    """One entry of a boundary dispatch table."""

    kind = "abstract"

    def eval3(self, p):          # p, result: (x, y, z) float tuples
        raise NotImplementedError

    def affine_cells(self):
        """(domain polygon, image polygon) pairs of 3D points, in
        corresponding order: the piece is affine on each domain polygon (a
        triangle, or the whole patch of a piece that is affine on it), and
        together they cover its patch."""
        raise NotImplementedError


def _loop(points):
    return [tuple(map(float, p)) for p in points]


class IdentityPiece(FacetPiece):
    kind = "identity"

    def __init__(self, loop3):
        self.loop = _loop(loop3)

    def eval3(self, p):
        return p

    def affine_cells(self):
        return [(self.loop, self.loop)]


class Radial2DPiece(FacetPiece):
    """A nested 2D radial extension living on a planar face."""

    kind = "radial2d"

    def __init__(self, domain_loop3, image_loop3,
                 domain_centre2=None, image_centre2=None):
        self.domain_loop = _loop(domain_loop3)
        self.image_loop = _loop(image_loop3)
        self.dom_frame = frame_for_polygon(self.domain_loop)
        self.img_frame = frame_for_polygon(self.image_loop)
        dom2 = [self.dom_frame.to2d(p) for p in self.domain_loop]
        img2 = [self.img_frame.to2d(p) for p in self.image_loop]
        self.map2d = build_radial_map_2d(dom2, img2, domain_centre2, image_centre2)

    def eval3(self, p):
        u, v = self.dom_frame.to2d(p)
        w1, w2 = self.map2d.eval(u, v)
        return self.img_frame.to3d(w1, w2)

    def affine_cells(self):
        """The cones of the 2D extension from the face centre over each edge."""
        c = self.dom_frame.to3d(*self.map2d._a)
        c_img = self.img_frame.to3d(*self.map2d._b)
        dom, img = self.domain_loop, self.image_loop
        n = len(dom)
        return [((c, dom[i], dom[(i + 1) % n]), (c_img, img[i], img[(i + 1) % n]))
                for i in range(n)]


class FormulaPiece(FacetPiece):
    """A named closed-form facet map with piecewise-affine structure.

    ``fn(x, y, z)`` evaluates the formula; ``cells`` lists the (domain
    triangle, image triangle) pairs on which it is affine, the piece's
    cells."""

    kind = "formula"

    def __init__(self, fn, cells):
        self.fn = fn
        self.cells = [(_loop(dom), _loop(img)) for dom, img in cells]

    def eval3(self, p):
        return self.fn(*p)

    def affine_cells(self):
        return self.cells


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
        self._p0 = tuple(map(float, p0))
        n = _cross([float(b) - a for a, b in zip(self._p0, p1)], tuple(map(float, face_normal)))
        norm = _norm(n)
        self._n = tuple(c / norm for c in n)
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

@dataclass
class ValidationReport:
    passed: bool
    worst_boundary_dev: float
    worst_seam_dev: float
    injectivity_violations: int
    detail: str = ""


class RadialMap:
    """Radial extension of a facet-dispatched boundary map from a box onto a
    star polyhedron.  The pieces define the map; its ``AffineCellTable``,
    built here, evaluates and inverts it."""

    def __init__(self, domain: StarShape, codomain: StarShape,
                 selectors_by_facet, piece_by_codomain_facet):
        self.domain = domain
        self.codomain = codomain
        self.selectors_by_facet = dict(selectors_by_facet)
        self.piece_by_codomain_facet = dict(piece_by_codomain_facet)
        self.all_pieces = []
        for sel in self.selectors_by_facet.values():
            for p in sel.pieces:
                if p not in self.all_pieces:
                    self.all_pieces.append(p)
        self.table = AffineCellTable(self)

    @classmethod
    def from_pieces(cls, domain, codomain, piece_by_domain_facet,
                    piece_by_codomain_facet):
        sels = {f: TrivialSelect(p) for f, p in piece_by_domain_facet.items()}
        return cls(domain, codomain, sels, piece_by_codomain_facet)

    def eval(self, p):
        return self.table.eval(float(p[0]), float(p[1]), float(p[2]))

    def inverse(self, q):
        return self.table.inverse(float(q[0]), float(q[1]), float(q[2]))

    # -- diagnostics -------------------------------------------------------

    def validate_boundary_map(self) -> ValidationReport:
        """Exact check of the boundary map on the pieces' affine cells.

        For every cell (dom, img) of every piece: the images of dom's
        vertices by ``piece.eval3`` agree with img, and each cell vertex is
        mapped alike by every cell that contains it, so images agree along
        shared edges (``worst_seam_dev``); the images lie in the plane of a
        codomain facet the piece serves (``worst_boundary_dev``); the image
        of each cell, ordered positively in its domain facet, is positive
        in that codomain facet; and the cells' areas sum to each domain
        facet's area, their images' to each codomain facet's.  The signs are
        exact: ``_oriented_areas`` takes them for all triangles of the chart
        from ``geometry._det3_signs``, whose float filter decides every sign
        outside Shewchuk's error bound and leaves the rest, zero areas among
        them, to Fraction.  The seam check over the triangles is one batched
        solve (``_cover_deviation``).
        Such a boundary map has degree one on each facet, so it is injective
        there; with a positive determinant on every cell of the radial
        extension the chart is a homeomorphism onto its codomain.
        ``injectivity_violations`` counts the image triangles that are not
        positive or that lie in a facet whose tiling fails.
        """
        scale = self.codomain.diameter
        tol_boundary = max(self.codomain.tol * 1e3, 1e-12 * scale)
        tol_seam = TAU_SEAM * max(1.0, scale)
        dom_n, dom_d, dom_area = _facet_planes(self.domain)
        cod_n, cod_d, cod_area = _facet_planes(self.codomain)
        serves = {}
        for f, piece in self.piece_by_codomain_facet.items():
            serves.setdefault(id(piece), []).append(f)
        cells = []      # (domain polygon, its images, image polygon, facets served)
        for piece in self.all_pieces:
            facets = serves.get(id(piece))
            if not facets:
                raise GeometryError(f"piece {piece.kind} serves no codomain facet")
            for dom, img in piece.affine_cells():
                dom = np.asarray(dom, dtype=float).tolist()
                cells.append((dom, [piece.eval3(p) for p in map(tuple, dom)], img, facets))
        # every cell vertex in one stack, cell after cell
        size = np.array([len(cell[0]) for cell in cells])
        start = np.cumsum(size) - size
        dom, got, img = (np.array([p for cell in cells for p in cell[j]], dtype=float)
                         for j in range(3))
        worst_seam = float(np.linalg.norm(got - img, axis=1).max())
        # the domain facet that holds each cell, and of the codomain facets
        # its piece serves the one nearest to its images (the first on ties)
        cell_fd = np.argmin(np.maximum.reduceat(np.abs(dom @ dom_n.T - dom_d), start), axis=1)
        off_plane = np.abs(np.matmul(got[:, None, None, :], cod_n[None, :, :, None])[..., 0, 0]
                           - cod_d)
        devs = np.maximum.reduceat(off_plane, start)
        cell_fc = [facets[int(np.argmin(devs[c, facets]))]
                   for c, (*_, facets) in enumerate(cells)]
        worst_b = float(devs[np.arange(len(cells)), cell_fc].max())
        # each cell polygon as a fan of triangles (0, i, i + 1) of its vertices
        cell = np.repeat(np.arange(len(cells)), size - 2)
        corners = np.array([(s, s + i, s + i + 1) for s, n in zip(start.tolist(), size.tolist())
                            for i in range(1, n - 1)])
        dom, img = dom[corners], got[corners]
        fd, fc = cell_fd[cell], np.asarray(cell_fc)[cell]
        worst_seam = max(worst_seam, _cover_deviation(dom, img, self.domain.tol * 1e3))

        signs, areas = _oriented_areas(np.concatenate([dom_n[fd], cod_n[fc]]),
                                       np.concatenate([dom, img]))
        (sd, si), (ad, ai) = np.split(signs, 2), np.split(areas, 2)
        bad = sd * si <= 0
        empty = 0         # facets that no triangle covers
        for idx, area, signed in ((fd, dom_area, sd * ad), (fc, cod_area, sd * ai)):
            off = np.abs(np.bincount(idx, signed, len(area)) - area) > TAU_SEAM * area
            bad |= off[idx]
            empty += np.count_nonzero(off & (np.bincount(idx, minlength=len(area)) == 0))
        viol = int(bad.sum() + empty)

        passed = (worst_b <= tol_boundary and worst_seam <= tol_seam
                  and viol == 0)
        return ValidationReport(passed=passed, worst_boundary_dev=worst_b,
                                worst_seam_dev=worst_seam,
                                injectivity_violations=int(viol),
                                detail=f"tol_boundary={tol_boundary:.3e} "
                                       f"tol_seam={tol_seam:.3e}")


def _facet_planes(shape):
    """Outward unit normal, plane offset and area of each facet of a 3D
    shape, from its outward-oriented triangles."""
    p = shape.vertices[shape.triangles]
    n = np.zeros((shape.facet_count, 3))
    np.add.at(n, shape.tri_facet, np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]))
    twice_area = np.linalg.norm(n, axis=1)
    n /= twice_area[:, None]
    first = shape.vertices[[poly[0] for poly in shape.facet_polys]]
    return n, np.einsum("ij,ij->i", n, first), twice_area / 2


def _oriented_areas(normals, tris):
    """(signs, signed areas) of a stack of 3D triangles (N, 3, 3), each seen
    along its unit normal normals[k]: half of normal . ((p1 - p0) x
    (p2 - p0)), the determinant with rows normal, p1 - p0 and p2 - p0,
    whose sign ``_det3_signs`` decides exactly."""
    signs, dets = _det3_signs(
        np.stack([normals, tris[:, 1], tris[:, 2]], axis=1),
        np.stack([np.zeros_like(normals), tris[:, 0], tris[:, 0]], axis=1))
    return signs, dets / 2


def _cover_deviation(dom, img, tol):
    """Largest distance, over the triangles dom[k] with images img[k]
    (stacks (T, 3, 3)) and every triangle vertex within tol of dom[k],
    between the triangle's affine interpolation at the vertex and the
    vertex's image in its own triangle; one batched solve for all
    triangles."""
    pts, images = dom.reshape(-1, 3), img.reshape(-1, 3)
    e = dom[:, 1:] - dom[:, :1]                    # (T, 2, 3): both edges from p0
    n = np.cross(e[:, 0], e[:, 1])
    d = pts[None] - dom[:, :1]                     # (T, M, 3)
    u, v = np.moveaxis(np.linalg.solve(e @ np.swapaxes(e, 1, 2), e @ np.swapaxes(d, 1, 2)),
                       1, 0)
    tri, at = np.nonzero((np.abs(d @ n[:, :, None])[..., 0]
                          <= tol * np.linalg.norm(n, axis=1)[:, None])
                         & (u >= -1e-9) & (v >= -1e-9) & (u + v <= 1 + 1e-9))
    f = img[tri, 1:] - img[tri, :1]
    want = (img[tri, 0] + u[tri, at][:, None] * f[:, 0]
            + v[tri, at][:, None] * f[:, 1])
    return float(np.linalg.norm(want - images[at], axis=1).max(initial=0.0))


# ---------------------------------------------------------------------------
# the exact piecewise-affine form of a radial map on a box

def _sector_layout(cells, iu, iv):
    """The sector layout of a piece of several cells, by the angle, in the
    face coordinates (iu, iv), about the centroid c of the vertices all
    cells share: the Radial2D face centre, or the midpoint of a split
    square's diagonal.  Returns (cu, cv, bounds, mids, probes, tris): the
    sorted angles of the cells' other vertices about c, the midpoint angle
    of each sector between them (the last one wraps through pi), one probe
    (u, v, 1) just off c at each of those angles, and each cell's matrix
    with columns (p_u, p_v, 1) over its vertices p.  ``AffineCellTable``
    solves every probe against every cell in one stacked call and gives
    each sector the cell that holds its probe deepest."""
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
    probes = [(cu + reach * math.cos(th), cv + reach * math.sin(th), 1.0) for th in mids]
    tris = [[[p[iu] for p in dom], [p[iv] for p in dom], [1.0] * len(dom)]
            for dom, _ in cells]
    return cu, cv, bounds, mids, probes, tris


def _sector_entries(walk, rows):
    """The sector entry (iu, iv, cu, cv, bounds, sectors) of each piece of
    ``walk`` ((facet, iu, iv, cells, first cell) per piece, the cells'
    rows from ``first`` on in ``rows``): a point h of the piece's patch
    lies in the cell whose row is sectors[bisect_right(bounds, atan2(h_v -
    cv, h_u - cu))], the first and the last sector being the one that wraps
    through the angle pi; a piece of one cell has no bounds.  The probes of
    all pieces are solved against their pieces' cells in one stacked call;
    each sector takes the cell whose least barycentric coordinate at its
    probe is largest (the first on ties) and raises GeometryError if that
    is not positive."""
    layouts = [_sector_layout(cells, iu, iv) if len(cells) > 1 else None
               for _, iu, iv, cells, _ in walk]
    mats, rhs = [], []          # every probe of a piece against each of its cells
    for lay in layouts:
        if lay:
            *_, probes, tris = lay
            for q in probes:
                mats += tris
                rhs += [q] * len(tris)
    if mats:
        depths = np.linalg.solve(np.array(mats), np.array(rhs)[..., None]).min(axis=(1, 2))
    entries, at = [], 0
    for (_, iu, iv, cells, first), lay in zip(walk, layouts):
        if lay is None:
            entries.append((iu, iv, 0.0, 0.0, [], [rows[first]]))
            continue
        cu, cv, bounds, mids, *_ = lay
        depth = depths[at:at + len(mids) * len(cells)].reshape(len(mids), -1)
        at += depth.size
        picks = depth.argmax(axis=1).tolist()
        for th, k, row in zip(mids, picks, depth.tolist()):
            if row[k] <= 0.0:
                raise GeometryError(f"no cell of the piece covers the sector at angle {th}")
        picks = [rows[first + k] for k in picks]
        entries.append((iu, iv, cu, cv, bounds, [picks[-1]] + picks[:-1] + [picks[-1]]))
    return entries


def _fan_frames(polygons, linear, a):
    """Per cell, the barycentric frames (9-tuples) of the fan triangles
    (0, i, i + 1) of its image polygon (dom - a) A^T relative to b: the
    image polygons of one size in one stacked product, and all frames in
    one stacked inverse."""
    fans, owner = [], []
    for size in sorted(set(map(len, polygons))):
        idx = [i for i, dom in enumerate(polygons) if len(dom) == size]
        img = (np.array([polygons[i] for i in idx]) - a) @ np.swapaxes(linear[idx], 1, 2)
        fan = [[0, i, i + 1] for i in range(1, size - 1)]
        fans.append(np.swapaxes(img[:, fan], -1, -2).reshape(-1, 3, 3))
        owner += [i for i in idx for _ in fan]
    frames = [[] for _ in polygons]
    for i, f in zip(owner, np.linalg.inv(np.concatenate(fans)).reshape(-1, 9).tolist()):
        frames[i].append(tuple(f))
    return frames


class AffineCellTable:
    """A radial map on a box domain as its exact affine cells.

    Each cell is the cone from the domain centre a over one polygon on which
    the boundary piece is affine (``FacetPiece.affine_cells``: a triangle,
    or a whole face); on it the map is p -> b + A (p - a), fixed by a -> b
    and the images of three of the polygon's vertices.  Evaluation takes the
    exit facet of the ray from a, the facet's selector for the piece, a
    sector test about the piece's shared vertex for the cell, and one affine
    product; the centre ball of radius ``domain.tol`` maps to b.

    The image cells are the cones from b over the image polygons, and they
    tile the codomain.  The inverse takes the codomain facet hit by the ray
    from b (``psi``), the image cell of the piece serving that facet whose
    cone contains q - b (barycentric frames of the polygon's fan triangles),
    and returns a + A^-1 (q - b).  Inside the centre ball of radius
    ``codomain.tol``, where the ray from b has no reliable facet, the cell
    is the one among all image cells whose cone contains q - b (the cones
    tile space); b itself maps to a.  Exterior points raise GeometryError.

    Construction solves the small systems of all cells in stacks: the
    linear parts from one solve on every cell's first three vertex
    correspondences, the sector picks from one solve of every piece's
    probes against its cells (``_sector_entries``), and the image cells'
    fan frames from one inverse (``_fan_frames``).  A stacked solve or
    inverse equals the per-matrix call bitwise, so the table is the one
    that one call per cell or probe builds.
    """

    def __init__(self, rmap: RadialMap):
        domain = rmap.domain
        if domain.box is None:
            raise GeometryError("a cell table needs a box domain")
        self._a = tuple(map(float, domain.centre))
        self._b = tuple(map(float, rmap.codomain.centre))
        self._lo, self._hi = (tuple(map(float, v)) for v in domain.box)
        self._ctol2 = domain.tol * domain.tol
        self._codomain = rmap.codomain
        self.labels = []
        self.facet_of = []        # the box facet of each cell's polygon
        self.polygons = []        # each cell's domain polygon, (k, 3)
        images = []               # each cell's image polygon
        walk = []                 # (facet, iu, iv, cells, first cell) per piece
        cells_of = {}             # id(piece) -> its cells' indices
        for facet in range(6):
            sel = rmap.selectors_by_facet.get(facet)
            if sel is None:
                raise GeometryError(f"no boundary piece for facet {facet}")
            iu, iv = [i for i in range(3) if i != facet // 2]
            for k, piece in enumerate(sel.pieces):
                cells = piece.affine_cells()
                walk.append((facet, iu, iv, cells, len(self.labels)))
                for j, (dom, img) in enumerate(cells):
                    cells_of.setdefault(id(piece), []).append(len(self.labels))
                    self.labels.append(f"facet {facet} piece {k} cell {j}")
                    self.facet_of.append(facet)
                    self.polygons.append(np.asarray(dom, dtype=float))
                    images.append(img[:3])
        # rows: A d_i = w_i over the first three vertices of each cell
        d = np.array([dom[:3] for dom in self.polygons]) - self._a
        w = np.array(images, dtype=float) - self._b
        self.linear = np.ascontiguousarray(np.swapaxes(np.linalg.solve(d, w), 1, 2))
        rows = [tuple(m) for m in self.linear.reshape(-1, 9).tolist()]
        self._facets = [(rmap.selectors_by_facet[facet], []) for facet in range(6)]
        for (facet, *_), entry in zip(walk, _sector_entries(walk, rows)):
            self._facets[facet][1].append(entry)
        singular = np.flatnonzero(~(self.determinants() != 0.0))
        if singular.size:
            raise GeometryError(f"{self.labels[singular[0]]}: singular linear part")
        inverse = np.linalg.inv(self.linear).reshape(-1, 9).tolist()
        image_cells = list(zip(_fan_frames(self.polygons, self.linear, self._a),
                               map(tuple, inverse)))
        self._ctol2_image = rmap.codomain.tol ** 2
        self._all_image_cells = image_cells
        self._image_cells = {f: [image_cells[i] for i in cells_of[id(piece)]]
                             for f, piece in rmap.piece_by_codomain_facet.items()}

    def __len__(self):
        return len(self.labels)

    def determinants(self):
        """det of each cell's linear part, in ``labels`` order."""
        return np.linalg.det(self.linear)

    def vertex_images(self, facet=None):
        """(points, images): the polygon vertices of every cell on the box
        facet ``facet`` (of every cell if None), each with its image under
        that cell's own affine map."""
        b = np.asarray(self._b)
        pts, images = [], []
        for f, dom, m in zip(self.facet_of, self.polygons, self.linear):
            if facet is None or f == facet:
                pts.append(dom)
                images.append(b + (dom - self._a) @ m.T)
        return np.concatenate(pts), np.concatenate(images)

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

    def inverse(self, x, y, z):
        ax, ay, az = self._a
        bx, by, bz = self._b
        dx = x - bx
        dy = y - by
        dz = z - bz
        r2 = dx * dx + dy * dy + dz * dz
        if r2 == 0.0:
            return (ax, ay, az)
        if r2 <= self._ctol2_image:
            cells = self._all_image_cells
        else:
            cells = self._image_cells[psi(self._codomain, (x, y, z)).facet]
        m = _cone_cell(cells, dx, dy, dz)
        return (ax + m[0] * dx + m[1] * dy + m[2] * dz,
                ay + m[3] * dx + m[4] * dy + m[5] * dz,
                az + m[6] * dx + m[7] * dy + m[8] * dz)


def _cone_cell(cells, dx, dy, dz):
    """The inverse linear part of the first of the (frames, inverse) image
    cells whose cone contains d, with barycentric slack 1e-9 in one of its
    fan triangles; failing that, of the cell that d misses least."""
    best, depth = None, -math.inf
    for frames, inv in cells:
        for f0, f1, f2, f3, f4, f5, f6, f7, f8 in frames:
            l0 = f0 * dx + f1 * dy + f2 * dz
            l1 = f3 * dx + f4 * dy + f5 * dz
            l2 = f6 * dx + f7 * dy + f8 * dz
            s = l0 + l1 + l2
            if s <= 0.0:
                continue
            low = min(l0, l1, l2) / s
            if low >= -1e-9:
                return inv
            if low > depth:
                best, depth = inv, low
    return best
