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
from fractions import Fraction

import numpy as np

from .geometry import (GeometryError, StarShape, psi, pick_star_centre_2d,
                       _det3, _psi_polygon_scalar, _ray_box_scalar)

# Seam agreement tolerance for unit-scale charts; scaled by chart diameter;
# also the relative tolerance of the facet area sums.
TAU_SEAM = 1e-9


class Frame:
    """Orthonormal coordinates on a plane embedded in R^3."""

    __slots__ = ("_ox", "_oy", "_oz", "_e1x", "_e1y", "_e1z",
                 "_e2x", "_e2y", "_e2z")

    def __init__(self, origin, e1, e2):
        e1 = np.asarray(e1, dtype=float)
        e2 = np.asarray(e2, dtype=float)
        e1 = e1 / np.linalg.norm(e1)
        e2 = e2 - np.dot(e2, e1) * e1
        e2 = e2 / np.linalg.norm(e2)
        self._ox, self._oy, self._oz = map(float, np.asarray(origin, dtype=float))
        self._e1x, self._e1y, self._e1z = map(float, e1)
        self._e2x, self._e2y, self._e2z = map(float, e2)

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
        self._dverts = [tuple(map(float, p)) for p in domain.vertices]
        self._iverts = [tuple(map(float, p)) for p in codomain.vertices]
        self._a = (float(domain.centre[0]), float(domain.centre[1]))
        self._b = (float(codomain.centre[0]), float(codomain.centre[1]))
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
        self.dom_frame = frame_for_polygon(domain_loop3)
        self.img_frame = frame_for_polygon(image_loop3)
        self.domain_loop = _loop(domain_loop3)
        self.image_loop = _loop(image_loop3)
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
        in that codomain facet (signs in Fraction); and the cells' areas sum
        to each domain facet's area, their images' to each codomain facet's.
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
        worst_b = worst_seam = 0.0
        tris = []       # (dom triangle, image triangle, domain facet, codomain facet)
        for piece in self.all_pieces:
            facets = serves.get(id(piece))
            if not facets:
                raise GeometryError(f"piece {piece.kind} serves no codomain facet")
            for dom, img in piece.affine_cells():
                dom = np.asarray(dom, dtype=float)
                got = np.array([piece.eval3(p) for p in map(tuple, dom.tolist())])
                worst_seam = max(worst_seam,
                                 float(np.linalg.norm(got - np.asarray(img), axis=1).max()))
                fd = int(np.argmin(np.abs(dom @ dom_n.T - dom_d).max(axis=0)))
                devs = [float(np.abs(got @ cod_n[f] - cod_d[f]).max()) for f in facets]
                k = int(np.argmin(devs))
                worst_b = max(worst_b, devs[k])
                tris += [(dom[[0, i, i + 1]], got[[0, i, i + 1]], fd, facets[k])
                         for i in range(1, len(dom) - 1)]
        worst_seam = max(worst_seam, _cover_deviation(tris, self.domain.tol * 1e3))

        sd, ad, si, ai = np.array([_oriented_area(dom_n[fd], dom) + _oriented_area(cod_n[fc], img)
                                   for dom, img, fd, fc in tris]).T
        fd, fc = np.array([t[2:] for t in tris]).T
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


def _oriented_area(normal, tri):
    """(sign, signed area) of a 3D triangle seen along a unit normal, from
    normal . ((p1 - p0) x (p2 - p0)) in Fraction."""
    n, p0, p1, p2 = [[Fraction(c) for c in p] for p in [normal.tolist()] + tri.tolist()]
    s = _det3(n, [b - a for a, b in zip(p0, p1)], [b - a for a, b in zip(p0, p2)])
    return (s > 0) - (s < 0), float(s) / 2


def _cover_deviation(tris, tol):
    """Largest distance, over the (dom, img) triangles and every triangle
    vertex within tol of a domain triangle, between the triangle's affine
    interpolation at the vertex and the vertex's image in its own triangle."""
    pts = np.concatenate([dom for dom, *_ in tris])
    images = np.concatenate([img for _, img, *_ in tris])
    worst = 0.0
    for dom, img, *_ in tris:
        e1, e2 = dom[1] - dom[0], dom[2] - dom[0]
        n = np.cross(e1, e2)
        d = pts - dom[0]
        gram = np.array([[e1 @ e1, e1 @ e2], [e1 @ e2, e2 @ e2]])
        u, v = np.linalg.solve(gram, np.stack([d @ e1, d @ e2]))
        inside = ((np.abs(d @ n) <= tol * np.linalg.norm(n))
                  & (u >= -1e-9) & (v >= -1e-9) & (u + v <= 1 + 1e-9))
        want = img[0] + np.outer(u, img[1] - img[0]) + np.outer(v, img[2] - img[0])
        dev = np.linalg.norm(want[inside] - images[inside], axis=1)
        worst = max(worst, float(dev.max(initial=0.0)))
    return worst


# ---------------------------------------------------------------------------
# the exact piecewise-affine form of a radial map on a box

def _cell_linear_part(a, b, dom, img):
    """The 3x3 matrix A of the affine map p -> b + A (p - a) that sends the
    first three domain polygon vertices dom[i] to img[i]."""
    d = np.asarray(dom[:3], dtype=float) - np.asarray(a, dtype=float)
    w = np.asarray(img[:3], dtype=float) - np.asarray(b, dtype=float)
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
        linear = []
        self._facets = []
        cells_of = {}             # id(piece) -> its cells' indices
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
                    cells_of.setdefault(id(piece), []).append(len(linear))
                    linear.append(m)
                    rows.append(tuple(m.ravel().tolist()))
                    self.labels.append(f"facet {facet} piece {k} cell {j}")
                    self.facet_of.append(facet)
                    self.polygons.append(np.asarray(dom, dtype=float))
                entries.append(_sector_entry(cells, rows, iu, iv))
            self._facets.append((sel, entries))
        self.linear = np.array(linear)
        singular = np.flatnonzero(~(self.determinants() != 0.0))
        if singular.size:
            raise GeometryError(f"{self.labels[singular[0]]}: singular linear part")
        inverse = np.linalg.inv(self.linear).reshape(-1, 9).tolist()
        image_cells = []
        for dom, m, inv in zip(self.polygons, self.linear, inverse):
            img = (dom - self._a) @ m.T          # image polygon relative to b
            fan = np.stack([img[[0, i, i + 1]].T for i in range(1, len(img) - 1)])
            frames = np.linalg.inv(fan).reshape(-1, 9).tolist()
            image_cells.append(([tuple(f) for f in frames], tuple(inv)))
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
