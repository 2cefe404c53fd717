"""Radial extension of boundary maps between star shapes.

A boundary homeomorphism between two star shapes extends to the closed
regions by transporting radial fractions: a point at fraction s of the way
from the domain centre to the boundary maps to the point at fraction s from
the codomain centre to the image boundary point.

The boundary map itself is a list of pieces on each domain facet, and each
piece of it is given by its affine cells: the fan of a planar face about a
face centre onto the fan of its image face (the radial extension of the
face's edge correspondence), the triangles on which a closed-form map is
affine, or the identity.  The pieces of a facet share a vertex, as the
cells of a piece do, so one sector layout about the shared vertices finds
the piece of a facet and the cell of a piece alike.

So the radial extension of a box is affine on the cone from the domain
centre over each cell.  ``RadialMap`` is built from the pieces and compiles
them into its ``AffineCellTable``, which both evaluates and inverts the map:
forward by one facet test, a sector test for the piece and one for the cell
(each skipped where there is one entry) and one affine product, backward by
the codomain facet from ``psi``, a cone test among that facet's image cells
and one inverse affine product.  The same cells make the boundary map's
certificate finite: ``RadialMap.validate_boundary_map`` checks it exactly
on the cell vertices.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .cones import _dots, _starts
from .geometry import (CertificationFailure, GeometryError, StarShape, psi,
                       _det3_signs, _ray_box_scalar)

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
# facet pieces: the boundary map as its affine cells

class FacetPiece:
    """One entry of a boundary dispatch table, as its ``cells``: (domain
    polygon, image polygon) pairs of 3D points in corresponding order.  The
    piece is affine on each domain polygon (a triangle, or the whole patch
    of a piece that is affine on it), and together they cover its patch."""

    kind = "abstract"


def _loop(points):
    return [tuple(map(float, p)) for p in points]


class IdentityPiece(FacetPiece):
    kind = "identity"

    def __init__(self, loop3):
        loop = _loop(loop3)
        self.cells = [(loop, loop)]


class Radial2DPiece(FacetPiece):
    """A planar face mapped onto a planar image face by the radial extension
    of their edge correspondence (vertex i to vertex i, each edge affine):
    the fan of triangles from a face centre over each edge, onto the fan
    from the image face's centre.  Each centre is ``pick_star_centre_2d`` of
    its face in the face's ``Frame`` (``frame_for_polygon``).  That the fans
    tile both faces with a positive orientation is not checked here: the
    chart's ``validate_boundary_map`` checks it exactly."""

    kind = "radial2d"

    def __init__(self, domain_loop3, image_loop3):
        dom, img = _loop(domain_loop3), _loop(image_loop3)
        if len(dom) != len(img):
            raise GeometryError("vertex correspondence requires equal counts")
        self.dom_frame = frame_for_polygon(dom)
        self.img_frame = frame_for_polygon(img)
        self.dom_centre = pick_star_centre_2d([self.dom_frame.to2d(p) for p in dom])
        self.img_centre = pick_star_centre_2d([self.img_frame.to2d(p) for p in img])
        c = self.dom_frame.to3d(*self.dom_centre)
        c_img = self.img_frame.to3d(*self.img_centre)
        n = len(dom)
        self.cells = [((c, dom[i], dom[(i + 1) % n]), (c_img, img[i], img[(i + 1) % n]))
                      for i in range(n)]


class FormulaPiece(FacetPiece):
    """A closed-form facet map with piecewise-affine structure, as the
    (domain triangle, image triangle) pairs on which it is affine."""

    kind = "formula"

    def __init__(self, cells):
        self.cells = [(_loop(dom), _loop(img)) for dom, img in cells]


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
    """Radial extension of a boundary map from a box onto a star polyhedron,
    given by the pieces on each domain facet ({facet: [pieces]}) and the
    piece serving each codomain facet.  The pieces define the map; its
    ``AffineCellTable``, built here, evaluates and inverts it.  ``eval``
    raises GeometryError for a point outside the domain box by more than
    ``domain.tol``, ``inverse`` for a point outside the codomain."""

    def __init__(self, domain: StarShape, codomain: StarShape,
                 pieces_by_facet, piece_by_codomain_facet):
        self.domain = domain
        self.codomain = codomain
        self.pieces_by_facet = {f: list(pieces) for f, pieces in pieces_by_facet.items()}
        self.piece_by_codomain_facet = dict(piece_by_codomain_facet)
        self.all_pieces = []
        for pieces in self.pieces_by_facet.values():
            for p in pieces:
                if p not in self.all_pieces:
                    self.all_pieces.append(p)
        self.table = AffineCellTable(self)
        self._box = tuple([float(c) + s * domain.tol for c in v]
                          for v, s in zip(domain.box, (-1, 1)))

    def eval(self, p):
        x, y, z = float(p[0]), float(p[1]), float(p[2])
        (lx, ly, lz), (hx, hy, hz) = self._box
        if not (lx <= x <= hx and ly <= y <= hy and lz <= z <= hz):
            raise GeometryError(f"{(x, y, z)} lies outside the domain box")
        return self.table.eval(x, y, z)

    def inverse(self, q):
        return self.table.inverse(float(q[0]), float(q[1]), float(q[2]))

    # -- diagnostics -------------------------------------------------------

    def validate_boundary_map(self) -> ValidationReport:
        """Exact check of the boundary map on the pieces' affine cells.

        For every cell (dom, img) of every piece: each cell vertex is mapped
        alike by every cell that contains it, so images agree along shared
        edges (``worst_seam_dev``); the images lie in the plane of a
        codomain facet the piece serves (``worst_boundary_dev``); the image
        of each cell, ordered positively in its domain facet, is positive
        in that codomain facet; and the cells' areas sum to each domain
        facet's area, their images' to each codomain facet's, so each face
        fan is positively oriented and tiles its face.  The signs are exact:
        ``_oriented_areas`` takes them for all triangles of the chart from
        ``geometry._det3_signs``, whose float filter decides every sign
        outside Shewchuk's error bound and leaves the rest, zero areas among
        them, to Fraction.  The seam check over the triangles is one batched
        solve, each triangle against the cell vertices on its domain facet's
        plane (``_cover_deviation``).  The facet planes, normals and areas
        are those both shapes computed at construction (``facet_planes``).
        Such a boundary map has degree one on each facet, so it is injective
        there; with a positive determinant on every cell of the radial
        extension the chart is a homeomorphism onto its codomain.
        ``injectivity_violations`` counts the image triangles that are not
        positive or that lie in a facet whose tiling fails.
        """
        scale = self.codomain.diameter
        tol_boundary = max(self.codomain.tol * 1e3, 1e-12 * scale)
        tol_seam = TAU_SEAM * max(1.0, scale)
        dom_n, dom_d, dom_area = self.domain.facet_planes
        cod_n, cod_d, cod_area = self.codomain.facet_planes
        serves = {}     # id(piece) -> the codomain facets it serves
        for f, piece in self.piece_by_codomain_facet.items():
            serves.setdefault(id(piece), []).append(f)
        served = np.zeros((len(self.all_pieces), len(cod_d)), dtype=bool)
        cells = []      # (domain polygon, image polygon) of every piece
        owner = []      # the piece of each cell
        for k, piece in enumerate(self.all_pieces):
            facets = serves.get(id(piece))
            if not facets:
                raise GeometryError(f"piece {piece.kind} serves no codomain facet")
            served[k, facets] = True
            cells += piece.cells
            owner += [k] * len(piece.cells)
        # every cell vertex in one stack, cell after cell
        size = np.array([len(dom) for dom, _ in cells])
        start = np.cumsum(size) - size
        dom, img = (np.array([p for cell in cells for p in cell[j]], dtype=float)
                    for j in range(2))
        # the domain facet that holds each cell, and of the codomain facets
        # its piece serves the one nearest to its images (the lowest on ties)
        cell_fd = np.argmin(np.maximum.reduceat(np.abs(dom @ dom_n.T - dom_d), start), axis=1)
        off_plane = np.abs(np.matmul(img[:, None, None, :], cod_n[None, :, :, None])[..., 0, 0]
                           - cod_d)
        devs = np.maximum.reduceat(off_plane, start)
        cell_fc = np.argmin(np.where(served[owner], devs, np.inf), axis=1)
        worst_b = float(devs[np.arange(len(cells)), cell_fc].max())
        # each cell polygon as a fan of triangles (0, i, i + 1) of its vertices
        cell = np.repeat(np.arange(len(cells)), size - 2)
        first = start[cell]
        i = np.arange(len(cell)) - _starts(size - 2)[cell] + first
        corners = np.stack([first, i + 1, i + 2], axis=1)
        dom, img = dom[corners], img[corners]
        fd, fc = cell_fd[cell], cell_fc[cell]
        worst_seam = _cover_deviation(dom, img, self.domain.tol * 1e3, fd, dom_n, dom_d)

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


def _oriented_areas(normals, tris):
    """(signs, signed areas) of a stack of 3D triangles (N, 3, 3), each seen
    along its unit normal normals[k]: half of normal . ((p1 - p0) x
    (p2 - p0)), the determinant with rows normal, p1 - p0 and p2 - p0,
    whose sign ``_det3_signs`` decides exactly."""
    signs, dets = _det3_signs(
        np.stack([normals, tris[:, 1], tris[:, 2]], axis=1),
        np.stack([np.zeros_like(normals), tris[:, 0], tris[:, 0]], axis=1))
    return signs, dets / 2


def _cover_deviation(dom, img, tol, facet, normals, offsets):
    """Largest distance, over the triangles dom[k] with images img[k]
    (stacks (T, 3, 3)) and every triangle vertex within tol of dom[k],
    between the triangle's affine interpolation at the vertex and the
    vertex's image in its own triangle.

    A vertex within tol of dom[k] lies within tol of the plane of the
    domain facet facet[k] (unit normals and offsets ``normals``,
    ``offsets``), which holds dom[k]; so each triangle is solved only
    against the vertices within 2 tol of its facet's plane, those on a box
    edge against the triangles of both facets.  All triangles go in one
    batched solve, each with its facet's vertices as right-hand sides
    (padded to the longest such list with other vertices, masked out); a
    stacked solve with several right-hand sides gives each the coordinates
    that the solve against all vertices gives it
    (``tests/oracles.cover_deviation_all_pairs``)."""
    pts, images = dom.reshape(-1, 3), img.reshape(-1, 3)
    near = np.abs(pts @ normals.T - offsets) <= 2 * tol          # (M, facets)
    count = near.sum(axis=0)
    cand = np.argsort(~near, axis=0, kind="stable")[:count.max()].T[facet]
    valid = (np.arange(count.max()) < count[:, None])[facet]     # (T, width)
    e = dom[:, 1:] - dom[:, :1]                    # (T, 2, 3): both edges from p0
    n = np.cross(e[:, 0], e[:, 1])
    d = pts[cand] - dom[:, :1]                     # (T, width, 3)
    uv = np.linalg.solve(e @ np.swapaxes(e, 1, 2), e @ np.swapaxes(d, 1, 2))
    u, v = uv[:, 0], uv[:, 1]
    tri, col = np.nonzero(valid & (np.abs(d @ n[:, :, None])[..., 0]
                                   <= tol * np.linalg.norm(n, axis=1)[:, None])
                          & (u >= -1e-9) & (v >= -1e-9) & (u + v <= 1 + 1e-9))
    f = img[tri, 1:] - img[tri, :1]
    want = (img[tri, 0] + u[tri, col][:, None] * f[:, 0]
            + v[tri, col][:, None] * f[:, 1])
    return float(np.linalg.norm(want - images[cand[tri, col]], axis=1).max(initial=0.0))


# ---------------------------------------------------------------------------
# the exact piecewise-affine form of a radial map on a box

def _sector_layout(name, groups, iu, iv):
    """The sector layout of a level ``name`` of several entries (the cells
    of a piece, or the pieces of a facet), each a list of domain polygons,
    by the angle in the face coordinates (iu, iv) about the centroid c of
    the vertices all entries share: a Radial2D face centre, the midpoint of
    a split square's diagonal, or the corner where a facet's pieces meet.
    Returns (cu, cv, bounds, mids, probes, tris, starts): the sorted angles
    of the other vertices about c, the midpoint angle of each sector
    between them (the last one wraps through pi), a probe (u, v, 1) just
    off c at each, the matrix with columns (p_u, p_v, 1) of each fan
    triangle (0, i, i + 1) of each polygon, and each entry's first
    triangle.  Raises GeometryError if the entries share no vertex."""
    shared = set.intersection(*({p for dom in group for p in dom} for group in groups))
    if not shared:
        raise GeometryError(f"the {name} share no vertex")
    cu = sum(p[iu] for p in shared) / len(shared)
    cv = sum(p[iv] for p in shared) / len(shared)
    rim = {p for group in groups for dom in group for p in dom if (p[iu], p[iv]) != (cu, cv)}
    bounds = sorted({math.atan2(p[iv] - cv, p[iu] - cu) for p in rim})
    reach = 1e-6 * min(math.hypot(p[iu] - cu, p[iv] - cv) for p in rim)
    mids = [0.5 * (lo + hi) for lo, hi in zip(bounds, bounds[1:])]
    mids.append(0.5 * (bounds[-1] + bounds[0]) + math.pi)
    probes = [(cu + reach * math.cos(th), cv + reach * math.sin(th), 1.0) for th in mids]
    tris, starts = [], []
    for group in groups:
        starts.append(len(tris))
        tris += [[[p[iu] for p in t], [p[iv] for p in t], [1.0] * 3]
                 for dom in group for t in zip(dom[:1] * len(dom), dom[1:], dom[2:])]
    return cu, cv, bounds, mids, probes, tris, starts


def _sector_entries(levels):
    """The sector entry (cu, cv, bounds, picks) of each level of ``levels``
    ((name, iu, iv, groups) per level, as ``_sector_layout`` takes them):
    a point h of the level's patch lies in the entry with the index
    picks[bisect_right(bounds, atan2(h_v - cv, h_u - cu))], the first and
    the last sector being the one that wraps through the angle pi; a level
    of one entry has no bounds.  Every probe is solved against its level's
    triangles in one stacked call; a sector takes the entry with the
    triangle that holds its probe deepest (the first on ties) and raises
    GeometryError naming the level if no triangle holds it."""
    layouts, mats, rhs = [], [], []
    for name, iu, iv, groups in levels:
        lay = _sector_layout(name, groups, iu, iv) if len(groups) > 1 else None
        if lay:
            *_, probes, tris, _ = lay
            for q in probes:
                mats += tris
                rhs += [q] * len(tris)
        layouts.append(lay)
    if mats:
        depths = np.linalg.solve(np.array(mats), np.array(rhs)[..., None]).min(axis=(1, 2))
    entries, at = [], 0
    for (name, *_), lay in zip(levels, layouts):
        if lay is None:
            entries.append((0.0, 0.0, [], [0]))
            continue
        cu, cv, bounds, mids, _, tris, starts = lay
        depth = depths[at:at + len(mids) * len(tris)].reshape(len(mids), -1)
        at += depth.size
        depth = np.maximum.reduceat(depth, starts, axis=1)
        picks = depth.argmax(axis=1).tolist()
        for th, k, row in zip(mids, picks, depth.tolist()):
            if row[k] <= 0.0:
                raise GeometryError(f"none of the {name} covers the sector at angle {th}")
        entries.append((cu, cv, bounds, [picks[-1]] + picks[:-1] + [picks[-1]]))
    return entries


def _pick(entry, values):
    """A sector entry with its picks replaced by the values they index."""
    cu, cv, bounds, picks = entry
    return cu, cv, bounds, [values[k] for k in picks]


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
    the boundary piece is affine (``FacetPiece.cells``: a triangle, or a
    whole face); on it the map is p -> b + A (p - a), fixed by a -> b and
    the images of three of the polygon's vertices.  Evaluation takes the
    exit facet of the ray from a, the piece by a sector test about the
    vertices the facet's pieces share, the cell by one about the vertices
    the piece's cells share (a level of one entry skips its test), and one
    affine product; the centre ball of radius ``domain.tol`` maps to b.
    Points outside the box are not checked (``RadialMap.eval`` is).

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
    correspondences, the sector picks from one solve of every facet's
    probes against its pieces' cells and every piece's probes against its
    cells (``_sector_entries``), and the image cells' fan frames from one
    inverse (``_fan_frames``).  A stacked solve or inverse equals the
    per-matrix call bitwise, so the table is the one that one call per cell
    or probe builds.
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
        levels = []               # per facet its pieces, then per piece its cells
        walk = []                 # per facet (iu, iv, the first cell of each piece)
        cells_of = {}             # id(piece) -> its cells' indices
        for facet in range(6):
            pieces = rmap.pieces_by_facet.get(facet)
            if not pieces:
                raise GeometryError(f"no boundary piece for facet {facet}")
            iu, iv = [i for i in range(3) if i != facet // 2]
            levels.append((f"pieces of facet {facet}", iu, iv,
                           [[dom for dom, _ in piece.cells] for piece in pieces]))
            walk.append((iu, iv, []))
            for k, piece in enumerate(pieces):
                levels.append((f"cells of facet {facet} piece {k}", iu, iv,
                               [[dom] for dom, _ in piece.cells]))
                walk[-1][2].append(len(self.labels))
                for j, (dom, img) in enumerate(piece.cells):
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
        # per facet (iu, iv, cu, cv, bounds, pieces), per piece (cu, cv, bounds, rows)
        entries = iter(_sector_entries(levels))
        self._facets = []
        for iu, iv, firsts in walk:
            by_sector = next(entries)
            pieces = [_pick(next(entries), rows[first:]) for first in firsts]
            self._facets.append((iu, iv) + _pick(by_sector, pieces))
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
        iu, iv, cu, cv, bounds, pieces = self._facets[facet]
        cu, cv, bounds, cells = (pieces[bisect_right(bounds, math.atan2(h[iv] - cv, h[iu] - cu))]
                                 if bounds else pieces[0])
        m = cells[bisect_right(bounds, math.atan2(h[iv] - cv, h[iu] - cu))] if bounds else cells[0]
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
