"""Boundary pieces: the boundary map of a radial extension on the facets
of its box, each piece given by its affine cells.

A piece is a list of (domain polygon, image polygon) pairs of 3D points in
corresponding order, on each of which it is affine: the fan of a planar
face about a face centre onto the fan of its image face
(``Radial2DPiece``, the radial extension of the face's edge
correspondence), the triangles on which a closed-form map is affine
(``FormulaPiece``), or the identity (``IdentityPiece``).  A face centre is
the area centroid of the face where it sees the whole face, else the
centroid of the face's visibility kernel (``_star_centres``), taken
in the face's plane coordinates (``Frame``).  ``radial_pieces`` builds a
batch of face fans with one numpy pass for the frames, plane coordinates
and centre margins of all their faces.
"""

from __future__ import annotations

import numpy as np

from .cones import _cross, _dots, _starts
from .geometry import CertificationFailure, GeometryError


class Frame:
    """Orthonormal coordinates on a plane embedded in R^3: an origin and two
    orthonormal directions e1, e2, in Python floats (``_frames`` makes
    them)."""

    __slots__ = ("_ox", "_oy", "_oz", "_e1x", "_e1y", "_e1z",
                 "_e2x", "_e2y", "_e2z")

    def __init__(self, origin, e1, e2):
        self._ox, self._oy, self._oz = origin
        self._e1x, self._e1y, self._e1z = e1
        self._e2x, self._e2y, self._e2z = e2

    def to3d(self, u, v):
        return (self._ox + u * self._e1x + v * self._e2x,
                self._oy + u * self._e1y + v * self._e2y,
                self._oz + u * self._e1z + v * self._e2z)


def _frames(polygons):
    """(frames, flat): the frame of each planar 3D polygon of ``polygons``
    (lists of float triples) and its vertices' coordinates in that frame
    (the dot products of q - p0 with e1 and e2), or None for both where
    the polygon is degenerate, all polygons in one stacked pass.  The
    frame's origin p0 is the first vertex, e1 the unit first edge, and e2
    the normal e1 x (q - p0) of largest norm over the later vertices q (the
    first on ties) crossed with e1 and made orthonormal to e1
    (Gram-Schmidt).  Every dot product and norm is numpy's (``_dots``),
    every other step the float arithmetic of one polygon at a time.  A
    polygon is degenerate if it has fewer than three vertices or every
    candidate normal is shorter than 1e-14."""
    frames, flat = [None] * len(polygons), [None] * len(polygons)
    which = [k for k, poly in enumerate(polygons) if len(poly) >= 3]
    if not which:
        return frames, flat
    n = np.array([len(polygons[k]) for k in which])
    pts = np.array([q for k in which for q in polygons[k]], dtype=float)
    first = _starts(n)
    p0 = pts[first]
    e1 = pts[first + 1] - p0
    owner = np.repeat(np.arange(len(n)), n - 2)
    rows = np.arange(len(owner)) + np.repeat(first - _starts(n - 2) + 2, n - 2)
    normals = _cross(e1[owner], pts[rows] - p0[owner])
    norms = np.sqrt(_dots(normals, normals))
    best = np.maximum.reduceat(norms, _starts(n - 2))
    at = np.minimum.reduceat(np.where(norms == best[owner], np.arange(len(owner)), len(owner)),
                             _starts(n - 2))
    good = best >= 1e-14
    at = np.where(good, at, 0)
    e2 = _cross(normals[at], e1)
    with np.errstate(divide="ignore", invalid="ignore"):   # degenerate rows are dropped
        e1 = e1 / np.sqrt(_dots(e1, e1))[:, None]
        e2 = e2 - _dots(e2, e1)[:, None] * e1
        e2 = e2 / np.sqrt(_dots(e2, e2))[:, None]
    rel = pts - np.repeat(p0, n, axis=0)
    axes = [np.repeat(e, n, axis=0) for e in (e1, e2)]
    u, v = ((rel[:, 0] * e[:, 0] + rel[:, 1] * e[:, 1] + rel[:, 2] * e[:, 2]).tolist()
            for e in axes)
    for k, ok, o, d1, d2, s, m in zip(which, good.tolist(), p0.tolist(), e1.tolist(),
                                      e2.tolist(), first.tolist(), n.tolist()):
        if ok:
            frames[k] = Frame(o, d1, d2)
            flat[k] = list(zip(u[s:s + m], v[s:s + m]))
    return frames, flat


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


def _star_centres(polygons):
    """The star centre of each polygon (a list of (x, y) float pairs): its
    area centroid if that lies in the visibility kernel, else the kernel
    centroid; raises if the kernel is empty (the polygon is not
    star-shaped).  A centroid on the inner side of every edge (the side that
    ``polygon_kernel`` keeps), by more than 1e-9 (1 + R)^2 in the edge's
    cross product, R the largest coordinate of the centroid and the
    polygon, lies in the kernel with a margin far above the rounding of the
    clipped kernel, which is then not empty: it is taken without clipping.
    The margins of all polygons are taken in one numpy pass."""
    if not polygons:
        return []
    centroids = [polygon_centroid(v) for v in polygons]
    sizes = np.array([len(v) for v in polygons])
    pts = np.array([p for v in polygons for p in v])
    owner = np.repeat(np.arange(len(polygons)), sizes)
    first = _starts(sizes)
    k = np.arange(len(pts))
    edge = pts[np.where(k + 1 < first[owner] + sizes[owner], k + 1, first[owner])] - pts
    rel = np.array(centroids)[owner] - pts
    area2 = np.add.reduceat(pts[:, 0] * (pts + edge)[:, 1] - (pts + edge)[:, 0] * pts[:, 1], first)
    size = np.maximum.reduceat(np.abs(pts).max(axis=1), first)
    size = 1e-9 * (1.0 + np.maximum(size, np.abs(centroids).max(axis=1))) ** 2
    inner = np.where(area2 > 0, 1.0, -1.0)[owner] * (edge[:, 0] * rel[:, 1] - edge[:, 1] * rel[:, 0])
    deep = (np.minimum.reduceat(inner - size[owner], first) > 0.0).tolist()
    return [c if ok else _kernel_centre(v, c) for v, c, ok in zip(polygons, centroids, deep)]


def _kernel_centre(vertices, c):
    """The centroid c if it lies in the polygon's kernel, else the kernel's
    centroid; raises if the kernel is empty."""
    kern = polygon_kernel(vertices)
    if not kern:
        raise CertificationFailure("polygon has an empty visibility kernel")
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
    of a piece that is affine on it), and together they cover its patch.
    ``sectors`` maps face axes (iu, iv) to the sector entry of the cells,
    set by the first radial map built on the piece (and never mutated)."""

    kind = "abstract"
    sectors = {}


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
    from the image face's centre.  Each centre is ``_star_centres`` of
    its face in the face's frame (``_frames``).  That the fans tile both
    faces with a positive orientation is not checked here: the chart's
    ``validate_boundary_map`` checks it exactly."""

    kind = "radial2d"

    def __init__(self, domain_loop3, image_loop3):
        _fill_radial_pieces([self], [(domain_loop3, image_loop3)])


def radial_pieces(loops):
    """The ``Radial2DPiece`` of each (domain loop, image loop) pair of
    ``loops``: the frames and plane coordinates of all their faces in one
    ``_frames`` pass.  Raises what building them one by one, in order,
    raises."""
    pieces = [Radial2DPiece.__new__(Radial2DPiece) for _ in loops]
    _fill_radial_pieces(pieces, loops)
    return pieces


def _fill_radial_pieces(pieces, loops):
    faces = [(_loop(dom), _loop(img)) for dom, img in loops]
    frames, flat = _frames([face for pair in faces for face in pair])
    # the centres of the pieces before the first that fails on its faces
    errors = ["vertex correspondence requires equal counts" if len(dom) != len(img) else
              "degenerate polygon for frame" if None in frames[2 * k:2 * k + 2] else None
              for k, (dom, img) in enumerate(faces)]
    bad = next((k for k, err in enumerate(errors) if err), len(faces))
    centres = _star_centres(flat[:2 * bad])
    if bad < len(faces):
        raise GeometryError(errors[bad])
    for k, (piece, (dom, img)) in enumerate(zip(pieces, faces)):
        piece.dom_frame, piece.img_frame = frames[2 * k:2 * k + 2]
        piece.dom_centre, piece.img_centre = centres[2 * k:2 * k + 2]
        c = piece.dom_frame.to3d(*piece.dom_centre)
        c_img = piece.img_frame.to3d(*piece.img_centre)
        n = len(dom)
        piece.cells = [((c, dom[i], dom[(i + 1) % n]), (c_img, img[i], img[(i + 1) % n]))
                       for i in range(n)]


class FormulaPiece(FacetPiece):
    """A closed-form facet map with piecewise-affine structure, as the
    (domain triangle, image triangle) pairs on which it is affine."""

    kind = "formula"

    def __init__(self, cells):
        self.cells = [(_loop(dom), _loop(img)) for dom, img in cells]
