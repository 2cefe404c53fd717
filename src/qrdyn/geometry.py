"""Star-shaped polyhedron geometry.

Shapes are closed, connected triangulated polyhedra in R^3, each with a
centre that the caller gives (the slab atlas states its image solids'
centres as dyadic data, ``global_map._CHARTS``); construction orients the
surface triangles outward and does not test the centre.  The module
provides the ray-to-boundary projection psi, read off the crossing of the
ray from the centre through x (``cones._crossing``, a scan of the cone
frames of the surface triangles, precomputed per polyhedron).  That the
ray crosses once is certified per chart by the exact cone signs of its
cells (``star_extend``), whose orientations, like those of the
boundary-map validation, come from ``_det3_signs``: exact, in floats where
Shewchuk's orient3d error bound decides a sign and in Python integers
inside that bound.

``star_shapes`` builds a batch of shapes with one numpy pass per step (the
plane coordinates of all their facets, their cone frames and their facet
planes); one shape is a batch of one.  The axis-aligned boxes of the radial
maps are not built here: each is convex about its midpoint and needs no
psi (``star_extend.Box``).

All shapes are immutable after construction; every operation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cones import _cone_frames, _cross, _crossing, _dots, _starts


class GeometryError(ValueError):
    """Malformed shape or precondition violation."""


# Relative tolerance for boundary classification, scaled by shape diameter.
TAU_GEOM = 1e-12


@dataclass(frozen=True)
class BoundaryHit:
    point: np.ndarray
    facet: int
    t: float


def _as_array(x):
    a = np.asarray(x, dtype=float)
    if a.shape != (3,):
        raise GeometryError(f"expected a 3-vector, got shape {a.shape}")
    if not all(map(math.isfinite, a.tolist())):
        raise GeometryError("non-finite coordinates are not admitted")
    return a


class StarShape:
    """A triangulated polyhedron about a centre.

    ``vertices`` is a vertex pool, ``facet_polys`` lists each planar facet as
    an ordered index loop, and ``triangles`` triangulates the surface with
    ``tri_facet`` recording which facet each triangle came from;
    ``facet_planes`` holds each facet's outward unit normal, plane offset
    and area, and ``_cones`` the cone frames of the surface triangles about
    the centre (``_cone_frames``), which ``psi`` scans.

    ``StarShape(vertices, centre, facet_polys)`` is ``star_shapes`` on one
    shape.  Construction checks the arguments and the surface, not the
    centre: any finite centre builds.  The shape is star about it where a
    chart with this codomain passes its cone signs (``star_extend``).
    """

    def __init__(self, vertices, centre, facet_polys):
        _build_shapes([self], [(vertices, centre, facet_polys)])


def star_shapes(specs):
    """The shapes ``StarShape(*spec)`` of ``specs``, built in one stacked
    pass: each numpy step of the construction (the facet coordinates, the
    cone frames, the facet planes) runs once over the facets or triangles
    of all shapes, their vertex and facet indices offset shape by shape.
    The shapes are bitwise those that one ``StarShape`` call per spec
    builds.  A batch raises the first error that its pass meets: the
    arguments of every shape, then the facets of all, numbered through the
    batch (``_facet_coordinates``), then each shape's surface
    (``_triangulate_planar``, ``_orient_outward``); for one shape that is
    the error of its construction."""
    shapes = [StarShape.__new__(StarShape) for _ in specs]
    _build_shapes(shapes, specs)
    return shapes


def _build_shapes(shapes, specs):
    """Fill in the blank ``shapes`` from their ``specs`` (vertices, centre,
    facet_polys), as ``star_shapes`` describes."""
    for shape, (vertices, centre, facet_polys) in zip(shapes, specs):
        shape.vertices = np.asarray(vertices, dtype=float)
        if not np.all(np.isfinite(shape.vertices)):
            raise GeometryError("non-finite vertex coordinates")
        shape.centre = _as_array(centre)
        mins = shape.vertices.min(axis=0)
        maxs = shape.vertices.max(axis=0)
        shape.diameter = float(np.linalg.norm(maxs - mins))
        if shape.diameter <= 0.0:
            raise GeometryError("degenerate shape (zero diameter)")
        shape.tol = TAU_GEOM * shape.diameter
        shape.facet_polys = [list(map(int, p)) for p in facet_polys]
        shape.facet_count = len(shape.facet_polys)
        if any(len(poly) < 3 for poly in shape.facet_polys):
            raise GeometryError("facet with fewer than 3 vertices")
    if shapes:
        _polyhedron_facets(shapes)


def _polyhedron_facets(shapes):
    """Each shape's surface triangles (ear clipped and oriented outward,
    with the facet of each), cone frames and facet planes, each numpy step
    in one pass over all shapes."""
    nf = [shape.facet_count for shape in shapes]
    voff = _starts([len(shape.vertices) for shape in shapes]).tolist()
    foff = _starts(nf).tolist()
    vertices = np.concatenate([shape.vertices for shape in shapes])
    polys = [[i + off for i in poly] for shape, off in zip(shapes, voff)
             for poly in shape.facet_polys]
    plane = _facet_coordinates(vertices, polys,
                               np.repeat([shape.tol * 10 for shape in shapes], nf))
    for shape, f0 in zip(shapes, foff):
        tris = []
        tri_facet = []
        for fi, (poly, pts2) in enumerate(zip(shape.facet_polys,
                                              plane[f0:f0 + shape.facet_count])):
            for tri in _triangulate_planar(poly, pts2):
                tris.append(tri)
                tri_facet.append(fi)
        shape.triangles = _orient_outward(shape.vertices, tris)
        shape.tri_facet = np.asarray(tri_facet, dtype=int)
    nt = [len(shape.triangles) for shape in shapes]
    points = vertices[np.concatenate([shape.triangles + off
                                      for shape, off in zip(shapes, voff)])]
    centres = np.repeat([shape.centre for shape in shapes], nt, axis=0)
    cones = _cone_frames(points - centres[:, None, :],
                         np.concatenate([shape.tri_facet for shape in shapes]), nt)
    planes = _facet_planes(vertices, polys, points, np.concatenate(
        [shape.tri_facet + off for shape, off in zip(shapes, foff)]))
    for shape, cone, f0 in zip(shapes, cones, foff):
        shape._cones = cone
        shape.facet_planes = tuple(x[f0:f0 + shape.facet_count] for x in planes)


def _facet_planes(vertices, polys, points, tri_facet):
    """(normals, offsets, areas) of the facets ``polys`` (vertex index loops
    into ``vertices``): each facet's outward unit normal, plane offset and
    area, from the outward-oriented surface triangles ``points`` (T, 3, 3)
    with the facet ``tri_facet`` of each."""
    n = np.zeros((len(polys), 3))
    np.add.at(n, tri_facet, _cross(points[:, 1] - points[:, 0],
                                     points[:, 2] - points[:, 0]))
    twice_area = np.linalg.norm(n, axis=1)
    n /= twice_area[:, None]
    first = vertices[[poly[0] for poly in polys]]
    return n, _dots(n, first), twice_area / 2


# ---------------------------------------------------------------------------
# basic polygon helpers

def _facet_coordinates(vertices, polys, tol):
    """The plane coordinates of the facets ``polys`` (vertex index loops)
    of a polyhedron, all facets in one stacked pass: each facet's vertices'
    coordinates in the frame (e1, n x e1) at its first vertex, n its unit
    Newell normal and e1 along its first edge, as lists of float pairs.
    Every dot product and norm is numpy's (``_dots``).  Raises GeometryError
    if a facet has a zero normal, or if one with more than three vertices
    leaves its plane by more than max(tol, 1e-9 max |x|) over its vertices
    x."""
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
    u, v, off = (_dots(rel, e[at]) for e in (e1, _cross(normals, e1), normals))
    scale = np.maximum.reduceat(np.abs(pts).max(axis=1), starts)
    flat = np.maximum.reduceat(np.abs(off), starts) <= np.maximum(tol, 1e-9 * scale)
    warped = np.flatnonzero(~flat & (sizes > 3))
    if warped.size:
        raise GeometryError(f"facet {warped[0]} is not planar")
    uv = np.column_stack([u, v]).tolist()
    return [uv[k:k + n] for k, n in zip(starts.tolist(), sizes.tolist())]


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
    raises if the surface is not connected (the one crossing of each ray
    from the centre needs one component), not closed or not orientable."""
    tris = [list(map(int, t)) for t in tris]
    by_edge = {}        # each undirected edge, as (low, high), -> its triangles
    for k, (a, b, c) in enumerate(tris):
        for u, v in ((a, b), (b, c), (c, a)):
            by_edge.setdefault((u, v) if u < v else (v, u), []).append(k)
    todo = set(range(1, len(tris)))
    stack = [0]
    while stack:
        a, b, c = tris[stack.pop()]
        for u, v in ((a, b), (b, c), (c, a)):
            for k in by_edge[(u, v) if u < v else (v, u)]:
                if k in todo:
                    todo.discard(k)
                    t = tris[k]
                    if (t[0], t[1]) == (u, v) or (t[1], t[2]) == (u, v) \
                            or (t[2], t[0]) == (u, v):    # must run v -> u
                        t[1], t[2] = t[2], t[1]
                    stack.append(k)
    if todo:
        raise GeometryError("surface is not connected")
    _check_watertight(tris)
    p = vertices[tris]
    if _dots(p[:, 0], _cross(p[:, 1], p[:, 2])).sum() < 0.0:
        tris = [[a, c, b] for a, b, c in tris]
    return np.asarray(tris, dtype=int)


# ---------------------------------------------------------------------------
# the ray projection psi

def psi(shape: StarShape, x) -> BoundaryHit:
    """Boundary point hit by the ray from the star centre through x.

    Defined on closure(shape) minus the centre: the crossing at or beyond
    x, so boundary points map to themselves with t = 1.  Ties on shared
    facet boundaries go to the lowest facet id.  The centre (x within tol
    of it) and exterior points (no crossing at or beyond x) raise
    GeometryError.  The crossing comes from ``_crossing``, in Python
    floats.  ``RadialMap.inverse`` takes the codomain facet of a slab chart
    from psi.  It needs every ray from the centre to cross the boundary
    once: for a chart's codomain, the chart's exact cone signs and its
    degree-one boundary map (``RadialMap.validate_boundary_map``) make the
    chart a homeomorphism of its convex box onto the solid.
    """
    x = _as_array(x)
    c, r, d = _centre_ray(shape, x)
    if d <= shape.tol:
        raise GeometryError("psi is undefined at the star centre")
    hit = _crossing(shape, r, d)
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


# ---------------------------------------------------------------------------
# exact determinant signs

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
    zero determinants among them, are evaluated exactly in Python integers:
    a row's 18 coordinates (each an integer over a power of two) scaled to
    their largest denominator.  Every sign is exact; the values are the
    float determinants, within the bound of the exact ones where the filter
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
    for k in np.flatnonzero(~sure).tolist():
        ratios = [x.as_integer_ratio() for x in p[k].ravel().tolist() + q[k].ravel().tolist()]
        den = max(d for _, d in ratios)
        m = [n * (den // d) for n, d in ratios]
        exact = _det3(*([a - b for a, b in zip(m[i:i + 3], m[i + 9:i + 12])] for i in (0, 3, 6)))
        signs[k] = (exact > 0) - (exact < 0)
    return signs, det
