"""Star-shaped polyhedron geometry.

Shapes are closed, connected triangulated polyhedra in R^3, each
star-shaped about its centre: construction runs the star test on the
centre (``certify_star_centres``) and fails with ``CertificationFailure``
where a surface triangle does not face it.  The test proves that every ray
from the centre crosses the boundary exactly once.  The module provides
the ray-to-boundary projection psi, read off that one crossing of the ray
from the centre through x (``cones._crossing``: a scan of the cone frames
of the surface triangles, precomputed per polyhedron and taken on first
use by a box).

Polyhedral surfaces are oriented outward at construction, so the star test
is one exact sign per surface triangle: the signed volume of (a,
triangle).  ``_det3_signs`` decides each such sign in floats where
Shewchuk's orient3d error bound certifies it, and only the determinants
inside that bound (zero ones among them) in ``fractions.Fraction``; the
boundary-map validation of ``star_extend`` takes its orientations from it
too.

Construction and the star test run in stacks over many shapes:
``star_shapes`` builds a batch of shapes with one numpy pass per step (the
plane coordinates of all their facets, their cone frames and their facet
planes), and ``certify_star_centres`` tests a batch of (shape, centre)
pairs with one ``_det3_signs`` call over all their surface triangles.  One
shape, or one centre, is a batch of one.  An axis-aligned box (a
``cuboid_spec``) skips the polyhedron steps: its facets, triangles and
normals are fixed by that layout.

All shapes are immutable after construction; every operation is pure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cones import _cone_frames, _cross, _crossing, _dots, _starts


class GeometryError(ValueError):
    """Malformed shape or precondition violation."""


class CertificationFailure(GeometryError):
    """A centre failed the star test: a surface triangle does not face it,
    so the rays from it need not cross the boundary exactly once."""


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
    """A triangulated polyhedron, star-shaped about its centre.

    ``vertices`` is a vertex pool, ``facet_polys`` lists each planar facet as
    an ordered index loop, and ``triangles`` triangulates the surface with
    ``tri_facet`` recording which facet each triangle came from;
    ``facet_planes`` holds each facet's outward unit normal, plane offset
    and area.

    ``StarShape(vertices, centre, facet_polys, box)`` is ``star_shapes`` on
    one shape: construction ends with the star test of its centre
    (``certify_star_centres``), so a shape with a surface triangle that does
    not face its centre is never built: it raises ``CertificationFailure``.
    Every ray from the centre of a built shape crosses its boundary exactly
    once, which ``psi`` relies on.  A spec with a box is ``cuboid_spec``'s,
    and is built as a box: its triangles and facet normals are the
    constants of that layout, and every other field is the one that the
    same vertices and facets without the box build as a general
    polyhedron.
    """

    def __init__(self, vertices, centre, facet_polys, box=None):
        _build_shapes([self], [(vertices, centre, facet_polys, box)])

    @functools.cached_property
    def _cones(self):
        """The cone frames of a box (``_cone_frames``), taken on first use
        by ``psi``.  A polyhedron's are set at construction."""
        return _cone_frames(self.vertices[self.triangles] - self.centre, self.tri_facet, [12])[0]

# the facet loops of a box: index bit 2 is x (0 lo), bit 1 y, bit 0 z; facet
# 2k is the face x_k = lo[k], facet 2k + 1 the face x_k = hi[k]
_BOX_FACES = np.array([[0, 1, 3, 2], [4, 6, 7, 5], [0, 4, 5, 1],
                       [2, 3, 7, 6], [0, 2, 6, 4], [1, 5, 7, 3]])
# what ear clipping and ``_orient_outward`` make of them on every box: two
# outward triangles per facet, in facet order, and the facets' unit normals
# (+ 0.0 turns the -0.0 of the products into the 0.0 those steps give)
_BOX_TRIANGLES = _BOX_FACES[:, [3, 0, 1, 1, 2, 3]].reshape(12, 3)
_BOX_NORMALS = np.kron(np.eye(3), [[-1.0], [1.0]]) + 0.0


def cuboid_spec(lo, hi, centre=None):
    """The ``StarShape`` arguments (vertices, centre, facet loops, box) of
    the axis-aligned cuboid [lo, hi] about ``centre`` (its midpoint if
    None); facet 2k is the face x_k = lo[k], facet 2k + 1 the face
    x_k = hi[k]."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(hi <= lo):
        raise GeometryError("cuboid needs lo < hi per axis")
    xs, ys, zs = zip(lo, hi)
    verts = np.array([[x, y, z] for x in xs for y in ys for z in zs])
    if centre is None:
        centre = 0.5 * (lo + hi)
    return verts, centre, _BOX_FACES.tolist(), (lo, hi)


def star_shapes(specs):
    """The shapes ``StarShape(*spec)`` of ``specs``, built in one stacked
    pass: each numpy step of the construction (the facet coordinates, the
    cone frames, the facet planes) runs once over the facets or triangles
    of all shapes, their vertex and facet indices offset shape by shape,
    and one ``certify_star_centres`` call tests every centre.  The
    shapes are bitwise those that one ``StarShape`` call per spec builds.

    A batch raises what building its shapes one by one, in order, raises:
    when the stacked pass fails, the shapes are built one at a time, and
    the error of the first that fails is raised with its position in
    ``specs`` as the attribute ``shape_index`` (None if none fails alone).
    No shape that fails the star test is returned."""
    shapes = [StarShape.__new__(StarShape) for _ in specs]
    try:
        _build_shapes(shapes, specs)
    except GeometryError as err:
        err.shape_index = None
        for k, spec in enumerate(specs):
            try:
                StarShape(*spec)
            except GeometryError as single:
                single.shape_index = k
                raise
        raise
    return shapes


def _build_shapes(shapes, specs):
    """Fill in the blank ``shapes`` from their ``specs`` (vertices, centre,
    facet_polys, box) and star-test their centres, each numpy step once
    over all of them; raises the first error met, which for one shape is
    the error of its construction: its arguments, then its facets
    (``_facet_coordinates``, ``_triangulate_planar``, ``_orient_outward``),
    then its centre.  A box takes its facets from the constants of
    ``cuboid_spec``'s layout."""
    for shape, (vertices, centre, facet_polys, box) in zip(shapes, specs):
        shape.vertices = np.asarray(vertices, dtype=float)
        if not np.all(np.isfinite(shape.vertices)):
            raise GeometryError("non-finite vertex coordinates")
        shape.centre = _as_array(centre)
        shape.box = box  # (lo, hi) arrays for axis-aligned cuboids, else None
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
    for shape in shapes:
        if shape.box is not None:
            _box_facets(shape)
    polyhedra = [shape for shape in shapes if shape.box is None]
    if polyhedra:
        _polyhedron_facets(polyhedra)
    certify_star_centres(shapes, [shape.centre for shape in shapes])


def _box_facets(shape):
    """A box's triangles and facet planes, as the polyhedron steps compute
    them on ``cuboid_spec``'s layout: each face has the outward unit normal
    +-e_k, its two triangles' crosses are both the product of its two
    sides, so its area is that product, and its plane offset is numpy's dot
    of the normal with a vertex."""
    side = shape.box[1] - shape.box[0]
    shape.triangles = _BOX_TRIANGLES
    shape.tri_facet = np.repeat(np.arange(6), 2)
    area = np.repeat([side[1] * side[2], side[0] * side[2], side[0] * side[1]], 2)
    shape.facet_planes = (_BOX_NORMALS, np.einsum(
        "ij,ij->i", _BOX_NORMALS, shape.vertices[_BOX_FACES[:, 0]]), area)


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
    return n, np.einsum("ij,ij->i", n, first), twice_area / 2


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
    raises if the surface is not connected (the star test's winding
    argument needs one component), not closed or not orientable."""
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
    if np.einsum("ij,ij->", p[:, 0], _cross(p[:, 1], p[:, 2])) < 0.0:
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
    GeometryError.  Every shape, a box too, takes the crossing from
    ``_crossing``, in Python floats.  ``RadialMap.inverse`` takes the
    codomain facet of a slab chart from psi.
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
# the star test

def certify_star_centres(shapes, centres):
    """The star test of the pairs (shapes[k], centres[k]), in one stacked
    pass: one exact sign per surface triangle of every pair, that of the
    simplex (centre, triangle), from one ``_det3_signs`` call.  A pair
    passes where every sign is positive: its closed, connected,
    outward-oriented surface then winds once about the centre, so the
    centre is interior and every ray from it crosses the boundary exactly
    once, which ``psi`` relies on.  An exterior centre (winding zero) or
    one on the boundary (a simplex of zero volume) fails.

    Returns None, or raises what testing the pairs one at a time, in order,
    raises: the GeometryError of a non-finite centre, or the
    CertificationFailure naming the first triangle of the first failing
    pair that does not face its centre."""
    pairs = []
    for shape, a in zip(shapes, centres):
        try:
            a = _as_array(a)
        except GeometryError:
            _star_test(pairs)       # an earlier pair fails first
            raise
        pairs.append((shape, a))
    _star_test(pairs)


def _star_test(pairs):
    """``certify_star_centres`` on (shape, centre array) pairs; the rows
    run pair by pair, each pair's in triangle order, so the first
    non-positive sign is the first failure."""
    if not pairs:
        return
    counts = [len(shape.triangles) for shape, _ in pairs]
    apex = np.repeat([a for _, a in pairs], counts, axis=0)
    points = np.concatenate([shape.vertices[shape.triangles] for shape, _ in pairs])
    bad = np.flatnonzero(_det3_signs(points, apex[:, None, :])[0] <= 0)
    if bad.size:
        row = int(bad[0])
        k = int(np.searchsorted(np.cumsum(counts), row, side="right"))
        shape, a = pairs[k]
        t = row - sum(counts[:k])
        raise CertificationFailure(
            f"star test fails at triangle {t} "
            f"{shape.vertices[shape.triangles[t]].tolist()}: "
            f"it does not face the centre {a.tolist()}")


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
