"""Star-shaped polyhedron geometry.

Shapes are closed, connected triangulated polyhedra in R^3, each
star-shaped about its centre: construction certifies the centre
(``certify_star_centre``) and fails with ``CertificationFailure`` if it is
not a non-tangential star centre (rays from it meet the boundary once, at
angles bounded away from zero).  Every shape carries that certificate.  The
module provides membership classification and the ray-to-boundary
projection psi, both read off the one crossing of the ray from the centre
through x (``cones._crossing``: a scan of the cone frames of the surface
triangles, precomputed per polyhedron and taken on first use by a box), and
the local Lipschitz constants of psi that follow from the certificate.

Polyhedral surfaces are oriented outward at construction, so the star test
is one exact sign per surface triangle: the signed volume of (a,
triangle).  ``_det3_signs`` decides each such sign in floats where
Shewchuk's orient3d error bound certifies it, and only the determinants
inside that bound (zero ones among them) in ``fractions.Fraction``; the
boundary-map validation of ``star_extend`` takes its orientations from it
too.

Construction and certification run in stacks over many shapes:
``star_shapes`` builds a batch of shapes with one numpy pass per step (the
normals, plane coordinates and edge lengths of all their facets, their cone
frames and their facet planes), and ``certify_star_centres`` certifies a
batch of (shape, centre) pairs with one star test, one plane term and one
vertex term over all of them (the vertex term's kernels are in ``cones``).
One shape, or one centre, is a batch of one.  An axis-aligned box
(``StarShape.cuboid``) skips the polyhedron steps: its facets, triangles
and normals are fixed by ``cuboid_spec``'s layout, and its certificate has
a closed form (``_box_certificate``).

All shapes are immutable after construction; every operation is pure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .cones import (_cone_frames, _cones_contain_line, _cross, _crossing, _dots,
                    _facet_vertex_cones, _line_plane_angles, _same_vertex_pairs,
                    _sector_min_angles, _starts, _tile)


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


def _as_array(x):
    a = np.asarray(x, dtype=float)
    if a.shape != (3,):
        raise GeometryError(f"expected a 3-vector, got shape {a.shape}")
    if not all(map(math.isfinite, a.tolist())):
        raise GeometryError("non-finite coordinates are not admitted")
    return a


class StarShape:
    """A triangulated polyhedron with a certified star centre.

    ``vertices`` is a vertex pool, ``facet_polys`` lists each planar facet as
    an ordered index loop, and ``triangles`` triangulates the surface with
    ``tri_facet`` recording which facet each triangle came from;
    ``facet_planes`` holds each facet's outward unit normal, plane offset
    and area.

    ``StarShape(vertices, centre, facet_polys, box)`` is ``star_shapes`` on
    one shape: construction ends with ``certify_star_centres`` on its centre
    and keeps the result as ``certificate``, so a shape whose centre is not
    a non-tangential star centre is never built: it raises
    ``CertificationFailure``.  A spec with a box is ``cuboid_spec``'s, and
    is built as a box; ``StarShape.polyhedron`` builds the same vertices and
    facets as a general polyhedron.
    """

    def __init__(self, vertices, centre, facet_polys, box=None):
        _build_shapes([self], [(vertices, centre, facet_polys, box)])

    @functools.cached_property
    def _cones(self):
        """The cone frames of a box (``_cone_frames``), taken on first use
        by ``locate`` or ``psi``.  A polyhedron's are set at construction."""
        return _cone_frames(self.vertices[self.triangles] - self.centre, self.tri_facet, [12])[0]

    # -- factories ---------------------------------------------------------

    @classmethod
    def polyhedron(cls, vertices, facet_polys, centre):
        return cls(vertices, centre, facet_polys)

    @classmethod
    def cuboid(cls, lo, hi, centre=None):
        """The box [lo, hi] about ``centre`` (its midpoint if None), built
        from ``cuboid_spec`` without the polyhedron steps: its triangles
        and facet normals are the constants of that layout, its least edge
        is its shortest side, and its certificate is ``_box_certificate``'s
        closed form.  Every other field is the one that
        ``StarShape.polyhedron`` builds on the same vertices and facets."""
        return cls(*cuboid_spec(lo, hi, centre))


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
    and one ``certify_star_centres`` call certifies every centre.  The
    shapes are bitwise those that one ``StarShape`` call per spec builds.

    A batch raises what building its shapes one by one, in order, raises:
    when the stacked pass fails, the shapes are built one at a time, and
    the error of the first that fails is raised with its position in
    ``specs`` as the attribute ``shape_index`` (None if none fails alone).
    No uncertified shape is returned."""
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
    facet_polys, box) and certify them, each numpy step once over all of
    them; raises the first error met, which for one shape is the error of
    its construction: its arguments, then its facets (``_facet_coordinates``,
    ``_triangulate_planar``, ``_orient_outward``), then its centre.  A box
    takes its facets from the constants of ``cuboid_spec``'s layout."""
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
    certificates = certify_star_centres(shapes, [shape.centre for shape in shapes])
    for shape, certificate in zip(shapes, certificates):
        shape.certificate = certificate


def _box_facets(shape):
    """A box's facet normals, triangles, least edge and facet planes, as the
    polyhedron steps compute them on ``cuboid_spec``'s layout: each face
    has the outward unit normal +-e_k, its two triangles' crosses are both
    the product of its two sides, so its area is that product, and its
    plane offset is numpy's dot of the normal with a vertex."""
    side = shape.box[1] - shape.box[0]
    shape._facet_normal = _BOX_NORMALS
    shape.triangles = _BOX_TRIANGLES
    shape.tri_facet = np.repeat(np.arange(6), 2)
    shape.min_feature = float(side.min())
    area = np.repeat([side[1] * side[2], side[0] * side[2], side[0] * side[1]], 2)
    shape.facet_planes = (_BOX_NORMALS, np.einsum(
        "ij,ij->i", _BOX_NORMALS, shape.vertices[_BOX_FACES[:, 0]]), area)


def _polyhedron_facets(shapes):
    """Each shape's Newell normals, surface triangles (ear clipped and
    oriented outward, with the facet of each), least edge length, cone
    frames and facet planes, each numpy step in one pass over all shapes."""
    nf = [shape.facet_count for shape in shapes]
    voff = _starts([len(shape.vertices) for shape in shapes]).tolist()
    foff = _starts(nf).tolist()
    vertices = np.concatenate([shape.vertices for shape in shapes])
    polys = [[i + off for i in poly] for shape, off in zip(shapes, voff)
             for poly in shape.facet_polys]
    normals, plane, edge_lens = _facet_coordinates(
        vertices, polys, np.repeat([shape.tol * 10 for shape in shapes], nf))
    least_edge = np.minimum.reduceat(
        edge_lens, _starts([sum(map(len, shape.facet_polys)) for shape in shapes])).tolist()
    for shape, f0, edge in zip(shapes, foff, least_edge):
        shape._facet_normal = normals[f0:f0 + shape.facet_count]
        tris = []
        tri_facet = []
        for fi, (poly, pts2) in enumerate(zip(shape.facet_polys,
                                              plane[f0:f0 + shape.facet_count])):
            for tri in _triangulate_planar(poly, pts2):
                tris.append(tri)
                tri_facet.append(fi)
        shape.triangles = _orient_outward(shape.vertices, tris)
        shape.tri_facet = np.asarray(tri_facet, dtype=int)
        shape.min_feature = edge
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
    u, v, off = (_dots(rel, e[at]) for e in (e1, _cross(normals, e1), normals))
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
# classification and the ray projection psi

def locate(shape: StarShape, x) -> Location:
    """Classify x as interior / boundary(facet) / exterior of the shape,
    off the crossing of the ray from the centre c through x that psi uses
    (``_crossing``): boundary where it lies within 4 tol of x, interior
    where it lies beyond x or x lies within tol of c, and exterior
    otherwise."""
    x = _as_array(x)
    _, r, d = _centre_ray(shape, x)
    if d <= shape.tol:
        return Location("interior")
    hit = _crossing(shape, r, d)
    if hit is None:
        return Location("exterior")
    return Location("boundary", hit[1]) if hit[0] == 1.0 else Location("interior")


def psi(shape: StarShape, x) -> BoundaryHit:
    """Boundary point hit by the ray from the star centre through x.

    Defined on closure(shape) minus the centre: the crossing at or beyond
    x, so boundary points (as ``locate`` classifies them) map to
    themselves with t = 1.  Ties on shared facet boundaries go to the lowest
    facet id.  The centre and exterior points raise GeometryError, exactly
    where ``locate`` says "exterior".  Every shape, a box too, takes the
    crossing from ``_crossing``, in Python floats.  ``RadialMap.inverse``
    takes the codomain facet of a slab chart from psi.
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
# star-centre certification

def certify_star_centre(shape: StarShape, a) -> Certificate:
    """Certify that ``a`` is a non-tangential star centre of the shape:
    ``certify_star_centres`` on the one pair.

    ``StarShape`` certifies its own centre at construction; this also takes
    any other point a of a built shape.  Star test (``_star_failures``,
    exact): every surface triangle with apex a is positively oriented.  A
    closed, connected, outward-oriented surface then winds once about a, so
    a is interior and every ray from a meets the boundary exactly once; an
    exterior a (winding zero) or a boundary a (a simplex of zero volume)
    fails it.  theta_obs is the least of the vertex term
    (``_vertex_angles``, exact) and the plane term (``_plane_angles``): a
    chord inside a facet makes at least the angle asin(h / |w - a|) with the
    ray at w, h the distance from a to the facet plane, least at the
    triangle's vertex farthest from a.  The edge term adds nothing: along an
    edge the ray direction moves affinely, chords across the edge point into
    the wedge of the two incident half-planes, and with a strictly inside
    both facet planes no ray enters that wedge, so the least angle to it is
    a plane term.
    Returns half of theta_obs and eps = min(min_feature / 2, diameter / 4),
    or raises CertificationFailure: at the first simplex failing the star
    test, then at the first tangential vertex, then below 2 THETA_MIN.
    """
    return certify_star_centres([shape], [a])[0]


def certify_star_centres(shapes, centres):
    """The certificates of the pairs (shapes[k], centres[k]), as
    ``certify_star_centre`` gives them one by one, from one stacked pass
    over all pairs: one exact star test over the surface triangles of every
    pair, then the plane term and the vertex term each over the rows of
    every pair.  A shape's own rows (its corners' cones and the pairs of
    them at each vertex) are formed once however many pairs it is in, so a
    batch of candidate centres of one shape shares them.  Raises what
    certifying the pairs one at a time, in order, raises: the failure of
    the first pair that fails, for the first reason that applies to it."""
    pairs = []
    for shape, a in zip(shapes, centres):
        try:
            a = _as_array(a)
        except GeometryError:
            _certify_pairs(pairs)       # an earlier pair fails first
            raise
        pairs.append((shape, a))
    return _certify_pairs(pairs)


def _certify_pairs(pairs):
    boxed = [_box_certificate(shape, a) if shape.box is not None else None
             for shape, a in pairs]
    rest = [pair for pair, cert in zip(pairs, boxed) if cert is None]
    general = iter(_general_certificates(rest) if rest else ())
    return [cert or next(general) for cert in boxed]


def _box_certificate(shape, a):
    """The certificate of a box about an interior point a in closed form,
    or None where the general certification decides: a not strictly
    inside, or an angle within a relative 1e-9 of failing, so that a failing
    box raises what the general certification raises.

    At a corner q with u = q - a, the chord directions between two faces
    x_k = c_k and x_j = c_j at q form {d : d_k points inward or is 0, d_j
    points outward or is 0}, so the least line angle between u and them is
    the least of asin(|u_k| / |u|) and asin(|u_j| / |u|), the angles of u
    with the two face planes; the in-face chords give the same.  The vertex
    term is therefore the plane term, and theta_obs is the least over the
    faces of asin(h / R), h the distance from a to the face and R the
    largest distance from a to one of its vertices: the plane term of the
    general certification bit for bit (``tests/test_geometry.py``), which
    reaches the vertex term's value by other roundings, a few ulps below."""
    lo, hi = shape.box
    if not (np.all(lo < a) and np.all(a < hi)):
        return None
    u = shape.vertices - a
    far = np.linalg.norm(u, axis=1)[_BOX_FACES].max(axis=1)
    h = np.abs(u[_BOX_FACES[:, 0], np.repeat(np.arange(3), 2)])
    theta_obs = float(np.arcsin(np.minimum(1.0, h / far)).min())
    if not theta_obs / 2 >= THETA_MIN * (1.0 + 1e-9):
        return None
    eps = min(0.5 * shape.min_feature, 0.25 * shape.diameter)
    return Certificate(theta=min(theta_obs / 2, math.pi / 4 - 1e-9), eps=float(eps))


def _general_certificates(pairs):
    rows = _PairRows(pairs)
    out = []
    for (shape, _), star, vertex, plane in zip(pairs, _star_failures(rows),
                                               _vertex_angles(rows), _plane_angles(rows)):
        if star is not None:
            raise star
        if isinstance(vertex, CertificationFailure):
            raise vertex
        theta_obs = min(vertex, plane)
        eps = min(0.5 * shape.min_feature, 0.25 * shape.diameter)
        theta = theta_obs / 2
        if theta < THETA_MIN:
            raise CertificationFailure(f"observed angle too small: {theta_obs:.2e}")
        theta = min(theta, math.pi / 4 - 1e-9)
        out.append(Certificate(theta=theta, eps=float(eps)))
    return out


class _PairRows:
    """The (shape, centre) pairs of a certification batch as stacked rows.

    The distinct shapes are stacked once: ``vertices``, the facet loops
    ``polys`` and ``normals``, vertex and facet indices offset shape by
    shape.  ``cones._tile`` repeats a shape's rows for each pair it is in: the
    surface triangles (``tri_points``, ``tri_normal``, ``tri_pair``) and the
    vertices, whose offsets u = q - a from the pair's centre a (1.0 where
    |u| <= tol, ``near``) are the pair-vertex rows of the vertex term;
    ``tile`` repeats other rows of the shapes, such as their corners."""

    def __init__(self, pairs):
        shapes = [shape for shape, _ in pairs]
        distinct = list({id(shape): shape for shape in shapes}.values())
        slot = {id(shape): d for d, shape in enumerate(distinct)}
        self.shapes = shapes
        self.which = np.array([slot[id(shape)] for shape in shapes])
        self.apex = np.array([a for _, a in pairs])
        nv = np.array([len(shape.vertices) for shape in distinct])
        voff = _starts(nv).tolist()
        self.vertices = np.concatenate([shape.vertices for shape in distinct])
        self.polys = [[i + off for i in poly] for shape, off in zip(distinct, voff)
                      for poly in shape.facet_polys]
        self.normals = np.concatenate([shape._facet_normal for shape in distinct])
        nt = [len(shape.triangles) for shape in distinct]
        self.tri_rows, self.tri_pair = _tile(nt, self.which)
        self.tri_first = _starts(nt)
        self.tri_starts = _starts(np.asarray(nt)[self.which])
        tris = np.concatenate([shape.triangles + off for shape, off in zip(distinct, voff)])
        self.tri_points = self.vertices[tris[self.tri_rows]]
        self.tri_normal = np.concatenate(
            [shape._facet_normal[shape.tri_facet] for shape in distinct])[self.tri_rows]
        self.vert_rows, pair = _tile(nv, self.which)
        u = self.vertices[self.vert_rows] - self.apex[pair]
        self.near = np.sqrt(_dots(u, u)) <= np.array([shape.tol for shape in shapes])[pair]
        u[self.near] = 1.0       # a placeholder: those vertices fail before any angle
        self.u = u
        self._shape_of = np.repeat(np.arange(len(distinct)), nv)
        self._local = np.arange(len(self.vertices)) - np.repeat(voff, nv)
        self._first_u = _starts(nv[self.which])

    def tile(self, vertex):
        """(rows, pair, at) for rows of the distinct stack, grouped by shape
        in shape order, with the vertex (into ``vertices``) of each: the
        rows repeated for each pair of their shape, the pair, and the row
        of ``u`` at that vertex of that pair."""
        counts = np.bincount(self._shape_of[vertex], minlength=self._shape_of[-1] + 1)
        rows, pair = _tile(counts, self.which)
        return rows, pair, self._first_u[pair] + self._local[vertex[rows]]


def _star_failures(rows):
    """Per pair, None or the CertificationFailure naming the first surface
    triangle whose simplex with apex the centre is not positively oriented
    (relative to the outward orientation).  The signs are exact:
    ``_det3_signs`` decides each sign that a float filter certifies and
    takes the rest in Fraction on the float coordinates."""
    signs = _det3_signs(rows.tri_points, rows.apex[rows.tri_pair][:, None, :])[0]
    out = [None] * len(rows.shapes)
    for r in np.flatnonzero(signs <= 0).tolist():
        k = int(rows.tri_pair[r])
        if out[k] is None:
            shape, a = rows.shapes[k], rows.apex[k]
            t = int(rows.tri_rows[r] - rows.tri_first[rows.which[k]])
            out[k] = CertificationFailure(
                f"star test fails at triangle {t} "
                f"{shape.vertices[shape.triangles[t]].tolist()}: "
                f"it does not face the centre {a.tolist()}")
    return out


def _plane_angles(rows):
    """Per pair, the least angle between the centre ray at a boundary point
    w and the facet through w: asin(h / max |v - a|) over the vertices v of
    each triangle, h the distance from a to its plane."""
    p = rows.tri_points - rows.apex[rows.tri_pair][:, None, :]
    h = np.abs(np.einsum("ij,ij->i", rows.tri_normal, p[:, 0]))
    far = np.linalg.norm(p, axis=2).max(axis=1)
    return np.minimum.reduceat(np.arcsin(np.minimum(1.0, h / far)), rows.tri_starts).tolist()


def _vertex_angles(rows):
    """Per pair, the vertex term: the minimum angle between the centre ray
    and the chord directions at every vertex of the shape, or the
    CertificationFailure of a tangential chord direction.  The
    chord-direction limit set at a vertex q is the union over ordered pairs
    of incident facets (F, F') of the cones cone(F' at q) - cone(F at q);
    same-facet chords span the facet plane.

    Every row of every pair goes through each kernel in one stacked call,
    each with its own u = q - a.  The facet cones may be reflex; membership
    is tested per convex sub-sector (consecutive generators of one corner),
    over the pairs of sub-sectors of different corners at one vertex, which
    ``_same_vertex_pairs`` forms within each vertex's own generators.  The
    limit set is symmetric (cone(F) - cone(F') = -(cone(F') - cone(F))) and
    a line test or a line angle does not see the sign, so each unordered
    pair of corners is taken once.  A pair's vertices come in the order of
    their first corner; its failure is that of the first vertex that fails,
    for the first reason that applies: u within tol of zero, a tangential
    chord direction, or the least angle so far below 2 THETA_MIN."""
    corner_vertex, corner_facet, gens, gen_corner = _facet_vertex_cones(
        rows.vertices, rows.polys, rows.normals)
    vertex = corner_vertex[gen_corner]
    u = rows.u
    sub = np.flatnonzero(gen_corner[:-1] == gen_corner[1:])
    jb, ia = _same_vertex_pairs(vertex[sub], gen_corner[sub])
    r, _, at = rows.tile(vertex[sub[jb]])
    jb, ia = sub[jb[r]], sub[ia[r]]
    cones = np.stack([gens[jb], gens[jb + 1], -gens[ia], -gens[ia + 1]], axis=1)
    tangential = np.bincount(at[_cones_contain_line(cones, u[at])], minlength=len(u)) > 0
    least = np.full(len(u), math.pi / 2)
    r, _, at = rows.tile(corner_vertex)
    np.minimum.at(least, at, _line_plane_angles(u[at], rows.normals[corner_facet[r]]))
    ib, ia = _same_vertex_pairs(vertex, gen_corner)
    r, _, at = rows.tile(vertex[ib])
    np.minimum.at(least, at, _sector_min_angles(u[at], gens[ib[r]], -gens[ia[r]]))
    # the vertices in the order of their first corner, pair by pair
    order = corner_vertex[np.sort(np.unique(corner_vertex, return_index=True)[1])]
    _, pair, at = rows.tile(order)
    out = np.minimum.reduceat(least[at], _starts(np.bincount(pair))).tolist()
    # a pair with a vertex that may fail (NaN included) takes the running
    # minimum over its vertices in order, which names the first that fails
    suspect = rows.near[at] | tangential[at] | ~(least[at] / 2 >= THETA_MIN)
    for k in sorted(set(pair[suspect].tolist())):
        mine = at[pair == k]
        so_far = np.minimum.accumulate(least[mine])
        fails = np.flatnonzero(rows.near[mine] | tangential[mine] | (so_far / 2 < THETA_MIN))
        if not fails.size:
            out[k] = float(so_far[-1])
            continue
        first = mine[fails[0]]
        q = rows.vertices[rows.vert_rows[first]]
        if rows.near[first]:
            out[k] = CertificationFailure("centre coincides with a vertex")
        elif tangential[first]:
            out[k] = CertificationFailure(f"tangential chord direction at vertex {q}")
        else:
            out[k] = CertificationFailure(
                f"vertex angle too small at {q}: {so_far[fails[0]]:.2e}")
    return out


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
