"""Reference implementations that the package replaced by the affine cells
of its ``RadialMap``s, kept here as the oracles of the tests.

- ``radial_eval`` and ``radial_inverse``: a chart's radial extension and its
  inverse by the radial formula, through the boundary pieces, which
  ``eval_piece`` and ``invert_piece`` evaluate by their formulas
  (``piece_formula``): the identity, the 2D radial extension
  ``_radial_2d`` of a face fan in its frame (its ray crossing by
  ``_psi_polygon_scalar``), and ``zorich.F_scalar``;
  ``radial_eval`` takes the piece of a facet of several pieces whose cells
  hold the exit point deepest (``_transport``), where ``RadialMap.eval3``
  takes it by a sector test;
- ``Polyhedron``: a polyhedron as a vertex pool, a centre and facet loops,
  with its bounding-box diameter and tolerance, the record that the
  package kept of every image solid before a chart's image cells stated
  it; ``image_solid`` reads one off a chart's pieces' image loops;
- ``surface_triangles``: a polyhedron's facets ear clipped and oriented
  outward, the surface triangulation that the package built of every image
  solid before ``star_extend.psi`` read the chart's own image cells;
- ``psi_ray_oracle``: psi on a polyhedron by Moller-Trumbore over all surface
  triangles (``_ray_tris``), exterior where no crossing lies at or beyond x;
- ``star_test``: the exact star test of a polyhedron about a centre, one
  sign per surface triangle, which construction ran on every image solid
  before a chart's cone signs (``star_extend._cone_signs``)
  certified its centre; the reference that the cone signs are held
  against;
- ``point_in_polygon``: even-odd ray casting in a plane;
- ``cones_holding_fraction``: the orientations of a chart's cones and
  whether each holds a direction, in Fraction, against which the degree
  count of ``RadialMap.validate_boundary_map`` is held;
- ``cover_deviation_all_pairs``: the seam deviation of a chart's boundary
  triangles as a distance, every triangle solved against every triangle
  vertex in one batched solve: the float reading of the seams that
  ``RadialMap.validate_boundary_map`` once took under a tolerance and now
  checks exactly on the cell complex;
- ``zorich_composed``: Z composed from the scalar fold ``_fold1``, the parity
  of its flags and a scaling per coordinate, which ``zorich.F_scalar`` and
  ``zorich.F_array`` write out;
- ``layered_eval3``: g or f as the layers that ``GlobalMap.eval3`` once
  called one frame each: the dispatch, the chart rule ``_cell_index``, the
  chart's locate with the ray's exit from its box (``_ray_box_scalar``)
  and the nested sector tables of ``facet_tables``, and F as x plus the
  composed Z step (``composed_F``); ``GlobalMap.eval3``,
  ``RadialMap.eval3`` and ``zorich.F_scalar`` now do all of it inline;
- ``fold1_rounded``: the scalar fold by x - 4 round(x / 4), which the
  package replaced by the IEEE remainder;
- ``exp_lower_terms``: the Taylor partial sum of e^x added term by term
  in Fraction, which ``zorich.exp_lower`` sums over one denominator;
- ``expansion_min_ratio_rows``: the sampled expansion ratio pair by pair
  with ``F_scalar`` and ``math.dist``, which ``zorich.expansion_min_ratio``
  computes in one stacked pass;
- the build's small geometry one object at a time, on numpy rows, as the
  package computed it before it stacked it per chart or shape or moved it
  to Python floats: ``cell_linear_part`` (one solve per cell),
  ``sector_entry`` (the sector picks of a piece's cells or of a facet's
  pieces, one solve per sector probe and triangle),
  ``sector_entry_scan`` (the same picks by a scan of every entry's
  polygons per sector, with the package's errors),
  ``face_centre`` with ``fan_crosses`` (a face's area centroid in Python
  floats, one face at a time),
  ``cell_vertex_images`` (one product per cell; ``vertex_images`` over a
  map's cells),
  ``image_cell_frames`` (one inverse per cell),
  ``polygon_normal_rows`` (a facet's Newell normal),
  ``facet_is_planar_rows`` and ``triangulate_planar_rows`` (ear clipping
  in the facet plane, one ``@`` per facet vertex, which
  ``surface_triangles`` runs on every facet);
- ``frame_rows``, ``frame_to2d`` and ``frame_to3d``: a planar face's frame
  (origin, e1, e2) and its plane coordinates, in which ``eval_piece`` and
  ``invert_piece`` take a face fan's radial formula;
- ``h_pyramid``: the upper faces of the unit square pyramid, whose height
  ``zorich.F_scalar`` scales;
- ``ball_growth_check``: the expansion ratio of the image of a small
  sphere above L, which the beam regime bounds below by 32;
- ``radial_power_dilatation_oracle``: the dilatations of |x| x from their
  closed form, checked against finite differences of a map;
- ``cuboid_spec``: the ``Polyhedron`` arguments of an axis-aligned cuboid,
  its facets numbered as a ``star_extend.Box`` numbers them;
- ``cell_facets_by_planes``: each cell's domain facet by the planes, as
  ``RadialMap.validate_boundary_map`` once searched for it before
  construction recorded it, and its codomain facet by its piece's place in
  the facet-major list of pieces (``cell_facets``);
- ``boundary_report``: a chart's ``ValidationReport`` one chart at a time,
  as ``RadialMap.validate_boundary_map`` computed it before construction
  took the checks in its stacked pass: the degree count's signs per chart
  (``_turned_cones``, one sign call per direction tried) and the seams by
  a ``Counter`` of directed edges in Python tuples (``_seam_faults``).
"""

import functools
import math
from bisect import bisect_right
from collections import Counter, namedtuple
from fractions import Fraction

import numpy as np

from qrdyn import star_extend
from qrdyn.dynamics import _fibonacci_sphere
from qrdyn.geometry import TAU_GEOM, GeometryError, _as_array, _det3_signs, _dots
from qrdyn.zorich import _EXP_ARG_MAX, HORIZON, F_scalar, _fold1, _off_horizon


BoundaryHit = namedtuple("BoundaryHit", "point facet t")


class Polyhedron:
    """A polyhedron about ``centre``: a vertex pool ``vertices`` and its
    facets as index loops ``facet_polys``, run either way round, with the
    ``diameter`` of its bounding box and ``tol``, its ``TAU_GEOM`` multiple.
    It hashes by identity, as ``surface_triangles``' cache needs."""

    def __init__(self, vertices, centre, facet_polys):
        self.vertices = np.asarray(vertices, dtype=float)
        self.centre = np.asarray(centre, dtype=float)
        self.facet_polys = [list(map(int, poly)) for poly in facet_polys]
        self.diameter = float(np.linalg.norm(self.vertices.max(axis=0)
                                             - self.vertices.min(axis=0)))
        self.tol = TAU_GEOM * self.diameter


@functools.lru_cache(maxsize=None)
def image_solid(rmap):
    """The image solid of the chart ``rmap`` as a ``Polyhedron`` about its
    centre b: facet j is the image loop of piece j, counted facet by facet,
    the edges of its image cells that no other of its cells holds, chained
    in their cells' direction (the cells of a piece run one way round)."""
    pool, loops = {}, []
    pieces = [piece for facet in range(6) for piece in rmap.pieces_by_facet[facet]]
    for piece in pieces:
        edges = [edge for _, img in piece for edge in zip(img, img[1:] + img[:1])]
        after = dict(edge for edge in edges if edge[::-1] not in edges)
        loop = [next(iter(after))]
        while after[loop[-1]] != loop[0]:
            loop.append(after[loop[-1]])
        loops.append([pool.setdefault(p, len(pool)) for p in loop])
    return Polyhedron(list(pool), rmap._b, loops)


@functools.lru_cache(maxsize=None)
def surface_triangles(shape):
    """(triangles, tri_facet) of a polyhedron ``shape``: each facet ear
    clipped in its plane (``triangulate_planar_rows``), with the facet of
    each triangle, all turned to one orientation across their shared edges
    and then outward (a positive enclosed volume).  Raises GeometryError
    if the surface is not connected, or not closed and orientable."""
    tris, tri_facet = [], []
    for k, poly in enumerate(shape.facet_polys):
        for tri in triangulate_planar_rows(shape.vertices, poly)[0]:
            tris.append(list(tri))
            tri_facet.append(k)
    by_edge = {}
    for k, tri in enumerate(tris):
        for edge in zip(tri, tri[1:] + tri[:1]):
            by_edge.setdefault(frozenset(edge), []).append(k)
    todo, stack = set(range(1, len(tris))), [0]
    while stack:
        tri = tris[stack.pop()]
        for u, v in zip(tri, tri[1:] + tri[:1]):
            for k in set(by_edge[frozenset((u, v))]) & todo:
                todo.discard(k)
                t = tris[k]
                if (u, v) in zip(t, t[1:] + t[:1]):     # it must run v -> u
                    t[1], t[2] = t[2], t[1]
                stack.append(k)
    if todo:
        raise GeometryError("surface is not connected")
    directed = [e for t in tris for e in zip(t, t[1:] + t[:1])]
    if len(set(directed)) < len(directed) or set(directed) != {(v, u) for u, v in directed}:
        raise GeometryError("surface is not closed or not orientable")
    tris = np.array(tris)
    if np.linalg.det(shape.vertices[tris]).sum() < 0.0:
        tris = tris[:, [0, 2, 1]]
    return tris, np.array(tri_facet)


def _ray_tris(shape, origin, direction):
    """Moller-Trumbore over all surface triangles of a 3D shape, for one
    direction (3,) or a stack of directions (N, 3) from a common origin.
    Returns (t, u, v, valid), each of shape (T,) or (N, T)."""
    p0, p1, p2 = np.moveaxis(shape.vertices[surface_triangles(shape)[0]], 1, 0)
    e1, e2 = p1 - p0, p2 - p0
    direction = direction[..., None, :]
    p = np.cross(direction, e2)
    det = np.einsum("...j,...j->...", e1, p)
    eps = 1e-14 * max(1.0, shape.diameter)
    valid = np.abs(det) > eps
    inv = np.where(valid, 1.0 / np.where(valid, det, 1.0), 0.0)
    s = origin[None, :] - p0
    u = np.einsum("...j,...j->...", s, p) * inv
    q = np.cross(s, e1)
    v = np.einsum("...j,...j->...", direction, q) * inv
    t = np.einsum("ij,ij->i", e2, q) * inv
    bt = 1e-9
    valid &= (u >= -bt) & (v >= -bt) & (u + v <= 1 + bt)
    return t, u, v, valid


def psi_ray_oracle(shape, x):
    """psi on a 3D shape that is not a box: the nearest ray crossing at or
    beyond x (within 4 tol), ties to the lowest facet; exterior where there
    is none."""
    x = _as_array(x)
    a = shape.centre
    r = x - a
    dist = float(np.linalg.norm(r))
    if dist <= shape.tol:
        raise GeometryError("psi is undefined at the star centre")
    d = r / dist
    t, u, v, valid = _ray_tris(shape, a, d)
    ok = valid & (t >= dist - shape.tol * 4)
    if not np.any(ok):
        raise GeometryError("psi called on an exterior point")
    ts = np.where(ok, t, np.inf)
    tmin = float(ts.min())
    cand = np.nonzero(ts <= tmin * (1 + 1e-12) + shape.tol)[0]
    tri_facet = surface_triangles(shape)[1]
    ti = int(cand[np.argmin(tri_facet[cand])])
    return BoundaryHit(point=a + t[ti] * d, facet=int(tri_facet[ti]),
                       t=float(t[ti] / dist))


def star_test(shape, centres):
    """The star test of the polyhedron ``shape`` about each of ``centres``:
    None where every outward-oriented surface triangle T faces the centre c
    (the exact sign of det(T - c) is positive), else the index of the first
    triangle that does not, from one ``geometry._det3_signs`` call over all
    centres.  A pass proves that the closed, connected surface winds once
    about c, so that every ray from c crosses it once; an exterior centre
    (winding zero) or one on the boundary (a zero volume) fails."""
    centres = np.asarray(centres, dtype=float).reshape(-1, 3)
    tris = shape.vertices[surface_triangles(shape)[0]]
    signs = _det3_signs(np.tile(tris, (len(centres), 1, 1)),
                        np.repeat(centres, len(tris), axis=0)[:, None])[0]
    return [int(np.argmax(row <= 0)) if (row <= 0).any() else None
            for row in signs.reshape(len(centres), -1)]


def point_in_polygon(v, p):
    """Even-odd ray casting with a horizontal ray."""
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


def cover_deviation_all_pairs(dom, img, tol):
    """The largest seam deviation of the triangles dom[k] with images
    img[k]: every triangle solved against every triangle vertex in one
    batched solve, and every vertex within tol of a triangle compared with
    the triangle's affine interpolation at it."""
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


def cones_holding_fraction(tris, centre, d):
    """(signs, inside) of the cones from ``centre`` over the triangles
    ``tris`` (T, 3, 3), in Fraction: each cone's orientation, the sign of
    det(w0 - c, w1 - c, w2 - c), and whether the direction d lies inside it,
    its coordinates along w0 - c, w1 - c and w2 - c (Cramer's rule) all
    positive."""
    def det(u, v, w):
        return (u[0] * (v[1] * w[2] - v[2] * w[1]) - u[1] * (v[0] * w[2] - v[2] * w[0])
                + u[2] * (v[0] * w[1] - v[1] * w[0]))

    c, d = [Fraction(x) for x in centre], [Fraction(x) for x in d]
    signs, inside = [], []
    for tri in tris.tolist():
        e = [[Fraction(x) - y for x, y in zip(w, c)] for w in tri]
        whole = det(*e)
        signs.append((whole > 0) - (whole < 0))
        inside.append(whole != 0 and all(det(*(d if j == i else e[j] for j in range(3))) / whole
                                         > 0 for i in range(3)))
    return signs, inside


def _psi_polygon_scalar(verts, ax, ay, rx, ry):
    """The ray from (ax, ay) along (rx, ry) against the edges of the polygon
    verts ((x, y) floats in loop order): (edge, s, t) of its first crossing
    with t >= 1 - 1e-9, ties within 1e-9 to the lowest edge, or None; t is
    the ray parameter, s the position along the edge."""
    best_t, best = math.inf, None
    for i, (px, py) in enumerate(verts):
        qx, qy = verts[(i + 1) % len(verts)]
        ex, ey = qx - px, qy - py
        den = rx * ey - ry * ex
        if den == 0.0:
            continue
        dx, dy = px - ax, py - ay
        t = (dx * ey - dy * ex) / den
        s = (dx * ry - dy * rx) / den
        if -1e-9 <= s <= 1 + 1e-9 and t >= 1 - 1e-9 and t < best_t - 1e-9:
            best_t, best = t, (i, min(max(s, 0.0), 1.0))
    return None if best is None else (*best, best_t)


def _radial_2d(src, dst, a, b, u, v):
    """The radial extension from the polygon src about a to dst about b, at
    (u, v), vertex i to vertex i; the disc about a of radius TAU_GEOM times
    src's diameter maps to b."""
    (ax, ay), (bx, by) = a, b
    du, dv = u - ax, v - ay
    tol = TAU_GEOM * math.dist(np.min(src, axis=0), np.max(src, axis=0))
    if du * du + dv * dv <= tol * tol:
        return b
    hit = _psi_polygon_scalar(src, ax, ay, du, dv)
    if hit is None:
        raise GeometryError("point outside the domain polygon")
    i, s, t = hit
    (px, py), (qx, qy) = dst[i], dst[(i + 1) % len(dst)]
    return bx + (px + s * (qx - px) - bx) / t, by + (py + s * (qy - py) - by) / t


def frame_to2d(frame, p):
    """Plane coordinates of p = (x, y, z) in a frame (origin, e1, e2) of
    ``frame_rows``."""
    origin, e1, e2 = frame
    d = np.asarray(p, dtype=float) - origin
    return float(d @ e1), float(d @ e2)


def frame_to3d(frame, u, v):
    """The point of plane coordinates (u, v) in a frame of ``frame_rows``."""
    origin, e1, e2 = frame
    return tuple(map(float, origin + u * e1 + v * e2))


@functools.lru_cache(maxsize=None)
def _face_frames(piece, side):
    """(source frame, target frame, source loop, target loop, source centre,
    target centre) of a face fan (``piece``, its cells as a tuple) from
    ``side`` (0, the domain face, or 1, the image face) onto the other
    side's: each face and its centre (the apex of its fan) in the frame
    that ``frame_rows`` gives its loop, taken once per piece and side."""
    (src, a), (dst, b) = (([cell[j][1] for cell in piece], piece[0][j][0])
                          for j in (side, 1 - side))
    fs, fd = frame_rows(src), frame_rows(dst)
    return (fs, fd, [frame_to2d(fs, q) for q in src], [frame_to2d(fd, q) for q in dst],
            frame_to2d(fs, a), frame_to2d(fd, b))


def _radial_2d_3d(piece, side, p):
    """The 2D radial extension of a face fan from ``side`` onto the other
    side's fan, at a point p of the face, in the frames of
    ``_face_frames``."""
    fs, fd, src, dst, a, b = _face_frames(tuple(piece), side)
    return frame_to3d(fd, *_radial_2d(src, dst, a, b, *frame_to2d(fs, p)))


def piece_formula(piece):
    """The formula of a boundary piece (a list of cells) of the atlas:
    "fan" for a face fan (several cells), "identity" for one cell onto its
    own vertices, and "F" for one cell onto F's images of its vertices."""
    if len(piece) > 1:
        return "fan"
    (dom, img), = piece
    dom, img = [tuple(p) for p in dom], [tuple(w) for w in img]
    if dom == img:
        return "identity"
    if [F_scalar(*p) for p in dom] == img:
        return "F"
    raise TypeError(f"no formula for the cell {dom} onto {img}")


def eval_piece(piece, h):
    """A boundary piece at a point h of its patch, by its formula."""
    formula = piece_formula(piece)
    if formula == "identity":
        return h
    if formula == "fan":
        return _radial_2d_3d(piece, 0, h)
    return F_scalar(*h)


def _transport(src, dst, p):
    """The affine map of the triangle src onto dst, at a point p of its
    plane, by barycentric coordinates; with the least barycentric
    coordinate of p (negative outside src)."""
    src, dst = np.asarray(src, dtype=float), np.asarray(dst, dtype=float)
    e1, e2 = src[1] - src[0], src[2] - src[0]
    d = np.asarray(p, dtype=float) - src[0]
    gram = np.array([[e1 @ e1, e1 @ e2], [e1 @ e2, e2 @ e2]])
    u, v = np.linalg.solve(gram, np.array([e1 @ d, e2 @ d]))
    q = dst[0] + u * (dst[1] - dst[0]) + v * (dst[2] - dst[0])
    return tuple(map(float, q)), min(u, v, 1 - u - v)


def invert_piece(piece, q):
    """The inverse of a boundary piece at a point q of its image."""
    formula = piece_formula(piece)
    if formula == "identity":
        return q
    if formula == "fan":
        return _radial_2d_3d(piece, 1, q)
    # F is affine on the piece's one triangle
    (dom, img), = piece
    return _transport(img, dom, q)[0]


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


def _cell_index(tx, ty, z):
    """The chart that owns (tx, ty, z) of the base block, as an index into
    [A', A''1, A''2, A''3, A''4]: A' up to level 1 and above it the A''
    cell of the quadrant, ties going to the lower index."""
    if z <= 1.0:
        return 0
    return (2 if tx > 1.0 else 1) + (2 if ty > 1.0 else 0)


def facet_tables(rmap):
    """A chart's locate tables in their nested form: per facet (iu, iv, cu,
    cv, bounds, pieces) with the sector entry of its pieces, a facet of one
    piece included, and per piece (cu, cv, bounds, rows) with the sector
    entry of its cells, each cell's row its linear part as a 9-tuple.  The
    entries are ``sector_entry``'s, the rows ``cell_linear_part``'s."""
    tables = []
    for facet in range(6):
        iu, iv = [i for i in range(3) if i != facet // 2]
        pieces = rmap.pieces_by_facet[facet]
        entries = [sector_entry([[dom] for dom, _ in piece],
                                [tuple(cell_linear_part(rmap._a, rmap._b, dom, img)
                                       .ravel().tolist()) for dom, img in piece], iu, iv)
                   for piece in pieces]
        tables.append((iu, iv) + sector_entry([[dom for dom, _ in p] for p in pieces],
                                              entries, iu, iv))
    return tables


def chart_eval3(rmap, table, x, y, z):
    """A chart at (x, y, z) as the layered locate: the centre ball, the exit
    facet by ``_ray_box_scalar``, the piece of a facet by its sector entry
    (a facet of one piece by its one entry) and the cell of the piece by
    its own, in ``table``, the chart's ``facet_tables``, and the cell's
    affine map."""
    ax, ay, az = rmap._a
    bx, by, bz = rmap._b
    dx, dy, dz = x - ax, y - ay, z - az
    tol = rmap.domain.tol
    if dx * dx + dy * dy + dz * dz <= tol * tol:
        return (bx, by, bz)
    lo, hi = (tuple(map(float, v)) for v in (rmap.domain.lo, rmap.domain.hi))
    facet, t = _ray_box_scalar(ax, ay, az, lo, hi, x, y, z)
    h = (ax + t * dx, ay + t * dy, az + t * dz)
    iu, iv, cu, cv, bounds, pieces = table[facet]
    cu, cv, bounds, cells = (pieces[bisect_right(bounds, math.atan2(h[iv] - cv, h[iu] - cu))]
                             if bounds else pieces[0])
    m = cells[bisect_right(bounds, math.atan2(h[iv] - cv, h[iu] - cu))] if bounds else cells[0]
    return (bx + m[0] * dx + m[1] * dy + m[2] * dz,
            by + m[3] * dx + m[4] * dy + m[5] * dz,
            bz + m[6] * dx + m[7] * dy + m[8] * dz)


def composed_F(x1, x2, x3):
    """F = Id + Z with Z the composed step ``zorich_composed``, after the
    horizon test of ``zorich.F_scalar``."""
    if not (abs(x1) <= HORIZON and abs(x2) <= HORIZON):
        raise _off_horizon(x1, x2, x3)
    z1, z2, z3 = zorich_composed(x1, x2, x3)
    return (x1 + z1, x2 + z2, x3 + z3)


def layered_eval3(gm, tables, x, y, z):
    """g or f (the ``GlobalMap`` gm) at (x, y, z), one layer per call: the
    identity below 0, ``composed_F`` above L, and in the slab the fold
    modulo 4 and the reflection into the base block, ``_cell_index``,
    ``chart_eval3`` on the chart's table of ``tables`` (the
    ``facet_tables`` of gm's slab charts, in their order) and the isometry
    undone; each regime subtracts the shift (L' for f, 0.0 for g)."""
    shift = 0.0 if gm.L_prime is None else gm.L_prime
    if z < 0.0:
        return (x, y, z - shift)
    if z > gm.L:
        x, y, z = composed_F(x, y, z)
        return (x, y, z - shift)
    if z != z:
        raise ValueError(f"non-finite point {(x, y, z)}")
    try:
        n1 = math.floor(x / 4.0)
        n2 = math.floor(y / 4.0)
    except (OverflowError, ValueError):
        raise ValueError(f"non-finite point {(x, y, z)}") from None
    tx = x - 4.0 * n1
    ty = y - 4.0 * n2
    r1 = tx > 2.0
    r2 = ty > 2.0
    if r1:
        tx = 4.0 - tx
    if r2:
        ty = 4.0 - ty
    k = _cell_index(tx, ty, z)
    gx, gy, gz = chart_eval3(gm._slab_charts[k].map, tables[k], tx, ty, z)
    if r1:
        gx = 4.0 - gx
    if r2:
        gy = 4.0 - gy
    return (gx + 4.0 * n1, gy + 4.0 * n2, gz - shift)


def radial_eval(rmap, p):
    """A chart's radial extension at p: b + (w - b) / t, with w the boundary
    map at the exit point a + t (p - a) of the ray from a through p."""
    ax, ay, az = map(float, rmap.domain.centre)
    bx, by, bz = rmap._b
    x, y, z = float(p[0]), float(p[1]), float(p[2])
    dx, dy, dz = x - ax, y - ay, z - az
    if dx * dx + dy * dy + dz * dz <= rmap.domain.tol ** 2:
        return (bx, by, bz)
    lo, hi = (tuple(map(float, v)) for v in (rmap.domain.lo, rmap.domain.hi))
    facet, t = _ray_box_scalar(ax, ay, az, lo, hi, x, y, z)
    h = (ax + t * dx, ay + t * dy, az + t * dz)
    pieces = rmap.pieces_by_facet[facet]
    # the first piece with the cell that holds h deepest
    piece = pieces[0] if len(pieces) == 1 else max(
        pieces, key=lambda p: max(_transport(dom, dom, h)[1] for dom, _ in p))
    wx, wy, wz = eval_piece(piece, h)
    frac = 1.0 / t
    return (bx + frac * (wx - bx), by + frac * (wy - by), bz + frac * (wz - bz))


def radial_inverse(rmap, q):
    """A chart's inverse by the same formula: the ray projection onto its
    image solid (``image_solid``), the inverse of the piece of the hit
    facet (facet k is the image of the k-th piece, counted facet by
    facet), and the radial fraction."""
    ax, ay, az = map(float, rmap.domain.centre)
    bx, by, bz = rmap._b
    x, y, z = float(q[0]), float(q[1]), float(q[2])
    dx, dy, dz = x - bx, y - by, z - bz
    shape = image_solid(rmap)
    if dx * dx + dy * dy + dz * dz <= shape.tol ** 2:
        return (ax, ay, az)
    hit = psi_ray_oracle(shape, (x, y, z))
    piece = [p for facet in range(6) for p in rmap.pieces_by_facet[facet]][hit.facet]
    ux, uy, uz = invert_piece(piece, tuple(map(float, hit.point)))
    frac = 1.0 / hit.t
    return (ax + frac * (ux - ax), ay + frac * (uy - ay), az + frac * (uz - az))


def _scaled(scale, v):
    if math.isinf(scale):
        return math.copysign(math.inf, v) if v != 0.0 else 0.0
    return scale * v


def h_pyramid(x1, x2):
    """Point on the upper faces of the unit square pyramid over (x1, x2)."""
    if not (-1.0 <= x1 <= 1.0 and -1.0 <= x2 <= 1.0):
        raise ValueError("h is defined on the closed unit square")
    return (x1, x2, 1.0 - max(abs(x1), abs(x2)))


def zorich_composed(x1, x2, x3):
    """Z at (x1, x2, x3): fold each horizontal coordinate, sign the pyramid
    height by the parity of the two reflections, scale by e^{x3} (by inf
    above log(DBL_MAX), with 0 * inf taken as 0)."""
    u1, f1 = _fold1(x1)
    u2, f2 = _fold1(x2)
    sigma = -1.0 if (f1 + f2) % 2 else 1.0
    scale = math.exp(x3) if x3 <= _EXP_ARG_MAX else math.inf
    zh = sigma * (1.0 - max(abs(u1), abs(u2)))
    return (_scaled(scale, u1), _scaled(scale, u2), _scaled(scale, zh))


def fold1_rounded(x):
    """The fold of x into [-1, 1] and its reflection flag, by the rounded
    quotient: t = x - 4 round(x / 4)."""
    t = x - 4.0 * round(x / 4.0)
    if -1.0 <= t <= 1.0:
        return t, 0
    u = (2.0 - abs(t)) if t > 0 else -(2.0 - abs(t))
    return u, 1


def expansion_min_ratio_rows(L, pairs=10000, seed=0, beams=((0, 0), (1, 0), (1, 1))):
    """``zorich.expansion_min_ratio`` one pair at a time: the same draws,
    then F_scalar on each point and math.dist on each pair.  ``beams``
    replaces the package's fixed beams, to sample F on others."""
    rng = np.random.default_rng(seed)
    ratio_min = math.inf
    for (bn, bm) in beams:
        lo = np.array([2 * bn - 1.0, 2 * bm - 1.0, 0.0])
        span = np.array([2.0, 2.0, 3.0])
        xs = lo + rng.random((pairs, 3)) * span
        ys = lo + rng.random((pairs, 3)) * span
        xs[:, 2] += L
        ys[:, 2] += L
        # force a share of pairs to straddle the diagonal crease
        k = pairs // 10
        cx, cy = 2 * bn, 2 * bm
        du = np.abs(xs[:k, 0] - cx)
        dv = np.abs(xs[:k, 1] - cy)
        xs[:k, 0] = cx + np.maximum(du, dv)
        xs[:k, 1] = cy + np.minimum(du, dv)
        du = np.abs(ys[:k, 0] - cx)
        dv = np.abs(ys[:k, 1] - cy)
        ys[:k, 0] = cx + np.minimum(du, dv)
        ys[:k, 1] = cy + np.maximum(du, dv)
        for x, y in zip(xs.tolist(), ys.tolist()):
            d = math.dist(x, y)
            if d < 1e-12:
                continue
            fx = F_scalar(*x)
            fy = F_scalar(*y)
            ratio_min = min(ratio_min, math.dist(fx, fy) / d)
    return ratio_min


def cell_linear_part(a, b, dom, img):
    """The 3x3 matrix A of the affine map p -> b + A (p - a) that sends the
    first three domain polygon vertices dom[i] to img[i]."""
    d = np.asarray(dom[:3], dtype=float) - np.asarray(a, dtype=float)
    w = np.asarray(img[:3], dtype=float) - np.asarray(b, dtype=float)
    return np.linalg.solve(d, w).T          # rows: A d_i = w_i


def sector_entry(groups, values, iu, iv):
    """The sector entry (cu, cv, bounds, sectors) of one level of a
    ``RadialMap``: the cells of a piece, or the pieces of a facet, each
    given by its list of domain polygons in ``groups`` and valued
    ``values``.  One solve per sector midpoint and fan triangle; a sector
    takes the value of the first entry with the triangle that holds its
    probe deepest."""
    if len(groups) == 1:
        return (0.0, 0.0, [], [values[0]])
    shared = set.intersection(*({p for dom in group for p in dom} for group in groups))
    if not shared:
        raise GeometryError("the entries share no vertex")
    cu = sum(p[iu] for p in shared) / len(shared)
    cv = sum(p[iv] for p in shared) / len(shared)
    rim = {p for group in groups for dom in group for p in dom if (p[iu], p[iv]) != (cu, cv)}
    bounds = sorted({math.atan2(p[iv] - cv, p[iu] - cu) for p in rim})
    reach = 1e-6 * min(math.hypot(p[iu] - cu, p[iv] - cv) for p in rim)
    mids = [0.5 * (lo + hi) for lo, hi in zip(bounds, bounds[1:])]
    mids.append(0.5 * (bounds[-1] + bounds[0]) + math.pi)
    tris = [(g, np.array([[p[iu], p[iv], 1.0] for p in (dom[0], dom[i], dom[i + 1])]).T)
            for g, group in enumerate(groups) for dom in group for i in range(1, len(dom) - 1)]
    picks = []
    for th in mids:
        q = np.array([cu + reach * math.cos(th), cv + reach * math.sin(th), 1.0])
        depth = [-math.inf] * len(groups)
        for g, tri in tris:
            depth[g] = max(depth[g], float(np.linalg.solve(tri, q).min()))
        k = int(np.argmax(depth))
        if depth[k] <= 0.0:
            raise GeometryError(f"no entry covers the sector at angle {th}")
        picks.append(values[k])
    return (cu, cv, bounds, [picks[-1]] + picks[:-1] + [picks[-1]])


def sector_entry_scan(name, groups, values, iu, iv):
    """``star_extend._sector_entry`` as the package took it before it
    indexed the bounds: the sector entry (cu, cv, bounds, sectors) of a
    level, each sector's owner found by a scan of every entry's polygons,
    one set test per polygon, with an angle per vertex of each polygon.  It
    raises the package's errors, at the same first sector."""
    if len(groups) == 1:
        return 0.0, 0.0, [], [values[0]]
    shared = set.intersection(*({p for dom in group for p in dom} for group in groups))
    if not shared:
        raise GeometryError(f"the {name} share no vertex")
    cu = sum(p[iu] for p in shared) / len(shared)
    cv = sum(p[iv] for p in shared) / len(shared)
    angles = [[{math.atan2(p[iv] - cv, p[iu] - cu) for p in dom if (p[iu], p[iv]) != (cu, cv)}
               for dom in group] for group in groups]
    bounds = sorted(set().union(*(a for group in angles for a in group)))
    sectors = []
    # the wrapping sector first, then those between consecutive bounds
    for lo, hi in zip(bounds[-1:] + bounds[:-1], bounds):
        owners = [k for k, group in enumerate(angles) if any({lo, hi} <= a for a in group)]
        if not owners:
            raise GeometryError(f"none of the {name} covers the sector from angle {lo} to {hi}")
        if len(owners) > 1:
            raise GeometryError(f"several of the {name} cover the sector from angle {lo} to {hi}")
        sectors.append(values[owners[0]])
    return cu, cv, bounds, sectors + sectors[:1]


def _sequential_sum(values):
    """The sum of the floats ``values`` added one after another from 0, as
    ``sum`` adds them before Python 3.12 (which compensates)."""
    return functools.reduce(lambda s, x: s + x, values, 0.0)


def fan_crosses(loop):
    """(p0, fans, n) of a vertex loop of 3D points, in Python floats: its
    first vertex p0; per fan triangle (p0, p_i, p_i+1), the edges
    a = p_i - p0 and b = p_i+1 - p0 with their cross product a x b; and n,
    the sum of those cross products, twice the vector area of a planar
    loop, along its normal (``face_centre`` weighs by it).  Taken relative
    to p0, a coordinate that every vertex shares drops out exactly."""
    (x0, y0, z0), *rest = loop
    rel = [(x - x0, y - y0, z - z0) for x, y, z in rest]
    fans = [(a, b, (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                    a[0] * b[1] - a[1] * b[0])) for a, b in zip(rel, rel[1:])]
    return (x0, y0, z0), fans, [_sequential_sum(c[k] for *_, c in fans) for k in range(3)]


def face_centre(loop3):
    """The area centroid of a planar face given by its vertex loop, one
    face at a time in Python floats, as the package took it before
    ``pieces.face_centres`` stacked it: the centroids of the fan triangles
    (p0, p_i, p_i+1) weighted by their signed areas along the face's vector
    area n (``fan_crosses``), taken relative to p0, so that a coordinate
    that every vertex shares is the centroid's exactly."""
    origin, fans, n = fan_crosses([tuple(map(float, p)) for p in loop3])
    weights = [n[0] * c[0] + n[1] * c[1] + n[2] * c[2] for *_, c in fans]
    total = 3.0 * _sequential_sum(weights)
    return tuple(o + _sequential_sum(w * (a[k] + b[k]) for w, (a, b, _) in zip(weights, fans))
                 / total for k, o in enumerate(origin))


def exp_lower_terms(x):
    """``zorich.exp_lower`` as the package took it before it summed over
    one common denominator: the Taylor partial sum of e^x of 30 terms,
    added term by term in Fraction."""
    x = Fraction(x)
    return sum(x ** k / math.factorial(k) for k in range(30))


def cell_vertex_images(a, b, dom, m):
    """The images b + (dom - a) A^T of one cell polygon's vertices under the
    cell's affine map, one product per cell."""
    return np.asarray(b) + (np.asarray(dom, dtype=float) - np.asarray(a)) @ m.T


def vertex_images(rmap):
    """A map's ``images`` from its ``points``, ``sizes`` and ``linear``, by
    ``cell_vertex_images`` cell after cell: what a test that edits a map's
    linear parts gives its ``images``."""
    polygons = np.split(rmap.points, np.cumsum(rmap.sizes)[:-1])
    return np.concatenate([cell_vertex_images(rmap._a, rmap._b, dom, m)
                           for dom, m in zip(polygons, rmap.linear)])


def image_cell_frames(a, dom, m):
    """The barycentric frames (9-tuples) of the fan triangles (0, i, i + 1)
    of the image polygon (dom - a) A^T of one cell, one inverse per cell."""
    img = (dom - a) @ m.T
    fan = np.stack([img[[0, i, i + 1]].T for i in range(1, len(img) - 1)])
    return [tuple(f) for f in np.linalg.inv(fan).reshape(-1, 9).tolist()]


def frame_rows(vertices3):
    """(origin, e1, e2) of the frame of a planar 3D polygon on numpy rows:
    e1 along the first edge, e2 from the largest cross e1 x (q - p0)."""
    v = np.asarray(vertices3, dtype=float)
    p0 = v[0]
    e1 = v[1] - p0
    best = None
    for q in v[2:]:
        n = np.cross(e1, q - p0)
        if best is None or np.linalg.norm(n) > np.linalg.norm(best):
            best = n
    if best is None or np.linalg.norm(best) < 1e-14:
        raise GeometryError("degenerate polygon for frame")
    e2 = np.cross(best, e1)
    e1 = e1 / np.linalg.norm(e1)
    e2 = e2 - np.dot(e2, e1) * e1
    return p0, e1, e2 / np.linalg.norm(e2)


def polygon_normal_rows(pts):
    """Unit normal of a planar 3D polygon (Newell's method) on numpy rows."""
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


def facet_is_planar_rows(pts, tol):
    if len(pts) == 3:
        return True
    d = (pts - pts[0]) @ polygon_normal_rows(pts)
    return float(np.max(np.abs(d))) <= max(tol, 1e-9 * np.abs(pts).max())


def _point_in_tri2(p, a, b, c):
    d1 = (p[0] - a[0]) * (b[1] - a[1]) - (b[0] - a[0]) * (p[1] - a[1])
    d2 = (p[0] - b[0]) * (c[1] - b[1]) - (c[0] - b[0]) * (p[1] - b[1])
    d3 = (p[0] - c[0]) * (a[1] - c[1]) - (a[0] - c[0]) * (p[1] - c[1])
    has_neg = (d1 < 0) or (d2 < 0) or (d3 < 0)
    has_pos = (d1 > 0) or (d2 > 0) or (d3 > 0)
    return not (has_neg and has_pos)


def triangulate_planar_rows(vertices, poly):
    """Ear-clip a planar facet given as a vertex-index loop, projecting each
    vertex into the facet frame with its own ``@``.  Returns the triangles
    and the projected vertices."""
    n0 = polygon_normal_rows(vertices[poly])
    origin = vertices[poly[0]]
    e1 = vertices[poly[1]] - origin
    e1 = e1 / np.linalg.norm(e1)
    e2 = np.cross(n0, e1)
    pts2 = [((vertices[i] - origin) @ e1, (vertices[i] - origin) @ e2) for i in poly]
    idx = list(range(len(poly)))
    area2 = sum(pts2[i][0] * pts2[(i + 1) % len(pts2)][1]
                - pts2[(i + 1) % len(pts2)][0] * pts2[i][1]
                for i in range(len(pts2)))
    ccw = area2 > 0
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
    return tris, pts2


def ball_growth_check(gm, xi, delta, samples=500):
    """min over sphere samples of |f(x) - f(xi)| / delta; the beam regime
    makes this at least 32."""
    x1, x2, x3 = map(float, xi)
    L = gm.L
    if (abs(x1 - 2 * round(x1 / 2.0)) + delta >= 1
            or abs(x2 - 2 * round(x2 / 2.0)) + delta >= 1):
        raise ValueError("ball leaves the fundamental half-beam")
    if x3 - delta <= L:
        raise ValueError("ball must sit above the expansion level")
    fxi = gm.eval3(x1, x2, x3)
    if fxi[2] <= L:
        raise ValueError("image point must sit above the expansion level")
    worst = math.inf
    for d1, d2, d3 in _fibonacci_sphere(samples).tolist():
        fp = gm.eval3(x1 + delta * d1, x2 + delta * d2, x3 + delta * d3)
        worst = min(worst, math.dist(fp, fxi) / delta)
    return worst


DilatationOracle = namedtuple("DilatationOracle", "k_i k_o max_deviation")


def radial_power_dilatation_oracle(fn, dim, samples=1000, seed=0):
    """Pointwise dilatations of |x| x from its analytic singular values
    (radial 2|x|, tangential |x|), cross-checked against finite-difference
    Jacobians of ``fn``, a map meant to be |x| x, at sample points."""
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    k_i = 2.0                      # J / l^d = 2 |x|^d / |x|^d
    k_o = 2.0 ** (dim - 1)         # |D|^d / J = (2|x|)^d / (2 |x|^d)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        x = rng.standard_normal(dim)
        r = np.linalg.norm(x)
        if r < 1e-3:
            continue
        h = 1e-6 * max(1.0, r)
        j = np.zeros((dim, dim))
        for k in range(dim):
            dp = np.zeros(dim)
            dp[k] = h
            j[:, k] = (np.asarray(fn(x + dp)) - np.asarray(fn(x - dp))) / (2 * h)
        sv = np.linalg.svd(j, compute_uv=False)
        det = abs(np.linalg.det(j))
        worst = max(worst, abs(det / sv[-1] ** dim - k_i),
                    abs(sv[0] ** dim / det - k_o))
    return DilatationOracle(k_i=k_i, k_o=k_o, max_deviation=worst)


def cuboid_spec(lo, hi, centre=None):
    """The ``Polyhedron`` arguments (vertices, centre, facet loops) of the
    axis-aligned cuboid [lo, hi] as a polyhedron about ``centre`` (its
    midpoint if None).  Vertex index bit 2 is x (0 at lo), bit 1 y and bit
    0 z; facet 2k is the face x_k = lo[k] and facet 2k + 1 the face
    x_k = hi[k], as on a ``star_extend.Box``."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    xs, ys, zs = zip(lo, hi)
    verts = np.array([[x, y, z] for x in xs for y in ys for z in zs])
    faces = [[0, 1, 3, 2], [4, 6, 7, 5], [0, 4, 5, 1], [2, 3, 7, 6], [0, 2, 6, 4], [1, 5, 7, 3]]
    return verts, 0.5 * (lo + hi) if centre is None else centre, faces


def cell_facets_by_planes(rmap):
    """Each cell's (domain facet, codomain facet) of a chart: the box facet
    whose plane holds every vertex of the cell's polygon, found from the
    planes as the boundary-map validation once found it, and the codomain
    facet that the cell's piece serves, the piece's place in the list of
    the chart's pieces counted facet by facet."""
    lo, hi = rmap.domain.lo.tolist(), rmap.domain.hi.tolist()
    pieces = [piece for facet in range(6) for piece in rmap.pieces_by_facet[facet]]
    out, at = [], 0
    for size, k in zip(rmap.sizes.tolist(), [k for k, piece in enumerate(pieces) for _ in piece]):
        poly = rmap.points[at:at + size].tolist()
        at += size
        fd, = [f for f in range(6) if all(p[f // 2] == (lo, hi)[f % 2][f // 2] for p in poly)]
        out.append((fd, k))
    return out


def fan_rows(rmap):
    """The rows (into ``rmap.points``) of a chart's fan triangles
    (0, i, i + 1) of every cell polygon, cell after cell: the triangles on
    which construction takes the chart's signs and seams."""
    rows, at = [], 0
    for size in rmap.sizes.tolist():
        rows += [(at, at + i, at + i + 1) for i in range(1, size - 1)]
        at += size
    return np.array(rows)


def _turned_cones(tris, centres):
    """(signs, held) of the cones of a chart's fan triangles, ``tris``
    (2, T, 3, 3) on the domain and the image side, about ``centres`` (2, 3),
    a and b: each cone's exact orientation (``signs``, (2, T)), and whether
    the cone turned by its domain cone's sign holds d, the first of
    ``star_extend._DIRECTIONS`` in the plane of no cone face: whether the
    turned signs of det(w_i - c, w_j - c, d) over its faces (i, j) are all
    positive (``held``, (2, T); None if no direction qualifies).  The 8T
    signs of a direction come from one ``_det3_signs`` call per chart."""
    n = tris.shape[1]
    p = np.empty((2, 4, n, 3, 3))
    p[:, 0] = tris
    p[:, 1:, :, :2] = tris[:, :, [[0, 1], [1, 2], [2, 0]]].transpose(0, 2, 1, 3, 4)
    q = np.zeros((2, 4, n, 3, 3))
    q[:, :, :, :2] = centres[:, None, None, None]
    q[:, 0, :, 2] = centres[:, None]
    for d in star_extend._DIRECTIONS:
        p[:, 1:, :, 2] = d
        signs = _det3_signs(p.reshape(-1, 3, 3), q.reshape(-1, 3, 3))[0].reshape(2, 4, n)
        if signs[:, 1:].all():
            return signs[:, 0], (signs[:, 1:] * signs[0, 0] > 0).all(axis=1)
    return signs[:, 0], None


def _seam_faults(ids, fans, turn, targets):
    """(faults, first, split) of a chart's fan triangles ``fans`` (rows of
    the points, numbered ``ids`` by their exact coordinates, and of their
    images ``targets``), each turned by the sign ``turn``, in Python tuples
    and a ``Counter`` of directed edges: the number of edges not run once
    each way and of points of several images; None or (triangle, (u, v),
    runs of it and of its reverse) of the first directed edge that fails;
    and per vertex whether its point has several images."""
    edges = []
    for (a, b, c), s in zip(ids[fans].tolist(), turn.tolist()):
        if s < 0:
            b, c = c, b
        edges += ((a, b), (b, c), (c, a))
    uses = Counter(edges)
    broken = [e for e, (u, v) in enumerate(edges) if uses[u, v] != 1 or uses[v, u] != 1]
    first = None
    if broken:
        u, v = edges[broken[0]]
        first = (broken[0] // 3, (u, v), (uses[u, v], uses[v, u]))
    n = int(ids.max()) + 1
    image = np.empty((n, 3))
    image[ids] = targets
    split = np.bincount(ids, (targets != image[ids]).any(axis=1), n) > 0
    faults = len({(min(edges[e]), max(edges[e])) for e in broken}) + int(np.count_nonzero(split))
    return faults, first, split[ids]


def boundary_report(rmap):
    """The ``ValidationReport`` of a built chart by the per-chart algorithm
    that ``RadialMap.validate_boundary_map`` ran before construction took
    its checks in the stacked pass: its own ``_turned_cones`` and Counter
    ``_seam_faults``, and its boundary deviation from its facet planes."""
    tol_boundary = max(rmap.tol * 1e3, 1e-12 * rmap.diameter)
    cod_n, cod_d = rmap.facet_planes
    dom, img, fans = rmap.points, rmap.targets, fan_rows(rmap)
    at = np.repeat(rmap.cell_facets[:, 1], rmap.sizes)
    worst_b = float(np.abs(_dots(img, cod_n[at]) - cod_d[at]).max())
    signs, held = _turned_cones(np.stack([dom[fans], img[fans]]), np.array([rmap._a, rmap._b]))
    turn = signs[0]
    degrees = [0, 0] if held is None else np.count_nonzero(held, axis=1).tolist()
    viol = (int(np.count_nonzero((signs[1] != turn) | (turn == 0)))
            + sum(k != 1 for k in degrees))
    detail = ("; every direction of the degree count lies in the plane of a cone face"
              if held is None else "; domain degree {}, image degree {}".format(*degrees))
    seams, first, split = _seam_faults(rmap.point_ids, fans, turn, img)
    if split.any():
        k = int(np.flatnonzero(split)[0])
        cell = bisect_right((np.cumsum(rmap.sizes) - rmap.sizes).tolist(), k) - 1
        detail += f"; {rmap.labels[cell]}: point {tuple(dom[k].tolist())} has several images"
    elif first:
        t, (u, v), runs = first
        p, q = (tuple(dom[np.flatnonzero(rmap.point_ids == i)[0]].tolist()) for i in (u, v))
        detail += (f"; {rmap.labels[rmap.fan_cell[t]]}: its edge from {p} to {q} is run "
                   "{} times and its reverse {} times".format(*runs))
    passed = worst_b <= tol_boundary and seams == 0 and viol == 0
    return star_extend.ValidationReport(passed=passed, worst_boundary_dev=worst_b,
                                        seam_violations=seams, injectivity_violations=viol,
                                        detail=f"tol_boundary={tol_boundary:.3e}" + detail)
