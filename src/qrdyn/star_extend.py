"""Radial extension of boundary maps from boxes onto star polyhedra.

A boundary homeomorphism from an axis-aligned box onto a star-shaped
polyhedron extends to the closed regions by transporting radial fractions:
a point at fraction s of the way from the box's midpoint to its boundary
maps to the point at fraction s from the polyhedron's centre b to the
image boundary point.  The box (``Box``) is convex about its midpoint.  The
polyhedron is the image of the box's faces about the caller's centre b.

The boundary map is a list of pieces on each domain facet, each piece the
list of its affine cells (``pieces``).  Counted facet by facet (0 to 5)
and in order within a facet, piece j's image is the polyhedron's facet j,
whose plane comes from the vector area of the piece's image cells
(``facet_planes``).  A cell is the fan triangle of a planar face about the
centre it is given onto the fan triangle of its image face about the
image's (``pieces.fan_cells``), or a whole face on which the boundary map
is affine, the identity or a triangle of F.  The pieces of a facet share a
vertex, as the cells of a piece do, so one combinatorial sector table
about the shared vertices finds the piece of a facet and the cell of a
piece alike (``_sector_entry``).

So the radial extension of a box is affine on the cone from the domain
centre a over each cell, and a ``RadialMap`` is those cells, stacked from
its pieces at construction (``radial_maps`` builds several maps in one
stacked pass).  It evaluates the map by one facet test, a sector test for
the piece and one for the cell (each skipped where there is one entry) and
one affine product, and inverts it by the image cell whose cone from b
holds the point (``psi``) and one inverse affine product.  The same cells
make the chart's certificate finite and exact, and construction takes all
of it in the pass that builds the charts (``_build_maps``): one exact sign
call (``_cone_signs``) gives each fan triangle's cone orientations and the
signs that count, per side, the cones that hold one direction, the
degree of the surface about each centre; one count of integer edge codes
(``_seam_faults``) checks that the fan triangles form a closed surface of
one orientation, with one image per point.  Construction refuses a fan
triangle whose image cone about b is not oriented as its domain cone
about a; ``RadialMap.validate_boundary_map`` reports the rest, which
passes when both degrees are 1.  So the chart maps its box
homeomorphically onto its image solid, every face fan is star about its
centres, and the image cells are the only triangulation of the solid's
surface that the map needs.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from math import atan2, inf

import numpy as np

from .geometry import (TAU_GEOM, GeometryError, _as_array, _cross, _det3_signs, _dots,
                       _starts)

# the directions from a chart's centres along which construction counts
# the cones that hold them: per chart, the first that lies in the plane of
# none of its cone faces is taken
_DIRECTIONS = ((0.5377, 0.1833, 0.8226), (-0.4336, 0.3426, 0.8339),
               (0.7269, -0.3035, -0.6163))


# ---------------------------------------------------------------------------
# the domain box

class Box:
    """The axis-aligned cuboid [lo, hi], the domain of a ``RadialMap``: it
    is convex about its midpoint ``centre``.  Its ``diameter`` is its
    diagonal and ``tol`` the ``TAU_GEOM`` multiple of that; facet 2k is
    the face x_k = lo[k] and facet 2k + 1 the face x_k = hi[k].  Raises
    GeometryError unless lo and hi are finite 3-vectors with lo < hi on
    every axis."""

    def __init__(self, lo, hi):
        self.lo, self.hi = _as_array(lo), _as_array(hi)
        if not np.all(self.lo < self.hi):
            raise GeometryError(f"a box needs lo < hi per axis, got {self.lo} and {self.hi}")
        self.centre = 0.5 * (self.lo + self.hi)
        self.diameter = float(np.linalg.norm(self.hi - self.lo))
        self.tol = TAU_GEOM * self.diameter


# ---------------------------------------------------------------------------
# the 3D radial map

@dataclass
class ValidationReport:
    passed: bool
    worst_boundary_dev: float
    seam_violations: int
    injectivity_violations: int
    detail: str = ""


class RadialMap:
    """Radial extension of a boundary map from a ``Box`` onto the solid
    that the map's image faces bound about ``centre`` (b), given by the
    pieces on each box facet ({facet: [pieces]}, each piece a list of
    cells), as its exact affine cells.  Piece j, counted facet by facet (0
    to 5) and in order within a facet, maps onto the solid's facet j.
    Another domain than a box, a centre other than a finite 3-vector, a
    facet without pieces, a piece without cells, a cell whose polygons
    differ in length, have fewer than 3 vertices, a vertex that is not
    three numbers or a non-finite coordinate, a domain vertex off its box
    facet, or a piece under a key other than the facets 0 to 5 raises
    GeometryError naming its cell.  A vertex may be any sequence of three
    numbers: construction takes each as a tuple of floats.

    Each cell is the cone from the domain centre a over one polygon on which
    the boundary piece is affine (a cell of the piece: a triangle, or a
    whole face); on it the map is p -> b + A (p - a), fixed by a -> b and
    the images of three of the polygon's vertices.  ``eval3`` takes the
    exit facet of the ray from a (ties within a relative 1e-12 to the
    lowest axis), the piece by a sector test about the vertices the facet's
    pieces share, the cell by one about the vertices the piece's cells
    share (a level of one entry skips its test), and one affine product;
    the centre ball of radius ``domain.tol`` maps to b.  It runs in one
    frame on the tuple ``_consts`` (a, b, lo, hi, the ball's squared
    radius, and the facet table, a facet of one piece holding its entry).
    ``eval`` does the same after it raises GeometryError for a point outside
    the domain box by more than ``domain.tol``; ``eval3`` checks nothing.

    The image cells are the cones from b over the image polygons, which
    tile space once the chart passes ``validate_boundary_map`` (``psi``).
    ``inverse`` maps b to a, and any other q to
    a + A^-1 (q - b), A the linear part of the image cell whose cone holds
    q - b (``psi``, through the module's name, which scans ``_frames``, the
    barycentric frames of the fan triangles of every image polygon, in cell
    order; ``_inverses`` holds each cell's A^-1).  Exterior and non-finite
    points raise GeometryError.

    Construction (``_build_maps``, over one or several maps) stacks the
    cells once, in cell order (facet by facet, piece by piece): ``points``
    and ``targets`` hold every cell polygon's vertices and their images
    under the boundary piece, cell after cell (``sizes`` per cell,
    ``point_ids`` the point of each vertex, numbered 0, 1, ...),
    ``cell_facets`` each cell's domain facet and its piece's running index,
    the image facet, and ``fan_cell`` the cell of each fan triangle
    (0, i, i + 1) of every polygon, in order.  ``linear`` holds the cells'
    linear parts and ``images`` each vertex's image b + A (p - a) under
    its own cell's A.  ``facet_planes`` holds, per image facet, its unit
    normal signed away from b, along the piece's vector area, and its
    offset n . p0 at the piece's first image point p0; ``diameter`` is that
    of the bounding box of the image points and ``tol`` its ``TAU_GEOM``
    multiple.  ``_checks`` holds what the same pass found of the chart's
    certificate, which ``validate_boundary_map`` reports.
    """

    def __init__(self, domain: Box, centre, pieces_by_facet):
        _build_maps([self], [(domain, centre, pieces_by_facet)])

    def eval(self, p):
        x, y, z = float(p[0]), float(p[1]), float(p[2])
        (lx, ly, lz), (hx, hy, hz) = self._box
        if not (lx <= x <= hx and ly <= y <= hy and lz <= z <= hz):
            raise GeometryError(f"{(x, y, z)} lies outside the domain box")
        return self.eval3(x, y, z)

    def eval3(self, x, y, z):
        ax, ay, az, bx, by, bz, lx, ly, lz, hx, hy, hz, ctol2, facets = self._consts
        dx = x - ax
        dy = y - ay
        dz = z - az
        if dx * dx + dy * dy + dz * dz <= ctol2:
            return (bx, by, bz)
        # the ray's exit facet (2k at lo[k], 2k + 1 at hi[k]) and time t >= 1
        t, facet = inf, -1
        if dx > 1e-300:
            t, facet = (hx - ax) / dx, 1
        elif dx < -1e-300:
            t, facet = (lx - ax) / dx, 0
        if dy > 1e-300 and (s := (hy - ay) / dy) < t * (1 - 1e-12):
            t, facet = s, 3
        elif dy < -1e-300 and (s := (ly - ay) / dy) < t * (1 - 1e-12):
            t, facet = s, 2
        if dz > 1e-300 and (s := (hz - az) / dz) < t * (1 - 1e-12):
            t, facet = s, 5
        elif dz < -1e-300 and (s := (lz - az) / dz) < t * (1 - 1e-12):
            t, facet = s, 4
        if t < 1.0:
            t = 1.0
        h = (ax + t * dx, ay + t * dy, az + t * dz)
        iu, iv, split, cu, cv, bounds, cells = facets[facet]
        hu, hv = h[iu], h[iv]
        if split:
            cu, cv, bounds, cells = cells[bisect_right(bounds, atan2(hv - cv, hu - cu))]
        m = cells[bisect_right(bounds, atan2(hv - cv, hu - cu))] if bounds else cells[0]
        return (bx + m[0] * dx + m[1] * dy + m[2] * dz,
                by + m[3] * dx + m[4] * dy + m[5] * dz,
                bz + m[6] * dx + m[7] * dy + m[8] * dz)

    def inverse(self, q):
        x, y, z = float(q[0]), float(q[1]), float(q[2])
        ax, ay, az = self._a
        bx, by, bz = self._b
        dx = x - bx
        dy = y - by
        dz = z - bz
        if not (dx or dy or dz):
            return (ax, ay, az)
        m = self._inverses[psi(self, dx, dy, dz)[1]]
        return (ax + m[0] * dx + m[1] * dy + m[2] * dz,
                ay + m[3] * dx + m[4] * dy + m[5] * dz,
                az + m[6] * dx + m[7] * dy + m[8] * dz)

    # -- diagnostics -------------------------------------------------------

    def validate_boundary_map(self) -> ValidationReport:
        """The exact check that the chart maps its box homeomorphically onto
        its image solid, assembled from what its construction found
        (``_checks``): ``_build_maps`` takes every sign and count in the
        stacked pass that builds the chart, and this call takes none; it
        takes only the float distances of the boundary test below.  The
        checks run on the fan triangles (0, i, i + 1) of the chart's cell
        polygons, each turned by the sign of its domain cone about a.

        Seams (``_seam_faults``): each point has one image, and the turned
        triangles form a closed surface of one orientation, each directed
        edge run once and its reverse once, so a T-junction is refused;
        ``seam_violations`` counts the points and edges that fail, and
        ``detail`` names the cell of the first.  Cones (``_cone_signs``):
        each image cone about b has its domain cone's orientation, and on
        each side exactly one turned cone holds a fixed direction.  On a
        surface that passes the seams, with every turned cone positive, the
        radial projection from the centre onto the sphere of directions is
        a branched covering, and that count is its degree, which ``detail``
        states per side.  Degree 1 makes the projection a homeomorphism:
        the domain triangles cover the box's boundary once, each ray from b
        crosses the image surface once, and the radial extension is
        injective.  ``injectivity_violations`` counts the cones of the
        wrong orientation and the sides of another degree.  Every sign is
        exact (``geometry._det3_signs``).  Last, the images of each piece's
        cells lie in the plane of its image facet (``facet_planes``) within
        max(1e3 tol, 1e-12 diameter) (``worst_boundary_dev``), the only
        test that an image facet is planar."""
        seams, first, split, viol, degrees = self._checks
        tol_boundary = max(self.tol * 1e3, 1e-12 * self.diameter)
        cod_n, cod_d = self.facet_planes
        at = np.repeat(self.cell_facets[:, 1], self.sizes)
        worst_b = float(np.abs(_dots(self.targets, cod_n[at]) - cod_d[at]).max())
        detail = ("; every direction of the degree count lies in the plane of a cone face"
                  if degrees is None else "; domain degree {}, image degree {}".format(*degrees))
        if split.any():
            k = int(np.flatnonzero(split)[0])
            cell = bisect_right(_starts(self.sizes).tolist(), k) - 1
            detail += (f"; {self.labels[cell]}: point {tuple(self.points[k].tolist())} "
                       "has several images")
        elif first:
            t, (u, v), runs = first
            p, q = (tuple(self.points[np.flatnonzero(self.point_ids == i)[0]].tolist())
                    for i in (u, v))
            detail += (f"; {self.labels[self.fan_cell[t]]}: its edge from {p} to {q} is run "
                       "{} times and its reverse {} times".format(*runs))
        passed = worst_b <= tol_boundary and seams == 0 and viol == 0
        return ValidationReport(passed=passed, worst_boundary_dev=worst_b,
                                seam_violations=seams, injectivity_violations=viol,
                                detail=f"tol_boundary={tol_boundary:.3e}" + detail)


def radial_maps(specs):
    """The maps ``RadialMap(*spec)`` of ``specs``, built in one stacked pass
    (``_build_maps``).  A batch raises what building its maps one by one,
    in order, raises, with that map's position in ``specs`` as the attribute
    ``map_index``.  The stacked pass walks every map before its cone signs
    and linear parts (a LinAlgError among their errors) and before each
    map's sector tables, so a later map may fail first there: when it
    fails, the maps are rebuilt one at a time.  The pass takes each map's
    whole certificate too, which ``validate_boundary_map`` reports."""
    maps = [RadialMap.__new__(RadialMap) for _ in specs]
    try:
        _build_maps(maps, specs)
    except (GeometryError, np.linalg.LinAlgError):
        for k, spec in enumerate(specs):
            try:
                RadialMap(*spec)
            except (GeometryError, np.linalg.LinAlgError) as single:
                single.map_index = k
                raise
        raise
    return maps


def _cone_signs(points, targets, fans, a, b, d):
    """(signs, failures) of the T fan triangles ``fans`` (rows of
    ``points`` and of ``targets``), each with its row of the centres ``a``
    and ``b`` and of the count directions ``d``.  ``signs`` (2, 4, T)
    holds, on the domain side (0: w = points[fan] about c = a[k]) and on the
    image side (1: w = targets[fan] about c = b[k]), the exact orientation
    of each cone, det(w - c) (signs[:, 0]), and the signs of
    det(w_i - c, w_j - c, d[k]) over its faces (i, j) = (0, 1), (1, 2),
    (2, 0) (signs[:, 1:]): the cone turned by its domain cone's sign holds
    d where they are all positive.  The failures are the rows that fail
    the chart certificate, in order: those whose image cone has not its
    domain cone's orientation, or whose domain cone is flat.  The 8T signs
    come from one ``geometry._det3_signs`` call."""
    n = len(fans)
    # per side, the cone's rows and each face's two rows and d, less the
    # centre from each vertex row
    p = np.empty((2, 4, n, 3, 3))
    w = p[:, 0]
    w[0], w[1] = points[fans], targets[fans]
    p[:, 1:, :, 0] = w.transpose(0, 2, 1, 3)
    p[:, 1:3, :, 1] = w[:, :, 1:].transpose(0, 2, 1, 3)
    p[:, 3, :, 1] = w[:, :, 0]
    p[:, 1:, :, 2] = d
    centres = np.stack([a, b])
    q = np.zeros((2, 4, n, 3, 3))
    q[:, :, :, :2] = centres[:, None, :, None]
    q[:, 0, :, 2] = centres
    signs = _det3_signs(p.reshape(-1, 3, 3), q.reshape(-1, 3, 3))[0].reshape(2, 4, n)
    cones = signs[:, 0]
    return signs, np.flatnonzero((cones[1] != cones[0]) | (cones[0] == 0))


def _seam_faults(ids, n_points, fans, turn, targets):
    """(faults, first, split) of the fan triangles ``fans`` of one or
    several maps, each turned by its sign ``turn``: rows of the points,
    numbered ``ids`` by their exact coordinates, map k's ``n_points[k]``
    points after those of the maps before it, and of their images
    ``targets``.  Per map: the number of its edges not run once each way
    and of its points of several images, and None or (fan row, (u, v),
    runs of it and of its reverse) of its first directed edge that fails,
    its rows and point numbers counted from its first; and per vertex
    whether its point has several images.  Map k's directed
    edge (u, v) is the integer base_k + u n_k + v, base_k the sum of n_j^2
    over the maps before it, so one ``np.bincount`` counts the runs of
    every edge.  A map without faults has turned triangles that form a
    closed surface of one orientation, on which its boundary map is
    continuous, exactly."""
    size = np.array(n_points)
    point_map = np.repeat(np.arange(len(size)), size)
    first_point = _starts(size)
    tri = ids[fans]
    swap = turn < 0
    tri[swap] = tri[swap][:, [0, 2, 1]]
    k = point_map[tri[:, 0]]
    n = size[k, None]
    # base_k + u n_k + v in map k's own numbers, from the pass's numbers
    shift = (_starts(size * size) - first_point * (size + 1))[k, None]
    u, v = tri, tri[:, [1, 2, 0]]
    code, back = shift + u * n + v, shift + v * n + u
    uses = np.bincount(code.ravel(), minlength=int((size * size).sum()))
    runs, backs = uses[code].ravel(), uses[back].ravel()
    image = np.empty((len(point_map), 3))
    image[ids] = targets
    split = np.bincount(ids, (targets != image[ids]).any(axis=1), len(point_map)) > 0
    faults = [int(x) for x in np.bincount(point_map, split, len(size)).tolist()]
    first = [None] * len(size)
    broken = np.flatnonzero((runs != 1) | (backs != 1)).tolist()
    if broken:
        fan_rows = _starts(np.bincount(k, minlength=len(size))).tolist()
        pairs = set()         # each map's undirected edges that fail
        for e in broken:
            m = int(k[e // 3])
            p, q = (int(x) - int(first_point[m]) for x in (u.flat[e], v.flat[e]))
            if first[m] is None:
                first[m] = (e // 3 - fan_rows[m], (p, q), (int(runs[e]), int(backs[e])))
            if (m, min(p, q), max(p, q)) not in pairs:
                pairs.add((m, min(p, q), max(p, q)))
                faults[m] += 1
    return faults, first, split[ids]


# ---------------------------------------------------------------------------
# the exact piecewise-affine form of a radial map on a box

def _sector_entry(name, groups, iu, iv):
    """The sector layout (cu, cv, bounds, owners) of a level ``name`` (the
    cells of a piece, or the pieces of a facet) whose entries are the lists
    of domain polygons ``groups``: a point h of the level's patch lies in
    entry owners[bisect_right(bounds, atan2(h_v - cv, h_u - cu))].  (cu, cv)
    is the centroid, in the face coordinates (iu, iv), of the vertices that
    all entries share: a face fan's centre, the midpoint of a split
    square's diagonal, or the corner where a facet's pieces meet.  The
    bounds are the sorted angles of the other vertices about it, each
    distinct vertex's taken once, and the first and the last sector are the
    one that wraps through the angle pi; a level of one entry has no bounds
    and the one owner 0.

    Sector i, from bounds[i - 1] to bounds[i] (i = 0 wrapping from the
    last bound), goes to the entry with a polygon that has a vertex at each
    of those two angles: each polygon, as the set of its vertices' indices
    into the bounds, claims every i that it holds with i - 1.  That is the
    entry that holds the sector: each entry's patch is convex and contains
    the centre, so such a polygon holds the triangle from the centre to
    those two vertices, which covers the sector's wedge near the centre.
    Raises GeometryError if the entries share no vertex, or at the first
    sector that none or several entries claim."""
    if len(groups) == 1:
        return 0.0, 0.0, [], [0]
    shared = set.intersection(*({p for dom in group for p in dom} for group in groups))
    if not shared:
        raise GeometryError(f"the {name} share no vertex")
    cu = sum(p[iu] for p in shared) / len(shared)
    cv = sum(p[iv] for p in shared) / len(shared)
    angle = {}        # each distinct vertex's angle about (cu, cv), None at it
    for group in groups:
        for dom in group:
            for p in dom:
                if p not in angle:
                    u, v = p[iu], p[iv]
                    angle[p] = None if u == cu and v == cv else atan2(v - cv, u - cu)
    bounds = sorted({a for a in angle.values() if a is not None})
    index = {a: i for i, a in enumerate(bounds)}
    n = len(bounds)
    claims = [set() for _ in bounds]
    for k, group in enumerate(groups):
        for dom in group:
            held = {index[a] for a in map(angle.__getitem__, dom) if a is not None}
            for i in held:
                if (i - 1) % n in held:
                    claims[i].add(k)
    for i, owners in enumerate(claims):
        if len(owners) != 1:
            lo, hi = bounds[i - 1], bounds[i]
            if not owners:
                raise GeometryError(f"none of the {name} covers the sector from angle {lo} to {hi}")
            raise GeometryError(f"several of the {name} cover the sector from angle {lo} to {hi}")
    owners = [k for (k,) in claims]
    return cu, cv, bounds, owners + owners[:1]


# the face coordinates (iu, iv) of the box facets x_k = lo[k], x_k = hi[k]
_FACE_AXES = [(1, 2), (1, 2), (0, 2), (0, 2), (0, 1), (0, 1)]


def _build_maps(maps, specs):
    """Fill in the blank ``maps`` from their ``specs`` (domain, centre,
    pieces by domain facet), each numpy step once over the cells of all of
    them.

    Each map's cells are walked in cell order onto the stacks: each cell's
    domain polygon, its image points, and its domain facet with its piece's
    running index, the image facet (``cell_facets``); a key of
    ``pieces_by_facet`` other than 0 to 5 is walked last.  The walk refuses
    a facet's pieces that are not a sequence of pieces, a facet without
    pieces, a piece that is not a sequence of cells or has none, a cell
    that is not a pair of sequences (two polygons), and a cell whose two
    polygons differ in length or have fewer than 3 vertices; then the
    stacks refuse a vertex that is not three numbers (``_vertex_rows``), a
    non-finite coordinate, and a domain vertex whose coordinate on its
    facet's axis is not exactly the facet's level (every vertex of a key
    other than 0 to 5).  The point numbering and the sector layouts take
    the domain vertices as the stack's rows, tuples of floats, whatever
    sequences the pieces gave.

    Before any solve, one ``_cone_signs`` call over the fan triangles of
    all the maps takes their cones' orientations, which certify the
    centres b (the first that fails raises GeometryError naming its cell),
    and the signs of their faces along the first of ``_DIRECTIONS``: the
    signs of a map with a zero among them are taken again along the next
    direction, in one more call for all such maps, until none is left.
    Per map and side, the cones turned by their domain cone's sign that
    hold the direction are counted: the degree that
    ``validate_boundary_map`` reports.  The maps' points are numbered by
    their exact coordinates, map after map, and one ``_seam_faults`` call
    counts every map's directed edges and points of several images.  One sum
    over each piece's image fan triangles, from its first fan row in cell
    order, each turned by its domain cone's sign (so that the cells of a
    piece may run either way round), gives its vector area and so the
    image facets' ``facet_planes``; a piece of zero vector area is
    refused.  Then one solve gives the linear parts on every cell's first
    three vertex correspondences.  Each facet's entry is then the sector
    entry of its pieces over those of their cells, the rows taken in cell
    order, each from its level's sector layout (``_sector_entry``), which is
    taken once per piece and once per facet's pieces however many maps list
    them; one determinant and one inverse go over the linear parts, one
    stacked product gives every vertex's image (``images``), and one
    inverse gives the fan frames of the image cells, which ``psi`` scans
    (``_frames``, each with its cell).  Each map keeps its slice of the
    stacked arrays and its checks (``_checks``); a stacked solve, product
    or inverse equals the per-matrix call bitwise, every sign is exact and
    every count is the map's own, so every map, its report included, is
    the one that its own construction builds.  Raises the first error met,
    naming its cell ("facet f piece k cell j") or its piece."""
    sizes, doms, imgs, facets, labels, piece_names, piece_cells, n_pieces = ([] for _ in range(8))
    sides = []        # per cell: its facet's axis and level (NaN off the six)
    for rmap, (domain, centre, pieces_by_facet) in zip(maps, specs):
        if not isinstance(domain, Box):
            raise GeometryError("a radial map needs a box domain")
        rmap.domain = domain
        rmap.pieces_by_facet = {}
        for f, pieces in pieces_by_facet.items():
            try:
                rmap.pieces_by_facet[f] = list(pieces)
            except TypeError:
                raise GeometryError(f"facet {f}: its pieces are a list of pieces, "
                                    f"not {pieces!r}") from None
        rmap._a = tuple(map(float, domain.centre))
        rmap._b = tuple(_as_array(centre).tolist())
        rmap._box = tuple([float(c) + s * domain.tol for c in v]
                          for v, s in zip((domain.lo, domain.hi), (-1, 1)))
        first = len(labels)
        served = 0        # the running piece index, the image facet it maps onto
        # a key other than 0 to 5 is walked last, for its cells to be refused
        for facet in [*range(6), *(f for f in rmap.pieces_by_facet if f not in range(6))]:
            pieces = rmap.pieces_by_facet.get(facet)
            if not pieces:
                raise GeometryError(f"no boundary piece for facet {facet}")
            side = ((facet // 2, float((domain.lo, domain.hi)[facet % 2][facet // 2]))
                    if facet in range(6) else (0, math.nan))
            for k, piece in enumerate(pieces):
                name = f"facet {facet} piece {k}"
                if not piece:
                    raise GeometryError(f"{name} has no cells")
                try:
                    cells = iter(piece)
                except TypeError:
                    raise GeometryError(f"{name}: a piece is a list of cells, "
                                        f"not {piece!r}") from None
                for j, cell in enumerate(cells):
                    labels.append(f"{name} cell {j}")
                    try:
                        dom, img = cell
                        len(dom), len(img)
                    except (TypeError, ValueError):
                        raise GeometryError(f"{labels[-1]}: a cell is a pair of polygons, each "
                                            f"a sequence of vertices, not {cell!r}") from None
                    if not 3 <= len(dom) == len(img):
                        raise GeometryError(f"{labels[-1]}: a polygon of {len(dom)} vertices "
                                            f"onto one of {len(img)}; a cell needs 3 or more"
                                            " vertices and one image each")
                    sizes.append(len(dom))
                    doms.extend(dom)
                    imgs.extend(img)
                facets.extend([(facet, served)] * len(piece))
                sides.extend([side] * len(piece))
                piece_names.append(name)
                piece_cells.append(len(piece))
                served += 1
        rmap.labels = labels[first:]
        n_pieces.append(served)
    sizes = np.array(sizes)
    starts = _starts(sizes)
    counts = np.array([len(rmap.labels) for rmap in maps])
    centres = [np.array(c).repeat(counts, axis=0)
               for c in ([rmap._a for rmap in maps], [rmap._b for rmap in maps])]
    points, targets = _vertex_rows(doms, starts, labels), _vertex_rows(imgs, starts, labels)
    # each domain vertex as a tuple of floats, which the point numbering
    # and the sector layouts key on; and each cell's polygon of them
    doms = list(map(tuple, points.tolist()))
    polygons = [doms[k:k + size] for k, size in zip(starts.tolist(), sizes.tolist())]
    # flatnonzero here and a float sign column below, not a full .all() or
    # an int-by-float broadcast: either of those pages 64 KB of numpy's
    # native code that no other build step uses
    nonfinite = np.flatnonzero(~(np.isfinite(points).all(axis=1)
                                 & np.isfinite(targets).all(axis=1)))
    if nonfinite.size:
        cell = bisect_right(starts.tolist(), int(nonfinite[0])) - 1
        raise GeometryError(f"{labels[cell]}: non-finite coordinates are not admitted")
    # every domain vertex on its cell's box facet, exactly
    axis, level = (np.repeat(c, sizes) for c in zip(*sides))
    off = np.flatnonzero(points[np.arange(len(points)), axis] != level)
    if off.size:
        cell = bisect_right(starts.tolist(), int(off[0])) - 1
        facet = facets[cell][0]
        raise GeometryError(f"{labels[cell]}: " + (
            f"domain vertex {tuple(points[off[0]].tolist())} is off box facet {facet}"
            if facet in range(6) else f"a box has no facet {facet}; its facets are 0 to 5"))
    # the fan triangles (0, i, i + 1) of every polygon, cell after cell
    fan_starts = _starts(sizes - 2)
    fan_cell = np.repeat(np.arange(len(sizes)), sizes - 2)
    i = np.arange(len(fan_cell)) - fan_starts[fan_cell]
    fans = starts[fan_cell][:, None] + np.stack([0 * i, i + 1, i + 2], axis=1)
    a, b = (c[fan_cell] for c in centres)
    signs, bad = _cone_signs(points, targets, fans, a, b,
                             np.full((len(fans), 3), _DIRECTIONS[0]))
    if bad.size:
        cell, t = fan_cell[bad[0]], i[bad[0]]
        raise GeometryError(f"{labels[cell]}: the image cone of fan triangle {t} about the "
                            f"codomain centre {centres[1][cell].tolist()} is not oriented as "
                            "its domain cone")
    # each map counts its degrees along the first of _DIRECTIONS that lies
    # in the plane of none of its cone faces: a map with a zero face sign
    # takes its signs again along the next, and has no count past the last
    fan_map = np.repeat(np.arange(len(maps)), counts)[fan_cell]
    for direction in (*_DIRECTIONS[1:], None):
        flat = np.bincount(fan_map[(signs[:, 1:] == 0).any(axis=(0, 1))], minlength=len(maps))
        if direction is None or not flat.any():
            break
        again = np.flatnonzero(flat[fan_map])
        signs[:, :, again] = _cone_signs(points, targets, fans[again], a[again], b[again],
                                         np.full((len(again), 3), direction))[0]
    turn = signs[0, 0]
    # per map, its cones of the wrong orientation and, per side, its turned
    # cones that hold its direction
    wrong, *held = (np.bincount(fan_map[x], minlength=len(maps)).tolist()
                    for x in ((signs[1, 0] != turn) | (turn == 0),
                              *(signs[:, 1:] * turn > 0).all(axis=1)))
    # each vertex's point, numbered by its exact coordinates, each map's
    # points after those of the maps before it
    ids, n_points = [], []
    map_rows = np.append(starts[_starts(counts)], len(doms)).tolist()
    for p0, p1 in zip(map_rows, map_rows[1:]):
        number, base = {}, sum(n_points)
        ids += [number.setdefault(q, base + len(number)) for q in doms[p0:p1]]
        n_points.append(len(number))
    ids = np.array(ids)
    seams = _seam_faults(ids, n_points, fans, turn, targets)
    # each piece's vector area, over its image fan triangles from its first
    # fan row on, each as its domain cone turns, then signed away from b;
    # the offset at its first image point
    piece_cell = _starts(piece_cells)
    w = targets[fans]
    turned = _cross(w[:, 1] - w[:, 0], w[:, 2] - w[:, 0]) * turn[:, None].astype(float)
    piece_of_fan = np.repeat(np.arange(len(piece_cells)), piece_cells)[fan_cell]
    vector = np.stack([np.bincount(piece_of_fan, c, len(piece_cells)) for c in turned.T], axis=1)
    piece_fan = fan_starts[piece_cell]
    twice = np.sqrt((vector * vector).sum(axis=1))
    zero = np.flatnonzero(twice == 0.0)
    if zero.size:
        raise GeometryError(f"{piece_names[zero[0]]}: its image has zero vector area")
    w0 = w[piece_fan, 0]
    outward = _dots(vector, w0 - centres[1][piece_cell]) >= 0.0
    normals = vector / np.where(outward, twice, -twice)[:, None]
    planes = (normals, _dots(normals, w0))
    # rows: A d_i = w_i over the first three vertices of each cell
    first3 = starts[:, None] + np.arange(3)
    linear = np.ascontiguousarray(np.swapaxes(np.linalg.solve(
        points[first3] - centres[0][:, None], targets[first3] - centres[1][:, None]), 1, 2))
    rows = [tuple(m) for m in linear.reshape(-1, 9).tolist()]
    dets = np.linalg.det(linear)
    layouts = {}      # the sector layouts, by facet axis and the levels' pieces

    def entry(key, name, groups, values, iu, iv):
        if key not in layouts:
            layouts[key] = _sector_entry(name, groups, iu, iv)
        cu, cv, bounds, owners = layouts[key]
        return cu, cv, bounds, [values[k] for k in owners]

    c0 = 0
    for rmap, n in zip(maps, counts.tolist()):
        # per facet (iu, iv, False) + its one piece's (cu, cv, bounds, rows),
        # or (iu, iv, True, cu, cv, bounds, pieces) of such piece entries;
        # a piece or a facet's pieces that several maps list share a layout
        table = []
        rest = iter(zip(polygons[c0:c0 + n], rows[c0:c0 + n]))
        for facet, (iu, iv) in enumerate(_FACE_AXES):
            pieces = rmap.pieces_by_facet[facet]
            cells = [[next(rest) for _ in piece] for piece in pieces]
            entries = [entry((facet // 2, id(piece)), f"cells of facet {facet} piece {k}",
                             [[dom] for dom, _ in own], [m for _, m in own], iu, iv)
                       for k, (piece, own) in enumerate(zip(pieces, cells))]
            table.append((iu, iv, False) + entries[0] if len(entries) == 1
                         else (iu, iv, True) + entry(
                             (facet // 2, *map(id, pieces)), f"pieces of facet {facet}",
                             [[dom for dom, _ in own] for own in cells], entries, iu, iv))
        tol = rmap.domain.tol
        rmap._consts = (rmap._a + rmap._b + tuple(map(float, rmap.domain.lo))
                        + tuple(map(float, rmap.domain.hi)) + (tol * tol, table))
        singular = np.flatnonzero(~(dets[c0:c0 + n] != 0.0))
        if singular.size:
            raise GeometryError(f"{rmap.labels[singular[0]]}: singular linear part")
        c0 += n
    at = np.append(fan_starts, len(fan_cell)).tolist()
    inverses = list(map(tuple, np.linalg.inv(linear).reshape(-1, 9).tolist()))
    mapped = _mapped_points(points - np.repeat(centres[0], sizes, axis=0), sizes, linear)
    images = np.repeat(centres[1], sizes, axis=0) + mapped
    frames = list(map(tuple, np.linalg.inv(np.swapaxes(mapped[fans], 1, 2))
                      .reshape(-1, 9).tolist()))
    c0, t0, k0 = 0, 0, 0
    for m, (rmap, n, k, (p0, p1)) in enumerate(zip(maps, counts.tolist(), n_pieces,
                                                   zip(map_rows, map_rows[1:]))):
        c1, k1 = c0 + n, k0 + k
        t1 = at[c1]
        rmap.sizes, rmap.cell_facets = sizes[c0:c1], np.array(facets[c0:c1])
        rmap.points, rmap.targets, rmap.images = points[p0:p1], targets[p0:p1], images[p0:p1]
        rmap.facet_planes = tuple(x[k0:k1] for x in planes)
        rmap.diameter = float(np.linalg.norm(rmap.targets.max(axis=0)
                                             - rmap.targets.min(axis=0)))
        rmap.tol = TAU_GEOM * rmap.diameter
        rmap.linear = linear[c0:c1]
        rmap.fan_cell = fan_cell[t0:t1] - c0
        rmap.point_ids = ids[p0:p1] - sum(n_points[:m])
        rmap._frames = list(zip(frames[t0:t1], rmap.fan_cell.tolist()))
        rmap._inverses = inverses[c0:c1]
        degrees = None if flat[m] else [held[0][m], held[1][m]]
        rmap._checks = (seams[0][m], seams[1][m], seams[2][p0:p1],
                        wrong[m] + sum(deg != 1 for deg in degrees or (0, 0)), degrees)
        c0, t0, k0 = c1, t1, k1


def _vertex_rows(vertices, starts, labels):
    """The (N, 3) float array of the cell vertices ``vertices``, cell after
    cell from the rows ``starts``.  Raises GeometryError naming the cell
    (``labels``) of the first vertex that is not three numbers."""
    try:
        rows = np.array(vertices, dtype=float)
    except (TypeError, ValueError):
        rows = None
    if rows is not None and rows.shape == (len(vertices), 3):
        return rows
    for k, v in enumerate(vertices):
        try:
            row = np.array(v, dtype=float)
        except (TypeError, ValueError):
            row = None
        if row is None or row.shape != (3,):
            raise GeometryError(f"{labels[bisect_right(starts.tolist(), k) - 1]}: "
                                f"vertex {v!r} is not three numbers")


def _mapped_points(d, sizes, linear):
    """d A^T for the rows d of each cell polygon's vertices (relative to
    the domain centre), A the cell's linear part: the cells of each polygon
    size in one stacked product, which gives each cell's rows bitwise as
    its own product does."""
    out = np.empty_like(d)
    starts = _starts(sizes)
    for size in sorted(set(sizes.tolist())):
        idx = np.flatnonzero(sizes == size)
        rows = starts[idx][:, None] + np.arange(size)
        out[rows] = d[rows] @ np.swapaxes(linear[idx], 1, 2)
    return out


def psi(rmap, dx, dy, dz):
    """(t, k) of the ray from the codomain centre b of the chart ``rmap``
    along d = (dx, dy, dz) = q - b: the image cell k whose cone from b
    holds d, and the ray's crossing b + t d with the codomain's boundary.

    It scans the fan frames of the chart's image cells (``_frames``, the
    barycentric frames of the fan triangles of each image polygon about b),
    in cell order: k is the first cell with a fan triangle in which d has
    barycentrics l >= -1e-9 sum(l), and failing that, the cell that d
    misses least; t = 1 / sum(l).  The image cones tile space: the chart's
    cone signs and its closed seams make the image surface a branched
    covering of the sphere of directions about b, of degree 1 by
    ``validate_boundary_map``.  So the ray crosses the boundary once, in
    cell k, and t >= 1 unless q is exterior.
    Raises GeometryError where that crossing lies nearer than q by more
    than 4 ``rmap.tol``, and where d is zero or not finite."""
    dist = math.hypot(dx, dy, dz)
    if not 0.0 < dist < inf:
        raise GeometryError("psi is undefined at the star centre" if dist == 0.0
                            else "non-finite coordinates are not admitted"
                            if not all(map(math.isfinite, (dx, dy, dz)))
                            else "psi called on an exterior point")
    best, depth, s_best = -1, -inf, 0.0
    for (f0, f1, f2, f3, f4, f5, f6, f7, f8), k in rmap._frames:
        l0 = f0 * dx + f1 * dy + f2 * dz
        l1 = f3 * dx + f4 * dy + f5 * dz
        l2 = f6 * dx + f7 * dy + f8 * dz
        s = l0 + l1 + l2
        if s <= 0.0:
            continue
        low = l1 if l1 < l0 else l0       # min(l0, l1, l2), in min's order
        if l2 < low:
            low = l2
        low /= s
        if low >= -1e-9:
            best, s_best = k, s
            break
        if low > depth:
            best, depth, s_best = k, low, s
    if best < 0 or dist - dist / s_best > 4 * rmap.tol:
        raise GeometryError("psi called on an exterior point")
    return 1.0 / s_best, best
