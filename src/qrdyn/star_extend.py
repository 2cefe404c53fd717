"""Radial extension of boundary maps from boxes onto star polyhedra.

A boundary homeomorphism from an axis-aligned box onto a star-shaped
polyhedron extends to the closed regions by transporting radial fractions:
a point at fraction s of the way from the box's midpoint to its boundary
maps to the point at fraction s from the polyhedron's centre to the image
boundary point.  The box (``Box``) is convex about its midpoint.  The
polyhedron is not given apart from the map: it is the image of the box's
faces, about the centre b that the caller states, and b is certified by
one exact sign per fan triangle of every cell: the image cone about it has
the orientation of the domain cone (``_cone_signs``).

The boundary map itself is a list of pieces on each domain facet, each
piece the list of its affine cells (``pieces``).  Counted facet by facet
(0 to 5) and in order within a facet, piece j's image is the polyhedron's
facet j, whose plane comes from the vector area of the piece's image cells
(``facet_planes``).  A cell is the fan triangle of a planar face about the
centre it is given onto the fan triangle of its image face about the
image's (the radial extension of the face's edge correspondence,
``pieces.fan_cells``), or a whole face on which the boundary map is
affine, the identity or a triangle of F.  The centres are the caller's,
and the same cone signs certify the face centres too: a fan that is not
star about its centres has a fan triangle whose image cone is not oriented
as its domain cone, or a seam that ``validate_boundary_map`` refuses.  The
pieces of a facet share a vertex, as the cells of a piece do, so one
sector table about the shared vertices finds the piece of a facet and the
cell of a piece alike.  The table is combinatorial: with each distinct
vertex's angle about the shared vertices taken once and sorted, sector i,
from angle i - 1 to angle i, goes to the entry with a polygon that holds
both, which the polygons' indices into the sorted angles find
(``_sector_entry``); a piece, or a facet's pieces, that several maps of one
pass list share that layout.

So the radial extension of a box is affine on the cone from the domain
centre over each cell, and a ``RadialMap`` is those cells, stacked from its
pieces at construction (``radial_maps`` builds several maps in one stacked
pass).  It both evaluates and inverts the map: forward by one facet test, a
sector test for the piece and one for the cell (each skipped where there is
one entry) and one affine product, backward by the image cell whose cone
from b holds the point (``psi``, a scan of the image cells' fan frames)
and one inverse affine product.  The same cells make the boundary map's
certificate finite and exact: ``RadialMap.validate_boundary_map`` checks
its seams on the cell complex and its orientation by exact signs on the
cell vertices, so the image cells are the only triangulation of the
polyhedron's surface that the map needs.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from math import atan2, inf

import numpy as np

from .geometry import (TAU_GEOM, GeometryError, _as_array, _cross, _det3_signs, _dots,
                       _starts)

# Relative tolerance of the facet area sums of a boundary map's cells
TAU_SEAM = 1e-9


# ---------------------------------------------------------------------------
# the domain box

class Box:
    """The axis-aligned cuboid [lo, hi], the domain of a ``RadialMap``: it
    is convex about its midpoint ``centre``.  Its ``diameter`` is its
    diagonal, ``tol`` the ``TAU_GEOM`` multiple of that, and its
    ``facet_planes`` its facets' unit normals and areas, in closed form:
    facet 2k is the face x_k = lo[k] (normal -e_k) and facet 2k + 1 the
    face x_k = hi[k] (normal e_k), each with the product of its two sides
    as area.  Raises GeometryError unless lo and hi are finite 3-vectors
    with lo < hi on every axis."""

    # -e_k and e_k; + 0.0 turns the -0.0 of the products into 0.0
    _NORMALS = np.kron(np.eye(3), [[-1.0], [1.0]]) + 0.0

    def __init__(self, lo, hi):
        self.lo, self.hi = _as_array(lo), _as_array(hi)
        if not np.all(self.lo < self.hi):
            raise GeometryError(f"a box needs lo < hi per axis, got {self.lo} and {self.hi}")
        side = self.hi - self.lo
        self.centre = 0.5 * (self.lo + self.hi)
        self.diameter = float(np.linalg.norm(side))
        self.tol = TAU_GEOM * self.diameter
        area = np.repeat([side[1] * side[2], side[0] * side[2], side[0] * side[1]], 2)
        self.facet_planes = (self._NORMALS, area)


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
    differ in length, have fewer than 3 vertices or a non-finite coordinate,
    a domain vertex off its box facet, or a piece under a key other than
    the facets 0 to 5 raises GeometryError naming its cell.

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
    cover space (``psi``).  ``inverse`` maps b to a, and any other q to
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
    the image facet, and ``fans`` the rows of the fan triangles (0, i, i + 1)
    of every polygon, with ``fan_cell`` the cell of each.  The linear parts
    (``linear``), the fan frames of the image cells, the boundary-map
    validation and ``global_map.CellTable`` read them; the sector entries
    take the pieces' cells and the rows of ``linear``.  ``images`` holds
    each vertex's image b + A (p - a) under its own cell's A, from which
    the fan frames and ``global_map.CellTable`` take it.  ``facet_planes``
    holds, per image facet, its unit normal signed away from b, its offset
    n . p0 at the piece's first image point p0, and its area, from the
    piece's vector area, the sum of (w1 - w0) x (w2 - w0) over the image
    fan triangles (w0, w1, w2), each times its domain cone's orientation
    sign; ``diameter`` is that of the bounding box of the image points and
    ``tol`` its ``TAU_GEOM`` multiple.
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
        """Exact check of the boundary map on the pieces' affine cells, as
        construction stacked them (``point_ids``, ``sizes``, ``targets``,
        ``cell_facets``, ``fans``).

        The seams are exact (``_seam_faults``): the cells meet edge to edge
        and give each point one image, so the boundary map is continuous;
        ``seam_violations`` counts the edges and points that fail, and
        ``detail`` names the cell of the first.  The images of each piece's
        cells lie in the plane of its image facet (``facet_planes``) within
        max(1e3 tol, 1e-12 diameter) (``worst_boundary_dev``), the only
        test that an image facet is planar.  The image of each cell, ordered
        positively in its domain facet, is positive in its image facet, and
        the signed areas of each facet's triangles sum, within a relative
        ``TAU_SEAM``, to the box facet's area on the domain side and to the
        facet's ``facet_planes`` area, the length of their vector sum, on
        the image side.  So the triangles of an image facet have one
        orientation; that does not show that they cover the facet once (an
        image fan that winds twice about its centre passes).  The signs are
        exact: ``_oriented_areas`` takes them for all triangles of the chart
        from ``geometry._det3_signs``, whose float filter decides every sign
        outside Shewchuk's error bound and leaves the rest, zero areas among
        them, to exact integer arithmetic.  ``injectivity_violations``
        counts the triangles that are not positive on both sides or that
        lie in a facet whose area sum fails.
        """
        tol_boundary = max(self.tol * 1e3, 1e-12 * self.diameter)
        dom_n, dom_area = self.domain.facet_planes
        cod_n, cod_d, cod_area = self.facet_planes
        # every cell vertex and its image, cell after cell
        dom, img, start = self.points, self.targets, _starts(self.sizes)
        seams, others, split = _seam_faults(self.point_ids, self.sizes, img)
        detail = f"tol_boundary={tol_boundary:.3e}"
        if seams:
            k = int(np.flatnonzero((others != 1) | split)[0])
            p = tuple(dom[k].tolist())
            detail += (f"; {self.labels[bisect_right(start.tolist(), k) - 1]}: "
                       + (f"point {p} has several images" if split[k]
                          else f"its edge from {p} lies in {others[k]} other cells"))
        cell_fd, cell_fc = self.cell_facets.T
        at = np.repeat(cell_fc, self.sizes)
        worst_b = float(np.abs(_dots(img, cod_n[at]) - cod_d[at]).max())
        # each cell polygon as its fan of triangles (0, i, i + 1)
        dom, img = dom[self.fans], img[self.fans]
        fd, fc = cell_fd[self.fan_cell], cell_fc[self.fan_cell]
        signs, areas = _oriented_areas(np.concatenate([dom_n[fd], cod_n[fc]]),
                                       np.concatenate([dom, img]))
        n = len(fd)
        sd, si, ad, ai = signs[:n], signs[n:], areas[:n], areas[n:]
        bad = sd * si <= 0
        # every facet holds a triangle: construction refuses empty ones
        for idx, area, signed in ((fd, dom_area, sd * ad), (fc, cod_area, sd * ai)):
            bad |= (np.abs(np.bincount(idx, signed, len(area)) - area) > TAU_SEAM * area)[idx]
        viol = int(bad.sum())

        passed = worst_b <= tol_boundary and seams == 0 and viol == 0
        return ValidationReport(passed=passed, worst_boundary_dev=worst_b,
                                seam_violations=seams, injectivity_violations=viol,
                                detail=detail)


def radial_maps(specs):
    """The maps ``RadialMap(*spec)`` of ``specs``, built in one stacked pass
    (``_build_maps``).  A batch raises what building its maps one by one,
    in order, raises, with that map's position in ``specs`` as the attribute
    ``map_index``.  The stacked pass walks every map before its cone signs
    and linear parts (a LinAlgError among their errors) and before each
    map's sector tables, so a later map may fail first there: when it
    fails, the maps are rebuilt one at a time."""
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


def _cone_signs(points, targets, fans, a, b):
    """(signs, failures) of the fan triangles ``fans`` (rows of ``points``
    and of ``targets``): the exact orientation of each domain cone, the
    triangle points[fan] about a[k], and the rows that fail the chart
    certificate, in order: those whose image cone, targets[fan] about b[k],
    has not that orientation, or whose domain cone is flat.  Every sign
    comes from one ``geometry._det3_signs`` call."""
    n = len(fans)
    signs = _det3_signs(np.concatenate([points[fans], targets[fans]]),
                        np.concatenate([a, b])[:, None, :])[0]
    return signs[:n], np.flatnonzero((signs[n:] != signs[:n]) | (signs[:n] == 0))


def _oriented_areas(normals, tris):
    """(signs, signed areas) of a stack of 3D triangles (N, 3, 3), each seen
    along its unit normal normals[k]: half of normal . ((p1 - p0) x
    (p2 - p0)), the determinant with rows normal, p1 - p0 and p2 - p0,
    whose sign ``_det3_signs`` decides exactly."""
    signs, dets = _det3_signs(
        np.stack([normals, tris[:, 1], tris[:, 2]], axis=1),
        np.stack([np.zeros_like(normals), tris[:, 0], tris[:, 0]], axis=1))
    return signs, dets / 2


def _seam_faults(ids, sizes, targets):
    """(faults, others, split) of the cell polygons whose vertices, cell
    after cell (``sizes`` per cell), are the points ``ids`` (numbered by
    their exact coordinates) with images ``targets``: per vertex, the other
    cells that hold its undirected edge to the next vertex (``others``) and
    whether its point has several images (``split``); ``faults`` counts the
    edges of other than one other cell and the points of several images.
    Without faults, two affine cells agree on their shared edge, so the
    boundary map is continuous, exactly."""
    n = int(ids.max()) + 1
    start = _starts(sizes)
    after = np.arange(1, len(ids) + 1)
    after[start + sizes - 1] = start
    edges = list(zip(np.minimum(ids, ids[after]).tolist(), np.maximum(ids, ids[after]).tolist()))
    uses = Counter(edges)
    image = np.empty((n, 3))
    image[ids] = targets
    split = np.bincount(ids, (targets != image[ids]).any(axis=1), n) > 0
    faults = sum(c != 2 for c in uses.values()) + np.count_nonzero(split)
    return int(faults), np.array([uses[e] for e in edges]) - 1, split[ids]


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
    a facet without pieces, a piece without cells, and a cell whose two
    polygons differ in length or have fewer than 3 vertices; then the
    stacks refuse a non-finite coordinate, and a domain vertex whose
    coordinate on its facet's axis is not exactly the facet's level (every
    vertex of a key other than 0 to 5).  Before any solve, the cone
    signs of all fan triangles (``_cone_signs``) certify the centres b;
    the first that fails raises GeometryError naming its cell.  One sum
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
    stacked arrays; a stacked solve, product or inverse equals the
    per-matrix call bitwise, so every map is the one that its own
    construction builds.  Raises the first error met, naming its cell
    ("facet f piece k cell j") or its piece."""
    doms, imgs, facets, labels, piece_names, piece_cells, n_pieces = [], [], [], [], [], [], []
    sides = []        # per cell: its facet's axis and level (NaN off the six)
    for rmap, (domain, centre, pieces_by_facet) in zip(maps, specs):
        if not isinstance(domain, Box):
            raise GeometryError("a radial map needs a box domain")
        rmap.domain = domain
        rmap.pieces_by_facet = {f: list(pieces) for f, pieces in pieces_by_facet.items()}
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
                for j, (dom, img) in enumerate(piece):
                    labels.append(f"{name} cell {j}")
                    if not 3 <= len(dom) == len(img):
                        raise GeometryError(f"{labels[-1]}: a polygon of {len(dom)} vertices "
                                            f"onto one of {len(img)}; a cell needs 3 or more"
                                            " vertices and one image each")
                    doms.append(dom)
                    imgs.extend(img)
                facets.extend([(facet, served)] * len(piece))
                sides.extend([side] * len(piece))
                piece_names.append(name)
                piece_cells.append(len(piece))
                served += 1
        rmap.labels = labels[first:]
        n_pieces.append(served)
    sizes = np.array([len(dom) for dom in doms])
    starts = _starts(sizes)
    counts = np.array([len(rmap.labels) for rmap in maps])
    centres = [np.array(c).repeat(counts, axis=0)
               for c in ([rmap._a for rmap in maps], [rmap._b for rmap in maps])]
    points = np.array([p for dom in doms for p in dom], dtype=float)
    targets = np.array(imgs, dtype=float)
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
    fan_cell = np.repeat(np.arange(len(doms)), sizes - 2)
    i = np.arange(len(fan_cell)) - fan_starts[fan_cell]
    fans = starts[fan_cell][:, None] + np.stack([0 * i, i + 1, i + 2], axis=1)
    signs, bad = _cone_signs(points, targets, fans, *(c[fan_cell] for c in centres))
    if bad.size:
        cell, t = fan_cell[bad[0]], i[bad[0]]
        raise GeometryError(f"{labels[cell]}: the image cone of fan triangle {t} about the "
                            f"codomain centre {centres[1][cell].tolist()} is not oriented as "
                            "its domain cone")
    # each piece's vector area, over its image fan triangles from its first
    # fan row on, each as its domain cone turns, then signed away from b;
    # the offset at its first image point
    piece_cell = _starts(piece_cells)
    w = targets[fans]
    turned = _cross(w[:, 1] - w[:, 0], w[:, 2] - w[:, 0]) * signs[:, None].astype(float)
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
    planes = (normals, _dots(normals, w0), twice / 2)
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
        rest = iter(rows[c0:c0 + n])
        for facet, (iu, iv) in enumerate(_FACE_AXES):
            pieces = rmap.pieces_by_facet[facet]
            entries = [entry((facet // 2, id(piece)), f"cells of facet {facet} piece {k}",
                             [[dom] for dom, _ in piece], [next(rest) for _ in piece], iu, iv)
                       for k, piece in enumerate(pieces)]
            table.append((iu, iv, False) + entries[0] if len(entries) == 1
                         else (iu, iv, True) + entry(
                             (facet // 2, *map(id, pieces)), f"pieces of facet {facet}",
                             [[dom for dom, _ in piece] for piece in pieces], entries, iu, iv))
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
    c0, p0, t0, k0 = 0, 0, 0, 0
    for rmap, n, k in zip(maps, counts.tolist(), n_pieces):
        c1, k1 = c0 + n, k0 + k
        p1, t1 = int(starts[c1 - 1] + sizes[c1 - 1]), at[c1]
        rmap.sizes, rmap.cell_facets = sizes[c0:c1], np.array(facets[c0:c1])
        rmap.points, rmap.targets, rmap.images = points[p0:p1], targets[p0:p1], images[p0:p1]
        rmap.facet_planes = tuple(x[k0:k1] for x in planes)
        rmap.diameter = float(np.linalg.norm(rmap.targets.max(axis=0)
                                             - rmap.targets.min(axis=0)))
        rmap.tol = TAU_GEOM * rmap.diameter
        rmap.linear = linear[c0:c1]
        rmap.fan_cell, rmap.fans = fan_cell[t0:t1] - c0, fans[t0:t1] - p0
        number = {}       # each distinct point of the map, numbered
        rmap.point_ids = np.array([number.setdefault(q, len(number))
                                   for dom in doms[c0:c1] for q in dom])
        rmap._frames = list(zip(frames[t0:t1], rmap.fan_cell.tolist()))
        rmap._inverses = inverses[c0:c1]
        c0, p0, t0, k0 = c1, p1, t1, k1


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
    misses least; t = 1 / sum(l).  The image cones cover space (the chart's
    cone signs and its closed seams make the image surface wind about b a
    positive number of times), and they tile it where it winds once, which
    no exact check shows yet (see ``validate_boundary_map``); then the ray
    crosses the boundary once, in cell k, and t >= 1 unless q is exterior.
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
        low = min(l0, l1, l2) / s
        if low >= -1e-9:
            best, s_best = k, s
            break
        if low > depth:
            best, depth, s_best = k, low, s
    if best < 0 or dist - dist / s_best > 4 * rmap.tol:
        raise GeometryError("psi called on an exterior point")
    return 1.0 / s_best, best
