"""Radial extension of boundary maps from boxes onto star polyhedra.

A boundary homeomorphism from an axis-aligned box onto a star-shaped
polyhedron extends to the closed regions by transporting radial fractions:
a point at fraction s of the way from the box's midpoint to its boundary
maps to the point at fraction s from the polyhedron's centre to the image
boundary point.  The box (``Box``) is convex about its midpoint, so only
the polyhedron (``geometry.StarShape``) needs psi.  Its centre is certified
by one exact sign per fan triangle of every cell: the image cone about it
has the orientation of the domain cone (``_cone_sign_failures``).

The boundary map itself is a list of pieces on each domain facet, each
piece the list of its affine cells (``pieces``), and each piece serves one
codomain facet: its cells' images tile that facet.  A cell is the fan
triangle of a planar face about the centre it is given onto the fan
triangle of its image face about the image's (the radial extension of the
face's edge correspondence, ``pieces.fan_cells``), or a whole face on
which the boundary map is affine, the identity or a triangle of F.  The
centres are the caller's, and the same cone signs certify the face centres
too: a fan that is not star about its centres has a fan triangle whose
image cone is not oriented as its domain cone, or a seam that
``validate_boundary_map`` refuses.  The pieces of a facet share a
vertex, as the cells of a piece do, so one sector table about the shared
vertices finds the piece of a facet and the cell of a piece alike.  The
table is combinatorial: each sector between the angles of two vertices
goes to the entry with a polygon that has both (``_sector_entry``).

So the radial extension of a box is affine on the cone from the domain
centre over each cell, and a ``RadialMap`` is those cells, stacked from its
pieces at construction (``radial_maps`` builds several maps in one stacked
pass).  It both evaluates and inverts the map: forward by one facet test, a
sector test for the piece and one for the cell (each skipped where there is
one entry) and one affine product, backward by the codomain facet from
``psi``, a cone test among that facet's image cells and one inverse affine
product.  The same cells make the boundary map's certificate finite and
exact: ``RadialMap.validate_boundary_map`` checks its seams on the cell
complex and its orientation by exact signs on the cell vertices.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from math import atan2, inf

import numpy as np

from .cones import _dots, _starts
from .geometry import TAU_GEOM, GeometryError, StarShape, psi, _as_array, _det3_signs

# Relative tolerance of the facet area sums of a boundary map's cells
TAU_SEAM = 1e-9


# ---------------------------------------------------------------------------
# the domain box

class Box:
    """The axis-aligned cuboid [lo, hi], the domain of a ``RadialMap``: it
    is convex about its midpoint ``centre``, so it needs no psi.  Its
    ``diameter``, ``tol`` and ``facet_planes`` (normals, offsets, areas) are
    those of a ``StarShape``, in closed form: facet 2k is the face
    x_k = lo[k] (normal -e_k, offset -lo[k]) and facet 2k + 1 the face
    x_k = hi[k] (normal e_k, offset hi[k]), each with the product of its
    two sides as area.  Raises GeometryError unless lo and hi are finite
    3-vectors with lo < hi on every axis."""

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
        self.facet_planes = (self._NORMALS, np.column_stack([-self.lo, self.hi]).ravel(), area)


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
    """Radial extension of a boundary map from a ``Box`` onto a
    ``StarShape``, given by the pieces on each box facet ({facet:
    [pieces]}, each piece a list of cells) and the piece serving each
    codomain facet, as its exact affine cells; any other domain raises
    GeometryError.

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

    The image cells are the cones from b over the image polygons, and they
    tile the codomain.  ``inverse`` takes the codomain facet hit by the ray
    from b (``psi``), the image cell among that facet's whose cone contains
    q - b (barycentric frames of the polygon's fan triangles), and returns
    a + A^-1 (q - b).  Inside the centre ball of radius ``codomain.tol``,
    where the ray from b has no reliable facet, the cell is the one among
    all image cells whose cone contains q - b (the cones tile space); b
    itself maps to a.  Exterior points raise GeometryError.

    Construction (``_build_maps``, over one or several maps) stacks the
    cells once, in cell order (facet by facet, piece by piece): ``points``
    and ``targets`` hold every cell polygon's vertices and their images
    under the boundary piece, cell after cell (``sizes`` per cell,
    ``point_ids`` the point of each vertex, numbered 0, 1, ...),
    ``cell_facets`` each cell's domain facet and the codomain facet its
    piece serves, and ``fans`` the rows of the fan triangles (0, i, i + 1)
    of every polygon, with ``fan_cell`` the cell of each.  The linear parts
    (``linear``), the fan frames of the image cells, the boundary-map
    validation and ``global_map.CellTable`` read them; the sector entries
    take the pieces' cells and the rows of ``linear``.
    """

    def __init__(self, domain: Box, codomain: StarShape,
                 pieces_by_facet, piece_by_codomain_facet):
        _build_maps([self], [(domain, codomain, pieces_by_facet, piece_by_codomain_facet)])

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
        r2 = dx * dx + dy * dy + dz * dz
        if r2 == 0.0:
            return (ax, ay, az)
        if r2 <= self._ctol2_image:
            cells = self._all_image_cells
        else:
            cells = self._image_cells[psi(self.codomain, (x, y, z)).facet]
        m = _cone_cell(cells, dx, dy, dz)
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
        ``detail`` names the cell of the first.  The images of each cell lie
        in the plane of the codomain facet its piece serves
        (``worst_boundary_dev``); the image of each cell, ordered positively
        in its domain facet, is positive in that codomain facet; and the
        cells' areas sum to each domain facet's area, their images' to each
        codomain facet's, within a relative ``TAU_SEAM``, so each face fan
        is positively oriented and tiles its face.  The signs are exact:
        ``_oriented_areas`` takes them for all triangles of the chart from
        ``geometry._det3_signs``, whose float filter decides every sign
        outside Shewchuk's error bound and leaves the rest, zero areas among
        them, to exact integer arithmetic.  The facet planes, normals and
        areas are those both shapes computed at construction
        (``facet_planes``).  Such a boundary map has degree one on each
        facet, so it is injective there; with a positive determinant on
        every cell of the radial extension the chart is a homeomorphism onto
        its codomain.  ``injectivity_violations`` counts the image triangles
        that are not positive or that lie in a facet whose tiling fails.
        """
        scale = self.codomain.diameter
        tol_boundary = max(self.codomain.tol * 1e3, 1e-12 * scale)
        dom_n, _, dom_area = self.domain.facet_planes
        cod_n, cod_d, cod_area = self.codomain.facet_planes
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
        empty = 0         # facets that no triangle covers
        for idx, area, signed in ((fd, dom_area, sd * ad), (fc, cod_area, sd * ai)):
            off = np.abs(np.bincount(idx, signed, len(area)) - area) > TAU_SEAM * area
            bad |= off[idx]
            empty += np.count_nonzero(off & (np.bincount(idx, minlength=len(area)) == 0))
        viol = int(bad.sum() + empty)

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


def _cone_sign_failures(points, targets, fans, a, b):
    """The rows of ``fans`` (fan triangles, as rows of ``points`` and of
    ``targets``) that fail the chart certificate, in order: those whose
    image cone, the triangle targets[fan] about b[k], has not the exact
    orientation of the domain cone, points[fan] about a[k], or whose domain
    cone is flat.  Every sign comes from one ``geometry._det3_signs`` call."""
    n = len(fans)
    signs = _det3_signs(np.concatenate([points[fans], targets[fans]]),
                        np.concatenate([a, b])[:, None, :])[0]
    return np.flatnonzero((signs[n:] != signs[:n]) | (signs[:n] == 0))


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

def _sector_entry(name, groups, values, iu, iv):
    """The sector entry (cu, cv, bounds, sectors) of a level ``name`` (the
    cells of a piece, or the pieces of a facet) whose entries, each a list
    of domain polygons in ``groups``, take ``values``: a point h of the
    level's patch lies in the entry valued
    sectors[bisect_right(bounds, atan2(h_v - cv, h_u - cu))].  (cu, cv) is
    the centroid, in the face coordinates (iu, iv), of the vertices that
    all entries share: a face fan's centre, the midpoint of a split
    square's diagonal, or the corner where a facet's pieces meet.  The
    bounds are the sorted angles of the other vertices about it, and the
    first and the last sector are the one that wraps through the angle pi;
    a level of one entry has no bounds.

    A sector goes to the entry with a polygon that has a vertex at each of
    its two bounding angles.  That is the entry that holds it: each entry's
    patch is convex and contains the centre, so such a polygon holds the
    triangle from the centre to those two vertices, which covers the
    sector's wedge near the centre.  Raises GeometryError if the entries
    share no vertex, or if none or several entries qualify for a sector."""
    if len(groups) == 1:
        return 0.0, 0.0, [], [values[0]]
    shared = set.intersection(*({p for dom in group for p in dom} for group in groups))
    if not shared:
        raise GeometryError(f"the {name} share no vertex")
    cu = sum(p[iu] for p in shared) / len(shared)
    cv = sum(p[iv] for p in shared) / len(shared)
    angles = [[{atan2(p[iv] - cv, p[iu] - cu) for p in dom if (p[iu], p[iv]) != (cu, cv)}
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


# the face coordinates (iu, iv) of the box facets x_k = lo[k], x_k = hi[k]
_FACE_AXES = [(1, 2), (1, 2), (0, 2), (0, 2), (0, 1), (0, 1)]


def _build_maps(maps, specs):
    """Fill in the blank ``maps`` from their ``specs`` (domain, codomain,
    pieces by domain facet, piece by codomain facet), each numpy step once
    over the cells of all of them.

    Each map's cells are walked in cell order onto the stacks: each cell's
    domain polygon, its image points, and its domain facet with the one
    codomain facet that its piece serves (``cell_facets``).  Before any
    solve, the cone signs of all fan triangles (``_cone_sign_failures``)
    certify the codomain centres; the first that fails raises GeometryError
    naming its cell.  Then one solve gives the linear parts on every cell's
    first three vertex correspondences.  Each facet's entry is then the
    sector entry (``_sector_entry``) of its pieces over those of their
    cells, the rows taken in cell order; one determinant and one inverse go
    over the linear parts, and one inverse gives the fan frames.  Each map
    keeps its slice of the stacked arrays; a stacked solve or inverse equals
    the per-matrix call bitwise, so every map is the one that its own
    construction builds.  Raises the first error met; a facet without
    pieces, a piece that serves no codomain facet or several, and a piece
    that serves a codomain facet but holds no domain facet (no cells to
    invert there) are met before any stacking."""
    doms, imgs, facets = [], [], []
    for rmap, (domain, codomain, pieces_by_facet, by_codomain) in zip(maps, specs):
        if not isinstance(domain, Box):
            raise GeometryError("a radial map needs a box domain")
        rmap.domain, rmap.codomain = domain, codomain
        rmap.pieces_by_facet = {f: list(pieces) for f, pieces in pieces_by_facet.items()}
        rmap.piece_by_codomain_facet = dict(by_codomain)
        rmap._a = tuple(map(float, domain.centre))
        rmap._b = tuple(map(float, codomain.centre))
        rmap._box = tuple([float(c) + s * domain.tol for c in v]
                          for v, s in zip((domain.lo, domain.hi), (-1, 1)))
        rmap._ctol2_image = codomain.tol ** 2
        rmap.labels = []
        served = set()
        for facet in range(6):
            pieces = rmap.pieces_by_facet.get(facet)
            if not pieces:
                raise GeometryError(f"no boundary piece for facet {facet}")
            for k, piece in enumerate(pieces):
                serves = [f for f, p in rmap.piece_by_codomain_facet.items() if p is piece]
                if len(serves) != 1:
                    raise GeometryError(f"facet {facet} piece {k} serves " + (
                        f"several codomain facets, {serves}" if serves else "no codomain facet"))
                served.update(serves)
                rmap.labels.extend(f"facet {facet} piece {k} cell {j}" for j in range(len(piece)))
                facets.extend([(facet, serves[0])] * len(piece))
                doms.extend(dom for dom, _ in piece)
                imgs.extend(q for _, img in piece for q in img)
        for f in rmap.piece_by_codomain_facet:
            if f not in served:
                raise GeometryError(f"the piece serving codomain facet {f} holds no domain facet")
    sizes = np.array([len(dom) for dom in doms])
    starts = _starts(sizes)
    counts = np.array([len(rmap.labels) for rmap in maps])
    centres = [np.array(c).repeat(counts, axis=0)
               for c in ([rmap._a for rmap in maps], [rmap._b for rmap in maps])]
    points = np.array([p for dom in doms for p in dom], dtype=float)
    targets = np.array(imgs, dtype=float)
    # the fan triangles (0, i, i + 1) of every polygon, cell after cell
    fan_cell = np.repeat(np.arange(len(doms)), sizes - 2)
    i = np.arange(len(fan_cell)) - _starts(sizes - 2)[fan_cell]
    fans = starts[fan_cell][:, None] + np.stack([0 * i, i + 1, i + 2], axis=1)
    bad = _cone_sign_failures(points, targets, fans, *(c[fan_cell] for c in centres))
    if bad.size:
        cell, t = fan_cell[bad[0]], i[bad[0]]
        raise GeometryError(f"{[n for rmap in maps for n in rmap.labels][cell]}: the image cone"
                            f" of fan triangle {t} about the codomain centre "
                            f"{centres[1][cell].tolist()} is not oriented as its domain cone")
    # rows: A d_i = w_i over the first three vertices of each cell
    first3 = starts[:, None] + np.arange(3)
    linear = np.ascontiguousarray(np.swapaxes(np.linalg.solve(
        points[first3] - centres[0][:, None], targets[first3] - centres[1][:, None]), 1, 2))
    rows = [tuple(m) for m in linear.reshape(-1, 9).tolist()]
    dets = np.linalg.det(linear)
    c0 = 0
    for rmap, n in zip(maps, counts.tolist()):
        # per facet (iu, iv, False) + its one piece's (cu, cv, bounds, rows),
        # or (iu, iv, True, cu, cv, bounds, pieces) of such piece entries
        table = []
        rest = iter(rows[c0:c0 + n])
        for facet, (iu, iv) in enumerate(_FACE_AXES):
            pieces = rmap.pieces_by_facet[facet]
            entries = [_sector_entry(f"cells of facet {facet} piece {k}",
                                     [[dom] for dom, _ in piece],
                                     [next(rest) for _ in piece], iu, iv)
                       for k, piece in enumerate(pieces)]
            table.append((iu, iv, False) + entries[0] if len(entries) == 1
                         else (iu, iv, True) + _sector_entry(
                             f"pieces of facet {facet}",
                             [[dom for dom, _ in piece] for piece in pieces],
                             entries, iu, iv))
        tol = rmap.domain.tol
        rmap._consts = (rmap._a + rmap._b + tuple(map(float, rmap.domain.lo))
                        + tuple(map(float, rmap.domain.hi)) + (tol * tol, table))
        singular = np.flatnonzero(~(dets[c0:c0 + n] != 0.0))
        if singular.size:
            raise GeometryError(f"{rmap.labels[singular[0]]}: singular linear part")
        c0 += n
    at = np.append(_starts(sizes - 2), len(fan_cell)).tolist()
    inverse = list(map(tuple, np.linalg.inv(linear).reshape(-1, 9).tolist()))
    mapped = _mapped_points(points - np.repeat(centres[0], sizes, axis=0), sizes, linear)
    frames = list(map(tuple, np.linalg.inv(np.swapaxes(mapped[fans], 1, 2))
                      .reshape(-1, 9).tolist()))
    image_cells = list(zip([frames[s:e] for s, e in zip(at, at[1:])], inverse))
    c0, p0, t0 = 0, 0, 0
    for rmap, n in zip(maps, counts.tolist()):
        c1 = c0 + n
        p1, t1 = int(starts[c1 - 1] + sizes[c1 - 1]), at[c1]
        rmap.sizes, rmap.cell_facets = sizes[c0:c1], np.array(facets[c0:c1])
        rmap.points, rmap.targets = points[p0:p1], targets[p0:p1]
        rmap.linear = linear[c0:c1]
        rmap.fan_cell, rmap.fans = fan_cell[t0:t1] - c0, fans[t0:t1] - p0
        number = {}       # each distinct point of the map, numbered
        rmap.point_ids = np.array([number.setdefault(q, len(number))
                                   for dom in doms[c0:c1] for q in dom])
        rmap._all_image_cells = image_cells[c0:c1]
        rmap._image_cells = {f: [cell for cell, (_, g) in zip(image_cells[c0:c1], facets[c0:c1])
                                 if g == f] for f in rmap.piece_by_codomain_facet}
        c0, p0, t0 = c1, p1, t1


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
