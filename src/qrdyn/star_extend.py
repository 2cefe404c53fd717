"""Radial extension of boundary maps from boxes onto star polyhedra.

A boundary homeomorphism from an axis-aligned box onto a star-shaped
polyhedron extends to the closed regions by transporting radial fractions:
a point at fraction s of the way from the box's midpoint to its boundary
maps to the point at fraction s from the polyhedron's centre to the image
boundary point.  The box (``Box``) is convex about its midpoint, so only
the polyhedron (``geometry.StarShape``) needs psi.  Its centre is certified
by one exact sign per fan triangle of every cell: the image cone about it
has the orientation of the domain cone (``_cone_sign_failures``).

The boundary map itself is a list of pieces on each domain facet, and each
piece of it is given by its affine cells (``pieces``): the fan of a planar
face about the centre it is given onto the fan of its image face about the
image's (the radial extension of the face's edge correspondence), the
triangles on which a closed-form map is affine, or the identity.  The
centres are the caller's, and the same cone signs certify the face centres
too: a fan that is not star about its centres has a fan triangle whose
image cone is not oriented as its domain cone, or a seam that
``validate_boundary_map`` refuses.  The pieces of a facet share a
vertex, as the cells of a piece do, so one sector layout about the shared
vertices finds the piece of a facet and the cell of a piece alike.

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

from .cones import _starts
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
    [pieces]}) and the piece serving each codomain facet, as its exact
    affine cells; any other domain raises GeometryError.

    Each cell is the cone from the domain centre a over one polygon on which
    the boundary piece is affine (``FacetPiece.cells``: a triangle, or a
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
    from b (``psi``), the image cell of the piece serving that facet whose
    cone contains q - b (barycentric frames of the polygon's fan triangles),
    and returns a + A^-1 (q - b).  Inside the centre ball of radius
    ``codomain.tol``, where the ray from b has no reliable facet, the cell
    is the one among all image cells whose cone contains q - b (the cones
    tile space); b itself maps to a.  Exterior points raise GeometryError.

    Construction (``_build_maps``, over one or several maps) stacks the
    cells once, in cell order (facet by facet, piece by piece): ``points``
    and ``targets`` hold every cell polygon's vertices and their images
    under the boundary piece, cell after cell (``sizes`` per cell;
    ``point_facet`` the box facet of each vertex and ``point_ids`` its
    point, the distinct points numbered 0, 1, ...), ``owner`` the index
    into ``pieces`` (the distinct pieces, in cell order) of each cell's
    piece, and ``fans`` the rows of the fan triangles (0, i, i + 1) of every
    polygon, with ``fan_cell`` the cell of each.  The linear parts
    (``linear``), the sector entries, the fan frames of the image cells,
    ``vertex_images`` and the boundary-map validation all read these arrays.
    """

    def __init__(self, domain: Box, codomain: StarShape,
                 pieces_by_facet, piece_by_codomain_facet):
        _build_maps([self], [(domain, codomain, pieces_by_facet, piece_by_codomain_facet)])

    def __len__(self):
        return len(self.labels)

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

    def vertex_images(self):
        """(points, images): the polygon vertices of every cell, each with
        its image under that cell's own affine map, from the linear parts as
        they are at the call."""
        return self.points, np.asarray(self._b) + _mapped_points(
            self.points - self._a, self.sizes, self.linear)

    def validate_boundary_map(self) -> ValidationReport:
        """Exact check of the boundary map on the pieces' affine cells, as
        construction stacked them (``point_ids``, ``sizes``, ``targets``,
        ``fans``).

        The seams are exact (``_seam_faults``): the cells meet edge to edge
        and give each point one image, so the boundary map is continuous;
        ``seam_violations`` counts the edges and points that fail, and
        ``detail`` names the cell of the first.  The images lie in the plane
        of a codomain facet the piece serves (``worst_boundary_dev``); the
        image of each cell, ordered positively in its domain facet, is
        positive in that codomain facet; and the cells' areas sum to each
        domain facet's area, their images' to each codomain facet's, within
        a relative ``TAU_SEAM``, so each face fan is positively oriented and
        tiles its face.  The signs are exact: ``_oriented_areas`` takes them
        for all triangles of the chart from ``geometry._det3_signs``, whose
        float filter decides every sign outside Shewchuk's error bound and
        leaves the rest, zero areas among them, to exact integer arithmetic.
        The facet planes, normals and areas are those both shapes computed
        at construction (``facet_planes``).  Such a boundary map has degree
        one on each facet, so it is injective there; with a positive
        determinant on every cell of the radial extension the chart is a
        homeomorphism onto its codomain.  ``injectivity_violations`` counts
        the image triangles that are not positive or that lie in a facet
        whose tiling fails.
        """
        scale = self.codomain.diameter
        tol_boundary = max(self.codomain.tol * 1e3, 1e-12 * scale)
        dom_n, dom_d, dom_area = self.domain.facet_planes
        cod_n, cod_d, cod_area = self.codomain.facet_planes
        serving = {id(piece) for piece in self.piece_by_codomain_facet.values()}
        for piece in self.pieces:
            if id(piece) not in serving:
                raise GeometryError(f"piece {piece.kind} serves no codomain facet")
        slot = {id(piece): k for k, piece in enumerate(self.pieces)}
        served = np.zeros((len(self.pieces), len(cod_d)), dtype=bool)
        served[[slot[id(piece)] for piece in self.piece_by_codomain_facet.values()],
               list(self.piece_by_codomain_facet)] = True
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
        # the domain facet that holds each cell, and of the codomain facets
        # its piece serves the one nearest to its images (the lowest on ties)
        cell_fd = np.argmin(np.maximum.reduceat(np.abs(dom @ dom_n.T - dom_d), start), axis=1)
        off_plane = np.abs(np.matmul(img[:, None, None, :], cod_n[None, :, :, None])[..., 0, 0]
                           - cod_d)
        devs = np.maximum.reduceat(off_plane, start)
        cell_fc = np.argmin(np.where(served[self.owner], devs, np.inf), axis=1)
        worst_b = float(devs[np.arange(len(start)), cell_fc].max())
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
    ``map_index``.  The stacked pass walks every map before its cone signs,
    sector tables (a LinAlgError among their errors) and linear parts, so a
    later map may fail first there: when it fails, the maps are rebuilt one
    at a time."""
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

def _sector_layout(name, groups, iu, iv):
    """The sector layout of a level ``name`` of several entries (the cells
    of a piece, or the pieces of a facet), each a list of domain polygons,
    by the angle in the face coordinates (iu, iv) about the centroid c of
    the vertices all entries share: a face fan's centre, the midpoint of
    a split square's diagonal, or the corner where a facet's pieces meet.
    Returns (cu, cv, bounds, mids, probes): the sorted angles of the other
    vertices about c, the midpoint angle of each sector between them (the
    last one wraps through pi), and a probe (u, v, 1) just off c at each.
    Raises GeometryError if the entries share no vertex."""
    sets = [{p for dom in group for p in dom} for group in groups]
    shared = set.intersection(*sets)
    if not shared:
        raise GeometryError(f"the {name} share no vertex")
    cu = sum(p[iu] for p in shared) / len(shared)
    cv = sum(p[iv] for p in shared) / len(shared)
    rim = {p for p in set().union(*sets) if (p[iu], p[iv]) != (cu, cv)}
    bounds = sorted({math.atan2(p[iv] - cv, p[iu] - cu) for p in rim})
    reach = 1e-6 * min(math.hypot(p[iu] - cu, p[iv] - cv) for p in rim)
    mids = [0.5 * (lo + hi) for lo, hi in zip(bounds, bounds[1:])]
    mids.append(0.5 * (bounds[-1] + bounds[0]) + math.pi)
    probes = [(cu + reach * math.cos(th), cv + reach * math.sin(th), 1.0) for th in mids]
    return cu, cv, bounds, mids, probes


def _sector_entries(levels, mats):
    """The sector entry (cu, cv, bounds, picks) of each level of ``levels``
    ((name, iu, iv, groups, tris, firsts) per level: its entries' domain
    polygons as ``_sector_layout`` takes them, the slice of ``mats`` that
    holds the matrices with columns (p_u, p_v, 1) of their fan triangles,
    and the first triangle of each entry in that slice): a point h of the
    level's patch lies in the entry with the index
    picks[bisect_right(bounds, atan2(h_v - cv, h_u - cu))], the first and
    the last sector being the one that wraps through the angle pi; a level
    of one entry has no bounds.  A sector takes the entry with the triangle
    that holds its probe deepest (the first on ties), and GeometryError
    names the first level with a sector that no triangle holds.

    The levels of one shape (as many probes and triangles, the same first
    triangles of their entries) share one broadcast solve, each level's
    probes against its own triangles, each triangle stored once."""
    layouts = [_sector_layout(name, groups, iu, iv) if len(groups) > 1 else None
               for name, iu, iv, groups, *_ in levels]
    alike = {}          # (probes, triangles, firsts) -> the levels of that shape
    for k, ((*_, tris, firsts), lay) in enumerate(zip(levels, layouts)):
        if lay is not None:
            alike.setdefault((len(lay[4]), tris.stop - tris.start, tuple(firsts)), []).append(k)
    picked = {}         # level -> (the pick of each sector, its depth)
    for (_, _, firsts), ks in alike.items():
        a = np.stack([mats[levels[k][4]] for k in ks])[:, None]
        b = np.array([layouts[k][4] for k in ks])[:, :, None, :, None]
        depth = np.maximum.reduceat(np.linalg.solve(a, b).min(axis=(3, 4)), firsts, axis=2)
        picked.update(zip(ks, zip(depth.argmax(axis=2).tolist(), depth.max(axis=2).tolist())))
    entries = []
    for k, ((name, *_), lay) in enumerate(zip(levels, layouts)):
        if lay is None:
            entries.append((0.0, 0.0, [], [0]))
            continue
        cu, cv, bounds, mids, _ = lay
        picks, best = picked[k]
        for th, depth in zip(mids, best):
            if depth <= 0.0:
                raise GeometryError(f"none of the {name} covers the sector at angle {th}")
        entries.append((cu, cv, bounds, [picks[-1]] + picks[:-1] + [picks[-1]]))
    return entries


def _pick(entry, values):
    """A sector entry with its picks replaced by the values they index."""
    cu, cv, bounds, picks = entry
    return cu, cv, bounds, [values[k] for k in picks]


# the face coordinates (iu, iv) of the box facets x_k = lo[k], x_k = hi[k]
_FACE_AXES = np.array([(1, 2), (0, 2), (0, 1)]).repeat(2, axis=0)


def _build_maps(maps, specs):
    """Fill in the blank ``maps`` from their ``specs`` (domain, codomain,
    pieces by domain facet, piece by codomain facet), each numpy step once
    over the cells of all of them.

    Each map's cells are walked in cell order onto the stacks: each cell's
    domain polygon, its image points, the index of its piece in ``pieces``
    and its facet; and its sector levels, per facet its pieces and then per
    piece its cells, with the stacked index of the first cell of each entry
    and a key naming the pieces and the face axes (a level held by another
    map of the pass, or a piece's cells solved in an earlier pass and kept
    in ``FacetPiece.sectors``, is solved once).  Before any solve, the cone
    signs of all fan triangles (``_cone_sign_failures``) certify the
    codomain centres; the first that fails raises GeometryError naming its
    cell.  Then one solve gives the linear parts on every cell's first three
    vertex correspondences, the sector
    probes take one broadcast solve per shape of sector level
    (``_sector_entries``), one determinant and one inverse go over the
    linear parts, and one inverse gives the fan frames.  Each map keeps its
    slice of the stacked arrays; a stacked solve or inverse equals the
    per-matrix call bitwise, so every map is the one that its own
    construction builds.  Raises the first error met; a facet without
    pieces, and a piece that serves a codomain facet but holds no domain
    facet (no cells to invert there), are met before any stacking."""
    doms, imgs, owner, facets, levels, walks, cells_of = [], [], [], [], [], [], []
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
        rmap.pieces = []          # the distinct pieces, in cell order
        cells = {}                # id(piece) -> its cells' indices
        slot = {}                 # id(piece) -> its index in pieces
        base = len(doms)
        walk = []                 # per facet (iu, iv, the stacked first cell of each piece)
        for facet in range(6):
            pieces = rmap.pieces_by_facet.get(facet)
            if not pieces:
                raise GeometryError(f"no boundary piece for facet {facet}")
            iu, iv = _FACE_AXES[facet].tolist()
            firsts = []
            levels.append((f"pieces of facet {facet}", iu, iv,
                           [[dom for dom, _ in piece.cells] for piece in pieces], firsts,
                           (tuple(map(id, pieces)), iu, iv), None))
            for k, piece in enumerate(pieces):
                first = base + len(rmap.labels)
                firsts.append(first)
                levels.append((f"cells of facet {facet} piece {k}", iu, iv,
                               [[dom] for dom, _ in piece.cells],
                               list(range(first, first + len(piece.cells))), (id(piece), iu, iv),
                               piece))
                if id(piece) not in slot:
                    slot[id(piece)] = len(rmap.pieces)
                    rmap.pieces.append(piece)
                n = len(piece.cells)
                cells.setdefault(id(piece), []).extend(
                    range(len(rmap.labels), len(rmap.labels) + n))
                rmap.labels.extend(f"facet {facet} piece {k} cell {j}" for j in range(n))
                owner.extend([slot[id(piece)]] * n)
                facets.extend([facet] * n)
                doms.extend(dom for dom, _ in piece.cells)
                imgs.extend(q for _, img in piece.cells for q in img)
            walk.append((iu, iv, firsts))
        for f, piece in rmap.piece_by_codomain_facet.items():
            if id(piece) not in cells:
                raise GeometryError(f"the {piece.kind} piece serving codomain facet {f} "
                                    "holds no domain facet")
        walks.append(walk)
        cells_of.append(cells)
    sizes = np.array([len(dom) for dom in doms])
    starts = _starts(sizes)
    counts = np.array([len(rmap.labels) for rmap in maps])
    centres = [np.array(c).repeat(counts, axis=0)
               for c in ([rmap._a for rmap in maps], [rmap._b for rmap in maps])]
    points = np.array([p for dom in doms for p in dom], dtype=float)
    targets = np.array(imgs, dtype=float)
    point_facet = np.repeat(facets, sizes)
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
    # each fan triangle as the matrix with columns (p_u, p_v, 1) in its
    # facet's coordinates, and each level's slice of them
    uv = points[np.arange(len(points))[:, None], _FACE_AXES[point_facet]]
    mats = np.ones((len(fan_cell), 3, 3))
    mats[:, :2] = np.swapaxes(uv[fans], 1, 2)
    at = np.append(_starts(sizes - 2), len(fan_cell)).tolist()
    # a level of the same pieces on the same axes, in another map, is taken
    # once, and that of a piece's cells which an earlier pass solved is kept
    seen = {}
    unique = [k for k, (*_, key, _) in enumerate(levels) if seen.setdefault(key, k) == k]
    found = {k: levels[k][6].sectors[levels[k][1:3]] for k in unique
             if levels[k][6] is not None and levels[k][1:3] in levels[k][6].sectors}
    todo = [k for k in unique if k not in found]
    found.update(zip(todo, _sector_entries([
        (name, iu, iv, groups, slice(at[first[0]], at[first[-1] + len(groups[-1])]),
         [at[c] - at[first[0]] for c in first]) if len(groups) > 1
        else (name, iu, iv, groups, None, None)
        for name, iu, iv, groups, first, *_ in map(levels.__getitem__, todo)], mats)))
    for k in todo:
        if (piece := levels[k][6]) is not None:
            piece.sectors = {**piece.sectors, levels[k][1:3]: found[k]}
    entries = iter([found[seen[key]] for *_, key, _ in levels])
    dets = np.linalg.det(linear)
    c0 = 0
    for rmap, walk, n in zip(maps, walks, counts.tolist()):
        # per facet (iu, iv, False) + its one piece's (cu, cv, bounds, rows),
        # or (iu, iv, True, cu, cv, bounds, pieces) of such piece entries
        table = []
        for iu, iv, firsts in walk:
            by_sector = next(entries)
            pieces = [_pick(next(entries), rows[first:]) for first in firsts]
            table.append((iu, iv, False) + pieces[0] if len(pieces) == 1
                         else (iu, iv, True) + _pick(by_sector, pieces))
        tol = rmap.domain.tol
        rmap._consts = (rmap._a + rmap._b + tuple(map(float, rmap.domain.lo))
                        + tuple(map(float, rmap.domain.hi)) + (tol * tol, table))
        singular = np.flatnonzero(~(dets[c0:c0 + n] != 0.0))
        if singular.size:
            raise GeometryError(f"{rmap.labels[singular[0]]}: singular linear part")
        c0 += n
    inverse = list(map(tuple, np.linalg.inv(linear).reshape(-1, 9).tolist()))
    mapped = _mapped_points(points - np.repeat(centres[0], sizes, axis=0), sizes, linear)
    frames = list(map(tuple, np.linalg.inv(np.swapaxes(mapped[fans], 1, 2))
                      .reshape(-1, 9).tolist()))
    image_cells = list(zip([frames[s:e] for s, e in zip(at, at[1:])], inverse))
    c0, p0, t0 = 0, 0, 0
    for rmap, cells, n in zip(maps, cells_of, counts.tolist()):
        c1 = c0 + n
        p1, t1 = int(starts[c1 - 1] + sizes[c1 - 1]), at[c1]
        rmap.sizes, rmap.owner = sizes[c0:c1], np.array(owner[c0:c1])
        rmap.points, rmap.targets = points[p0:p1], targets[p0:p1]
        rmap.point_facet, rmap.linear = point_facet[p0:p1], linear[c0:c1]
        rmap.fan_cell, rmap.fans = fan_cell[t0:t1] - c0, fans[t0:t1] - p0
        number = {}       # each distinct point of the map, numbered
        rmap.point_ids = np.array([number.setdefault(q, len(number))
                                   for dom in doms[c0:c1] for q in dom])
        rmap._all_image_cells = image_cells[c0:c1]
        rmap._image_cells = {f: [rmap._all_image_cells[i] for i in cells[id(piece)]]
                             for f, piece in rmap.piece_by_codomain_facet.items()}
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
