"""Radial extension of boundary maps between star shapes.

A boundary homeomorphism between two star shapes extends to the closed
regions by transporting radial fractions: a point at fraction s of the way
from the domain centre to the boundary maps to the point at fraction s from
the codomain centre to the image boundary point.

The boundary map itself is a list of pieces on each domain facet, and each
piece of it is given by its affine cells (``pieces``): the fan of a planar
face about a face centre onto the fan of its image face (the radial
extension of the face's edge correspondence), the triangles on which a
closed-form map is affine, or the identity.  The pieces of a facet share a
vertex, as the cells of a piece do, so one sector layout about the shared
vertices finds the piece of a facet and the cell of a piece alike.

So the radial extension of a box is affine on the cone from the domain
centre over each cell, and a ``RadialMap`` is those cells, stacked from its
pieces at construction (``radial_maps`` builds several maps in one stacked
pass).  It both evaluates and inverts the map: forward by one facet test, a
sector test for the piece and one for the cell (each skipped where there is
one entry) and one affine product, backward by the codomain facet from
``psi``, a cone test among that facet's image cells and one inverse affine
product.  The same cells make the boundary map's certificate finite:
``RadialMap.validate_boundary_map`` checks it exactly on the cell vertices.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .cones import _cross, _ray_box_scalar, _starts
from .geometry import GeometryError, StarShape, psi, _det3_signs

# Seam agreement tolerance for unit-scale charts; scaled by chart diameter;
# also the relative tolerance of the facet area sums.
TAU_SEAM = 1e-9


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
    piece serving each codomain facet, as its exact affine cells.

    Each cell is the cone from the domain centre a over one polygon on which
    the boundary piece is affine (``FacetPiece.cells``: a triangle, or a
    whole face); on it the map is p -> b + A (p - a), fixed by a -> b and
    the images of three of the polygon's vertices.  ``eval3`` takes the
    exit facet of the ray from a, the piece by a sector test about the
    vertices the facet's pieces share, the cell by one about the vertices
    the piece's cells share (a level of one entry skips its test), and one
    affine product; the centre ball of radius ``domain.tol`` maps to b.
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

    def __init__(self, domain: StarShape, codomain: StarShape,
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
        construction stacked them (``points``, ``targets``, ``fans``).

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
        worst_seam = _cover_deviation(dom, img, self.domain.tol * 1e3, fd, dom_n, dom_d,
                                      self.point_ids[self.fans])

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

        passed = (worst_b <= tol_boundary and worst_seam <= tol_seam
                  and viol == 0)
        return ValidationReport(passed=passed, worst_boundary_dev=worst_b,
                                worst_seam_dev=worst_seam,
                                injectivity_violations=int(viol),
                                detail=f"tol_boundary={tol_boundary:.3e} "
                                       f"tol_seam={tol_seam:.3e}")


def radial_maps(specs):
    """The maps ``RadialMap(*spec)`` of ``specs``, built in one stacked pass
    (``_build_maps``).  A batch raises what building its maps one by one,
    in order, raises: when the stacked pass fails, the maps are built one at
    a time and the first error is raised."""
    maps = [RadialMap.__new__(RadialMap) for _ in specs]
    try:
        _build_maps(maps, specs)
    except (GeometryError, np.linalg.LinAlgError):
        for spec in specs:
            RadialMap(*spec)
        raise
    return maps


def _oriented_areas(normals, tris):
    """(signs, signed areas) of a stack of 3D triangles (N, 3, 3), each seen
    along its unit normal normals[k]: half of normal . ((p1 - p0) x
    (p2 - p0)), the determinant with rows normal, p1 - p0 and p2 - p0,
    whose sign ``_det3_signs`` decides exactly."""
    signs, dets = _det3_signs(
        np.stack([normals, tris[:, 1], tris[:, 2]], axis=1),
        np.stack([np.zeros_like(normals), tris[:, 0], tris[:, 0]], axis=1))
    return signs, dets / 2


def _cover_deviation(dom, img, tol, facet, normals, offsets, ids):
    """Largest distance, over the triangles dom[k] with images img[k]
    (stacks (T, 3, 3)), with ids[k] (T, 3) numbering their vertices' points
    0, 1, ..., and every triangle vertex within tol of dom[k],
    between the triangle's affine interpolation at the vertex and the
    vertex's image in its own triangle.

    A vertex within tol of dom[k] lies within tol of the plane of the
    domain facet facet[k] (unit normals and offsets ``normals``,
    ``offsets``), which holds dom[k]; so each triangle is solved only
    against the vertices within 2 tol of its facet's plane, those on a box
    edge against the triangles of both facets.  All triangles go in one
    batched solve, each with its facet's vertices as right-hand sides
    (padded to the longest such list with point 0, masked out); a
    stacked solve with several right-hand sides gives each the coordinates
    that the solve against all vertices gives it
    (``tests/oracles.cover_deviation_all_pairs``).  Each point is solved
    once, however many triangles have it as a vertex: the triangle's
    interpolation at it is then compared with the point's image in each of
    those triangles."""
    pts, images, ids = dom.reshape(-1, 3), img.reshape(-1, 3), ids.ravel()
    # each point's vertices, in turn, by Python's stable sort: numpy's sort
    # code (a 128 kB first touch) runs nowhere else in a build
    key = ids.tolist()
    order = np.array(sorted(range(len(key)), key=key.__getitem__))
    counts = np.bincount(ids)
    first = _starts(counts)
    points = pts[order[first]]
    near = np.abs(points @ normals.T - offsets) <= 2 * tol       # (points, facets)
    count = near.sum(axis=0)
    # each facet's near points in ascending order, padded with point 0
    by_facet, near_point = np.nonzero(near.T)
    table = np.zeros((len(count), count.max()), dtype=near_point.dtype)
    table[by_facet, np.arange(len(near_point)) - _starts(count)[by_facet]] = near_point
    cand = table[facet]
    valid = (np.arange(count.max()) < count[:, None])[facet]     # (T, width)
    e = dom[:, 1:] - dom[:, :1]                    # (T, 2, 3): both edges from p0
    n = _cross(e[:, 0], e[:, 1])
    d = points[cand] - dom[:, :1]                  # (T, width, 3)
    uv = np.linalg.solve(e @ np.swapaxes(e, 1, 2), e @ np.swapaxes(d, 1, 2))
    u, v = uv[:, 0], uv[:, 1]
    tri, col = np.nonzero(valid & (np.abs(d @ n[:, :, None])[..., 0]
                                   <= tol * np.linalg.norm(n, axis=1)[:, None])
                          & (u >= -1e-9) & (v >= -1e-9) & (u + v <= 1 + 1e-9))
    f = img[tri, 1:] - img[tri, :1]
    want = (img[tri, 0] + u[tri, col][:, None] * f[:, 0]
            + v[tri, col][:, None] * f[:, 1])
    # every vertex at each (triangle, point) pair
    point = cand[tri, col]
    times = counts[point]
    pair = np.repeat(np.arange(len(point)), times)
    vertex = order[first[point][pair] + np.arange(len(pair)) - _starts(times)[pair]]
    want, images = want[pair], images[vertex]
    return float(np.linalg.norm(want - images, axis=1).max(initial=0.0))


# ---------------------------------------------------------------------------
# the exact piecewise-affine form of a radial map on a box

def _sector_layout(name, groups, iu, iv):
    """The sector layout of a level ``name`` of several entries (the cells
    of a piece, or the pieces of a facet), each a list of domain polygons,
    by the angle in the face coordinates (iu, iv) about the centroid c of
    the vertices all entries share: a Radial2D face centre, the midpoint of
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
    and a key naming the pieces and the face axes (a level that another map
    of the pass holds too is solved once).  Then one solve gives the linear
    parts on every cell's first three vertex correspondences, the sector
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
        if domain.box is None:
            raise GeometryError("a radial map needs a box domain")
        rmap.domain, rmap.codomain = domain, codomain
        rmap.pieces_by_facet = {f: list(pieces) for f, pieces in pieces_by_facet.items()}
        rmap.piece_by_codomain_facet = dict(by_codomain)
        rmap._a = tuple(map(float, domain.centre))
        rmap._b = tuple(map(float, codomain.centre))
        rmap._lo, rmap._hi = (tuple(map(float, v)) for v in domain.box)
        rmap._box = tuple([float(c) + s * domain.tol for c in v]
                          for v, s in zip(domain.box, (-1, 1)))
        rmap._ctol2 = domain.tol * domain.tol
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
                           (tuple(map(id, pieces)), iu, iv)))
            for k, piece in enumerate(pieces):
                first = base + len(rmap.labels)
                firsts.append(first)
                levels.append((f"cells of facet {facet} piece {k}", iu, iv,
                               [[dom] for dom, _ in piece.cells],
                               list(range(first, first + len(piece.cells))), (id(piece), iu, iv)))
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
    # a level of the same pieces on the same axes, in another map, is
    # taken once
    seen = {}
    unique = [k for k, (*_, key) in enumerate(levels) if seen.setdefault(key, k) == k]
    found = dict(zip(unique, _sector_entries([
        (name, iu, iv, groups, slice(at[first[0]], at[first[-1] + len(groups[-1])]),
         [at[c] - at[first[0]] for c in first]) if len(groups) > 1
        else (name, iu, iv, groups, None, None)
        for name, iu, iv, groups, first, _ in map(levels.__getitem__, unique)], mats)))
    entries = iter([found[seen[key]] for *_, key in levels])
    dets = np.linalg.det(linear)
    c0 = 0
    for rmap, walk, n in zip(maps, walks, counts.tolist()):
        # per facet (iu, iv, cu, cv, bounds, pieces), per piece (cu, cv, bounds, rows)
        rmap._facets = []
        for iu, iv, firsts in walk:
            by_sector = next(entries)
            pieces = [_pick(next(entries), rows[first:]) for first in firsts]
            rmap._facets.append((iu, iv) + _pick(by_sector, pieces))
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
