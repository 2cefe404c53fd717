"""Assembly of the global piecewise map g and its shifted variant f.

g is the identity below {x3 = 0}, equals the exponential-type expanding map
F above {x3 = L}, and interpolates in the slab through an atlas of five
radial-extension charts over the base block [0,2]^2 x [0,L] (a cuboid onto
a nine face polyhedron below level 1, and four cuboids onto star-shaped
solids between levels 1 and L).  Reflections in {x1 = 2}, {x2 = 2} and
period-4 translations extend the atlas to the whole slab.  f is g followed
by a downward translation large enough that the whole slab maps below zero.

The atlas is data: ``_CHARTS`` gives each chart's box, image-solid centre
(a dyadic point), boundary faces per box facet and image-solid facets, by
the names of the vertices of ``VertexTable``.  Every boundary piece is
affine on triangles, so each chart is exactly affine on the cones from its
domain centre over them: 37 cells for A' and 26 for each A'' chart, which
its ``RadialMap`` evaluates and inverts.  A build stacks the 141 cells once,
as the ``CellTable`` that g and f share and every certificate reads.

g is K-quasiregular, K = max(K_slab, K_F).  When ``audit_seams`` finds no
fault in the block's cell complex, charts that share a polygon map it by the
same affine data, the slab meets the identity at x3 = 0 and F at x3 = L (F
is affine on each level-L triangle, which lies in one crease region of its
pyramid), and the reflected and translated copies of the block glue along
the side planes: g is continuous.  ``certify_cell_orientation`` gives
det > 0 on each cell, where g is affine with dilatation at most K_slab, and
above L, F is smooth with distortion at most K_F.  So g lies in
W^{1,3}_loc with |Dg|^3 <= K det Dg almost everywhere: g, and so f, is
K-quasiregular (Rickman, *Quasiregular Mappings*, Springer 1993, ch. I).
The cells' float linear parts agree with the exact targets up to the
residual that ``audit_seams`` reports.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from . import zorich
from .cones import _cross, _starts
from .geometry import GeometryError, _det3_signs, star_shapes
from .pieces import face_centre, fan_cells
from .star_extend import Box, RadialMap, ValidationReport, _mapped_points, radial_maps


# --- fixed interpolation data: point names, coordinates and images ---------

# corners and edge midpoints of the period square [0,2]^2
_BASE_XY = {
    "P": (0.0, 0.0), "Q": (0.0, 2.0), "R": (2.0, 2.0), "S": (2.0, 0.0),
    "T": (0.0, 1.0), "U": (1.0, 2.0), "V": (2.0, 1.0), "W": (1.0, 0.0),
    "X": (1.0, 1.0),
}

# prescribed images of the level-0 and level-1 points
_IMAGES = {
    "P0": (0.0, 0.0, 0.0), "Q0": (0.0, 2.0, 0.0),
    "R0": (2.0, 2.0, 0.0), "S0": (2.0, 0.0, 0.0),
    "P1": (0.0, 0.0, 4.0), "Q1": (0.0, 2.0, 3.5),
    "R1": (2.0, 2.0, 0.5), "S1": (2.0, 0.0, -0.4),
    "T1": (0.0, 4.0, 4.0), "U1": (4.5, 2.0, 2.0),
    "V1": (2.0, 4.0, -0.4), "W1": (6.0, 0.0, 2.0),
    "X1": (6.0, 4.0, 2.0),
}

# the four image quadrilaterals of the level-1 squares are planar; each lies
# in the stated plane  coeff . x = rhs
_TOP_QUAD_PLANES = [
    (("P1", "W1", "X1", "T1"), (1.0, 0.0, 3.0), 12.0),
    (("T1", "X1", "U1", "Q1"), (4.0, -3.0, 12.0), 36.0),
    (("W1", "S1", "V1", "X1"), (3.0, 0.0, -5.0), 8.0),
    (("X1", "V1", "R1", "U1"), (-12.0, 9.0, 20.0), 4.0),
]


class ConstructionError(RuntimeError):
    """The interpolation data failed a build-time consistency check."""


@dataclass
class VertexTable:
    """Coordinates (``coords``) and images (``images``) of the named
    interpolation vertices: a letter of ``_BASE_XY`` and a level, 0, 1 or L
    (``P0``, ``X1``, ``TL``).  The images of the level-0 vertices are their
    coordinates (``_IMAGES``), those of level L are F's."""

    L: float
    coords: Dict[str, np.ndarray]
    images: Dict[str, np.ndarray]


def build_vertex_table(L: float) -> VertexTable:
    """Populate the vertex table and verify its internal consistency:
    the image quadrilaterals of the level-1 squares must be planar in their
    stated planes, and level-L images come from the closed form of F."""
    coords = {}
    images = {}
    for letter, (x1, x2) in _BASE_XY.items():
        coords[letter + "1"] = np.array([x1, x2, 1.0])
        coords[letter + "L"] = np.array([x1, x2, L])
        images[letter + "L"] = np.asarray(zorich.F_scalar(x1, x2, L))
    for letter in ("P", "Q", "R", "S"):
        x1, x2 = _BASE_XY[letter]
        coords[letter + "0"] = np.array([x1, x2, 0.0])
    for name, img in _IMAGES.items():
        images[name] = np.array(img)

    for names, coeff, rhs in _TOP_QUAD_PLANES:
        c = np.asarray(coeff)
        for n in names:
            dev = abs(float(c @ images[n]) - rhs)
            if dev > 1e-12 * max(1.0, abs(rhs)):
                raise ConstructionError(
                    f"image of {n} misses plane {coeff}.x={rhs} by {dev:.3e}")
    return VertexTable(L=L, coords=coords, images=images)


@dataclass
class CellChart:
    """One atlas cell: the axis-aligned cuboid [lo, hi] and the radial
    extension ``map`` of it, which holds the chart's affine cells."""

    cell_id: str
    lo: np.ndarray
    hi: np.ndarray
    map: RadialMap


# The five slab charts: each box [lo, hi] ("L" is the level L); its image
# solid's centre, a dyadic point (A': the best of a 0.5 grid by the largest
# cell dilatation; A'': apex + 0.9 (vertex mean - apex) about the solid's
# level-L apex vertex, rounded to 1/16); the pieces on each box facet, by
# their face loops; and the image solid's facets in facet order, each served
# by the piece that holds that face.  A face at level 0 (the identity) or at
# level L (F, a triangle of one crease region) is one affine cell onto its
# vertices' images, and any other face is the fan (``fan_cells``) about the
# face's area centroid onto the fan about its image's, or about the image
# centre that ``_IMAGE_FACE_CENTRES`` states; charts that list the same face
# share its piece.
_CHARTS = {
    "A'": {"box": ((0, 0, 0), (2, 2, 1)), "centre": (4.5, 1.5, 2.0),
           "facets": {0: ["P0 P1 T1 Q1 Q0"], 1: ["S0 S1 V1 R1 R0"], 2: ["P0 P1 W1 S1 S0"],
                      3: ["Q0 Q1 U1 R1 R0"], 4: ["P0 Q0 R0 S0"],
                      5: ["P1 W1 X1 T1", "W1 S1 V1 X1", "T1 X1 U1 Q1", "X1 V1 R1 U1"]},
           "codomain": ["P0 Q0 R0 S0", "P0 P1 T1 Q1 Q0", "S0 S1 V1 R1 R0", "P0 P1 W1 S1 S0",
                        "Q0 Q1 U1 R1 R0", "P1 W1 X1 T1", "T1 X1 U1 Q1", "W1 S1 V1 X1",
                        "X1 V1 R1 U1"]},
    "A''1": {"box": ((0, 0, 1), (1, 1, "L")), "centre": (20.0, 19.5625, 21.1875),
             "facets": {0: ["P1 T1 TL PL"], 1: ["W1 X1 WL", "X1 XL WL"], 2: ["P1 W1 WL PL"],
                        3: ["TL X1 XL", "T1 X1 TL"], 4: ["P1 W1 X1 T1"],
                        5: ["PL WL XL", "PL XL TL"]},
             "codomain": ["P1 W1 X1 T1", "PL WL XL", "PL XL TL", "P1 T1 TL PL", "P1 W1 WL PL",
                          "W1 X1 WL", "X1 XL WL", "TL X1 XL", "T1 X1 TL"]},
    "A''2": {"box": ((1, 0, 1), (2, 1, "L")), "centre": (21.125, 19.5625, -14.625),
             "facets": {0: ["W1 X1 WL", "X1 XL WL"], 1: ["S1 V1 VL SL"], 2: ["W1 S1 SL WL"],
                        3: ["X1 V1 VL", "X1 VL XL"], 4: ["W1 S1 V1 X1"],
                        5: ["WL SL XL", "SL VL XL"]},
             "codomain": ["W1 S1 V1 X1", "WL SL XL", "SL VL XL", "S1 V1 VL SL", "W1 S1 SL WL",
                          "W1 X1 WL", "X1 XL WL", "X1 V1 VL", "X1 VL XL"]},
    "A''3": {"box": ((0, 1, 1), (1, 2, "L")), "centre": (19.875, 20.6875, -13.6875),
             "facets": {0: ["T1 Q1 QL TL"], 1: ["X1 UL XL", "X1 U1 UL"],
                        2: ["TL X1 XL", "T1 X1 TL"], 3: ["Q1 U1 UL QL"], 4: ["T1 X1 U1 Q1"],
                        5: ["TL XL QL", "XL UL QL"]},
             "codomain": ["T1 X1 U1 Q1", "TL XL QL", "XL UL QL", "T1 Q1 QL TL", "Q1 U1 UL QL",
                          "X1 UL XL", "X1 U1 UL", "TL X1 XL", "T1 X1 TL"]},
    "A''4": {"box": ((1, 1, 1), (2, 2, "L")), "centre": (20.9375, 20.6875, 20.3125),
             "facets": {0: ["X1 UL XL", "X1 U1 UL"], 1: ["V1 R1 RL VL"],
                        2: ["X1 V1 VL", "X1 VL XL"], 3: ["U1 R1 RL UL"], 4: ["X1 V1 R1 U1"],
                        5: ["XL VL RL", "XL RL UL"]},
             "codomain": ["X1 V1 R1 U1", "XL VL RL", "XL RL UL", "V1 R1 RL VL", "U1 R1 RL UL",
                          "X1 UL XL", "X1 U1 UL", "X1 V1 VL", "X1 VL XL"]},
}

# the image centres of the two radial faces whose image's area centroid
# does not see the whole image face
_IMAGE_FACE_CENTRES = {"P0 P1 T1 Q1 Q0": (0.0, 0.875, 3.625),
                       "S0 S1 V1 R1 R0": (2.0, 2.75, -0.25)}


def _build_charts(vt, ids, shared=None):
    """The charts ``ids`` of ``_CHARTS``: one piece per distinct face, the
    image solids in one ``star_shapes`` batch, each box a ``Box`` domain,
    and the cells in one ``radial_maps`` pass, which certifies every centre
    by its cone signs; a face of ``shared`` ({face: piece} of an earlier
    phase) keeps that piece, and each codomain facet is served by the piece
    of its face.  A map that fails (a centre that fails its cone signs,
    say) raises ConstructionError naming its chart."""
    specs = [_CHARTS[cid] for cid in ids]
    faces = list(dict.fromkeys(face for spec in specs
                               for on_facet in spec["facets"].values() for face in on_facet))

    made = dict(shared or {})
    for face in faces:
        if face in made:
            continue
        # the coordinates and the images of the face's vertices
        dom, img = ([tuple(table[n].tolist()) for n in face.split()]
                    for table in (vt.coords, vt.images))
        if {n[1:] for n in face.split()} in ({"0"}, {"L"}):
            made[face] = [(dom, img)]
        else:
            made[face] = fan_cells(dom, img, face_centre(dom),
                                   _IMAGE_FACE_CENTRES.get(face) or face_centre(img))
    boxes, solids = [], []
    for spec in specs:
        boxes.append([np.array([vt.L if c == "L" else float(c) for c in corner])
                      for corner in spec["box"]])
        names = sorted({n for face in spec["codomain"] for n in face.split()})
        verts = np.array([vt.images[n] for n in names])
        loops = [[names.index(n) for n in face.split()] for face in spec["codomain"]]
        solids.append((verts, spec["centre"], loops))
    try:
        maps = radial_maps([
            (Box(lo, hi), solid,
             {facet: [made[face] for face in on_facet]
              for facet, on_facet in spec["facets"].items()},
             {k: made[face] for k, face in enumerate(spec["codomain"])})
            for spec, solid, (lo, hi) in zip(specs, star_shapes(solids), boxes)])
    except (GeometryError, np.linalg.LinAlgError) as err:
        if not hasattr(err, "map_index"):
            raise
        raise ConstructionError(f"chart {ids[err.map_index]}: {err}") from err
    return [CellChart(cid, lo, hi, rmap) for cid, (lo, hi), rmap in zip(ids, boxes, maps)]


def build_aprime_chart(vt: VertexTable) -> CellChart:
    """The chart of [0,2]^2 x [0,1] onto the nine-face image polyhedron
    about (4.5, 1.5, 2): the identity on the bottom face and face fans on the
    other eight (``_CHARTS["A'"]``, built by ``_build_charts``)."""
    return _build_charts(vt, ["A'"])[0]


def build_asecond_charts(vt: VertexTable, aprime: CellChart):
    """The charts A''1 to A''4 of the quadrants of [0,2]^2 x [1,L] onto
    their star-shaped image solids, built together by ``_build_charts``:
    each bottom face is the fan of a quadrant of the top facet of A', the
    piece of ``aprime`` (the A' chart of ``vt``), each top face is F on two
    triangles, and two charts that share a face share its two fans."""
    top = dict(zip(_CHARTS["A'"]["facets"][5], aprime.map.pieces_by_facet[5]))
    return _build_charts(vt, ["A''1", "A''2", "A''3", "A''4"], top)


# ---------------------------------------------------------------------------
# the assembled global map

class GlobalMap:
    """g (without ``L_prime``) or f = g - (0, 0, L') on all of R^3.

    Dispatch: identity below {x3 = 0}; F above {x3 = L}; in the slab, reduce
    (x1, x2) mod 4 into [0,4)^2, reflect into the base block [0,2]^2 while
    recording the isometry, pick the owning cell chart (A' up to level 1,
    above it the A'' chart of the quadrant, ties going to the lower index),
    evaluate its affine cells (``RadialMap.eval3``), then undo the isometry.
    The charts' ``eval3`` methods are bound once, at construction, and
    called from ``_slab_evals``, so that the slab, like F
    (``zorich.F_scalar``), takes one Python frame besides ``eval3``'s own.
    ``table`` is the ``CellTable`` of the charts, which the audits read.

    Each regime subtracts the shift from the third coordinate of its own
    result: L' for f, 0.0 for g (x - 0.0 is x bitwise, -0.0 included).

    A point with a NaN coordinate, or with an infinite x1 or x2 in the slab,
    raises ValueError naming it; above {x3 = L} an infinite x1 or x2 raises
    ``zorich.PrecisionLost``, and below {x3 = 0} the identity passes every
    point through unchecked.
    """

    def __init__(self, table, L, L_prime=None):
        self.table = table
        self.charts = table.charts
        self.by_id = {c.cell_id: c for c in self.charts}
        self.L = float(L)
        self.L_prime = float(L_prime) if L_prime is not None else None
        self._shift = 0.0 if L_prime is None else self.L_prime
        self._slab_charts = [self.by_id[cid] for cid in ("A'", "A''1", "A''2", "A''3", "A''4")]
        self._slab_evals = [c.map.eval3 for c in self._slab_charts]
        allv = np.vstack([c.map.codomain.vertices for c in self.charts])
        self.image_diameter = float(np.linalg.norm(allv.max(axis=0) - allv.min(axis=0)))
        self.max_image_height = float(allv[:, 2].max())

    # -- evaluation ----------------------------------------------------------

    def eval3(self, x, y, z):
        if z < 0.0:
            return (x, y, z - self._shift)
        if z > self.L:
            x, y, z = zorich.F_scalar(x, y, z)
            return (x, y, z - self._shift)
        if z != z:
            raise ValueError(f"non-finite point {(x, y, z)}")
        try:
            o1 = 4.0 * math.floor(x / 4.0)
            o2 = 4.0 * math.floor(y / 4.0)
        except (OverflowError, ValueError):
            raise ValueError(f"non-finite point {(x, y, z)}") from None
        tx = x - o1
        ty = y - o2
        r1 = tx > 2.0
        r2 = ty > 2.0
        if r1:
            tx = 4.0 - tx
        if r2:
            ty = 4.0 - ty
        k = 0 if z <= 1.0 else (2 if tx > 1.0 else 1) + (2 if ty > 1.0 else 0)
        gx, gy, gz = self._slab_evals[k](tx, ty, z)
        if r1:
            gx = 4.0 - gx
        if r2:
            gy = 4.0 - gy
        return (gx + o1, gy + o2, gz - self._shift)

    def eval(self, p):
        return np.asarray(self.eval3(float(p[0]), float(p[1]), float(p[2])))

    def __call__(self, p):
        return self.eval(p)


# ---------------------------------------------------------------------------
# the base block's cells, stacked once per build

class CellTable:
    """The affine cells of the slab charts ``charts`` (the base block's 141
    in a build), stacked once in chart order for every certificate.

    Per cell: ``chart`` (its index into ``charts``), ``labels`` (its label
    in its chart), ``a`` and ``b`` (its chart's centres), ``linear`` (A: the
    cell maps p to b + A (p - a)), ``sizes`` and ``starts`` (its polygon's
    vertex count and first row), ``signs`` and ``dets`` (the exact sign and
    the float cofactor expansion of det A from ``geometry._det3_signs``; a
    non-finite A counts as zero and has NaN), and ``s_max``, ``s_min`` and
    ``k`` = max(s_max^3 / det, det / s_min^3), inf where det <= 0 (from
    ``_cell_spectra``).  Per polygon vertex, cell after cell: ``points``,
    ``targets`` (its image under the boundary piece), ``point_ids`` (its
    point, numbered over the block by exact coordinates) and ``images``
    (b + A (p - a) under its own cell's A)."""

    def __init__(self, charts):
        self.charts = list(charts)
        maps = [c.map for c in self.charts]
        counts = [len(m.linear) for m in maps]
        self.chart = np.repeat(np.arange(len(maps)), counts)
        self.labels = [label for m in maps for label in m.labels]
        self.a, self.b = (np.repeat([getattr(m, end) for m in maps], counts, axis=0)
                          for end in ("_a", "_b"))
        self.linear, self.sizes, self.points, self.targets = (
            np.concatenate([getattr(m, name) for m in maps])
            for name in ("linear", "sizes", "points", "targets"))
        self.starts = _starts(self.sizes)
        number = {}
        self.point_ids = np.array([number.setdefault(p, len(number))
                                   for p in map(tuple, self.points.tolist())])
        self.images = np.repeat(self.b, self.sizes, axis=0) + _mapped_points(
            self.points - np.repeat(self.a, self.sizes, axis=0), self.sizes, self.linear)
        finite = np.isfinite(self.linear).all(axis=(1, 2))
        self.signs, dets = _det3_signs(np.where(finite[:, None, None], self.linear, 0.0), 0.0)
        self.dets = np.where(finite, dets, math.nan)
        det, self.s_max, self.s_min = _cell_spectra(self.linear)
        with np.errstate(divide="ignore", invalid="ignore"):
            k = np.maximum(self.s_max ** 3 / det, det / self.s_min ** 3)
        self.k = np.where(det > 0.0, k, math.inf)

    def per_chart(self, column):
        """{chart id: its cells' slice of the per-cell ``column``}."""
        return {c.cell_id: column[self.chart == i] for i, c in enumerate(self.charts)}


# how far a cell's affine map may lift a cell vertex above the image vertices
_HEIGHT_TOL = 1e-9


def derive_translation_constant(g: GlobalMap) -> float:
    """L' = 1 + (largest third coordinate over all chart image vertices).
    The slab map is affine on every cell, and the reflections and period-4
    translations keep the third coordinate, so the slab's image height is
    largest at a cell vertex.  Raises ConstructionError naming the first
    chart whose cells lift a vertex (``images`` of g's table) above it, and
    ValueError for a map that has an L'."""
    if g.L_prime is not None:
        raise ValueError("derive the translation constant from the unshifted map")
    vmax = g.max_image_height
    t = g.table
    for cid, heights in t.per_chart(np.maximum.reduceat(t.images[:, 2], t.starts)).items():
        if heights.max() > vmax + _HEIGHT_TOL:
            raise ConstructionError(
                f"chart {cid}: cell vertex image height {float(heights.max())} "
                f"exceeds the vertex bound {vmax}")
    return vmax + 1.0


# ---------------------------------------------------------------------------
# audits: finite checks on the cell table

# the largest residual of the cells' linear parts that audit_seams passes,
# over max(1, image diameter)
_SEAM_TOL_SCALED = 1e-6


@dataclass
class SeamReport:
    """``audit_seams``: its faults in all and per seam, and the residual of
    the cells' linear parts at their vertices."""

    faults: int
    residual: float
    per_interface: Dict[str, int]
    passed: bool


@dataclass
class OrientationReport:
    min_det: float
    per_chart: Dict[str, float]
    samples: int              # the number of cells
    passed: bool


@dataclass
class DilatationReport:
    k_sup: float
    k_median: float
    samples: int              # the number of cells


def audit_seams(gm: GlobalMap, samples=None, seed=None) -> SeamReport:
    """Continuity of g across every seam, decided exactly on the cell
    complex of g's table, as the module docstring argues.

    Each polygon lies in the plane of one seam.  A seam's faults are each
    polygon on it held by other than two charts (an interior face) or one
    (the block's boundary), each point on it with several targets, and each
    point of a target other than its point at x3 = 0, other than
    ``zorich.F_scalar`` of it at x3 = L (or where F does not commute with
    x_k -> 4 - x_k and x_k -> x_k + 4, k = 1, 2), or off the plane
    x_k = 0 or 2 that holds it.  ``passed`` needs no fault and a
    ``residual`` of at most ``_SEAM_TOL_SCALED`` x max(1, image diameter).
    ``samples`` and ``seed`` are unused."""
    t, L, F = gm.table, gm.L, zorich.F_scalar
    pts, targets, ids = t.points, t.targets, t.point_ids
    n = int(ids.max()) + 1
    where, image = np.empty((n, 3)), np.empty((n, 3))
    where[ids], image[ids] = pts, targets
    # each seam by its plane (axis, level); the interior faces are at level 1
    planes = {(2, 0.0): "identity/slab x3=0", (2, L): "slab/F x3=L", (2, 1.0): "A'/A'' x3=1",
              (0, 1.0): "cells x1=1", (1, 1.0): "cells x2=1",
              (0, 2.0): "reflection x1=2", (1, 2.0): "reflection x2=2",
              (0, 0.0): "translation x1=0", (1, 0.0): "translation x2=0"}
    per = dict.fromkeys(planes.values(), 0)
    # each cell's plane, the axis on which its polygon's points agree
    lo, hi = (reduce.reduceat(pts, t.starts) for reduce in (np.minimum, np.maximum))
    axis = np.argmax(lo == hi, axis=1)
    holders, on = {}, [set() for _ in range(n)]
    cells = zip(zip(axis.tolist(), lo[np.arange(len(lo)), axis].tolist()), t.chart.tolist(),
                map(np.ndarray.tolist, np.split(ids, t.starts[1:])))
    for plane, c, poly in cells:
        holders.setdefault((plane, tuple(sorted(poly))), []).append(c)
        for p in poly:
            on[p].add(planes[plane])
    for (plane, _), charts in holders.items():
        want = 2 if plane[1] == 1.0 else 1
        per[planes[plane]] += len(charts) != want or len(set(charts)) != want
    for p in np.flatnonzero(np.bincount(ids, (targets != image[ids]).any(axis=1), n)).tolist():
        for seam in on[p]:
            per[seam] += 1
    # F at the level-L points, and whether it commutes there with the
    # reflections and translations of x1 and x2
    level = np.full((n, 3), math.nan)
    for p in np.flatnonzero(where[:, 2] == L).tolist():
        x1, x2, x3 = where[p].tolist()
        level[p] = f1, f2, f3 = F(x1, x2, x3)
        per[planes[(2, L)]] += not (
            F(4.0 - x1, x2, x3) == (4.0 - f1, f2, f3) and F(x1, 4.0 - x2, x3) == (f1, 4.0 - f2, f3)
            and F(x1 + 4.0, x2, x3) == (f1 + 4.0, f2, f3)
            and F(x1, x2 + 4.0, x3) == (f1, f2 + 4.0, f3))
    faulty = {planes[(2, 0.0)]: (pts[:, 2] == 0.0) & (targets != pts).any(axis=1),
              planes[(2, L)]: (pts[:, 2] == L) & (targets != level[ids]).any(axis=1)}
    for k in (0, 1):
        for v in (0.0, 2.0):
            faulty[planes[(k, v)]] = (pts[:, k] == v) & (targets[:, k] != v)
    for seam, rows in faulty.items():
        per[seam] += int(np.count_nonzero(np.bincount(ids, rows, n)))
    faults = sum(per.values())
    residual = float(np.linalg.norm(t.images - targets, axis=1).max())
    return SeamReport(faults=faults, residual=residual, per_interface=per, passed=faults == 0
                      and residual <= _SEAM_TOL_SCALED * max(1.0, gm.image_diameter))


def _cell_spectra(m):
    """(det, sigma_max, sigma_min) of each 3x3 matrix of the stack ``m``
    (shape (n, 3, 3)): det from one ``np.linalg.det``, the singular values
    in closed form, with no LAPACK call.

    sigma_max(A)^2 is the largest eigenvalue of the Gram matrix A^T A, from
    the trigonometric solution of its characteristic cubic (O. K. Smith,
    CACM 4 (1961) 168).  sigma_min(A) is |det A| / sigma_max(cof A), since
    the singular values of the cofactor matrix are |det A| / sigma_i(A);
    this avoids the eps * kappa^2 error of the least eigenvalue of A^T A
    (kappa = sigma_max / sigma_min reaches 3000 on the cells).  The Gram
    matrix carries an absolute rounding error of a few eps * sigma_max^2,
    which bounds the error of its largest eigenvalue except next to a
    double one, where the arccos is ill-conditioned.  With the relative
    gaps g_top = 1 - sigma_mid^2 / sigma_max^2 and
    g_bot = 1 - sigma_min^2 / sigma_mid^2 (the top gap of cof A),
    sigma_max is accurate to about eps * (1 + 1/g_top) relative and
    sigma_min to about eps * (kappa + 1/g_bot), kappa from the rounding of
    det and of the cofactors.  sigma_max of a diagonal matrix with repeated
    entries (3 I, diag(2, 2, 1)) comes out exact, and so does its sigma_min
    where det does (numpy's det is sign * exp(log |det|): 27 for 3 I, but
    8 - 2 ulp for 2 I); a pair of singular values equal only up to rounding
    can lose half its digits (sqrt(eps)).  A matrix of rank below 3 whose
    det is 0 has sigma_min 0; a non-finite matrix gives NaN, and nothing
    raises."""
    n = len(m)
    r0, r1, r2 = m[:, 0], m[:, 1], m[:, 2]
    a = np.concatenate([m, np.stack([_cross(r1, r2), _cross(r2, r0), _cross(r0, r1)],
                                    axis=1)])
    with np.errstate(invalid="ignore", divide="ignore"):
        det = np.linalg.det(m)
        a00, a01, a02 = a[:, 0, 0], a[:, 0, 1], a[:, 0, 2]
        a10, a11, a12 = a[:, 1, 0], a[:, 1, 1], a[:, 1, 2]
        a20, a21, a22 = a[:, 2, 0], a[:, 2, 1], a[:, 2, 2]
        # the Gram matrix G = a^T a (symmetric)
        g00 = a00 * a00 + a10 * a10 + a20 * a20
        g11 = a01 * a01 + a11 * a11 + a21 * a21
        g22 = a02 * a02 + a12 * a12 + a22 * a22
        g01 = a00 * a01 + a10 * a11 + a20 * a21
        g02 = a00 * a02 + a10 * a12 + a20 * a22
        g12 = a01 * a02 + a11 * a12 + a21 * a22
        q = (g00 + g11 + g22) / 3.0
        d0, d1, d2 = g00 - q, g11 - q, g22 - q
        p = np.sqrt((d0 * d0 + d1 * d1 + d2 * d2
                     + 2.0 * (g01 * g01 + g02 * g02 + g12 * g12)) / 6.0)
        # B = (G - q I) / p has eigenvalues 2 cos(phi + 2 pi k / 3), where
        # 3 phi = acos(det B / 2); the largest is 2 cos(phi)
        inv = np.where(p > 0.0, 1.0 / p, 0.0)
        b0, b1, b2 = d0 * inv, d1 * inv, d2 * inv
        b01, b02, b12 = g01 * inv, g02 * inv, g12 * inv
        half_det = 0.5 * (b0 * (b1 * b2 - b12 * b12) - b01 * (b01 * b2 - b12 * b02)
                          + b02 * (b01 * b12 - b1 * b02))
        phi = np.arccos(np.clip(half_det, -1.0, 1.0)) / 3.0
        s = np.sqrt(q + 2.0 * p * np.cos(phi))
        s_max, s_cof = s[:n], s[n:]
        return det, s_max, np.where(s_cof == 0.0, 0.0, np.abs(det) / s_cof)


def audit_orientation(gm: GlobalMap, samples_per_chart=None, seed=None) -> OrientationReport:
    """The least determinant of the cells' linear parts, per chart (NaN if
    a cell is not finite), from the ``dets`` of g's table.
    ``samples_per_chart`` and ``seed`` are unused."""
    per = {cid: float(d.min()) for cid, d in gm.table.per_chart(gm.table.dets).items()}
    min_det = min(per.values())
    return OrientationReport(min_det=min_det, per_chart=per, samples=len(gm.table.dets),
                             passed=min_det > 0.0)


def _median(values):
    """``np.median`` of a 1-D float array, bitwise (but for the sign of a
    zero median), without numpy's selection kernel, whose first call pages
    in about 0.5 MB of code that nothing else in a run uses: the middle
    value of the sorted values, or the mean (a + b) / 2 of the two middle
    ones, which is how ``np.median`` averages them; NaN if any value is."""
    v = values.tolist()
    if any(map(math.isnan, v)):
        return math.nan
    v.sort()
    mid = len(v) // 2
    return v[mid] if len(v) % 2 else (v[mid - 1] + v[mid]) / 2


def audit_dilatation(gm: GlobalMap, samples=None, seed=None) -> DilatationReport:
    """Sup and median of the dilatation over the cells of the slab atlas,
    on each of which g is affine (the ``k`` of g's table).  ``samples`` and
    ``seed`` are unused."""
    ks = gm.table.k
    return DilatationReport(k_sup=float(ks.max()), k_median=_median(ks), samples=len(ks))


# ---------------------------------------------------------------------------
# one-stop builder and the constants dump

@dataclass
class BuildResult:
    constants: "zorich.ConstantsReport"
    vertex_table: VertexTable
    g: GlobalMap
    f: GlobalMap
    L_prime: float
    cells: int
    min_cell_det: float
    K_slab: float
    validations: Dict[str, ValidationReport] = field(default_factory=dict)
    phase_s: Dict[str, float] = field(default_factory=dict)


def certify_cell_orientation(table: CellTable):
    """(number of affine cells, least determinant of their linear parts),
    from the table's exact ``signs`` and float ``dets``.  Each chart is
    affine on each cell, so a positive determinant on every cell makes it
    orientation preserving.  Raises ConstructionError naming the first cell
    of determinant that is not positive, and its chart."""
    bad = np.flatnonzero(table.signs <= 0)
    if bad.size:
        k = bad[0]
        raise ConstructionError(
            f"chart {table.charts[table.chart[k]].cell_id}, {table.labels[k]}: linear part "
            f"{table.linear[k].tolist()} has a determinant that is not positive")
    return len(table.dets), float(table.dets.min())


def build_maps(resolution=None, chart_resolution=48, lprime_samples=20000,
               seed=0, validate=True) -> BuildResult:
    """Derive constants, build the atlas, assemble g and f.

    c0, L, K_F and the beam margins are bounds that
    ``zorich.derive_beam_constants`` certifies in rational arithmetic.
    ``resolution``, ``chart_resolution``, ``lprime_samples`` and ``seed`` do
    nothing: they set the sampled checks that exact certificates replaced,
    and are kept so that existing callers keep working.

    The two chart phases, ``build_aprime_chart`` (A') and
    ``build_asecond_charts`` (the four A'' charts), are each one
    ``_build_charts`` call, whose ``star_extend.radial_maps`` pass takes
    the exact cone signs of all its cells before any solve: with the
    degree-one boundary map that the validation checks, they prove that the
    ray from each centre crosses its solid's boundary once and that each
    face fan is star about its centres.  The cells are then stacked once
    (``CellTable``) for g, f and every certificate, and each chart's
    boundary map is validated exactly by ``RadialMap.validate_boundary_map``.

    ``phase_s`` holds the wall seconds of the six build phases, named by
    module and function (the boundary-map validation summed over the
    charts).  Each phase is called through its module or class attribute
    when the build runs, so a wrapper set on that attribute sees it."""
    phase_s = {}

    def timed(name, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        phase_s[name] = phase_s.get(name, 0.0) + time.perf_counter() - start
        return out

    constants = timed("zorich.derive_beam_constants", zorich.derive_beam_constants)
    L = constants.L
    vt = build_vertex_table(L)
    aprime = timed("global_map.build_aprime_chart", build_aprime_chart, vt)
    cells = timed("global_map.build_asecond_charts", build_asecond_charts, vt, aprime)
    charts = [aprime] + cells
    table = timed("global_map.CellTable", CellTable, charts)
    n_cells, min_cell_det = certify_cell_orientation(table)
    g = GlobalMap(table, L)
    L_prime = timed("global_map.derive_translation_constant",
                    derive_translation_constant, g)
    f = GlobalMap(table, L, L_prime)
    validations = {}
    if validate:
        for c in charts:
            rep = timed("star_extend.validate_boundary_map", c.map.validate_boundary_map)
            validations[c.cell_id] = rep
            if not rep.passed:
                raise ConstructionError(
                    f"boundary map validation failed for {c.cell_id}: {rep}")
    return BuildResult(constants=constants, vertex_table=vt, g=g, f=f,
                       L_prime=L_prime, cells=n_cells,
                       min_cell_det=min_cell_det,
                       K_slab=float(table.k.max()),
                       validations=validations, phase_s=phase_s)


def chart_lipschitz(table: CellTable):
    """{chart id: its Lipschitz constants} for the charts of the table, from
    the singular values of each chart's cells: ``box``, max sigma_max(A),
    the Lipschitz constant of the chart on its box (convex, and the chart is
    continuous and affine on each cell), and ``inverse``, max
    1 / sigma_min(A), the local Lipschitz constant of its inverse; ``method``
    names how they were taken."""
    s_max, s_min = table.per_chart(table.s_max), table.per_chart(table.s_min)
    return {cid: {"method": "cells-closed-form", "box": float(top.max()),
                  "inverse": float((1.0 / s_min[cid]).max())}
            for cid, top in s_max.items()}


def build_report(build: BuildResult) -> dict:
    """The constants, their margins, L', the affine cell count, the least
    cell determinant, the largest cell dilatation, each chart's validation
    verdict, the wall seconds of each build phase (``phase_s``) and each
    chart's Lipschitz constants (``lipschitz``, from ``chart_lipschitz``).
    ``qrdyn build --json`` prints it."""
    c = build.constants
    return {
        "c0": c.c0,
        "L": c.L,
        "L_prime": build.L_prime,
        "K_F": c.K_F,
        "exp_margin": c.exp_margin,
        "jac_margin": c.jac_margin,
        "norm_margin": c.norm_margin,
        "cells": build.cells,
        "min_cell_det": build.min_cell_det,
        "K_slab": build.K_slab,
        "validations": {cid: rep.passed for cid, rep in build.validations.items()},
        "phase_s": dict(build.phase_s),
        "lipschitz": chart_lipschitz(build.g.table),
    }


def constants_report_text(build: BuildResult) -> str:
    """Plain key = value dump: the scalar entries of ``build_report`` in its
    order, then each chart's Lipschitz constants from its ``lipschitz``, as
    ``chart.<id>.lipschitz_<entry>`` lines."""
    report = build_report(build)
    lines = [f"{key} = {value:.12g}" for key, value in report.items()
             if not isinstance(value, dict)]
    for cid, entry in report["lipschitz"].items():
        for key, value in entry.items():
            text = value if isinstance(value, str) else f"{value:.6g}"
            lines.append(f"chart.{cid}.lipschitz_{key} = {text}")
    return "\n".join(lines) + "\n"
