"""Assembly of the global piecewise map g and its shifted variant f.

g is the identity below {x3 = 0}, equals the exponential-type expanding map
F above {x3 = L}, and interpolates in the slab through an atlas of five
radial-extension charts over one period cell [0,2]^2 (a cuboid onto a nine
face polyhedron below level 1, and four cuboids onto star-shaped solids
between levels 1 and L).  Reflections in {x1 = 2}, {x2 = 2} and period-4
translations extend the atlas to the whole slab.  f is g followed by a
downward translation large enough that the whole slab maps below zero.

The atlas is data: ``_CHARTS`` gives each chart's box, image-solid centre,
boundary faces per box facet and image-solid facets, by the names of the
vertices of ``VertexTable``, and ``_build_charts`` builds any rows of it.
Every boundary piece is affine on triangles, so each chart is exactly
affine on the cones from its domain centre over those triangles: 37 cells
for A' and 26 for each A'' chart.  Each chart's ``RadialMap`` is those
cells, and evaluates and inverts the chart; ``GlobalMap`` evaluates the
slab by the charts' ``eval3``.  Every certificate is a finite check on the
cells: each chart's cone signs certify its image solid's centre,
``build_maps`` requires a positive determinant on every cell and validates
each chart's boundary map on the cell vertices, L' bounds the image
heights of the cell vertices, and the audits read the orientation
and the dilatation off the cells' linear parts and check the seams at the
vertices of the cells on each face.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from . import zorich
from .cones import _cross
from .geometry import GeometryError, _det3_signs, star_shapes
from .pieces import FormulaPiece, IdentityPiece, radial_pieces
from .star_extend import Box, RadialMap, ValidationReport, radial_maps


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
    (``P0``, ``X1``, ``TL``).  The level-0 vertices have coordinates only
    (the identity piece maps them to themselves)."""

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
# solid's centre, a point or the name of an apex vertex for apex + 0.10
# (vertex mean - apex); the pieces on each box facet, by their face loops;
# and the image solid's facets in facet order, each served by the piece that
# holds that face.  A face at level 0 is the identity, a pair of triangles at
# level L (" / " between them) is F, affine on each, and any other face is
# the fan of a ``Radial2DPiece``; charts that list the same face share it.
_CHARTS = {
    "A'": {"box": ((0, 0, 0), (2, 2, 1)), "centre": (5.0, 1.0, 2.0),
           "facets": {0: ["P0 P1 T1 Q1 Q0"], 1: ["S0 S1 V1 R1 R0"], 2: ["P0 P1 W1 S1 S0"],
                      3: ["Q0 Q1 U1 R1 R0"], 4: ["P0 Q0 R0 S0"],
                      5: ["P1 W1 X1 T1", "W1 S1 V1 X1", "T1 X1 U1 Q1", "X1 V1 R1 U1"]},
           "codomain": ["P0 Q0 R0 S0", "P0 P1 T1 Q1 Q0", "S0 S1 V1 R1 R0", "P0 P1 W1 S1 S0",
                        "Q0 Q1 U1 R1 R0", "P1 W1 X1 T1", "T1 X1 U1 Q1", "W1 S1 V1 X1",
                        "X1 V1 R1 U1"]},
    "A''1": {"box": ((0, 0, 1), (1, 1, "L")), "centre": "PL",
             "facets": {0: ["P1 T1 TL PL"], 1: ["W1 X1 WL", "X1 XL WL"], 2: ["P1 W1 WL PL"],
                        3: ["TL X1 XL", "T1 X1 TL"], 4: ["P1 W1 X1 T1"],
                        5: ["PL WL XL / PL XL TL"]},
             "codomain": ["P1 W1 X1 T1", "PL WL XL", "PL XL TL", "P1 T1 TL PL", "P1 W1 WL PL",
                          "W1 X1 WL", "X1 XL WL", "TL X1 XL", "T1 X1 TL"]},
    "A''2": {"box": ((1, 0, 1), (2, 1, "L")), "centre": "SL",
             "facets": {0: ["W1 X1 WL", "X1 XL WL"], 1: ["S1 V1 VL SL"], 2: ["W1 S1 SL WL"],
                        3: ["X1 V1 VL", "X1 VL XL"], 4: ["W1 S1 V1 X1"],
                        5: ["WL SL XL / SL VL XL"]},
             "codomain": ["W1 S1 V1 X1", "WL SL XL", "SL VL XL", "S1 V1 VL SL", "W1 S1 SL WL",
                          "W1 X1 WL", "X1 XL WL", "X1 V1 VL", "X1 VL XL"]},
    "A''3": {"box": ((0, 1, 1), (1, 2, "L")), "centre": "QL",
             "facets": {0: ["T1 Q1 QL TL"], 1: ["X1 UL XL", "X1 U1 UL"],
                        2: ["TL X1 XL", "T1 X1 TL"], 3: ["Q1 U1 UL QL"], 4: ["T1 X1 U1 Q1"],
                        5: ["TL XL QL / XL UL QL"]},
             "codomain": ["T1 X1 U1 Q1", "TL XL QL", "XL UL QL", "T1 Q1 QL TL", "Q1 U1 UL QL",
                          "X1 UL XL", "X1 U1 UL", "TL X1 XL", "T1 X1 TL"]},
    "A''4": {"box": ((1, 1, 1), (2, 2, "L")), "centre": "RL",
             "facets": {0: ["X1 UL XL", "X1 U1 UL"], 1: ["V1 R1 RL VL"],
                        2: ["X1 V1 VL", "X1 VL XL"], 3: ["U1 R1 RL UL"], 4: ["X1 V1 R1 U1"],
                        5: ["XL VL RL / XL RL UL"]},
             "codomain": ["X1 V1 R1 U1", "XL VL RL", "XL RL UL", "V1 R1 RL VL", "U1 R1 RL UL",
                          "X1 UL XL", "X1 U1 UL", "X1 V1 VL", "X1 VL XL"]},
}


def _build_charts(vt, ids, shared=None):
    """The charts ``ids`` of ``_CHARTS``: one piece per distinct face (the
    face fans in one ``radial_pieces`` batch), the image solids in one
    ``star_shapes`` batch, each box a ``Box`` domain, and the cells in one
    ``radial_maps`` pass, which certifies every centre by its cone signs; a
    face of ``shared`` ({face: piece} of an earlier phase) keeps that piece.
    A map that fails (a centre that fails its cone signs, say) raises
    ConstructionError naming its chart."""
    specs = [_CHARTS[cid] for cid in ids]
    faces = list(dict.fromkeys(face for spec in specs
                               for on_facet in spec["facets"].values() for face in on_facet))

    def points(loop):      # the coordinates and the images of a loop's vertices
        return [vt.coords[n] for n in loop.split()], [vt.images[n] for n in loop.split()]

    made, radial = dict(shared or {}), []
    for face in faces:
        if face in made:
            continue
        levels = {n[1:] for n in face.replace(" / ", " ").split()}
        if levels == {"0"}:
            made[face] = IdentityPiece(points(face)[0])
        elif levels == {"L"}:
            made[face] = FormulaPiece([points(tri) for tri in face.split(" / ")])
        else:
            radial.append(face)
    made.update(zip(radial, radial_pieces([points(face) for face in radial])))
    serving = {part: made[face] for face in faces for part in face.split(" / ")}
    boxes, solids = [], []
    for spec in specs:
        boxes.append([np.array([vt.L if c == "L" else float(c) for c in corner])
                      for corner in spec["box"]])
        names = sorted({n for face in spec["codomain"] for n in face.split()})
        verts = np.array([vt.images[n] for n in names])
        centre = spec["centre"]
        if isinstance(centre, str):
            apex = vt.images[centre]
            centre = apex + 0.10 * (verts.mean(axis=0) - apex)
        loops = [[names.index(n) for n in face.split()] for face in spec["codomain"]]
        solids.append((verts, centre, loops))
    try:
        maps = radial_maps([
            (Box(lo, hi), solid,
             {facet: [made[face] for face in on_facet]
              for facet, on_facet in spec["facets"].items()},
             {k: serving[face] for k, face in enumerate(spec["codomain"])})
            for spec, solid, (lo, hi) in zip(specs, star_shapes(solids), boxes)])
    except (GeometryError, np.linalg.LinAlgError) as err:
        if not hasattr(err, "map_index"):
            raise
        raise ConstructionError(f"chart {ids[err.map_index]}: {err}") from err
    return [CellChart(cid, lo, hi, rmap) for cid, (lo, hi), rmap in zip(ids, boxes, maps)]


def build_aprime_chart(vt: VertexTable) -> CellChart:
    """The chart of [0,2]^2 x [0,1] onto the nine-face image polyhedron
    about (5, 1, 2): the identity on the bottom face and face fans on the
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
    """g (mode "g") or f = g - (0, 0, L') (mode "f") on all of R^3.

    Dispatch: identity below {x3 = 0}; F above {x3 = L}; in the slab, reduce
    (x1, x2) mod 4 into [0,4)^2, reflect into the base block [0,2]^2 while
    recording the isometry, pick the owning cell chart (A' up to level 1,
    above it the A'' chart of the quadrant, ties going to the lower index),
    evaluate its affine cells, then undo the isometry.  The chart's
    ``RadialMap.eval3`` finds the exit facet of the ray from the chart's
    domain centre, the boundary piece by its angle about the vertices the
    facet's pieces share, the cell by its angle about the vertices the
    piece's cells share, and applies that cell's affine map, as its ``eval``
    does after refusing points outside the box.  The charts' ``eval3``
    methods are bound once, at construction, and called from
    ``_slab_evals``, so that the slab, like F (``zorich.F_scalar``), takes
    one Python frame besides ``eval3``'s own.

    Each regime subtracts the shift from the third coordinate of its own
    result: L' in mode "f", 0.0 in mode "g" (x - 0.0 is x bitwise, -0.0
    included).  The shift is fixed at construction; assigning ``L_prime``
    later, as ``build_maps`` does on g, does not shift the map.

    A point with a NaN coordinate, or with an infinite x1 or x2 in the slab,
    raises ValueError naming it; above {x3 = L} an infinite x1 or x2 raises
    ``zorich.PrecisionLost``, and below {x3 = 0} the identity passes every
    point through unchecked.
    """

    def __init__(self, charts, L, L_prime=None, mode="g"):
        if mode not in ("g", "f"):
            raise ValueError("mode must be 'g' or 'f'")
        if mode == "f" and L_prime is None:
            raise ValueError("mode 'f' requires the translation constant")
        self.charts = list(charts)
        self.by_id = {c.cell_id: c for c in self.charts}
        self.L = float(L)
        self.L_prime = float(L_prime) if L_prime is not None else None
        self.mode = mode
        self._shift = self.L_prime if mode == "f" else 0.0
        self._aprime = self.by_id["A'"]
        self._cells = [self.by_id[f"A''{i}"] for i in (1, 2, 3, 4)]
        self._slab_charts = [self._aprime] + self._cells
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


# how far a cell's affine map may lift a cell vertex above the image vertices
_HEIGHT_TOL = 1e-9


def derive_translation_constant(g: GlobalMap) -> float:
    """L' = 1 + (largest third coordinate over all chart image vertices).

    The slab map is affine on every cell, and the reflections and period-4
    translations keep the third coordinate, so the slab's image height is
    largest at a cell vertex.  Raises ConstructionError if a cell's affine
    map lifts one of its vertices above that bound."""
    if g.mode != "g":
        raise ValueError("derive the translation constant from the unshifted map")
    vmax = g.max_image_height
    for chart in g.charts:
        _, images = chart.map.vertex_images()
        worst = float(images[:, 2].max())
        if worst > vmax + _HEIGHT_TOL:
            raise ConstructionError(
                f"chart {chart.cell_id}: cell vertex image height {worst} "
                f"exceeds the vertex bound {vmax}")
    return vmax + 1.0


# ---------------------------------------------------------------------------
# audits: finite checks on the charts' cells

# the largest seam disagreement that audit_seams passes, over max(1, image diameter)
_SEAM_TOL_SCALED = 1e-6


@dataclass
class SeamReport:
    worst_raw: float
    worst_scaled: float
    per_interface: Dict[str, float]
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


def _face_dev(images, chart, facet, target, box=None):
    """Largest distance between the image of a vertex of a cell on the box
    facet ``facet`` of the chart, under that cell's affine map, and
    target(vertex, image), over the vertices in ``box`` (lo, hi) if given;
    ``images`` holds each chart's ``vertex_images`` of all its cells."""
    pts, imgs = images[id(chart)]
    keep = chart.map.point_facet == facet
    if box is not None:
        keep &= np.all((box[0] <= pts) & (pts <= box[1]), axis=1)
    return max(math.dist(w, target(p, w))
               for p, w in zip(pts[keep].tolist(), imgs[keep].tolist()))


def _shared_face_dev(images, one, facet_one, two, facet_two):
    """Largest disagreement of two charts at the cell vertices on a face
    they share, each vertex evaluated by the other chart's ``eval3``."""
    return max(_face_dev(images, one, facet_one, lambda p, w: two.map.eval3(*p),
                         (two.lo, two.hi)),
               _face_dev(images, two, facet_two, lambda p, w: one.map.eval3(*p),
                         (one.lo, one.hi)))


def audit_seams(gm: GlobalMap, samples=None, seed=None) -> SeamReport:
    """Continuity of g across every seam, at the cell vertices on it.

    Each chart is affine on each cell, and the two sides of a shared face
    share its pieces, so agreement at the cell vertices is agreement on the
    face.  Seams: the identity at x3 = 0, F at x3 = L (affine on the same
    triangles of the top faces), A' against A'' at x3 = 1, the A'' charts
    at x1 = 1 and x2 = 1, and the faces at x1, x2 in {0, 2}, whose images
    lie in the same planes, which makes g continuous across the reflections
    and the period-4 translations.  Each chart's vertex images are one
    stacked product per chart (``vertex_images``), taken once per call from
    its map as it is then.  ``samples`` and ``seed`` are unused."""
    aprime, cells = gm._aprime, gm._cells
    charts = {id(c): c for c in (aprime, *cells, *gm.charts)}
    images = {key: c.map.vertex_images() for key, c in charts.items()}
    per = {
        "identity/slab x3=0": _face_dev(images, aprime, 4, lambda p, w: p),
        "slab/F x3=L": max(_face_dev(images, c, 5, lambda p, w: zorich.F_scalar(*p))
                           for c in cells),
        "A'/A'' x3=1": max(_shared_face_dev(images, aprime, 5, c, 4) for c in cells),
        "cells x1=1": max(_shared_face_dev(images, cells[i], 1, cells[i + 1], 0)
                          for i in (0, 2)),
        "cells x2=1": max(_shared_face_dev(images, cells[i], 3, cells[i + 2], 2)
                          for i in (0, 1)),
    }
    for axis, name in ((0, "x1"), (1, "x2")):
        for value, seam in ((2.0, "reflection"), (0.0, "translation")):
            per[f"{seam} {name}={value:g}"] = max(
                _face_dev(images, c, 2 * axis + (value == 2.0),
                          lambda p, w: w[:axis] + [value] + w[axis + 1:])
                for c in gm.charts if (c.lo[axis], c.hi[axis])[value == 2.0] == value)
    worst = max(per.values())
    scale = max(1.0, gm.image_diameter)
    return SeamReport(worst_raw=worst, worst_scaled=worst / scale, per_interface=per,
                      passed=worst / scale <= _SEAM_TOL_SCALED)


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


def _per_chart(charts, *stacks):
    """Each chart of ``charts`` with its own slice of each stack, a stack
    holding one value per cell of all the charts' cells in order."""
    ends = np.cumsum([len(c.map.linear) for c in charts])[:-1]
    return zip(charts, *(np.split(stack, ends) for stack in stacks))


def _least_dets(charts):
    """(chart, k, det) for each chart: its cell k of least determinant (the
    first NaN counts as least), from one ``np.linalg.det`` of all cells.
    It takes no singular values, which no orientation claim needs."""
    with np.errstate(invalid="ignore"):
        det = np.linalg.det(np.concatenate([c.map.linear for c in charts]))
    for chart, dets in _per_chart(charts, det):
        k = int(np.argmin(dets))
        yield chart, k, dets[k]


def audit_orientation(gm: GlobalMap, samples_per_chart=None, seed=None) -> OrientationReport:
    """The least determinant of the cells' linear parts, per chart.
    ``samples_per_chart`` and ``seed`` are unused."""
    per = {c.cell_id: float(det) for c, _, det in _least_dets(gm.charts)}
    min_det = min(per.values())
    return OrientationReport(min_det=min_det, per_chart=per,
                             samples=sum(len(c.map) for c in gm.charts),
                             passed=min_det > 0.0)


def cell_dilatations(charts):
    """K = max(sigma_max^3 / det, det / sigma_min^3) of the linear part of
    every cell of the charts (inf where det <= 0, so also for a singular or
    non-finite linear part, which a build rejects first, in
    ``certify_cell_orientation``), from ``_cell_spectra``."""
    det, s_max, s_min = _cell_spectra(np.concatenate([c.map.linear for c in charts]))
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.maximum(s_max ** 3 / det, det / s_min ** 3)
    return np.where(det > 0.0, k, math.inf)


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
    on each of which g is affine.  ``samples`` and ``seed`` are unused."""
    ks = cell_dilatations(gm.charts)
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


def certify_cell_orientation(charts):
    """(number of affine cells, least determinant of their linear parts).

    Each chart is affine on each cell, so a positive determinant on every
    cell makes every chart orientation preserving.  The signs are exact
    (``geometry._det3_signs``, a non-finite cell taken as zero), not those
    of numpy's det; the least determinant is numpy's.  Raises
    ConstructionError naming the first chart with a cell of determinant
    that is not positive, and the first such cell."""
    linear = np.concatenate([c.map.linear for c in charts])
    finite = np.isfinite(linear).all(axis=(1, 2))[:, None, None]
    signs = _det3_signs(np.where(finite, linear, 0.0), 0.0)[0]
    least = math.inf
    for (chart, _, det), (_, chart_signs) in zip(_least_dets(charts),
                                                 _per_chart(charts, signs)):
        bad = np.flatnonzero(chart_signs <= 0)
        if bad.size:
            raise ConstructionError(
                f"chart {chart.cell_id}, {chart.map.labels[bad[0]]}: linear part "
                f"{chart.map.linear[bad[0]].tolist()} has a determinant that is not positive")
        least = min(least, float(det))
    return len(linear), least


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
    ``_build_charts`` call on rows of ``_CHARTS``: one batch of face fans,
    one ``geometry.star_shapes`` batch of the image solids and one
    ``star_extend.radial_maps`` pass that stacks the cells, each chart's
    domain a ``star_extend.Box``.  Before any solve, the pass takes the
    exact cone signs of all its cells' fan triangles: each image cone about
    its solid's centre must have the orientation of its domain cone.  With
    the degree-one boundary map that the validation checks, this proves
    that the ray from each centre crosses its solid's boundary once, as the
    radial extension and ``psi`` need.
    Each chart's boundary map is then validated by its own
    ``RadialMap.validate_boundary_map`` call, on the cells and facet planes
    computed when it was built: its seams exactly, as a cell complex whose
    cells meet edge to edge and give each point one image, so the affine
    cells agree on every shared edge.

    ``phase_s`` holds the wall seconds of the five build phases, named by
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
    n_cells, min_cell_det = certify_cell_orientation(charts)
    g = GlobalMap(charts, L)
    L_prime = timed("global_map.derive_translation_constant",
                    derive_translation_constant, g)
    f = GlobalMap(charts, L, L_prime, mode="f")
    g.L_prime = L_prime
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
                       K_slab=float(cell_dilatations(charts).max()),
                       validations=validations, phase_s=phase_s)


def chart_lipschitz(charts):
    """{chart id: its Lipschitz constants} for the charts, from the linear
    parts A of each chart's cells: ``box``, max sigma_max(A), the Lipschitz
    constant of the chart on its box (convex, and the chart is continuous
    and affine on each cell), and ``inverse``, max 1 / sigma_min(A), the
    local Lipschitz constant of its inverse; ``method`` names how they were
    taken.  One ``_cell_spectra`` of all the charts' cells, split per chart,
    gives each chart the values that a pass over its own cells gives."""
    _, s_max, s_min = _cell_spectra(np.concatenate([c.map.linear for c in charts]))
    return {chart.cell_id: {"method": "cells-closed-form", "box": float(top.max()),
                            "inverse": float((1.0 / least).max())}
            for chart, top, least in _per_chart(charts, s_max, s_min)}


def build_report(build: BuildResult) -> dict:
    """The constants, their margins, L', the affine cell count, the least
    cell determinant, the largest cell dilatation, each chart's validation
    verdict, the wall seconds of each build phase (``phase_s``) and each
    chart's Lipschitz constants (``lipschitz``, from ``chart_lipschitz``).
    Every chart passed its cone signs when it was built, so the ray from
    its image solid's centre crosses the solid's boundary once and ``psi``
    is defined on it.  ``qrdyn build --json`` prints it."""
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
        "lipschitz": chart_lipschitz(build.g.charts),
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
