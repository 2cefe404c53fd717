"""Assembly of the global piecewise map g and its shifted variant f.

g is the identity below {x3 = 0}, equals the exponential-type expanding map
F above {x3 = L}, and interpolates in the slab through an atlas of five
radial-extension charts over one period cell [0,2]^2 (a cuboid onto a nine
face polyhedron below level 1, and four cuboids onto star-shaped solids
between levels 1 and L).  Reflections in {x1 = 2}, {x2 = 2} and period-4
translations extend the atlas to the whole slab.  f is g followed by a
downward translation large enough that the whole slab maps below zero.

Every boundary piece is affine on triangles, so each chart is exactly
affine on the cones from its domain centre over those triangles: 37 cells
for A' and 26 for each A'' chart.  Each chart's ``RadialMap`` compiles its
pieces into that ``AffineCellTable``, which evaluates and inverts the chart;
``GlobalMap`` evaluates the slab from it, and the radial extension remains
only the construction of the cells.  Every
certificate is a finite check on the cells: ``build_maps`` requires a
positive determinant on every cell and validates each chart's boundary map
on the cell vertices, L' bounds the image heights of the cell vertices, and
the audits read the orientation and the dilatation off the cells' linear
parts and check the seams at the vertices of the cells on each face.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from . import zorich
from .geometry import GeometryError, StarShape, local_lipschitz_constants
from .star_extend import (AffineCellTable, DiagonalSelect,
                          FormulaPiece, IdentityPiece, QuadrantSelect,
                          Radial2DPiece, RadialMap, TrivialSelect,
                          ValidationReport)


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
    """Coordinates and images for every named interpolation vertex."""

    L: float
    coords: Dict[str, np.ndarray]
    images: Dict[str, np.ndarray]

    def coord(self, name):
        return self.coords[name]

    def image(self, name):
        return self.images[name]

    def loop_coords(self, names):
        return [self.coords[n] for n in names]

    def loop_images(self, names):
        return [self.images[n] for n in names]


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
    """One atlas cell: an axis-aligned cuboid mapped by a radial extension;
    ``table`` is the extension's own cell table."""

    cell_id: str
    lo: np.ndarray
    hi: np.ndarray
    map: RadialMap
    table: AffineCellTable = field(init=False, repr=False)

    def __post_init__(self):
        self.table = self.map.table


def _radial_piece(vt, names):
    return Radial2DPiece(vt.loop_coords(names), vt.loop_images(names))


def _formula_top_piece(vt, tri_a, tri_b):
    """Level-L end face: the closed form of F, with the two triangles on
    which it is affine as its cells."""
    return FormulaPiece(zorich.F_scalar, [(vt.loop_coords(t), vt.loop_images(t))
                                          for t in (tri_a, tri_b)])


def build_aprime_chart(vt: VertexTable) -> CellChart:
    """The chart of [0,2]^2 x [0,1] onto the nine-face image polyhedron."""
    bottom = IdentityPiece(vt.loop_coords(["P0", "Q0", "R0", "S0"]))
    side_x0 = _radial_piece(vt, ["P0", "P1", "T1", "Q1", "Q0"])
    side_x2 = _radial_piece(vt, ["S0", "S1", "V1", "R1", "R0"])
    side_y0 = _radial_piece(vt, ["P0", "P1", "W1", "S1", "S0"])
    side_y2 = _radial_piece(vt, ["Q0", "Q1", "U1", "R1", "R0"])
    top = {
        "P": _radial_piece(vt, ["P1", "W1", "X1", "T1"]),
        "W": _radial_piece(vt, ["W1", "S1", "V1", "X1"]),
        "T": _radial_piece(vt, ["T1", "X1", "U1", "Q1"]),
        "X": _radial_piece(vt, ["X1", "V1", "R1", "U1"]),
    }

    domain = StarShape.cuboid([0, 0, 0], [2, 2, 1], centre=(1, 1, 0.5))

    names = ["P0", "Q0", "R0", "S0", "P1", "Q1", "R1", "S1",
             "T1", "U1", "V1", "W1", "X1"]
    pool = {n: i for i, n in enumerate(names)}
    verts = np.array([vt.image(n) for n in names])
    facets = [
        ["P0", "Q0", "R0", "S0"],
        ["P0", "P1", "T1", "Q1", "Q0"],
        ["R0", "R1", "V1", "S1", "S0"],
        ["S0", "S1", "W1", "P1", "P0"],
        ["Q0", "Q1", "U1", "R1", "R0"],
        ["P1", "W1", "X1", "T1"],
        ["T1", "X1", "U1", "Q1"],
        ["W1", "S1", "V1", "X1"],
        ["X1", "V1", "R1", "U1"],
    ]
    codomain = StarShape.polyhedron(
        verts, [[pool[n] for n in f] for f in facets], centre=(5.0, 1.0, 2.0))

    pieces_by_facet = {
        0: TrivialSelect(side_x0),
        1: TrivialSelect(side_x2),
        2: TrivialSelect(side_y0),
        3: TrivialSelect(side_y2),
        4: TrivialSelect(bottom),
        5: QuadrantSelect([top["P"], top["W"], top["T"], top["X"]]),
    }
    by_codomain = {0: bottom, 1: side_x0, 2: side_x2, 3: side_y0,
                   4: side_y2, 5: top["P"], 6: top["T"], 7: top["W"],
                   8: top["X"]}
    rmap = RadialMap(domain, codomain, pieces_by_facet, by_codomain)
    chart = CellChart("A'", np.array([0.0, 0.0, 0.0]),
                      np.array([2.0, 2.0, 1.0]), rmap)
    chart.top_pieces = top
    return chart


# level-1 square, level-L triangle split, exterior faces and interior faces
# for the four upper cells; interior faces are shared
_CELL_DEFS = {
    "A''1": {
        "lo": (0.0, 0.0), "hi": (1.0, 1.0),
        "bottom_sq": "P",
        "top": (("PL", "WL", "XL"), ("PL", "XL", "TL")),
        "ext": {0: ["P1", "T1", "TL", "PL"], 2: ["P1", "W1", "WL", "PL"]},
        "int": {1: "x1_lo", 3: "y1_lo"},
        "apex": "PL",
    },
    "A''2": {
        "lo": (1.0, 0.0), "hi": (2.0, 1.0),
        "bottom_sq": "W",
        "top": (("WL", "SL", "XL"), ("SL", "VL", "XL")),
        "ext": {1: ["S1", "V1", "VL", "SL"], 2: ["W1", "S1", "SL", "WL"]},
        "int": {0: "x1_lo", 3: "y1_hi"},
        "apex": "SL",
    },
    "A''3": {
        "lo": (0.0, 1.0), "hi": (1.0, 2.0),
        "bottom_sq": "T",
        "top": (("TL", "XL", "QL"), ("XL", "UL", "QL")),
        "ext": {0: ["T1", "Q1", "QL", "TL"], 3: ["Q1", "U1", "UL", "QL"]},
        "int": {1: "x1_hi", 2: "y1_lo"},
        "apex": "QL",
    },
    "A''4": {
        "lo": (1.0, 1.0), "hi": (2.0, 2.0),
        "bottom_sq": "X",
        "top": (("XL", "VL", "RL"), ("XL", "RL", "UL")),
        "ext": {1: ["V1", "R1", "RL", "VL"], 3: ["U1", "R1", "RL", "UL"]},
        "int": {0: "x1_hi", 2: "y1_hi"},
        "apex": "RL",
    },
}

# shared interior faces: triangle split (both triangles), the diagonal, and
# the normal of the face plane used for the diagonal side test
_INT_FACE_DEFS = {
    "x1_lo": (("W1", "X1", "WL"), ("X1", "XL", "WL"), ("X1", "WL"), (1.0, 0.0, 0.0)),
    "y1_lo": (("T1", "X1", "TL"), ("TL", "X1", "XL"), ("X1", "TL"), (0.0, 1.0, 0.0)),
    "x1_hi": (("X1", "U1", "UL"), ("X1", "UL", "XL"), ("X1", "UL"), (1.0, 0.0, 0.0)),
    "y1_hi": (("X1", "V1", "VL"), ("X1", "VL", "XL"), ("X1", "VL"), (0.0, 1.0, 0.0)),
}


def _build_interior_faces(vt):
    faces = {}
    for key, (tri_a, tri_b, diag, normal) in _INT_FACE_DEFS.items():
        pa = _radial_piece(vt, list(tri_a))
        pb = _radial_piece(vt, list(tri_b))
        sel = DiagonalSelect(vt.coord(diag[0]), vt.coord(diag[1]), normal)
        # decide which side each triangle occupies using its off-diagonal vertex
        others = [n for n in tri_a if n not in diag]
        if sel.side(tuple(map(float, vt.coord(others[0])))) == 0:
            sel.pieces = [pa, pb]
            tri_order = (tri_a, tri_b)
        else:
            sel.pieces = [pb, pa]
            tri_order = (tri_b, tri_a)
        faces[key] = (sel, tri_order)
    return faces


def build_asecond_charts(vt: VertexTable, L: float, aprime: CellChart):
    """The four charts of the upper slab cells onto their star-shaped
    image solids.  Each image solid is built about the centre
    apex + 0.10 (centroid - apex), one tenth of the way from the image of
    the cell's outer corner at level L to the mean of its vertices; building
    it certifies that centre, and a failure raises ConstructionError naming
    the chart."""
    int_faces = _build_interior_faces(vt)
    charts = []
    for cell_id, spec in _CELL_DEFS.items():
        lo = np.array([spec["lo"][0], spec["lo"][1], 1.0])
        hi = np.array([spec["hi"][0], spec["hi"][1], L])
        domain = StarShape.cuboid(lo, hi)

        bottom_piece = aprime.top_pieces[spec["bottom_sq"]]
        tri_a, tri_b = spec["top"]
        top_piece = _formula_top_piece(vt, tri_a, tri_b)

        pieces_by_facet = {4: TrivialSelect(bottom_piece),
                           5: TrivialSelect(top_piece)}
        ext_pieces = {}
        for facet, names in spec["ext"].items():
            ext_pieces[facet] = _radial_piece(vt, names)
            pieces_by_facet[facet] = TrivialSelect(ext_pieces[facet])
        int_sels = {}
        for facet, key in spec["int"].items():
            sel, tri_order = int_faces[key]
            pieces_by_facet[facet] = sel
            int_sels[facet] = (sel, tri_order)

        # codomain solid: bottom quad, two top triangles, two exterior quads,
        # four interior triangles
        bottom_names = {"P": ["P1", "W1", "X1", "T1"],
                        "W": ["W1", "S1", "V1", "X1"],
                        "T": ["T1", "X1", "U1", "Q1"],
                        "X": ["X1", "V1", "R1", "U1"]}[spec["bottom_sq"]]
        facet_loops = [list(bottom_names), list(tri_a), list(tri_b)]
        facet_pieces = [bottom_piece, top_piece, top_piece]
        for facet in sorted(spec["ext"]):
            facet_loops.append(spec["ext"][facet])
            facet_pieces.append(ext_pieces[facet])
        for facet in sorted(spec["int"]):
            sel, tri_order = int_sels[facet]
            for tri_names, piece in zip(tri_order, sel.pieces):
                facet_loops.append(list(tri_names))
                facet_pieces.append(piece)

        pool_names = sorted({n for loop in facet_loops for n in loop})
        pool = {n: i for i, n in enumerate(pool_names)}
        verts = np.array([vt.image(n) for n in pool_names])
        facet_idx = [[pool[n] for n in loop] for loop in facet_loops]

        apex = vt.image(spec["apex"])
        centre = apex + 0.10 * (verts.mean(axis=0) - apex)
        try:
            codomain = StarShape.polyhedron(verts, facet_idx, centre=centre)
        except GeometryError as err:
            raise ConstructionError(
                f"no certifiable star centre for image of {cell_id}: {err}") from err

        by_codomain = {i: p for i, p in enumerate(facet_pieces)}
        rmap = RadialMap(domain, codomain, pieces_by_facet, by_codomain)
        charts.append(CellChart(cell_id, lo, hi, rmap))
    return charts


# ---------------------------------------------------------------------------
# the assembled global map

def _cell_index(tx, ty, z):
    """The chart that owns (tx, ty, z) of the base block, as an index into
    [A', A''1, A''2, A''3, A''4]: A' up to level 1 and above it the A''
    cell of the quadrant, ties going to the lower index."""
    if z <= 1.0:
        return 0
    return (2 if tx > 1.0 else 1) + (2 if ty > 1.0 else 0)


class GlobalMap:
    """g (mode "g") or f = g - (0, 0, L') (mode "f") on all of R^3.

    Dispatch: identity below {x3 = 0}; F above {x3 = L}; in the slab, reduce
    (x1, x2) mod 4 into [0,4)^2, reflect into the base block [0,2]^2 while
    recording the isometry, pick the owning cell chart (``_cell_index``),
    evaluate its affine cell table, then undo the isometry.  The table finds
    the exit facet of the ray from the chart's domain centre, the boundary
    piece by the facet's selector, the cell by its angle about the piece's
    shared vertex, and applies that cell's affine map, as the chart's
    ``RadialMap.eval`` does.  The charts' ``table.eval`` methods are bound
    once, at construction, and called directly.

    Each regime subtracts the shift from the third coordinate of its own
    result: L' in mode "f", 0.0 in mode "g" (x - 0.0 is x bitwise, -0.0
    included).  The shift is fixed at construction; assigning ``L_prime``
    later, as ``build_maps`` does on g, does not shift the map.
    """

    def __init__(self, charts, L, L_prime=None, mode="g", constants=None):
        if mode not in ("g", "f"):
            raise ValueError("mode must be 'g' or 'f'")
        if mode == "f" and L_prime is None:
            raise ValueError("mode 'f' requires the translation constant")
        self.charts = list(charts)
        self.by_id = {c.cell_id: c for c in self.charts}
        self.L = float(L)
        self.L_prime = float(L_prime) if L_prime is not None else None
        self.mode = mode
        self.constants = constants
        self._shift = self.L_prime if mode == "f" else 0.0
        self._aprime = self.by_id["A'"]
        self._cells = [self.by_id[f"A''{i}"] for i in (1, 2, 3, 4)]
        self._slab_charts = [self._aprime] + self._cells
        self._slab_evals = [c.table.eval for c in self._slab_charts]
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
        n1 = math.floor(x / 4.0)
        n2 = math.floor(y / 4.0)
        tx = x - 4.0 * n1
        ty = y - 4.0 * n2
        r1 = tx > 2.0
        r2 = ty > 2.0
        if r1:
            tx = 4.0 - tx
        if r2:
            ty = 4.0 - ty
        gx, gy, gz = self._slab_evals[_cell_index(tx, ty, z)](tx, ty, z)
        if r1:
            gx = 4.0 - gx
        if r2:
            gy = 4.0 - gy
        return (gx + 4.0 * n1, gy + 4.0 * n2, gz - self._shift)

    def _pick_cell(self, tx, ty, z):
        return self._slab_charts[_cell_index(tx, ty, z)]

    def eval(self, p):
        return np.asarray(self.eval3(float(p[0]), float(p[1]), float(p[2])))

    def __call__(self, p):
        return self.eval(p)


def assemble_g(charts, L, constants=None) -> GlobalMap:
    return GlobalMap(charts, L, mode="g", constants=constants)


def derive_translation_constant(g: GlobalMap, tol=1e-9) -> float:
    """L' = 1 + (largest third coordinate over all chart image vertices).

    The slab map is affine on every cell, and the reflections and period-4
    translations keep the third coordinate, so the slab's image height is
    largest at a cell vertex.  Raises ConstructionError if a cell's affine
    map lifts one of its vertices above that bound."""
    if g.mode != "g":
        raise ValueError("derive the translation constant from the unshifted map")
    vmax = g.max_image_height
    for chart in g.charts:
        _, images = chart.table.vertex_images()
        worst = float(images[:, 2].max())
        if worst > vmax + tol:
            raise ConstructionError(
                f"chart {chart.cell_id}: cell vertex image height {worst} "
                f"exceeds the vertex bound {vmax}")
    return vmax + 1.0


# ---------------------------------------------------------------------------
# audits: finite checks on the cell tables

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


def _face_dev(chart, facet, target, box=None):
    """Largest distance between the image of a vertex of a cell on the box
    facet ``facet`` of the chart, under that cell's affine map, and
    target(vertex, image), over the vertices in ``box`` (lo, hi) if given."""
    pts, images = chart.table.vertex_images(facet)
    if box is not None:
        keep = np.all((box[0] <= pts) & (pts <= box[1]), axis=1)
        pts, images = pts[keep], images[keep]
    return max(math.dist(w, target(p, w))
               for p, w in zip(pts.tolist(), images.tolist()))


def _shared_face_dev(one, facet_one, two, facet_two):
    """Largest disagreement of two charts at the cell vertices on a face
    they share, each vertex evaluated by the other chart's table."""
    return max(_face_dev(one, facet_one, lambda p, w: two.table.eval(*p),
                         (two.lo, two.hi)),
               _face_dev(two, facet_two, lambda p, w: one.table.eval(*p),
                         (one.lo, one.hi)))


def audit_seams(gm: GlobalMap, samples=None, seed=None, tol_scaled=1e-6) -> SeamReport:
    """Continuity of g across every seam, at the cell vertices on it.

    Each chart is affine on each cell, and the two sides of a shared face
    share its pieces, so agreement at the cell vertices is agreement on the
    face.  Seams: the identity at x3 = 0, F at x3 = L (affine on the same
    triangles of the top faces), A' against A'' at x3 = 1, the A'' charts
    at x1 = 1 and x2 = 1, and the faces at x1, x2 in {0, 2}, whose images
    lie in the same planes, which makes g continuous across the reflections
    and the period-4 translations.  ``samples`` and ``seed`` are unused."""
    aprime, cells = gm._aprime, gm._cells
    per = {
        "identity/slab x3=0": _face_dev(aprime, 4, lambda p, w: p),
        "slab/F x3=L": max(_face_dev(c, 5, lambda p, w: zorich.F_scalar(*p))
                           for c in cells),
        "A'/A'' x3=1": max(_shared_face_dev(aprime, 5, c, 4) for c in cells),
        "cells x1=1": max(_shared_face_dev(cells[i], 1, cells[i + 1], 0)
                          for i in (0, 2)),
        "cells x2=1": max(_shared_face_dev(cells[i], 3, cells[i + 2], 2)
                          for i in (0, 1)),
    }
    for axis, name in ((0, "x1"), (1, "x2")):
        for value, seam in ((2.0, "reflection"), (0.0, "translation")):
            per[f"{seam} {name}={value:g}"] = max(
                _face_dev(c, 2 * axis + (value == 2.0),
                          lambda p, w: w[:axis] + [value] + w[axis + 1:])
                for c in gm.charts if (c.lo[axis], c.hi[axis])[value == 2.0] == value)
    worst = max(per.values())
    scale = max(1.0, gm.image_diameter)
    return SeamReport(worst_raw=worst, worst_scaled=worst / scale, per_interface=per,
                      passed=worst / scale <= tol_scaled)


def audit_orientation(gm: GlobalMap, samples_per_chart=None, seed=None) -> OrientationReport:
    """The least determinant of the cells' linear parts, per chart.
    ``samples_per_chart`` and ``seed`` are unused."""
    per = {c.cell_id: float(c.table.determinants().min()) for c in gm.charts}
    min_det = min(per.values())
    return OrientationReport(min_det=min_det, per_chart=per,
                             samples=sum(len(c.table) for c in gm.charts),
                             passed=min_det > 0.0)


def _sigma_extremes_det(m):
    """Largest and smallest singular value and the determinant of each 3x3
    matrix of the stack ``m`` (shape (..., 3, 3)), in closed form.

    det is the cofactor expansion along the first row.  sigma_max^2 and
    sigma_min^2 are the extreme eigenvalues of the Gram matrix m^T m, taken
    from the trigonometric solution of its characteristic cubic (O. K. Smith,
    CACM 4 (1961) 168).  The Gram matrix carries an absolute rounding error
    of a few eps * sigma_max^2, which bounds the error of its eigenvalues
    except where the arccos is ill-conditioned, next to a double eigenvalue.
    With kappa = sigma_max / sigma_min and the relative gaps
    g_top = (sigma_max^2 - sigma_mid^2) / sigma_max^2 and
    g = (sigma_mid^2 - sigma_min^2) / sigma_max^2, sigma_max is accurate to
    about eps * (1 + 1/g_top) relative, sigma_min to about
    eps * kappa^2 * (1 + 1/g) relative, and the cofactor det to about
    eps * kappa^2 relative.  For separated singular values that is about
    eps * kappa^2 on sigma_min; diagonal matrices with repeated entries
    (3 I, diag(2, 2, 1)) come out exact, but a pair of singular values equal
    only up to rounding can lose half its digits (sqrt(eps)).
    Returns (sigma_max, sigma_min, det), each of shape m.shape[:-2]."""
    m00, m01, m02 = m[..., 0, 0], m[..., 0, 1], m[..., 0, 2]
    m10, m11, m12 = m[..., 1, 0], m[..., 1, 1], m[..., 1, 2]
    m20, m21, m22 = m[..., 2, 0], m[..., 2, 1], m[..., 2, 2]
    det = (m00 * (m11 * m22 - m12 * m21) - m01 * (m10 * m22 - m12 * m20)
           + m02 * (m10 * m21 - m11 * m20))
    # Gram matrix G = m^T m (symmetric)
    g00 = m00 * m00 + m10 * m10 + m20 * m20
    g11 = m01 * m01 + m11 * m11 + m21 * m21
    g22 = m02 * m02 + m12 * m12 + m22 * m22
    g01 = m00 * m01 + m10 * m11 + m20 * m21
    g02 = m00 * m02 + m10 * m12 + m20 * m22
    g12 = m01 * m02 + m11 * m12 + m21 * m22
    q = (g00 + g11 + g22) / 3.0
    d0, d1, d2 = g00 - q, g11 - q, g22 - q
    p = np.sqrt((d0 * d0 + d1 * d1 + d2 * d2
                 + 2.0 * (g01 * g01 + g02 * g02 + g12 * g12)) / 6.0)
    # B = (G - q I) / p has eigenvalues 2 cos(phi + 2 pi k / 3), 3 phi = acos(det B / 2)
    inv = np.where(p > 0.0, 1.0 / np.where(p > 0.0, p, 1.0), 0.0)
    b0, b1, b2 = d0 * inv, d1 * inv, d2 * inv
    b01, b02, b12 = g01 * inv, g02 * inv, g12 * inv
    half_det = 0.5 * (b0 * (b1 * b2 - b12 * b12) - b01 * (b01 * b2 - b12 * b02)
                      + b02 * (b01 * b12 - b1 * b02))
    phi = np.arccos(np.clip(half_det, -1.0, 1.0)) / 3.0
    lam_max = q + 2.0 * p * np.cos(phi)
    lam_min = q + 2.0 * p * np.cos(phi + 2.0 * math.pi / 3.0)
    return np.sqrt(lam_max), np.sqrt(np.maximum(lam_min, 0.0)), det


def cell_dilatations(charts):
    """K = max(sigma_max^3 / det, det / sigma_min^3) of the linear part m of
    every cell of the charts (inf where det <= 0), from the sigma_max of
    ``_sigma_extremes_det`` for m and for its cofactor matrix, whose
    singular values are det / sigma_i: det / sigma_min^3 is then
    sigma_max(cof m)^3 / det^2, without the eps * kappa^2 error of the
    closed-form sigma_min (kappa reaches 3000 on the cells)."""
    m = np.concatenate([c.table.linear for c in charts])
    r0, r1, r2 = m[:, 0], m[:, 1], m[:, 2]
    cof = np.stack([np.cross(r1, r2), np.cross(r2, r0), np.cross(r0, r1)], axis=1)
    s_max, _, det = _sigma_extremes_det(m)
    s_cof = _sigma_extremes_det(cof)[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.maximum(s_max ** 3 / det, s_cof ** 3 / det ** 2)
    return np.where(det > 0.0, k, math.inf)


def audit_dilatation(gm: GlobalMap, samples=None, seed=None) -> DilatationReport:
    """Sup and median of the dilatation over the cells of the slab atlas,
    on each of which g is affine.  ``samples`` and ``seed`` are unused."""
    ks = cell_dilatations(gm.charts)
    return DilatationReport(k_sup=float(ks.max()), k_median=float(np.median(ks)),
                            samples=len(ks))


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
    cell makes every chart orientation preserving.  Raises ConstructionError
    naming the first chart with a determinant that is not positive, and its
    cell of least determinant."""
    count = 0
    least = math.inf
    for chart in charts:
        dets = chart.table.determinants()
        k = int(np.argmin(dets))
        if not dets[k] > 0.0:
            raise ConstructionError(
                f"chart {chart.cell_id}, {chart.table.labels[k]}: "
                f"linear part has determinant {dets[k]:.6g}")
        count += len(dets)
        least = min(least, float(dets[k]))
    return count, least


def build_maps(resolution=None, chart_resolution=48, lprime_samples=20000,
               seed=0, validate=True) -> BuildResult:
    """Derive constants, build the atlas, assemble g and f.

    c0, L, K_F and the beam margins are bounds that
    ``zorich.derive_beam_constants`` certifies in rational arithmetic.
    ``resolution``, ``chart_resolution``, ``lprime_samples`` and ``seed`` do
    nothing: they set the sampled checks that exact certificates replaced,
    and are kept so that existing callers keep working.

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
    cells = timed("global_map.build_asecond_charts", build_asecond_charts, vt, L, aprime)
    charts = [aprime] + cells
    n_cells, min_cell_det = certify_cell_orientation(charts)
    g = assemble_g(charts, L, constants)
    L_prime = timed("global_map.derive_translation_constant",
                    derive_translation_constant, g)
    f = GlobalMap(charts, L, L_prime, mode="f", constants=constants)
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


def _certificate_entry(shape):
    eta, T = local_lipschitz_constants(shape)
    return {"centre": shape.centre.tolist(), "theta": shape.certificate.theta,
            "eps": shape.certificate.eps, "eta": eta, "T": T}


def build_report(build: BuildResult) -> dict:
    """The constants, their margins, L', the affine cell count, the least
    cell determinant, the largest cell dilatation, each chart's validation
    verdict, the wall seconds of each build phase (``phase_s``) and the
    star-centre certificates (``certificates``): per chart, for its domain
    and its codomain, the centre, the certificate's theta and eps, and the
    constants (eta, T) of ``geometry.local_lipschitz_constants`` (psi is
    T/|xi - a|-Lipschitz on the balls B(xi, eta |xi - a|)).  ``qrdyn build
    --json`` prints it."""
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
        "certificates": {chart.cell_id: {"domain": _certificate_entry(chart.map.domain),
                                         "codomain": _certificate_entry(chart.map.codomain)}
                         for chart in build.g.charts},
    }


def constants_report_text(build: BuildResult) -> str:
    """Plain key = value dump: the scalar entries of ``build_report`` in its
    order, then each chart's centre certificates from its
    ``certificates``, as ``chart.<id>.<domain|codomain>_<entry>`` lines."""
    report = build_report(build)
    lines = [f"{key} = {value:.12g}" for key, value in report.items()
             if not isinstance(value, dict)]
    for cid, sides in report["certificates"].items():
        for side, entry in sides.items():
            for key, value in entry.items():
                text = ("(" + ", ".join(f"{v:.6g}" for v in value) + ")"
                        if key == "centre" else f"{value:.6g}")
                lines.append(f"chart.{cid}.{side}_{key} = {text}")
    return "\n".join(lines) + "\n"
