"""The slab atlas as a table of affine cells, against the radial maps."""

import math
import types

import numpy as np
import pytest

from qrdyn.geometry import GeometryError
from qrdyn.global_map import (ConstructionError, cell_dilatations,
                              certify_cell_orientation)
from qrdyn.star_extend import AffineCellTable, RadialMap


def _box_points(chart, rng):
    """Seeded interior points plus the cell and chart boundaries: the planes
    x1 = 1, x2 = 1, x3 = 1, the box faces and their diagonals, the box
    corners, the cone faces of every cell, and the exact domain centre."""
    lo, hi = chart.lo, chart.hi
    pts = [lo + rng.random((2000, 3)) * (hi - lo)]
    for axis in range(3):
        if lo[axis] <= 1.0 <= hi[axis]:
            p = lo + rng.random((200, 3)) * (hi - lo)
            p[:, axis] = 1.0
            pts.append(p)
        for end in (lo[axis], hi[axis]):
            p = lo + rng.random((200, 3)) * (hi - lo)
            p[:, axis] = end
            pts.append(p)
            u, v = [i for i in range(3) if i != axis]
            s = np.linspace(0.0, 1.0, 41)
            for flip in (False, True):
                d = np.empty((len(s), 3))
                d[:, axis] = end
                d[:, u] = lo[u] + s * (hi[u] - lo[u])
                d[:, v] = lo[v] + (1 - s if flip else s) * (hi[v] - lo[v])
                pts.append(d)
    pts.append(np.array([[x, y, z] for x in (lo[0], hi[0])
                         for y in (lo[1], hi[1]) for z in (lo[2], hi[2])]))
    a = np.asarray(chart.map.domain.centre, dtype=float)
    for sel in chart.map.selectors_by_facet.values():
        for piece in sel.pieces:
            for dom, _ in piece.affine_cells():
                tri = np.asarray(dom, dtype=float)
                for i in range(3):
                    s = rng.random((8, 1))
                    edge = tri[i] + s * (tri[(i + 1) % 3] - tri[i])
                    pts.append(edge)
                    pts.append(a + rng.random((8, 1)) * (edge - a))
    pts.append(a[None, :])
    return np.vstack(pts)


class TestCells:
    def test_cell_counts(self, build):
        counts = {c.cell_id: len(c.table) for c in build.g.charts}
        assert counts == {"A'": 37, "A''1": 26, "A''2": 26, "A''3": 26, "A''4": 26}
        assert build.cells == 141

    def test_min_cell_det(self, build):
        dets = np.concatenate([c.table.determinants() for c in build.g.charts])
        assert build.min_cell_det == float(dets.min()) > 0.0

    def test_dilatation_and_det_against_svd(self, build):
        m = np.concatenate([c.table.linear for c in build.g.charts])
        sv = np.linalg.svd(m, compute_uv=False)
        det = np.linalg.det(m)
        k = np.maximum(sv[:, 0] ** 3 / det, det / sv[:, -1] ** 3)
        got = cell_dilatations(build.g.charts)
        assert len(got) == 141
        assert np.allclose(got, k, rtol=1e-9, atol=0)
        assert np.allclose(np.concatenate([c.table.determinants() for c in build.g.charts]),
                           det, rtol=1e-9, atol=0)
        assert build.K_slab == float(got.max())

    def test_vertex_images_are_the_radial_images(self, build):
        for chart in build.g.charts:
            pts, images = chart.table.vertex_images()
            want = np.array([chart.map.eval(p) for p in pts.tolist()])
            assert np.allclose(images, want, rtol=0,
                               atol=1e-12 * chart.map.codomain.diameter)

    def test_table_matches_radial_map(self, build):
        rng = np.random.default_rng(20)
        for chart in build.g.charts:
            tol = 1e-12 * chart.map.codomain.diameter
            worst = 0.0
            for p in _box_points(chart, rng).tolist():
                got = chart.table.eval(*p)
                want = chart.map.eval(p)
                worst = max(worst, math.dist(got, want))
            assert worst <= tol, (chart.cell_id, worst)

    def test_domain_centre_maps_to_codomain_centre(self, build):
        for chart in build.g.charts:
            a = chart.map.domain.centre
            got = chart.table.eval(float(a[0]), float(a[1]), float(a[2]))
            assert got == tuple(map(float, chart.map.codomain.centre))

    def test_table_needs_a_box_domain(self, build):
        rmap = build.g.charts[0].map
        no_box = RadialMap(rmap.domain, rmap.codomain, rmap.selectors_by_facet,
                           rmap.piece_by_codomain_facet)
        no_box._lo = None
        with pytest.raises(GeometryError):
            AffineCellTable(no_box)


def _radial_slab(gm, x, y, z):
    """The slab of g through the charts' radial maps: fold, reflect, evaluate
    the owning chart, unfold."""
    n1 = math.floor(x / 4.0)
    n2 = math.floor(y / 4.0)
    tx = x - 4.0 * n1
    ty = y - 4.0 * n2
    r1, r2 = tx > 2.0, ty > 2.0
    if r1:
        tx = 4.0 - tx
    if r2:
        ty = 4.0 - ty
    gx, gy, gz = gm._pick_cell(tx, ty, z).map.eval((tx, ty, z))
    if r1:
        gx = 4.0 - gx
    if r2:
        gy = 4.0 - gy
    return (gx + 4.0 * n1, gy + 4.0 * n2, gz)


class TestSlabDispatch:
    def test_f_matches_the_radial_path(self, fmap, gmap):
        rng = np.random.default_rng(21)
        L = fmap.L
        pts = rng.random((3000, 3)) * np.array([16.0, 16.0, L]) - np.array([8.0, 8.0, 0.0])
        # reflection and translation planes, cell planes and level planes
        grid = [(x, y, z) for x in (-8.0, -6.0, -4.0, -3.0, -2.0, 0.0, 1.0, 2.0, 5.0, 8.0)
                for y in (-7.0, -4.0, -1.0, 0.0, 2.0, 3.0, 4.0, 6.0)
                for z in (0.0, 0.5, 1.0, 2.0, L)]
        tol = 1e-12 * gmap.image_diameter
        worst = 0.0
        for x, y, z in pts.tolist() + grid:
            got = fmap.eval3(x, y, z)
            want = _radial_slab(gmap, x, y, z)
            want = (want[0], want[1], want[2] - fmap.L_prime)
            worst = max(worst, math.dist(got, want))
        assert worst <= tol


class TestCellOrientation:
    def _chart(self, dets):
        table = types.SimpleNamespace(
            determinants=lambda: np.asarray(dets, dtype=float),
            labels=[f"facet 0 piece 0 cell {j}" for j in range(len(dets))])
        return types.SimpleNamespace(cell_id="A''9", table=table)

    def test_counts_and_least_det(self):
        assert certify_cell_orientation([self._chart([2.0, 0.5]),
                                         self._chart([1.0])]) == (3, 0.5)

    @pytest.mark.parametrize("bad", [-0.25, 0.0, math.nan])
    def test_non_positive_det_names_chart_and_cell(self, bad):
        with pytest.raises(ConstructionError, match=r"A''9, facet 0 piece 0 cell 1"):
            certify_cell_orientation([self._chart([1.0, bad, 3.0])])
