"""The slab atlas as the affine cells of its charts' ``RadialMap``s,
against the radial maps (the radial formulas of ``oracles``)."""

import copy
import math
import types
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from oracles import (_cell_index, cell_linear_part, cell_vertex_images, facet_is_planar_rows,
                     image_cell_frames, radial_eval, radial_inverse, sector_entry,
                     triangulate_planar_rows)
from qrdyn.geometry import (GeometryError, StarShape, _det3_signs, _facet_coordinates,
                            _triangulate_planar)
from qrdyn.global_map import (CellTable, ConstructionError, _cell_spectra, audit_orientation,
                              certify_cell_orientation, chart_lipschitz)
from qrdyn.star_extend import RadialMap


def _box_points(chart, rng, interior=2000, face=200, diagonal=41, edge=8):
    """Seeded interior points plus the cell and chart boundaries: the planes
    x1 = 1, x2 = 1, x3 = 1, the box faces and their diagonals, the box
    corners, the edges and cone faces of every cell, and the exact domain
    centre; the counts are per set."""
    lo, hi = chart.lo, chart.hi
    pts = [lo + rng.random((interior, 3)) * (hi - lo)]
    for axis in range(3):
        if lo[axis] <= 1.0 <= hi[axis]:
            p = lo + rng.random((face, 3)) * (hi - lo)
            p[:, axis] = 1.0
            pts.append(p)
        for end in (lo[axis], hi[axis]):
            p = lo + rng.random((face, 3)) * (hi - lo)
            p[:, axis] = end
            pts.append(p)
            u, v = [i for i in range(3) if i != axis]
            s = np.linspace(0.0, 1.0, diagonal)
            for flip in (False, True):
                d = np.empty((len(s), 3))
                d[:, axis] = end
                d[:, u] = lo[u] + s * (hi[u] - lo[u])
                d[:, v] = lo[v] + (1 - s if flip else s) * (hi[v] - lo[v])
                pts.append(d)
    pts.append(np.array([[x, y, z] for x in (lo[0], hi[0])
                         for y in (lo[1], hi[1]) for z in (lo[2], hi[2])]))
    a = np.asarray(chart.map.domain.centre, dtype=float)
    for pieces in chart.map.pieces_by_facet.values():
        for piece in pieces:
            for dom, _ in piece:
                tri = np.asarray(dom, dtype=float)
                for i in range(3):
                    s = rng.random((edge, 1))
                    on_edge = tri[i] + s * (tri[(i + 1) % 3] - tri[i])
                    pts.append(on_edge)
                    pts.append(a + rng.random((edge, 1)) * (on_edge - a))
    pts.append(a[None, :])
    return np.vstack(pts)


class TestCells:
    def test_cell_counts(self, build):
        counts = {c.cell_id: len(c.map.labels) for c in build.g.charts}
        assert counts == {"A'": 37, "A''1": 26, "A''2": 26, "A''3": 26, "A''4": 26}
        assert build.cells == 141

    def test_min_cell_det(self, build):
        # the float determinant that geometry._det3_signs takes with the
        # exact signs, at the cell of least exact determinant, within a few
        # ulps of it
        linear = np.concatenate([c.map.linear for c in build.g.charts])
        dets = _det3_signs(linear, 0.0)[1]
        exact = [_fraction_det(m) for m in linear]
        k = exact.index(min(exact))
        assert build.min_cell_det == float(dets.min()) == dets[k] > 0.0
        assert build.min_cell_det == pytest.approx(float(exact[k]), rel=4 * 2.0 ** -52)

    def test_dilatation_and_det_against_svd(self, build):
        # two references per cell, neither of which the package calls:
        # LAPACK's SVD and det, and a 40-digit SVD and det of the same float
        # matrices (mpmath)
        charts = build.g.charts
        m = np.concatenate([c.map.linear for c in charts])
        with mpmath.workdps(40):
            exact = [(mpmath.svd_r(a, compute_uv=False), mpmath.det(a))
                     for a in map(mpmath.matrix, m.tolist())]
            mp_sv = np.array([sorted(map(float, sv), reverse=True) for sv, _ in exact])
            mp_det = np.array([float(det) for _, det in exact])
        det, s_max, s_min = _cell_spectra(m)
        got = build.g.table.k
        assert len(got) == 141
        assert build.K_slab == float(got.max())
        lips = chart_lipschitz(build.g.table).values()
        ends = np.cumsum([len(c.map.linear) for c in charts])[:-1]
        rel = dict(rtol=1e-12, atol=0.0)
        for sv, want_det in ((np.linalg.svd(m, compute_uv=False), np.linalg.det(m)),
                             (mp_sv, mp_det)):
            np.testing.assert_allclose(det, want_det, **rel)
            np.testing.assert_allclose(s_max, sv[:, 0], **rel)
            np.testing.assert_allclose(s_min, sv[:, -1], **rel)
            k = np.maximum(sv[:, 0] ** 3 / want_det, want_det / sv[:, -1] ** 3)
            np.testing.assert_allclose(got, k, **rel)
            for lip, part in zip(lips, np.split(sv, ends)):
                assert lip["box"] == pytest.approx(part[:, 0].max(), rel=1e-12)
                assert lip["inverse"] == pytest.approx((1.0 / part[:, -1]).max(), rel=1e-12)

    def test_vertex_images_are_the_radial_images(self, build):
        table = build.g.table
        chart_of = np.repeat(table.chart, table.sizes)
        for i, chart in enumerate(table.charts):
            rows = chart_of == i
            want = np.array([radial_eval(chart.map, p) for p in table.points[rows].tolist()])
            assert np.allclose(table.images[rows], want, rtol=0,
                               atol=1e-12 * chart.map.codomain.diameter)

    def test_table_matches_radial_map(self, build):
        rng = np.random.default_rng(20)
        for chart in build.g.charts:
            tol = 1e-12 * chart.map.codomain.diameter
            worst = 0.0
            for p in _box_points(chart, rng).tolist():
                got = chart.map.eval3(*p)
                want = radial_eval(chart.map, p)
                worst = max(worst, math.dist(got, want))
            assert worst <= tol, (chart.cell_id, worst)

    def test_domain_centre_maps_to_codomain_centre(self, build):
        for chart in build.g.charts:
            a = chart.map.domain.centre
            got = chart.map.eval3(float(a[0]), float(a[1]), float(a[2]))
            assert got == tuple(map(float, chart.map.codomain.centre))

    def test_table_needs_a_box_domain(self, build):
        # a RadialMap is the cells of a box, so a polyhedral domain is refused
        rmap = build.g.charts[0].map
        with pytest.raises(GeometryError, match="needs a box domain"):
            RadialMap(rmap.codomain, rmap.codomain, rmap.pieces_by_facet,
                      rmap.piece_by_codomain_facet)

    @pytest.mark.parametrize("p", [(5.0, 5.0, 5.0), (1.0, 1.0, 3.0), (-1.0, 1.0, 0.5),
                                   (1.0, 1.0, -2.0), (math.nan, 1.0, 0.5)])
    def test_eval_refuses_points_outside_the_box(self, build, p):
        with pytest.raises(GeometryError, match="outside the domain box"):
            build.g.by_id["A'"].map.eval(p)

    def test_eval_takes_the_box_boundary(self, build):
        # the box corners and the face centres evaluate, and so do points
        # outside a face by half of domain.tol; twice domain.tol raises
        for chart in build.g.charts:
            rmap, lo, hi = chart.map, chart.lo, chart.hi
            tol = rmap.domain.tol
            pts = [np.array([x, y, z]) for x in (lo[0], hi[0])
                   for y in (lo[1], hi[1]) for z in (lo[2], hi[2])]
            for axis in range(3):
                for end, sign in ((lo, -1.0), (hi, 1.0)):
                    p = (lo + hi) / 2
                    for off in (0.0, 0.5 * tol):
                        p[axis] = end[axis] + sign * off
                        pts.append(p.copy())
                    p[axis] = end[axis] + sign * 2.0 * tol
                    with pytest.raises(GeometryError, match="outside the domain box"):
                        rmap.eval(p)
            for p in pts:
                assert rmap.eval(p) == rmap.eval3(*p.tolist())

    def test_eval_is_eval3_inside_the_box(self, build):
        # eval is eval3 bit for bit on seeded points of each chart box, and
        # raises a unit outside each face of the box
        rng = np.random.default_rng(25)
        for chart in build.g.charts:
            rmap, lo, hi = chart.map, chart.lo, chart.hi
            for p in (lo + rng.random((500, 3)) * (hi - lo)).tolist():
                assert _bits(rmap.eval(p)) == _bits(rmap.eval3(*p)), (chart.cell_id, p)
            for axis in range(3):
                for end, sign in ((lo, -1.0), (hi, 1.0)):
                    p = (lo + hi) / 2
                    p[axis] = end[axis] + sign
                    with pytest.raises(GeometryError, match="outside the domain box"):
                        rmap.eval(p)


class TestCellSpectra:
    """The closed-form kernel of the table's dilatations and ``chart_lipschitz``
    (``global_map._cell_spectra``): its exact, singular and non-finite
    cases, and the error bound of its docstring against LAPACK."""

    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("m, want", [(3.0 * np.eye(3), (27.0, 3.0, 3.0)),
                                         (np.diag([2.0, 2.0, 1.0]), (4.0, 2.0, 1.0))],
                             ids=["3I", "2-2-1"])
    def test_repeated_singular_values_are_exact(self, m, want):
        assert tuple(float(x[0]) for x in _cell_spectra(m[None])) == want

    def test_singular_matrix(self, build):
        m = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]])
        det, s_max, s_min = _cell_spectra(m[None])
        assert (det[0], s_min[0]) == (0.0, 0.0)
        assert s_max[0] == pytest.approx(np.linalg.svd(m, compute_uv=False)[0], rel=1e-14)
        assert CellTable([_chart(build, m[None])]).k[0] == math.inf

    def test_random_matrices_within_the_documented_bound(self):
        m = np.random.default_rng(11).standard_normal((2000, 3, 3))
        det, s_max, s_min = _cell_spectra(m)
        sv = np.linalg.svd(m, compute_uv=False)
        sq = sv ** 2
        g_top = 1.0 - sq[:, 1] / sq[:, 0]
        g_bot = 1.0 - sq[:, 2] / sq[:, 1]
        # eight times the documented eps (1 + 1/g_top) and
        # eps (kappa + 1/g_bot) bounds
        tol = 8 * self.EPS
        assert np.all(np.abs(s_max / sv[:, 0] - 1) <= tol * (1 + 1 / g_top))
        assert np.all(np.abs(s_min / sv[:, -1] - 1)
                      <= tol * (sv[:, 0] / sv[:, -1] + 1 / g_bot))
        assert det.tobytes() == np.linalg.det(m).tobytes()

    def test_a_stack_gives_each_matrix_its_own_spectra(self, build):
        # chart_lipschitz takes one pass over all cells and splits it per
        # chart: a slice of a pass is bitwise the pass over the slice, for
        # the charts' cells and for slices of every length from 1 to 40 of
        # a seeded stack
        m = np.random.default_rng(12).standard_normal((400, 3, 3))
        whole = _cell_spectra(m)
        for n in range(1, 41):
            start = 7 * n
            part = _cell_spectra(m[start:start + n])
            assert [x.tobytes() for x in part] == [x[start:start + n].tobytes()
                                                   for x in whole]
        lips = chart_lipschitz(build.g.table)
        for chart in build.g.charts:
            _, s_max, s_min = _cell_spectra(chart.map.linear)
            assert lips[chart.cell_id] == {"method": "cells-closed-form",
                                           "box": float(s_max.max()),
                                           "inverse": float((1.0 / s_min).max())}

    def test_nan_cell_has_infinite_dilatation(self, build):
        bad = np.eye(3)
        bad[1, 2] = math.nan
        linear = np.array([3.0 * np.eye(3), bad])
        assert CellTable([_chart(build, linear)]).k.tolist() == [1.0, math.inf]
        assert all(math.isnan(x[1]) for x in _cell_spectra(linear))


def _near_centre(chart, rng, count=50):
    """Points about the domain centre at distances from 2 tol to 1e-6 of the
    diameter, with the exact centre."""
    dom = chart.map.domain
    d = rng.normal(size=(count, 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    r = dom.tol * np.logspace(0.3, 6, count)[:, None]
    return np.vstack([dom.centre + r * d, dom.centre[None, :]])


class TestInverse:
    """The chart's inverse against the radial inverse (``oracles``), on the
    images of seeded points, the cell faces and edges, the box faces and
    points near the centre ball, within 1e-12 x the domain diameter."""

    def test_matches_the_radial_inverse(self, build):
        # the radial formula has no ray inside the codomain's centre ball
        # (radius codomain.tol) and sends it to the domain centre; the round
        # trip below covers the chart's inverse there
        rng = np.random.default_rng(22)
        for chart in build.g.charts:
            b, ctol = chart.map.codomain.centre, chart.map.codomain.tol
            tol = 1e-12 * chart.map.domain.diameter
            pts = np.vstack([_box_points(chart, rng, 300, 20, 9, 1),
                             _near_centre(chart, rng)])
            worst = 0.0
            for p in pts.tolist():
                q = chart.map.eval3(*p)
                if math.dist(q, b) <= ctol:
                    continue
                worst = max(worst, math.dist(chart.map.inverse(q),
                                             radial_inverse(chart.map, q)))
            assert worst <= tol, (chart.cell_id, worst)

    def test_round_trip(self, build):
        # exact up to rounding everywhere, the codomain's centre ball
        # included; no test point but the exact centre lies in the domain's
        # centre ball, which maps to b
        rng = np.random.default_rng(23)
        for chart in build.g.charts:
            tol = 1e-12 * chart.map.domain.diameter
            worst = 0.0
            for p in np.vstack([_box_points(chart, rng),
                                _near_centre(chart, rng)]).tolist():
                worst = max(worst, math.dist(chart.map.inverse(chart.map.eval(p)), p))
            assert worst <= tol, (chart.cell_id, worst)

    def test_centre_ball_inverts_by_its_cells(self, build):
        # the codomain's centre ball (radius codomain.tol) has a preimage
        # reaching far beyond domain.tol from a along the cells that shrink
        # most: its points invert by their cells, not to a
        rng = np.random.default_rng(24)
        inside = 0
        for chart in build.g.charts:
            dom, cod = chart.map.domain, chart.map.codomain
            a, b = dom.centre, cod.centre
            d = rng.normal(size=(400, 3))
            d /= np.linalg.norm(d, axis=1)[:, None]
            for u, s in zip(d.tolist(), rng.uniform(0.05, 1.0, 400).tolist()):
                # g is positively homogeneous about a on each cell cone: the
                # image of a + r u is b + r A u, outside the domain's ball
                gain = np.linalg.norm(np.subtract(chart.map.eval3(*(a + u)), b))
                r = s * cod.tol / gain
                if r <= 1.01 * dom.tol:
                    continue
                p = (a + r * np.asarray(u)).tolist()
                q = chart.map.eval3(*p)
                assert math.dist(q, b) <= cod.tol
                inside += 1
                back = chart.map.inverse(q)
                assert math.dist(back, p) <= 1e-12 * dom.diameter, (chart.cell_id, p)
            for q in (b + cod.tol * rng.random((50, 1)) * d[:50]).tolist():
                back = chart.map.inverse(q)
                assert math.dist(chart.map.eval3(*back), q) <= 1e-12 * cod.diameter
        assert inside >= 20, inside

    def test_centre_ball_and_exterior(self, build):
        for chart in build.g.charts:
            cod = chart.map.codomain
            b = cod.centre
            a = tuple(map(float, chart.map.domain.centre))
            assert chart.map.inverse(b.tolist()) == a
            assert chart.map.inverse((b + 0.5 * cod.tol).tolist()) != a
            far = b + 2.0 * (cod.vertices[0] - b)
            with pytest.raises(GeometryError, match="exterior"):
                chart.map.inverse(far.tolist())


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
    gx, gy, gz = radial_eval(gm._slab_charts[_cell_index(tx, ty, z)].map, (tx, ty, z))
    if r1:
        gx = 4.0 - gx
    if r2:
        gy = 4.0 - gy
    return (gx + 4.0 * n1, gy + 4.0 * n2, gz)


class TestSlabDispatch:
    def test_slab_evaluators_are_the_charts_eval3(self, gmap, fmap):
        # g and f bind each slab chart's own eval3, in _cell_index order
        for gm in (gmap, fmap):
            assert len(gm._slab_evals) == 5
            for ev, chart in zip(gm._slab_evals, gm._slab_charts):
                assert ev.__self__ is chart.map
                assert ev.__func__ is RadialMap.eval3
        assert [c.cell_id for c in gmap._slab_charts] == ["A'", "A''1", "A''2", "A''3", "A''4"]

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


def _chart(build, linear):
    """A chart "A''9" of the first len(linear) cells of the A' map, with
    the linear parts ``linear`` and labels on facet 0."""
    rmap = copy.copy(build.g.by_id["A'"].map)
    n = len(linear)
    rows = int(rmap.sizes[:n].sum())
    rmap.linear = np.array(linear, dtype=float)
    rmap.sizes, rmap.points, rmap.targets = rmap.sizes[:n], rmap.points[:rows], rmap.targets[:rows]
    rmap.labels = [f"facet 0 piece 0 cell {j}" for j in range(n)]
    return types.SimpleNamespace(cell_id="A''9", map=rmap)


class TestCellOrientation:
    def _chart(self, build, dets):
        # the first cells of the A' map with the linear parts diag(det, 1, 1)
        return _chart(build, [np.diag([d, 1.0, 1.0]) for d in dets])

    def test_counts_and_least_det(self, build):
        assert certify_cell_orientation(CellTable([self._chart(build, [2.0, 0.5]),
                                                   self._chart(build, [1.0])])) == (3, 0.5)

    def test_the_least_det_of_2i_is_8(self, build):
        # numpy's det is sign * exp(sum log |u_ii|) of the LU factors, 8 - 2
        # ulp for 2 I; the build and the audit report the cofactor
        # expansion that the exact signs take, 8 exactly
        chart = self._chart(build, [1.0])
        chart.map.linear = 2.0 * np.eye(3)[None]
        assert np.linalg.det(chart.map.linear)[0] != 8.0
        assert certify_cell_orientation(CellTable([chart])) == (1, 8.0)
        rep = audit_orientation(types.SimpleNamespace(table=CellTable([chart])))
        assert (rep.min_det, rep.per_chart, rep.passed) == (8.0, {"A''9": 8.0}, True)

    def test_a_nan_cell_reads_nan_in_the_audit(self, build):
        # the audit takes the least determinant of each chart, a non-finite
        # cell counting as least
        chart, other = self._chart(build, [1.0, math.nan, 0.5]), self._chart(build, [2.0])
        other.cell_id = "A''8"
        rep = audit_orientation(types.SimpleNamespace(table=CellTable([chart, other])))
        assert math.isnan(rep.per_chart["A''9"]) and rep.per_chart["A''8"] == 2.0
        assert math.isnan(rep.min_det) and not rep.passed

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [-0.25, 0.0, math.nan])
    def test_non_positive_det_names_chart_and_cell(self, build, bad):
        with pytest.raises(ConstructionError, match=r"A''9, facet 0 piece 0 cell 1"):
            certify_cell_orientation(CellTable([self._chart(build, [1.0, bad, 3.0])]))

    def test_signs_are_exact(self, build):
        # the sign of every cell's determinant, as the build certifies it,
        # is the sign of the exact determinant of its float entries
        linear = np.concatenate([c.map.linear for c in build.g.charts])
        assert len(linear) == 141
        signs = _det3_signs(linear, 0.0)[0].tolist()
        exact = [_fraction_det(m) for m in linear]
        assert signs == [(d > 0) - (d < 0) for d in exact] == [1] * 141
        assert certify_cell_orientation(build.g.table) == (141, build.min_cell_det)

    def test_rank_deficient_cell_names_its_chart(self, build):
        # row 3 is row 1 + row 2, but numpy's det of it is +1.3e-15: the
        # exact sign rejects the cell all the same
        chart = self._chart(build, [1.0, 1.0])
        chart.map.linear[1] = [[-1.0, -2.0, 0.0], [6.0, 6.0, 2.0], [5.0, 4.0, 2.0]]
        assert _fraction_det(chart.map.linear[1]) == 0
        with pytest.raises(ConstructionError, match=r"A''9, facet 0 piece 0 cell 1"):
            certify_cell_orientation(CellTable([chart]))


def _fraction_det(m):
    """The exact determinant of a 3x3 float matrix, in Fraction."""
    (a, b, c), (d, e, f), (g, h, i) = [[Fraction(x) for x in row] for row in m.tolist()]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _bits(x):
    """A nested structure of floats as a string that tells apart every
    float bit pattern (repr round-trips, and tells -0.0 from 0.0)."""
    if isinstance(x, np.ndarray):
        return _bits(x.tolist())
    if isinstance(x, (list, tuple)):
        return "(" + ",".join(map(_bits, x)) + ")"
    return repr(float(x)) if isinstance(x, (float, np.floating)) else repr(x)


def _polygons(rmap):
    """Each cell's domain polygon, as rows of the map's stacked ``points``."""
    return np.split(rmap.points, np.cumsum(rmap.sizes)[:-1])


def _radial_faces(build):
    """The build's distinct face fans, the pieces of more than one cell: 24
    pieces on 24 faces, since each A'' chart takes the piece of A' on its
    quadrant of the top facet of A'."""
    faces = {}
    for chart in build.g.charts:
        for pieces in chart.map.pieces_by_facet.values():
            for piece in pieces:
                if len(piece) > 1:
                    faces[id(piece)] = piece
    return list(faces.values())


def _polyhedra(build):
    return [c.map.codomain for c in build.g.charts]


class TestBuildMatchesOracles:
    """The build's small geometry, stacked per chart or shape or taken in
    Python floats, against the one-object-at-a-time oracles, bitwise."""

    def test_cell_tables(self, build):
        # each facet's entry: its pieces by sector, each piece's entry its
        # cells' rows by sector; a facet of one piece holds that piece's
        # entry, flagged False, after the centres, the box and the centre
        # ball's squared radius
        for chart in build.g.charts:
            rmap = chart.map
            box = rmap.domain
            assert _bits(rmap._consts[:-1]) == _bits(
                rmap._a + rmap._b + tuple(box.lo.tolist()) + tuple(box.hi.tolist())
                + (box.tol * box.tol,))
            polygons = _polygons(rmap)
            k = 0
            for facet in range(6):
                pieces = chart.map.pieces_by_facet[facet]
                iu, iv = [i for i in range(3) if i != facet // 2]
                entries = []
                for piece in pieces:
                    rows = []
                    for dom, img in piece:
                        m = np.ascontiguousarray(cell_linear_part(rmap._a, rmap._b, dom, img))
                        assert rmap.linear[k].tobytes() == m.tobytes(), (chart.cell_id, k)
                        frames, _ = rmap._all_image_cells[k]
                        assert _bits(frames) == _bits(image_cell_frames(rmap._a, polygons[k], m))
                        rows.append(tuple(m.ravel().tolist()))
                        k += 1
                    entries.append(sector_entry([[dom] for dom, _ in piece], rows, iu, iv))
                want = sector_entry([[dom for dom, _ in p] for p in pieces], entries, iu, iv)
                want = ((False,) + entries[0]) if len(pieces) == 1 else (True,) + want
                assert _bits(rmap._consts[-1][facet]) == _bits((iu, iv) + want)
            assert k == len(rmap.labels)

    def test_tables_of_a_batch_are_built_alone(self, build):
        # the four A'' maps come from one stacked pass (radial_maps); each
        # chart's map built alone has its cells bit for bit
        for chart in build.g.charts[1:]:
            rmap = chart.map
            alone = RadialMap(rmap.domain, rmap.codomain, rmap.pieces_by_facet,
                              rmap.piece_by_codomain_facet)
            for name in ("linear", "points", "targets", "sizes", "cell_facets", "point_ids",
                         "fans", "fan_cell"):
                assert getattr(rmap, name).tobytes() == getattr(alone, name).tobytes(), name
            assert _bits((rmap._consts, rmap._all_image_cells, rmap.labels)) \
                == _bits((alone._consts, alone._all_image_cells, alone.labels))
            assert _bits(rmap._image_cells) == _bits(alone._image_cells)

    def test_build_constants(self, build):
        # each cell's vertex images in the stacked table, L', the least cell
        # determinant and the largest dilatation against their
        # one-cell-at-a-time references
        table = build.g.table
        dets, ks, polygons, want = [], [], [], []
        for chart in build.g.charts:
            rmap = chart.map
            polygons += _polygons(rmap)
            want += [cell_vertex_images(rmap._a, rmap._b, dom, m)
                     for dom, m in zip(_polygons(rmap), rmap.linear)]
            dets += [_fraction_det(m) for m in rmap.linear]
            ks += [float(CellTable([_chart(build, m[None])]).k[0]) for m in rmap.linear]
        assert table.points.tobytes() == np.concatenate(polygons).tobytes()
        assert table.images.tobytes() == np.concatenate(want).tobytes()
        assert float(table.images[:, 2].max()) <= build.L_prime - 1.0 + 1e-9
        heights = [float(chart.map.codomain.vertices[:, 2].max()) for chart in build.g.charts]
        assert build.L_prime == max(heights) + 1.0
        assert build.min_cell_det == pytest.approx(float(min(dets)), rel=4 * 2.0 ** -52)
        assert build.K_slab == max(ks)

    def test_every_piece_owns_a_sector(self, build):
        # the A' top facet's four quadrant pieces about X1, and the two
        # triangles of each interior A'' face and of each A'' top face about
        # its diagonal's midpoint
        split = {}
        for chart in build.g.charts:
            for facet, pieces in chart.map.pieces_by_facet.items():
                if len(pieces) > 1:
                    *_, by_sector = chart.map._consts[-1][facet]
                    assert len({id(entry) for entry in by_sector}) == len(pieces)
                    split[chart.cell_id, facet] = len(pieces)
        assert split == {("A'", 5): 4, ("A''1", 1): 2, ("A''1", 3): 2, ("A''1", 5): 2,
                         ("A''2", 0): 2, ("A''2", 3): 2, ("A''2", 5): 2, ("A''3", 1): 2,
                         ("A''3", 2): 2, ("A''3", 5): 2, ("A''4", 0): 2, ("A''4", 2): 2,
                         ("A''4", 5): 2}

    def test_radial_faces(self, build):
        faces = _radial_faces(build)
        assert len({tuple(cell[0][1] for cell in piece) for piece in faces}) == 24
        aprime_top = build.g.by_id["A'"].map.pieces_by_facet[5]      # P, W, T, X
        for k, top in enumerate(aprime_top):
            bottom, = build.g.by_id[f"A''{k + 1}"].map.pieces_by_facet[4]
            assert bottom is top
        for piece in faces:
            for j in (0, 1):
                # every fan triangle has the face centre as its first vertex
                # and runs over one edge of the face loop, in order
                loop = [cell[j][1] for cell in piece]
                assert len({cell[j][0] for cell in piece}) == 1
                assert [cell[j][2] for cell in piece] == loop[1:] + loop[:1]

    def test_random_planar_polygons(self):
        # seeded planar polygons in general position: numpy's dot and norm
        # round differently from a Python sum on about a third of them, so
        # the normals and plane coordinates stay on numpy's
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(3, 7))
            # angle gaps below pi: star-shaped about the origin
            th = (np.arange(n) + rng.uniform(0.0, 0.9, n)) * (2 * math.pi / n)
            flat = np.column_stack([np.cos(th), np.sin(th)]) * rng.uniform(0.5, 2.0, (n, 1))
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            loop = (np.column_stack([flat, np.zeros(n)]) @ q.T + rng.normal(size=3)).tolist()
            v = np.array(loop)
            plane = _facet_coordinates(v, [list(range(n))], 1e-11)
            tris, pts2 = triangulate_planar_rows(v, list(range(n)))
            assert _bits(plane[0]) == _bits(pts2)
            assert _triangulate_planar(list(range(n)), plane[0]) == tris

    def test_polyhedra(self, build):
        shapes = _polyhedra(build)
        assert len(shapes) == 5
        for shape in shapes:
            v = shape.vertices
            plane = _facet_coordinates(v, shape.facet_polys, shape.tol * 10)
            for poly, pts2 in zip(shape.facet_polys, plane):
                tris, want2 = triangulate_planar_rows(v, poly)
                assert _bits(pts2) == _bits(want2)
                assert _triangulate_planar(poly, pts2) == tris
                assert facet_is_planar_rows(v[poly], shape.tol * 10)

    def test_warped_facet_is_named(self):
        # the first facet that leaves its plane, as the per-facet test finds it
        verts = np.array([[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)])
        verts[7] += (0.0, 0.0, 1e-3)
        faces = [[0, 1, 3, 2], [4, 6, 7, 5], [0, 4, 5, 1], [2, 3, 7, 6], [0, 2, 6, 4],
                 [1, 5, 7, 3]]
        tol = 10 * 1e-12 * float(np.linalg.norm(verts.max(axis=0) - verts.min(axis=0)))
        first = next(i for i, poly in enumerate(faces)
                     if not facet_is_planar_rows(verts[poly], tol))
        with pytest.raises(GeometryError, match=f"facet {first} is not planar"):
            StarShape(verts, (0.5, 0.5, 0.5), faces)
