"""The slab atlas as a table of affine cells, against the radial maps
(the radial formulas of ``oracles``)."""

import math
import types

import numpy as np
import pytest

from oracles import (cell_linear_part, facet_is_planar_rows, frame_rows,
                     image_cell_frames, pick_star_centre_2d_rows, polygon_kernel_rows,
                     polygon_normal_rows, radial_eval, radial_inverse, sector_entry,
                     triangulate_planar_rows)
from qrdyn.geometry import (GeometryError, StarShape, _area_signs, _det3_signs,
                            _facet_coordinates, _triangulate_planar)
from qrdyn.global_map import (ConstructionError, cell_dilatations,
                              certify_cell_orientation)
from qrdyn.star_extend import RadialMap, frame_for_polygon, pick_star_centre_2d, polygon_kernel


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
    for sel in chart.map.selectors_by_facet.values():
        for piece in sel.pieces:
            for dom, _ in piece.affine_cells():
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
            want = np.array([radial_eval(chart.map, p) for p in pts.tolist()])
            assert np.allclose(images, want, rtol=0,
                               atol=1e-12 * chart.map.codomain.diameter)

    def test_table_matches_radial_map(self, build):
        rng = np.random.default_rng(20)
        for chart in build.g.charts:
            tol = 1e-12 * chart.map.codomain.diameter
            worst = 0.0
            for p in _box_points(chart, rng).tolist():
                got = chart.table.eval(*p)
                want = radial_eval(chart.map, p)
                worst = max(worst, math.dist(got, want))
            assert worst <= tol, (chart.cell_id, worst)

    def test_domain_centre_maps_to_codomain_centre(self, build):
        for chart in build.g.charts:
            a = chart.map.domain.centre
            got = chart.table.eval(float(a[0]), float(a[1]), float(a[2]))
            assert got == tuple(map(float, chart.map.codomain.centre))

    def test_table_needs_a_box_domain(self, build):
        # a RadialMap builds its table, so a polyhedral domain is refused
        rmap = build.g.charts[0].map
        with pytest.raises(GeometryError, match="needs a box domain"):
            RadialMap(rmap.codomain, rmap.codomain, rmap.selectors_by_facet,
                      rmap.piece_by_codomain_facet)

    def test_eval_and_inverse_are_the_table(self, build):
        for chart in build.g.charts:
            a = chart.lo + 0.3 * (chart.hi - chart.lo)
            q = chart.table.eval(*a.tolist())
            assert chart.map.eval(a) == q
            assert chart.map.inverse(q) == chart.table.inverse(*q)


def _near_centre(chart, rng, count=50):
    """Points about the domain centre at distances from 2 tol to 1e-6 of the
    diameter, with the exact centre."""
    dom = chart.map.domain
    d = rng.normal(size=(count, 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    r = dom.tol * np.logspace(0.3, 6, count)[:, None]
    return np.vstack([dom.centre + r * d, dom.centre[None, :]])


class TestInverse:
    """The table's inverse against the radial inverse (``oracles``), on the
    images of seeded points, the cell faces and edges, the box faces and
    points near the centre ball, within 1e-12 x the domain diameter."""

    def test_matches_the_radial_inverse(self, build):
        # the radial formula has no ray inside the codomain's centre ball
        # (radius codomain.tol) and sends it to the domain centre; the round
        # trip below covers the table's inverse there
        rng = np.random.default_rng(22)
        for chart in build.g.charts:
            b, ctol = chart.map.codomain.centre, chart.map.codomain.tol
            tol = 1e-12 * chart.map.domain.diameter
            pts = np.vstack([_box_points(chart, rng, 300, 20, 9, 1),
                             _near_centre(chart, rng)])
            worst = 0.0
            for p in pts.tolist():
                q = chart.table.eval(*p)
                if math.dist(q, b) <= ctol:
                    continue
                worst = max(worst, math.dist(chart.table.inverse(*q),
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
                gain = np.linalg.norm(np.subtract(chart.table.eval(*(a + u)), b))
                r = s * cod.tol / gain
                if r <= 1.01 * dom.tol:
                    continue
                p = (a + r * np.asarray(u)).tolist()
                q = chart.table.eval(*p)
                assert math.dist(q, b) <= cod.tol
                inside += 1
                back = chart.table.inverse(*q)
                assert math.dist(back, p) <= 1e-12 * dom.diameter, (chart.cell_id, p)
            for q in (b + cod.tol * rng.random((50, 1)) * d[:50]).tolist():
                back = chart.table.inverse(*q)
                assert math.dist(chart.table.eval(*back), q) <= 1e-12 * cod.diameter
        assert inside >= 20, inside

    def test_centre_ball_and_exterior(self, build):
        for chart in build.g.charts:
            cod = chart.map.codomain
            b = cod.centre
            a = tuple(map(float, chart.map.domain.centre))
            assert chart.table.inverse(*b.tolist()) == a
            assert chart.table.inverse(*(b + 0.5 * cod.tol).tolist()) != a
            far = b + 2.0 * (cod.vertices[0] - b)
            with pytest.raises(GeometryError, match="exterior"):
                chart.table.inverse(*far.tolist())

    def test_table_is_built_once(self, build):
        for chart in build.g.charts:
            assert chart.table is chart.map.table


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
    gx, gy, gz = radial_eval(gm._pick_cell(tx, ty, z).map, (tx, ty, z))
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


def _bits(x):
    """A nested structure of floats as a string that tells apart every
    float bit pattern (repr round-trips, and tells -0.0 from 0.0)."""
    if isinstance(x, np.ndarray):
        return _bits(x.tolist())
    if isinstance(x, (list, tuple)):
        return "(" + ",".join(map(_bits, x)) + ")"
    return repr(float(x)) if isinstance(x, (float, np.floating)) else repr(x)


def _radial_faces(build):
    """The build's distinct Radial2D pieces: 24 faces."""
    faces = {}
    for chart in build.g.charts:
        for piece in chart.map.all_pieces:
            if piece.kind == "radial2d":
                faces[id(piece)] = piece
    return list(faces.values())


def _polyhedra(build):
    return [s for c in build.g.charts for s in (c.map.domain, c.map.codomain)]


class TestBuildMatchesOracles:
    """The build's small geometry, stacked per table or shape or taken in
    Python floats, against the one-object-at-a-time oracles, bitwise."""

    def test_cell_tables(self, build):
        for chart in build.g.charts:
            table = chart.table
            k = 0
            for facet in range(6):
                sel, entries = table._facets[facet]
                iu, iv = [i for i in range(3) if i != facet // 2]
                assert len(entries) == len(sel.pieces)
                for piece, entry in zip(sel.pieces, entries):
                    cells = piece.affine_cells()
                    rows = []
                    for dom, img in cells:
                        m = np.ascontiguousarray(cell_linear_part(table._a, table._b, dom, img))
                        assert table.linear[k].tobytes() == m.tobytes(), (chart.cell_id, k)
                        frames, _ = table._all_image_cells[k]
                        assert _bits(frames) == _bits(
                            image_cell_frames(table._a, table.polygons[k], m))
                        rows.append(tuple(m.ravel().tolist()))
                        k += 1
                    assert _bits(entry) == _bits(sector_entry(cells, rows, iu, iv))
            assert k == len(table)

    def test_radial_faces(self, build):
        faces = _radial_faces(build)
        assert len(faces) == 24
        for piece in faces:
            for loop, frame, shape in ((piece.domain_loop, piece.dom_frame, piece.map2d.domain),
                                       (piece.image_loop, piece.img_frame,
                                        piece.map2d.codomain)):
                assert _bits(frame_rows(loop)) == _bits([
                    (frame._ox, frame._oy, frame._oz), (frame._e1x, frame._e1y, frame._e1z),
                    (frame._e2x, frame._e2y, frame._e2z)])
                fresh = frame_for_polygon(loop)
                assert all(getattr(fresh, k) == getattr(frame, k) for k in frame.__slots__)
                flat = [frame.to2d(p) for p in loop]
                assert _bits(polygon_kernel(flat)) == _bits(polygon_kernel_rows(flat))
                assert _bits(pick_star_centre_2d(flat)) == _bits(pick_star_centre_2d_rows(flat))
                assert _bits(shape.centre) == _bits(pick_star_centre_2d_rows(flat))

    def test_random_planar_polygons(self):
        # seeded planar polygons in general position: numpy's dot and norm
        # round differently from a Python sum on about a third of them, so
        # the frames, normals and plane coordinates stay on numpy's
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(3, 7))
            # angle gaps below pi: star-shaped about the origin
            th = (np.arange(n) + rng.uniform(0.0, 0.9, n)) * (2 * math.pi / n)
            flat = np.column_stack([np.cos(th), np.sin(th)]) * rng.uniform(0.5, 2.0, (n, 1))
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            loop = (np.column_stack([flat, np.zeros(n)]) @ q.T + rng.normal(size=3)).tolist()
            frame = frame_for_polygon(loop)
            assert _bits(frame_rows(loop)) == _bits([
                (frame._ox, frame._oy, frame._oz), (frame._e1x, frame._e1y, frame._e1z),
                (frame._e2x, frame._e2y, frame._e2z)])
            flat2 = [frame.to2d(p) for p in loop]
            assert _bits(polygon_kernel(flat2)) == _bits(polygon_kernel_rows(flat2))
            assert _bits(pick_star_centre_2d(flat2)) == _bits(pick_star_centre_2d_rows(flat2))
            v = np.array(loop)
            normals, plane, edges = _facet_coordinates(v, [list(range(n))], 1e-11)
            assert normals[0].tobytes() == polygon_normal_rows(v).tobytes()
            tris, pts2 = triangulate_planar_rows(v, list(range(n)))
            assert _bits(plane[0]) == _bits(pts2)
            assert _triangulate_planar(list(range(n)), plane[0]) == tris

    def test_polygon_signs_are_the_det3_signs(self, build):
        # the 2D star test's float filter against the 3D one, on the 48 face
        # polygons and on polygons whose signs need Fraction
        rng = np.random.default_rng(3)
        loops = [(s._loop, s.centre.tolist()) for piece in _radial_faces(build)
                 for s in (piece.map2d.domain, piece.map2d.codomain)]
        loops += [([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0]], [0.5, 0.0]),
                  ([[0.1, 0.1], [0.3, 0.3], [0.7, 0.1]], [0.5, 0.5]),
                  ([[1e-300, 0.0], [0.0, 1e-300], [-1e-300, 0.0]], [0.0, 0.0])]
        loops += [(rng.normal(size=(5, 2)).tolist(), rng.normal(size=2).tolist())
                  for _ in range(20)]
        for loop, a in loops:
            n = len(loop)
            p = np.zeros((n, 3, 3))
            p[:, :2, :2] = np.array(loop)[[[i, (i + 1) % n] for i in range(n)]]
            p[:, 2, 2] = 1.0
            q = np.zeros((3, 3))
            q[:2, :2] = a
            assert _area_signs(loop, *a) == _det3_signs(p, q)[0].tolist(), (loop, a)

    def test_polyhedra(self, build):
        shapes = _polyhedra(build)
        assert len(shapes) == 10
        for shape in shapes:
            v = shape.vertices
            normals, plane, edges = _facet_coordinates(v, shape.facet_polys, shape.tol * 10)
            assert normals.tobytes() == shape._facet_normal.tobytes()
            want = [polygon_normal_rows(v[poly]) for poly in shape.facet_polys]
            assert normals.tobytes() == np.array(want).tobytes()
            for poly, pts2 in zip(shape.facet_polys, plane):
                tris, want2 = triangulate_planar_rows(v, poly)
                assert _bits(pts2) == _bits(want2)
                assert _triangulate_planar(poly, pts2) == tris
                assert facet_is_planar_rows(v[poly], shape.tol * 10)
            lens = [np.linalg.norm(v[p[i]] - v[p[i - 1]])
                    for p in shape.facet_polys for i in range(len(p))]
            assert edges.tobytes() == np.array(lens).tobytes()
            assert shape.min_feature == min(lens)

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
            StarShape.polyhedron(verts, faces, (0.5, 0.5, 0.5))
