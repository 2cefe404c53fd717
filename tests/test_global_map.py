import copy
import math
import struct
import types
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from qrdyn import geometry
from qrdyn.geometry import StarShape
from qrdyn.global_map import (ConstructionError, assemble_g, audit_dilatation,
                              audit_orientation, audit_seams,
                              build_asecond_charts, build_maps, build_vertex_table,
                              constants_report_text,
                              derive_translation_constant, _IMAGES,
                              _TOP_QUAD_PLANES)
from qrdyn.zorich import HORIZON, PrecisionLost

TABLE = {
    "P0": ((0, 0, 0), (0, 0, 0)),
    "Q0": ((0, 2, 0), (0, 2, 0)),
    "R0": ((2, 2, 0), (2, 2, 0)),
    "S0": ((2, 0, 0), (2, 0, 0)),
    "P1": ((0, 0, 1), (0, 0, 4)),
    "Q1": ((0, 2, 1), (0, 2, 3.5)),
    "R1": ((2, 2, 1), (2, 2, 0.5)),
    "S1": ((2, 0, 1), (2, 0, -0.4)),
    "T1": ((0, 1, 1), (0, 4, 4)),
    "U1": ((1, 2, 1), (4.5, 2, 2)),
    "V1": ((2, 1, 1), (2, 4, -0.4)),
    "W1": ((1, 0, 1), (6, 0, 2)),
    "X1": ((1, 1, 1), (6, 4, 2)),
}


class TestVertexTable:
    def test_prescribed_vertices_and_images(self, build):
        vt = build.vertex_table
        for name, (coord, image) in TABLE.items():
            assert np.array_equal(vt.coord(name), np.array(coord))
            assert np.array_equal(vt.image(name), np.array(image))

    def test_level_L_images_follow_the_closed_form(self, build):
        vt = build.vertex_table
        L = build.constants.L
        e = math.exp(L)
        expected = {
            "PL": (0, 0, L + e), "WL": (1 + e, 0, L), "XL": (1 + e, 1 + e, L),
            "TL": (0, 1 + e, L), "SL": (2, 0, L - e), "VL": (2, 1 + e, L),
            "RL": (2, 2, L + e), "UL": (1 + e, 2, L), "QL": (0, 2, L - e),
        }
        for name, img in expected.items():
            assert np.allclose(vt.image(name), img, rtol=0, atol=1e-12)

    def test_image_quads_planar_in_stated_planes(self, build):
        vt = build.vertex_table
        for names, coeff, rhs in _TOP_QUAD_PLANES:
            for n in names:
                assert abs(float(np.dot(coeff, vt.image(n))) - rhs) <= 1e-12

    def test_tampered_image_rejected(self, monkeypatch):
        bad = dict(_IMAGES)
        bad["X1"] = (6.0, 4.0, 2.01)
        monkeypatch.setattr("qrdyn.global_map._IMAGES", bad)
        with pytest.raises(ConstructionError):
            build_vertex_table(4.4)

    def test_uncertifiable_codomain_centre_names_the_chart(self, build, monkeypatch):
        # a centre on the image solid's boundary (one of its vertices)
        # fails the star test when the solid is built
        real = StarShape.polyhedron
        monkeypatch.setattr(StarShape, "polyhedron",
                            lambda verts, facets, centre: real(verts, facets, verts[0]))
        with pytest.raises(ConstructionError,
                           match="star centre for image of A''1: star test fails"):
            build_asecond_charts(build.vertex_table, build.constants.L,
                                 build.g.by_id["A'"])


class TestChartValues:
    def test_table_vertices_are_interpolated(self, gmap):
        for name, (coord, image) in TABLE.items():
            got = gmap.eval(coord)
            assert np.allclose(got, image, atol=1e-11), name

    def test_identity_on_bottom_square(self, gmap):
        rng = np.random.default_rng(0)
        for _ in range(300):
            p = (rng.random() * 2, rng.random() * 2, 0.0)
            assert np.allclose(gmap.eval(p), p, atol=1e-12)

    def test_affine_edge_midpoint(self, gmap):
        assert np.allclose(gmap.eval((0, 0.5, 1.0)), (0, 2, 4), atol=1e-12)

    def test_level_L_face_is_the_formula(self, gmap):
        from qrdyn.zorich import F_eval
        rng = np.random.default_rng(1)
        L = gmap.L
        for _ in range(300):
            p = np.array([rng.random() * 4, rng.random() * 4, L])
            assert np.allclose(gmap.eval(p), F_eval(p), atol=1e-9)

    def test_affine_image_of_top_interior_edge(self, gmap):
        # on the segment {x2 = 1, x3 = L, 0 <= x1 <= 1} the closed form is
        # affine, so the chart maps it affinely between the endpoint images
        L = gmap.L
        e = math.exp(L)
        for t in (0.0, 0.25, 0.5, 0.8, 1.0):
            got = gmap.eval((t, 1.0, L))
            want = (1 - t) * np.array([0, 1 + e, L]) + t * np.array([1 + e, 1 + e, L])
            assert np.allclose(got, want, rtol=1e-12, atol=1e-9)

    def test_boundary_planes_properties(self, gmap):
        # first output coordinate pinned on {x1 = 0} and {x1 = 2}, second on
        # {x2 = 0} and {x2 = 2}, throughout the slab
        rng = np.random.default_rng(2)
        L = gmap.L
        for _ in range(500):
            y, z = rng.random() * 2, rng.random() * L
            assert abs(gmap.eval((0.0, y, z))[0]) <= 1e-10
            assert abs(gmap.eval((2.0, y, z))[0] - 2.0) <= 1e-10
            assert abs(gmap.eval((y, 0.0, z))[1]) <= 1e-10
            assert abs(gmap.eval((y, 2.0, z))[1] - 2.0) <= 1e-10


class TestRegions:
    def test_identity_half_space(self, gmap):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = rng.standard_normal(3) * 5
            p[2] = -abs(p[2]) - 1e-9
            assert np.array_equal(gmap.eval(p), p)

    def test_F_above_level(self, gmap):
        from qrdyn.zorich import F_eval
        rng = np.random.default_rng(4)
        for _ in range(200):
            p = rng.standard_normal(3) * 3
            p[2] = gmap.L + abs(p[2]) + 1e-9
            assert np.allclose(gmap.eval(p), F_eval(p), atol=0, rtol=1e-15)

    def test_periodicity_on_slab(self, gmap):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(1000):
            x = rng.random(3) * np.array([8, 8, gmap.L]) - np.array([4, 4, 0])
            gx = gmap.eval(x)
            for c in ((4.0, 0, 0), (0, 4.0, 0)):
                d = gmap.eval(x + np.array(c)) - gx - np.array(c)
                worst = max(worst, float(np.max(np.abs(d))))
        assert worst <= 1e-10

    def test_reflection_equivariance_on_slab(self, gmap):
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(1000):
            x = rng.random(3) * np.array([8, 8, gmap.L]) - np.array([4, 4, 0])
            gx = gmap.eval(x)
            r1 = np.array([4 - x[0], x[1], x[2]])
            d1 = gmap.eval(r1) - np.array([4 - gx[0], gx[1], gx[2]])
            r2 = np.array([x[0], 4 - x[1], x[2]])
            d2 = gmap.eval(r2) - np.array([gx[0], 4 - gx[1], gx[2]])
            worst = max(worst, float(np.max(np.abs(d1))), float(np.max(np.abs(d2))))
        assert worst <= 1e-10

    def test_image_height_bound_on_slab(self, build):
        rng = np.random.default_rng(7)
        cap = build.constants.L + math.exp(build.constants.L)
        for _ in range(2000):
            x = rng.random(3) * np.array([8, 8, build.constants.L])
            assert build.g.eval(x)[2] <= cap + 1e-9


def _bits(v):
    """The IEEE bytes of a float triple: equal only if bitwise equal."""
    return struct.pack("<3d", *v)


class TestShiftedMap:
    def test_translation_constant_value(self, build):
        L = build.constants.L
        assert build.L_prime == pytest.approx(L + math.exp(L) + 1.0, abs=1e-12)

    def test_vertex_maximum_attained_at_beam_corner_images(self, build):
        vt = build.vertex_table
        tops = sorted(((float(vt.image(n)[2]), n) for n in
                       ("PL", "QL", "RL", "SL")), reverse=True)
        assert tops[0][1] in ("PL", "RL")
        assert tops[0][0] == build.L_prime - 1.0

    def test_f_is_g_minus_translation(self, build, fmap, gmap):
        rng = np.random.default_rng(8)
        for _ in range(200):
            x = rng.random(3) * np.array([6, 6, gmap.L + 2]) - np.array([3, 3, 1])
            assert np.allclose(fmap.eval(x),
                               gmap.eval(x) - np.array([0, 0, build.L_prime]),
                               atol=1e-12)

    def test_slab_maps_below_zero(self, fmap):
        rng = np.random.default_rng(9)
        for _ in range(500):
            x = rng.random(3) * np.array([8, 8, fmap.L]) - np.array([4, 4, 0])
            assert fmap.eval(x)[2] <= -1.0 + 1e-9

    def _dispatch_points(self, L):
        rng = np.random.default_rng(23)
        pts = np.concatenate([
            rng.uniform([-9, -9, -3], [9, 9, 0], (300, 3)),
            rng.uniform([-9, -9, 0], [9, 9, L], (600, 3)),
            rng.uniform([-9, -9, L], [9, 9, L + 6], (300, 3))]).tolist()
        # the level planes, -0.0, and x1, x2 on the reflection lines
        # (x = 2 mod 4) and on the period-4 lines (x = 0 mod 4)
        lines = (-6.0, -4.0, -2.0, -0.0, 0.0, 0.7, 2.0, 4.0, 6.0, 8.0)
        planes = (-math.inf, -1.0, -0.0, 0.0, 0.5, 1.0, 2.5, L, L + 0.5, math.inf)
        return pts + [(x, y, z) for x in lines for y in lines for z in planes]

    def test_f_is_g_shifted_bitwise(self, fmap, gmap):
        lp = fmap.L_prime
        for p in self._dispatch_points(gmap.L):
            g0, g1, g2 = gmap.eval3(*p)
            assert _bits(fmap.eval3(*p)) == _bits((g0, g1, g2 - lp)), p
        past = math.nextafter(HORIZON, math.inf)
        for p in ((past, 0.5, gmap.L + 1.0), (0.5, -past, gmap.L + 1.0)):
            for m in (fmap, gmap):
                with pytest.raises(PrecisionLost):
                    m.eval3(*p)

    def test_g_is_not_shifted_by_a_later_L_prime(self, build, gmap):
        # build_maps assigns g.L_prime after assembling g
        g = assemble_g(gmap.charts, gmap.L)
        pts = self._dispatch_points(gmap.L)
        before = [g.eval3(*p) for p in pts]
        g.L_prime = build.L_prime
        for p, want in zip(pts, before):
            assert _bits(g.eval3(*p)) == _bits(want), p
            assert _bits(gmap.eval3(*p)) == _bits(want), p
        ident = (-0.0, 0.5, -1.0)
        assert _bits(g.eval3(*ident)) == _bits(ident)

    def test_rederive_translation_constant(self, gmap, build):
        lp = derive_translation_constant(gmap)
        assert lp == build.L_prime

    def test_raised_vertex_image_rejected(self, gmap):
        # scale one cell of A' so that one of its vertex images rises above
        # the highest image vertex of the chart
        chart = copy.copy(gmap.by_id["A'"])
        table = copy.copy(chart.table)
        table.linear = table.linear.copy()
        k = int(np.argmax(table.vertex_images()[1][:, 2]))
        cell = next(j for j, dom in enumerate(table.polygons)
                    if k < sum(len(p) for p in table.polygons[:j + 1]))
        table.linear[cell] *= 1.5
        chart.table = table
        top = float(chart.map.codomain.vertices[:, 2].max())
        raised = types.SimpleNamespace(mode="g", charts=[chart], max_image_height=top)
        assert derive_translation_constant(
            types.SimpleNamespace(mode="g", charts=[gmap.by_id["A'"]],
                                  max_image_height=top)) == top + 1.0
        with pytest.raises(ConstructionError, match="A'"):
            derive_translation_constant(raised)


class TestInverse:
    def test_aprime_round_trip(self, build):
        chart = build.g.by_id["A'"].map
        rng = np.random.default_rng(10)
        worst = 0.0
        for _ in range(2000):
            p = rng.random(3) * np.array([2, 2, 1])
            q = chart.eval(tuple(p))
            back = np.asarray(chart.inverse(q))
            worst = max(worst, float(np.linalg.norm(back - p)))
        assert worst <= 1e-8

    def test_upper_cell_round_trip(self, build):
        chart = build.g.by_id["A''1"].map
        L = build.constants.L
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(1000):
            p = np.array([rng.random(), rng.random(), 1 + rng.random() * (L - 1)])
            q = chart.eval(tuple(p))
            back = np.asarray(chart.inverse(q))
            worst = max(worst, float(np.linalg.norm(back - p)))
        assert worst <= 1e-8


SEAM_KEYS = {"identity/slab x3=0", "slab/F x3=L", "A'/A'' x3=1", "cells x1=1",
             "cells x2=1", "reflection x1=2", "reflection x2=2",
             "translation x1=0", "translation x2=0"}


class TestAudits:
    def test_seams(self, gmap):
        rep = audit_seams(gmap)
        assert rep.passed, rep.per_interface
        assert set(rep.per_interface) == SEAM_KEYS
        assert rep.worst_scaled <= 1e-12

    def test_orientation(self, gmap):
        rep = audit_orientation(gmap)
        assert rep.passed
        assert rep.min_det > 0
        dets = {c.cell_id: np.linalg.det(c.table.linear).min() for c in gmap.charts}
        assert rep.per_chart == pytest.approx(dets, rel=1e-12)
        assert rep.min_det == pytest.approx(0.0648648649, rel=1e-9)
        assert rep.samples == 141

    def test_dilatation_report(self, gmap):
        rep = audit_dilatation(gmap)
        assert math.isfinite(rep.k_sup)
        assert rep.k_sup >= rep.k_median >= 1.0
        assert rep.k_sup == pytest.approx(1.72e6, rel=1e-2)
        assert rep.samples == 141

    def test_audits_accept_the_benchmark_arguments(self, gmap):
        # the benchmark passes sample counts and seeds; the exact audits
        # ignore them
        assert audit_seams(gmap, samples=200, seed=5) == audit_seams(gmap)
        assert (audit_orientation(gmap, samples_per_chart=75, seed=5)
                == audit_orientation(gmap))
        assert audit_dilatation(gmap, samples=100, seed=5) == audit_dilatation(gmap)

    def test_perturbed_cell_breaks_a_seam(self, gmap):
        # lift the vertex images of one A''1 cell on the face x1 = 1
        charts = {c.cell_id: c for c in gmap.charts}
        chart = copy.copy(charts["A''1"])
        table = copy.copy(chart.table)
        cell = table.facet_of.index(1)
        table.polygons = list(table.polygons)
        table.linear = table.linear.copy()
        table.linear[cell] = table.linear[cell] * 1.01
        chart.table = table
        charts["A''1"] = chart
        broken = copy.copy(gmap)
        broken.charts = list(charts.values())
        broken._cells = [charts[f"A''{i}"] for i in (1, 2, 3, 4)]
        rep = audit_seams(broken)
        assert not rep.passed
        assert rep.per_interface["cells x1=1"] > 1e-3

    def test_boundary_map_validations(self, build):
        for cid, rep in build.validations.items():
            assert rep.passed, (cid, rep)

    def test_constants_report_text(self, build):
        text = constants_report_text(build)
        assert "c0 =" in text and "L_prime =" in text
        assert "chart.A'.codomain_theta" in text
        for line in text.strip().splitlines():
            assert "=" in line


class TestDispatchTies:
    def test_cell_seam_values_agree(self, build):
        g = build.g
        L = build.constants.L
        rng = np.random.default_rng(12)
        for _ in range(200):
            z = 1 + rng.random() * (L - 1)
            y = rng.random()
            a = g.by_id["A''1"].map.eval((1.0, y, z))
            b = g.by_id["A''2"].map.eval((1.0, y, z))
            assert np.allclose(a, b, atol=1e-11)
        for _ in range(200):
            x, y = rng.random() * 2, rng.random() * 2
            a = g.by_id["A'"].map.eval((x, y, 1.0))
            cell = g._pick_cell(x, y, 1.5)
            b = cell.map.eval((x, y, 1.0))
            assert np.allclose(a, b, atol=1e-11)


class TestBuildWork:
    def test_every_certificate_sign_is_decided_in_floats(self):
        # the star tests and the boundary-map orientations of a whole build
        # make no Fraction: the float filters of geometry._det3_signs and
        # geometry._area_signs decide every sign, so code that bypasses them
        # fails here instead of showing up only as a slower build
        with mock.patch("qrdyn.geometry.Fraction", wraps=Fraction) as geo, \
                mock.patch("qrdyn.star_extend.Fraction", wraps=Fraction,
                           create=True) as ext:
            build_maps()
            assert (geo.call_count, ext.call_count) == (0, 0)
            # the count is live: a zero determinant is evaluated exactly
            assert geometry._det3_signs(np.ones((1, 3, 3)), np.zeros(3))[0][0] == 0
            assert geo.call_count > 0

    def test_small_systems_are_solved_in_stacks(self):
        # a build solves its 141 cells, 532 sector probes and 141 image-cell
        # fans in stacks: per chart table one solve for the linear parts and
        # one for the sector probes, one inverse for the linear parts and one
        # for the fan frames; per polyhedron one solve (the cone test of the
        # vertex term) and one inverse (the cone frames); per chart one solve
        # in the boundary-map validation.  One call per cell or sector would
        # take hundreds
        with mock.patch("numpy.linalg.solve", wraps=np.linalg.solve) as solve, \
                mock.patch("numpy.linalg.inv", wraps=np.linalg.inv) as inv:
            build = build_maps()
        charts, polyhedra = len(build.g.charts), 2 * len(build.g.charts)
        assert solve.call_count == 2 * charts + polyhedra + charts
        assert inv.call_count == 2 * charts + polyhedra
