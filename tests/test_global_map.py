import collections
import contextlib
import copy
import functools
import itertools
import math
import re
import struct
import types
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from oracles import (_cell_index, cell_facets_by_planes, face_centre, fan_rows, image_solid,
                     star_test, vertex_images)
from qrdyn import geometry, global_map, star_extend, zorich
from qrdyn.global_map import (CellTable, ConstructionError, GlobalMap, _CHARTS,
                              audit_dilatation, audit_orientation, audit_seams,
                              build_aprime_chart, build_asecond_charts, build_maps,
                              build_report, build_vertex_table, chart_lipschitz,
                              constants_report_text,
                              derive_translation_constant, _IMAGE_FACE_CENTRES, _IMAGES)
from qrdyn.geometry import GeometryError
from qrdyn.pieces import face_centres
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


def eval_at(m, p):
    """The map m at the point p, as an array."""
    return np.asarray(m.eval3(*map(float, p)))


class TestVertexTable:
    def test_prescribed_vertices_and_images(self, build):
        vt = build.vertex_table
        for name, (coord, image) in TABLE.items():
            assert np.array_equal(vt.coords[name], np.array(coord))
            assert np.array_equal(vt.images[name], np.array(image))

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
            assert np.allclose(vt.images[name], img, rtol=0, atol=1e-12)

    def test_image_quads_planar_in_stated_planes(self, build):
        # the images of the four level-1 squares are the top pieces of A',
        # serving its image facets 5 to 8, whose planes hold them within
        # the validation's tolerance
        vt, rmap = build.vertex_table, build.g.by_id["A'"].map
        normals, offsets = rmap.facet_planes
        tol = max(rmap.tol * 1e3, 1e-12 * rmap.diameter)
        assert build.validations["A'"].worst_boundary_dev <= tol
        for j, face in enumerate(_CHARTS["A'"]["facets"][5], start=5):
            for n in face.split():
                assert abs(float(normals[j] @ vt.images[n]) - offsets[j]) <= tol, (face, n)

    def test_tampered_image_rejected(self, monkeypatch):
        # X1's image lifted by 0.01 bends the four image quads of the top
        # pieces of A' out of their planes, which its validation refuses
        bad = dict(_IMAGES)
        bad["X1"] = (6.0, 4.0, 2.01)
        monkeypatch.setattr("qrdyn.global_map._IMAGES", bad)
        with pytest.raises(ConstructionError, match="validation failed for A': ") as err:
            build_maps()
        assert "worst_boundary_dev=0.00316" in str(err.value)

    @pytest.mark.parametrize("face", ["P0 P1", "P0"])
    def test_a_face_of_fewer_than_three_vertices_names_the_chart(self, build, monkeypatch,
                                                                  face):
        # a fan face of two names, or one, on A''s facet 0: refused by name
        # before its area centroid is taken, which no such loop has
        facets = {**_CHARTS["A'"]["facets"], 0: [face]}
        monkeypatch.setitem(_CHARTS, "A'", dict(_CHARTS["A'"], facets=facets))
        with pytest.raises(ConstructionError,
                           match=f"^chart A': face '{face}' has {len(face.split())} vertices; "
                                 "a face needs 3 or more$"):
            build_aprime_chart(build.vertex_table)
        with pytest.raises(GeometryError, match="a face needs 3 or more vertices, not 2"):
            face_centres([[(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)]])

    @pytest.mark.parametrize("cid", ["A'", "A''1", "A''2", "A''3", "A''4"])
    def test_uncertifiable_codomain_centre_names_the_chart(self, build, monkeypatch, cid):
        # a centre on one image solid's boundary (the image of its first
        # face's first vertex) fails the cone signs of that chart, one map
        # of the chart phase's one radial_maps pass (A' alone, or the four
        # A'' charts)
        phase = build_aprime_chart if cid == "A'" else (
            lambda vt: build_asecond_charts(vt, build.g.by_id["A'"]))
        vertex = _CHARTS[cid]["facets"][0][0].split()[0]
        monkeypatch.setitem(_CHARTS, cid, dict(
            _CHARTS[cid], centre=tuple(build.vertex_table.images[vertex].tolist())))
        with pytest.raises(ConstructionError,
                           match=f"^chart {cid}: facet .* not oriented as its domain cone$"):
            phase(build.vertex_table)


def aprime_grid():
    """The A' codomain centres of the 0.5 grid over [2, 8] x [-2, 4] x [0, 5]
    (1859 of them)."""
    axes = [np.arange(lo, hi + 0.25, 0.5) for lo, hi in ((2, 8), (-2, 4), (0, 5))]
    return np.array(list(itertools.product(*axes)))


def asecond_centres(count=300):
    """The first ``count`` seeded A'' codomain centres, uniform over
    [-1, 12]^2 x [0, 100] (``default_rng(1)``), then (5, 1, 2)."""
    rng = np.random.default_rng(1)
    return np.vstack([rng.uniform([-1, -1, 0], [12, 12, 100], (count, 3)), [(5.0, 1.0, 2.0)]])


def cone_sign_passes(rmap, centres, chunk=256):
    """Where the built chart ``rmap``, with its codomain centre moved to each
    of ``centres``, passes its cone signs, in stacked passes of ``chunk``
    centres (each sign row of a pass takes the degree count's first
    direction too)."""
    fans = fan_rows(rmap)
    n = len(fans)
    passes = np.ones(len(centres), dtype=bool)
    for k in range(0, len(centres), chunk):
        part = centres[k:k + chunk]
        rows = n * len(part)
        bad = star_extend._cone_signs(rmap.points, rmap.targets, np.tile(fans, (len(part), 1)),
                                      np.tile(rmap._a, (rows, 1)), np.repeat(part, n, axis=0),
                                      np.tile(star_extend._DIRECTIONS[0], (rows, 1)))[1]
        passes[k + bad // n] = False
    return passes


# the A' centres at which _build_maps raised numpy's LinAlgError (from the
# inverse of the image fan frames) before the cone signs came first
LINALG_CENTRES = [(3.0, -2.0, 1.5), (4.0, -2.0, 3.5), (4.5, -2.0, 1.0), (4.5, -1.0, 2.5),
                  (7.5, 3.5, 1.5)]


# each chart's grid of codomain centres, and how many of them pass
GRIDS = {"A'": (aprime_grid, 13), "A''1": (asecond_centres, 191),
         "A''4": (asecond_centres, 135)}


@pytest.fixture(scope="module")
def grid_passes(build):
    """Where each chart of ``GRIDS`` passes its cone signs about the
    centres of its grid."""
    return {cid: cone_sign_passes(build.g.by_id[cid].map, grid())
            for cid, (grid, _) in GRIDS.items()}


class TestCentreGrid:
    """The cone signs against the oracle star test, on the built charts with
    the codomain centre b moved over a grid, and full builds of the chart
    phases about grid centres."""

    @pytest.mark.parametrize("cid", list(GRIDS))
    def test_cone_signs_pass_where_the_star_test_passes(self, cid, build, grid_passes):
        grid, passing = GRIDS[cid]
        star = star_test(image_solid(build.g.by_id[cid].map), grid())
        assert np.array_equal(grid_passes[cid], [first is None for first in star])
        assert grid_passes[cid].sum() == passing

    @pytest.mark.parametrize("cid", list(GRIDS))
    def test_every_centre_builds_or_names_its_chart(self, cid, build, grid_passes, monkeypatch):
        # a strided part of the A' grid with its five former LinAlgError
        # centres, a centre on a facet plane and every passing centre; a
        # prefix of the A'' centres with (5, 1, 2).  A centre that fails
        # raises ConstructionError naming its chart, never a bare
        # GeometryError or LinAlgError, and one that builds gives positive
        # cell determinants
        rmap = build.g.by_id[cid].map
        if cid == "A'":
            grid = aprime_grid()
            centres = np.unique(np.vstack([grid[::23], LINALG_CENTRES, [(2.0, -2.0, 0.0)],
                                           grid[grid_passes[cid]]]), axis=0)
            phase = lambda vt: [build_aprime_chart(vt)]
        else:
            centres = asecond_centres(23)
            phase = functools.partial(build_asecond_charts, aprime=build.g.by_id["A'"])
        built = 0
        for c in centres.tolist():
            monkeypatch.setitem(_CHARTS[cid], "centre", tuple(c))
            try:
                charts = phase(build.vertex_table)
            except ConstructionError as err:
                assert re.match(f"chart {cid}: facet .* not oriented as its domain cone$",
                                str(err)), err
                continue
            global_map.certify_cell_orientation(global_map.CellTable(charts))
            built += 1
        assert built == cone_sign_passes(rmap, centres).sum() > 0


class TestChartTable:
    def test_facet_faces_lie_in_their_box_facet(self, build):
        # facet 2k is the face x_k = lo[k], facet 2k + 1 the face x_k = hi[k]
        vt = build.vertex_table
        for cid, spec in _CHARTS.items():
            for facet, faces in spec["facets"].items():
                level = spec["box"][facet % 2][facet // 2]
                level = vt.L if level == "L" else level
                for face in faces:
                    for name in face.split():
                        assert vt.coords[name][facet // 2] == level, (cid, facet, face)

    def test_every_face_names_one_polygon(self, build):
        # a face string is the loop of one polygon: at least three distinct
        # vertex names of the table, and nothing else
        names = set(build.vertex_table.coords)
        for cid, spec in _CHARTS.items():
            for face in [f for faces in spec["facets"].values() for f in faces]:
                loop = face.split()
                assert " ".join(loop) == face and len(set(loop)) == len(loop) >= 3, (cid, face)
                assert set(loop) <= names, (cid, face)

    def test_codomain_facets_are_faces_of_the_charts_pieces(self, build):
        # each chart lists every face once, on one of its six box facets,
        # and its image solid's facet k is the image of its k-th face
        # counted facet by facet: the images of that face's vertices, in its
        # order, as the oracle chains the loop of the k-th piece's image
        images = build.vertex_table.images
        for cid, spec in _CHARTS.items():
            faces = [face for facet in range(6) for face in spec["facets"][facet]]
            assert sorted(spec["facets"]) == list(range(6)), cid
            assert len(set(faces)) == len(faces), cid
            cod = image_solid(build.g.by_id[cid].map)
            assert len(cod.facet_polys) == len(faces), cid
            for face, poly in zip(faces, cod.facet_polys):
                assert cod.vertices[poly].tolist() == [images[n].tolist()
                                                       for n in face.split()], (cid, face)

    def test_cell_facets_are_the_nearest_planes(self, build):
        # the facets that construction records for each cell are its box
        # facet, which the boundary-map validation once searched for by
        # planes, and the place of its piece counted facet by facet; the
        # cell's images lie in the plane of that codomain facet
        for chart in build.g.charts:
            rmap = chart.map
            assert rmap.cell_facets.tolist() == [list(f) for f in cell_facets_by_planes(rmap)]
            normals, offsets = rmap.facet_planes
            at = np.repeat(rmap.cell_facets[:, 1], rmap.sizes)
            dev = np.abs((rmap.targets * normals[at]).sum(axis=1) - offsets[at])
            assert dev.max() <= 10 * rmap.tol, chart.cell_id

    def test_charts_are_the_table(self, build):
        # each chart's pieces are those its table names, in facet order, and
        # charts that list the same face share its piece
        holder = {}
        for cid, spec in _CHARTS.items():
            rmap = build.g.by_id[cid].map
            assert sorted(rmap.pieces_by_facet) == list(range(6))
            for facet, faces in spec["facets"].items():
                assert len(rmap.pieces_by_facet[facet]) == len(faces), (cid, facet)
                for face, piece in zip(faces, rmap.pieces_by_facet[facet]):
                    assert holder.setdefault(face, piece) is piece, (cid, face)


def _fraction_face_centre(loop):
    """``oracles.face_centre`` of a face loop in exact arithmetic: the fan
    from the first vertex weighted by the signed areas along the Newell
    normal, the area centroid of a planar face, in Fraction."""
    p0 = [Fraction(x) for x in loop[0]]
    rel = [[Fraction(x) - o for x, o in zip(p, p0)] for p in loop[1:]]
    fans = [(a, b, (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                    a[0] * b[1] - a[1] * b[0])) for a, b in zip(rel, rel[1:])]
    n = [sum(c[k] for *_, c in fans) for k in range(3)]
    weights = [sum(n[k] * c[k] for k in range(3)) for *_, c in fans]
    return [o + sum(w * (a[k] + b[k]) for w, (a, b, _) in zip(weights, fans))
            / (3 * sum(weights)) for k, o in enumerate(p0)]


def _face_fans(build):
    """The build's distinct face fans: the pieces of more than one cell."""
    return list({id(piece): piece for chart in build.g.charts
                 for pieces in chart.map.pieces_by_facet.values() for piece in pieces
                 if len(piece) > 1}.values())


class TestStatedCentres:
    """The atlas's centres: the stated codomain and image face centres, and
    the area centroids of the other faces."""

    def test_stated_centres_are_dyadic(self):
        # exact rationals of denominator at most 2^6, which exact tables of
        # the cells can take as given
        stated = ([spec["centre"] for spec in _CHARTS.values()]
                  + list(_IMAGE_FACE_CENTRES.values()))
        assert len(stated) == 7
        for centre in stated:
            assert len(centre) == 3
            for x in centre:
                assert isinstance(x, float) and x.as_integer_ratio()[1] <= 2 ** 6, centre

    def test_stated_face_centres_name_radial_faces(self):
        # no entry outlives its face: each names a face of a chart that is
        # neither at level 0 (the identity) nor at level L (F)
        faces = {face for spec in _CHARTS.values() for faces in spec["facets"].values()
                 for face in faces}
        for face in _IMAGE_FACE_CENTRES:
            assert face in faces
            assert {n[1:] for n in face.split()} not in ({"0"}, {"L"}), face

    @pytest.mark.parametrize("face, cell", [("P0 P1 T1 Q1 Q0", "facet 0 piece 0 cell 2"),
                                            ("S0 S1 V1 R1 R0", "facet 1 piece 0 cell 3")])
    def test_dropping_a_stated_centre_is_refused(self, face, cell, build, monkeypatch):
        # the image face's area centroid does not see the whole image face:
        # the exact cone signs refuse the fan about it, naming A' and the cell
        monkeypatch.delitem(_IMAGE_FACE_CENTRES, face)
        with pytest.raises(ConstructionError) as err:
            build_aprime_chart(build.vertex_table)
        assert str(err.value) == (f"chart A': {cell}: the image cone of fan triangle 0 about "
                                  "the codomain centre [4.5, 1.5, 2.0] is not oriented as its "
                                  "domain cone")

    def test_domain_face_centres_lie_on_their_box_facet(self, build):
        # facet 2k is the face x_k = lo[k], facet 2k + 1 the face x_k = hi[k]
        fans = 0
        for chart in build.g.charts:
            rmap = chart.map
            for facet, pieces in rmap.pieces_by_facet.items():
                level = (rmap.domain.lo, rmap.domain.hi)[facet % 2][facet // 2]
                for piece in pieces:
                    if len(piece) > 1:
                        assert {cell[0][0][facet // 2] for cell in piece} == {level}
                        fans += 1
        # the fans of the A' sides and top, and of each A'' chart's sides
        # and its bottom, the A' piece on its quadrant
        assert fans == 8 + 4 * 7

    def test_face_centres_are_area_centroids(self, build):
        # each centre of a fan that is not stated is the face_centre of its
        # loop, within 4 ulps of the largest vertex coordinate of the exact
        # area centroid
        stated = set(_IMAGE_FACE_CENTRES.values())
        fans = _face_fans(build)
        assert len(fans) == 24
        centroids = 0
        for piece in fans:
            for j in (0, 1):
                loop = [cell[j][1] for cell in piece]
                centre = piece[0][j][0]
                if centre in stated:
                    continue
                assert centre == face_centre(loop)
                ulp = math.ulp(max(abs(x) for p in loop for x in p))
                for got, want in zip(centre, _fraction_face_centre(loop)):
                    assert abs(Fraction(got) - want) <= 4 * ulp, (loop, centre)
                centroids += 1
        assert centroids == 2 * 24 - 2


class TestImageSolids:
    # the two triangles of each interior face, by their facet numbers in an
    # A'' image solid: the places of their pieces, counted facet by facet
    INTERIOR = {"A''1": {1: "W1 X1 WL", 2: "X1 XL WL", 4: "TL X1 XL", 5: "T1 X1 TL"},
                "A''2": {0: "W1 X1 WL", 1: "X1 XL WL", 4: "X1 V1 VL", 5: "X1 VL XL"},
                "A''3": {1: "X1 UL XL", 2: "X1 U1 UL", 3: "TL X1 XL", 4: "T1 X1 TL"},
                "A''4": {0: "X1 UL XL", 1: "X1 U1 UL", 3: "X1 V1 VL", 4: "X1 VL XL"}}

    def test_interior_faces_keep_their_facet_numbers(self, build):
        vt = build.vertex_table
        name_of = {tuple(img.tolist()): n for n, img in vt.images.items()}
        for cid, tris in self.INTERIOR.items():
            rmap = build.g.by_id[cid].map
            cod = image_solid(rmap)
            for k, tri in tris.items():
                names = [name_of[tuple(cod.vertices[i].tolist())] for i in cod.facet_polys[k]]
                assert names == tri.split(), (cid, k)
                # the cells of facet k are the cells of the piece of its face
                fd = [f for f, faces in _CHARTS[cid]["facets"].items() if tri in faces]
                assert set(rmap.cell_facets[rmap.cell_facets[:, 1] == k, 0].tolist()) \
                    == set(fd), (cid, k)


class TestChartValues:
    def test_table_vertices_are_interpolated(self, gmap):
        for name, (coord, image) in TABLE.items():
            got = eval_at(gmap, coord)
            assert np.allclose(got, image, atol=1e-11), name

    def test_identity_on_bottom_square(self, gmap):
        rng = np.random.default_rng(0)
        for _ in range(300):
            p = (rng.random() * 2, rng.random() * 2, 0.0)
            assert np.allclose(eval_at(gmap, p), p, atol=1e-12)

    def test_affine_edge_midpoint(self, gmap):
        assert np.allclose(eval_at(gmap, (0, 0.5, 1.0)), (0, 2, 4), atol=1e-12)

    def test_level_L_face_is_the_formula(self, gmap):
        from qrdyn.zorich import F_scalar
        rng = np.random.default_rng(1)
        L = gmap.L
        for _ in range(300):
            p = np.array([rng.random() * 4, rng.random() * 4, L])
            assert np.allclose(eval_at(gmap, p), F_scalar(*p), atol=1e-9)

    def test_affine_image_of_top_interior_edge(self, gmap):
        # on the segment {x2 = 1, x3 = L, 0 <= x1 <= 1} the closed form is
        # affine, so the chart maps it affinely between the endpoint images
        L = gmap.L
        e = math.exp(L)
        for t in (0.0, 0.25, 0.5, 0.8, 1.0):
            got = eval_at(gmap, (t, 1.0, L))
            want = (1 - t) * np.array([0, 1 + e, L]) + t * np.array([1 + e, 1 + e, L])
            assert np.allclose(got, want, rtol=1e-12, atol=1e-9)

    def test_boundary_planes_properties(self, gmap):
        # first output coordinate pinned on {x1 = 0} and {x1 = 2}, second on
        # {x2 = 0} and {x2 = 2}, throughout the slab
        rng = np.random.default_rng(2)
        L = gmap.L
        for _ in range(500):
            y, z = rng.random() * 2, rng.random() * L
            assert abs(eval_at(gmap, (0.0, y, z))[0]) <= 1e-10
            assert abs(eval_at(gmap, (2.0, y, z))[0] - 2.0) <= 1e-10
            assert abs(eval_at(gmap, (y, 0.0, z))[1]) <= 1e-10
            assert abs(eval_at(gmap, (y, 2.0, z))[1] - 2.0) <= 1e-10


class TestRegions:
    def test_identity_half_space(self, gmap):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = rng.standard_normal(3) * 5
            p[2] = -abs(p[2]) - 1e-9
            assert np.array_equal(eval_at(gmap, p), p)

    def test_F_above_level(self, gmap):
        from qrdyn.zorich import F_scalar
        rng = np.random.default_rng(4)
        for _ in range(200):
            p = rng.standard_normal(3) * 3
            p[2] = gmap.L + abs(p[2]) + 1e-9
            assert np.allclose(eval_at(gmap, p), F_scalar(*p), atol=0, rtol=1e-15)

    def test_periodicity_on_slab(self, gmap):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(1000):
            x = rng.random(3) * np.array([8, 8, gmap.L]) - np.array([4, 4, 0])
            gx = eval_at(gmap, x)
            for c in ((4.0, 0, 0), (0, 4.0, 0)):
                d = eval_at(gmap, x + np.array(c)) - gx - np.array(c)
                worst = max(worst, float(np.max(np.abs(d))))
        assert worst <= 1e-10

    def test_reflection_equivariance_on_slab(self, gmap):
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(1000):
            x = rng.random(3) * np.array([8, 8, gmap.L]) - np.array([4, 4, 0])
            gx = eval_at(gmap, x)
            r1 = np.array([4 - x[0], x[1], x[2]])
            d1 = eval_at(gmap, r1) - np.array([4 - gx[0], gx[1], gx[2]])
            r2 = np.array([x[0], 4 - x[1], x[2]])
            d2 = eval_at(gmap, r2) - np.array([gx[0], 4 - gx[1], gx[2]])
            worst = max(worst, float(np.max(np.abs(d1))), float(np.max(np.abs(d2))))
        assert worst <= 1e-10

    def test_image_height_bound_on_slab(self, build):
        rng = np.random.default_rng(7)
        cap = build.constants.L + math.exp(build.constants.L)
        for _ in range(2000):
            x = rng.random(3) * np.array([8, 8, build.constants.L])
            assert eval_at(build.g, x)[2] <= cap + 1e-9


def _bits(v):
    """The IEEE bytes of a float triple: equal only if bitwise equal."""
    return struct.pack("<3d", *v)


class TestShiftedMap:
    def test_translation_constant_value(self, build):
        L = build.constants.L
        assert build.L_prime == pytest.approx(L + math.exp(L) + 1.0, abs=1e-12)

    def test_vertex_maximum_attained_at_beam_corner_images(self, build):
        vt = build.vertex_table
        tops = sorted(((float(vt.images[n][2]), n) for n in
                       ("PL", "QL", "RL", "SL")), reverse=True)
        assert tops[0][1] in ("PL", "RL")
        assert tops[0][0] == build.L_prime - 1.0

    def test_f_is_g_minus_translation(self, build, fmap, gmap):
        rng = np.random.default_rng(8)
        for _ in range(200):
            x = rng.random(3) * np.array([6, 6, gmap.L + 2]) - np.array([3, 3, 1])
            assert np.allclose(eval_at(fmap, x),
                               eval_at(gmap, x) - np.array([0, 0, build.L_prime]),
                               atol=1e-12)

    def test_slab_maps_below_zero(self, fmap):
        rng = np.random.default_rng(9)
        for _ in range(500):
            x = rng.random(3) * np.array([8, 8, fmap.L]) - np.array([4, 4, 0])
            assert eval_at(fmap, x)[2] <= -1.0 + 1e-9

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
        # g subtracts 0.0, which keeps every point, -0.0 included, bitwise
        ident = (-0.0, 0.5, -1.0)
        assert _bits(gmap.eval3(*ident)) == _bits(ident)
        past = math.nextafter(HORIZON, math.inf)
        for p in ((past, 0.5, gmap.L + 1.0), (0.5, -past, gmap.L + 1.0)):
            for m in (fmap, gmap):
                with pytest.raises(PrecisionLost):
                    m.eval3(*p)

    def test_an_F_step_calls_F_scalar_once(self, fmap, monkeypatch):
        # the traced benchmark run counts and times F steps by patching
        # zorich.F_scalar, so eval3 above L calls it through the module,
        # with f's shift L' for F_scalar to subtract
        calls = []
        plain = zorich.F_scalar

        def counting(*p):
            calls.append(p)
            return plain(*p)

        monkeypatch.setattr(zorich, "F_scalar", counting)
        p = (0.5, -0.25, fmap.L + 1.0)
        out = fmap.eval3(*p)
        assert calls == [p + (fmap.L_prime,)]
        f1, f2, f3 = plain(*p)
        assert _bits(out) == _bits((f1, f2, f3 - fmap.L_prime))

    def test_rederive_translation_constant(self, gmap, fmap, build):
        lp = derive_translation_constant(gmap)
        assert lp == build.L_prime
        # f already has its L'
        with pytest.raises(ValueError, match="from the unshifted map"):
            derive_translation_constant(fmap)

    def test_raised_vertex_image_rejected(self, gmap):
        # scale one cell of A' so that one of its vertex images rises above
        # the highest image vertex of the chart
        chart = copy.copy(gmap.by_id["A'"])
        rmap = copy.copy(chart.map)
        rmap.linear = rmap.linear.copy()
        k = int(np.argmax(CellTable([chart]).images[:, 2]))
        cell = int(np.searchsorted(np.cumsum(rmap.sizes), k, side="right"))
        rmap.linear[cell] *= 1.5
        rmap.images = vertex_images(rmap)
        chart.map = rmap
        top = float(chart.map.targets[:, 2].max())

        def unshifted(c):
            return types.SimpleNamespace(L_prime=None, table=CellTable([c]),
                                         max_image_height=top)

        assert derive_translation_constant(unshifted(gmap.by_id["A'"])) == top + 1.0
        with pytest.raises(ConstructionError, match="A'"):
            derive_translation_constant(unshifted(chart))


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
        # no fault on any seam; the cells' linear parts miss the targets by
        # rounding only (2.0e-14)
        rep = audit_seams(gmap)
        assert rep.passed, rep.per_interface
        assert rep.per_interface == dict.fromkeys(SEAM_KEYS, 0) and rep.faults == 0
        assert 0.0 < rep.residual <= 1e-12 * gmap.image_diameter

    def test_the_block_complex(self, gmap):
        # 46 points and 101 polygons: the 40 on the interior faces x3 = 1,
        # x1 = 1 and x2 = 1 lie in two charts each, the 61 on the block's
        # boundary in one
        table = gmap.table
        holders = collections.defaultdict(set)
        for c, poly in zip(table.chart.tolist(), np.split(table.point_ids, table.starts[1:])):
            holders[frozenset(poly.tolist())].add(c)
        assert int(table.point_ids.max()) + 1 == 46
        assert collections.Counter(map(len, holders.values())) == {1: 61, 2: 40}

    def test_orientation(self, gmap):
        rep = audit_orientation(gmap)
        assert rep.passed
        assert rep.min_det > 0
        dets = {c.cell_id: np.linalg.det(c.map.linear).min() for c in gmap.charts}
        assert rep.per_chart == pytest.approx(dets, rel=1e-12)
        assert rep.min_det == pytest.approx(0.0972972973, rel=1e-9)
        assert rep.samples == 141

    def test_dilatation_report(self, gmap):
        rep = audit_dilatation(gmap)
        assert math.isfinite(rep.k_sup)
        assert rep.k_sup >= rep.k_median >= 1.0
        assert rep.k_sup == pytest.approx(1.733e4, rel=1e-3)
        assert rep.samples == 141

    def test_dilatation_median_is_numpys(self, gmap):
        # the median of the 141 cell dilatations, bitwise as np.median takes
        # it and as the audit reported it when it called np.median
        rep = audit_dilatation(gmap)
        ks = gmap.table.k
        assert rep.k_median.hex() == float(np.median(ks)).hex()
        assert rep.k_median.hex() == "0x1.ad7fd358dbccbp+5"

    def test_audits_accept_the_benchmark_arguments(self, gmap):
        # the benchmark passes sample counts and seeds; the exact audits
        # ignore them
        assert audit_seams(gmap, samples=200, seed=5) == audit_seams(gmap)
        assert (audit_orientation(gmap, samples_per_chart=75, seed=5)
                == audit_orientation(gmap))
        assert audit_dilatation(gmap, samples=100, seed=5) == audit_dilatation(gmap)

    def test_perturbed_cell_breaks_a_seam(self, gmap):
        # lift the vertex images of one A''1 cell on the face x1 = 1: its
        # targets are the same, so the complex has no fault, but the map
        # built from the perturbed charts misses them by its residual
        charts = list(gmap.charts)
        chart = copy.copy(gmap.by_id["A''1"])
        rmap = copy.copy(chart.map)
        cell = next(j for j, label in enumerate(rmap.labels) if label.startswith("facet 1 "))
        rmap.linear = rmap.linear.copy()
        rmap.linear[cell] = rmap.linear[cell] * 1.01
        rmap.images = vertex_images(rmap)
        chart.map = rmap
        charts[charts.index(gmap.by_id["A''1"])] = chart
        rep = audit_seams(GlobalMap(CellTable(charts), gmap.L))
        assert not rep.passed
        assert rep.faults == 0 and rep.residual > 1e-3

    @pytest.mark.parametrize("on, axis, every, seam", [
        # a point of the shared face x3 = 1 only, one row's target
        (lambda x, L: x[2] == 1.0 and x[0] % 1 and x[1] % 1, 0, False, "A'/A'' x3=1"),
        # a point of the face x1 = 1 between two A'' charts only
        (lambda x, L: x[0] == 1.0 and x[1] % 1 and 1.0 < x[2] < L, 2, False, "cells x1=1"),
        # a point of the side plane x1 = 2, off it in every row
        (lambda x, L: x[0] == 2.0 and x[1] % 1 and x[2] % 1, 0, True, "reflection x1=2"),
        # a level-L point, every row's target off F
        (lambda x, L: x[2] == L, 2, True, "slab/F x3=L"),
    ], ids=["shared_face", "between_A''_charts", "side_plane", "level_L"])
    def test_a_target_one_ulp_off_breaks_its_seam(self, gmap, on, axis, every, seam):
        table = copy.copy(gmap.table)
        table.targets = table.targets.copy()
        point = next(x for x in table.points.tolist() if on(x, gmap.L))
        rows = np.flatnonzero((table.points == point).all(axis=1))
        assert len(rows) > 1
        for r in rows if every else rows[:1]:
            table.targets[r, axis] = np.nextafter(table.targets[r, axis], math.inf)
        rep = audit_seams(GlobalMap(table, gmap.L))
        assert not rep.passed
        assert {k: v for k, v in rep.per_interface.items() if v} == {seam: 1} == {
            seam: rep.faults}
        assert rep.residual <= 1e-12 * gmap.image_diameter

    def test_a_shared_polygon_in_one_chart_breaks_its_seam(self, gmap):
        # drop one cell of the bottom facet of A''1: its polygon on x3 = 1
        # is then held by A' alone
        charts = list(gmap.charts)
        chart = copy.copy(gmap.by_id["A''1"])
        rmap = copy.copy(chart.map)
        j = next(j for j, label in enumerate(rmap.labels) if label.startswith("facet 4 "))
        rows = slice(int(rmap.sizes[:j].sum()), int(rmap.sizes[:j + 1].sum()))
        rmap.linear, rmap.sizes = np.delete(rmap.linear, j, 0), np.delete(rmap.sizes, j)
        rmap.points, rmap.targets, rmap.images = (
            np.delete(a, rows, 0) for a in (rmap.points, rmap.targets, rmap.images))
        rmap.labels = rmap.labels[:j] + rmap.labels[j + 1:]
        chart.map = rmap
        charts[charts.index(gmap.by_id["A''1"])] = chart
        rep = audit_seams(GlobalMap(CellTable(charts), gmap.L))
        assert not rep.passed
        assert {k: v for k, v in rep.per_interface.items() if v} == {"A'/A'' x3=1": 1}

    def test_boundary_map_validations(self, build):
        for cid, rep in build.validations.items():
            assert rep.passed, (cid, rep)

    def test_constants_report_text(self, build):
        text = constants_report_text(build)
        assert "c0 =" in text and "L_prime =" in text
        for line in ("chart.A'.lipschitz_method = cells-closed-form",
                     "chart.A'.lipschitz_box = 10.0534", "chart.A'.lipschitz_inverse = 56.264",
                     "chart.A''4.lipschitz_box = 115.28",
                     "chart.A''4.lipschitz_inverse = 1.11475"):
            assert line in text.splitlines()
        for line in text.strip().splitlines():
            assert "=" in line


def _numpy_median(x):
    """np.median of x as a hex string, its overflow and inf - inf quiet."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.median(x)).hex()


def audit_median(k):
    """The median that ``audit_dilatation`` takes of a table whose cell
    dilatations are ``k``, as a hex string."""
    with np.errstate(over="ignore", invalid="ignore"):
        table = types.SimpleNamespace(k=np.asarray(k, dtype=float))
        return audit_dilatation(types.SimpleNamespace(table=table)).k_median.hex()


class TestMedian:
    """The audit's median, the statistics module's, against np.median's,
    bitwise: the cell dilatations are never NaN (a cell of a non-finite or
    non-positive determinant has k = inf)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 141, 142])
    def test_bitwise_numpys_median(self, n):
        rng = np.random.default_rng(n)
        for _ in range(50):
            x = rng.normal(size=n) * rng.choice([1.0, 1e300])
            assert audit_median(x) == _numpy_median(x)
            # repeated values, and two middle values whose sum overflows
            x = rng.choice([0.0, 1.0, 1.7e308], size=n)
            assert audit_median(x) == _numpy_median(x)

    @pytest.mark.parametrize("x", [[math.inf, 1.0, 2.0], [1.0, math.inf, -math.inf],
                                   [math.inf, -math.inf], [math.inf, 2.0, math.inf, 1.0],
                                   [-math.inf, 5.0]])
    def test_infinities(self, x):
        assert audit_median(x) == _numpy_median(np.array(x))

    def test_a_non_finite_cell_has_k_inf(self, gmap):
        # a NaN linear part: its det, and so its k, is never NaN
        charts = list(gmap.charts)
        chart = copy.copy(charts[0])
        chart.map = copy.copy(chart.map)
        chart.map.linear = chart.map.linear.copy()
        chart.map.linear[2, 1, 1] = math.nan
        table = CellTable([chart] + charts[1:])
        assert table.k[2] == math.inf and not np.isnan(table.k).any()
        assert audit_dilatation(GlobalMap(table, gmap.L)).k_median.hex() == _numpy_median(table.k)


class TestChartLipschitz:
    @pytest.mark.parametrize("cid", ["A'", "A''1", "A''2", "A''3", "A''4"])
    def test_box_constant_bounds_sampled_pairs(self, build, cid):
        # the chart is continuous and affine on each cell of its convex box,
        # so the largest sigma_max of a cell bounds it on every pair; far
        # pairs and near ones drawn in the cone of that cell (from the
        # domain centre over its polygon) come within 15 % of the bound on
        # every chart.  Pairs drawn over the whole box miss it on A', whose
        # cell of largest sigma_max is a thin cone: 7.95 of 10.05
        chart = build.g.by_id[cid]
        rmap = chart.map
        lip = chart_lipschitz(build.g.table)[cid]["box"]
        k = int(np.argmax(global_map._cell_spectra(rmap.linear)[1]))
        start = int(rmap.sizes[:k].sum())
        poly = rmap.points[start:start + rmap.sizes[k]]
        a, lo, hi = rmap.domain.centre, rmap.domain.lo, rmap.domain.hi
        rng = np.random.default_rng(21)

        def in_cone(n):
            return a + rng.uniform(0.05, 1.0, (n, 1)) * (
                rng.dirichlet(np.ones(len(poly)), n) @ poly - a)

        x, y = in_cone(400), in_cone(400)
        y[200:] = np.clip(x[200:] + 1e-3 * rng.normal(size=(200, 3)), lo, hi)
        ratios = [math.dist(chart.map.eval(p), chart.map.eval(q)) / math.dist(p, q)
                  for p, q in zip(x, y)]
        assert 0.85 * lip <= max(ratios) <= lip * (1 + 1e-9)


class TestNonFiniteInput:
    @pytest.mark.parametrize("point", [(math.inf, 0.0, 0.5), (math.nan, 0.0, 10.0),
                                       (0.0, 0.0, math.nan)],
                             ids=["inf_in_the_slab", "nan_above_L", "nan_level"])
    def test_raises_a_value_error_naming_the_point(self, fmap, gmap, point):
        for m in (fmap, gmap):
            with pytest.raises(ValueError, match=re.escape(f"non-finite point {point}")):
                m.eval3(*point)

    def test_infinite_F_step_loses_precision(self, fmap):
        with pytest.raises(PrecisionLost):
            fmap.eval3(-math.inf, 0.0, fmap.L + 1.0)

    def test_identity_passes_non_finite_points_through(self, gmap):
        for p in ((math.nan, 0.0, -1.0), (math.inf, -math.inf, -0.5), (0.0, 0.0, -math.inf)):
            assert _bits(gmap.eval3(*p)) == _bits(p)


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
            cell = g._slab_charts[_cell_index(x, y, 1.5)]
            b = cell.map.eval((x, y, 1.0))
            assert np.allclose(a, b, atol=1e-11)


class TestBuildWork:
    def test_every_certificate_sign_is_decided_in_floats(self):
        # the cone signs and the boundary-map orientations of a whole build
        # take no exact determinant and make no Fraction: the float filter
        # of geometry._det3_signs decides every sign, so code that bypasses
        # it fails here instead of showing up only as a slower build
        with mock.patch("qrdyn.geometry._det3", wraps=geometry._det3) as geo, \
                mock.patch("qrdyn.star_extend.Fraction", wraps=Fraction,
                           create=True) as ext:
            build_maps()
            assert (geo.call_count, ext.call_count) == (0, 0)
            # the count is live: a zero determinant is evaluated exactly
            assert geometry._det3_signs(np.ones((1, 3, 3)), np.zeros(3))[0][0] == 0
            assert geo.call_count > 0

    def test_small_systems_are_solved_in_stacks(self):
        # the call-count guard of a build: per chart phase one solve for the
        # linear parts of its charts' cells, one inverse of them and one
        # for their fan frames, and one det of them; none for the sector
        # tables, which come from the cells' vertex angles, and none in the
        # boundary-map validation, whose seams are combinatorial, so a
        # build makes 2 solves, one per chart phase; none for the image
        # solids, whose facet planes are taken in Python floats and whose
        # psi reads the charts' own image cells; and one det of all
        # cells in the CellTable's _cell_spectra, whose columns give K_slab,
        # the dilatation audit and the Lipschitz constants, while its exact
        # signs and the orientation audit's dets come from
        # geometry._det3_signs.  The audits and the report add no call.  A
        # stack split into one call per chart or cell shows here.
        # No SVD: the cell spectra are taken in closed form, and the first
        # LAPACK SVD of a process pages in about a megabyte of code
        with mock.patch("numpy.linalg.solve", wraps=np.linalg.solve) as solve, \
                mock.patch("numpy.linalg.inv", wraps=np.linalg.inv) as inv, \
                mock.patch("numpy.linalg.det", wraps=np.linalg.det) as det, \
                mock.patch("numpy.linalg.svd", wraps=np.linalg.svd) as svd:
            build = build_maps()
            audit_dilatation(build.g)
            audit_orientation(build.g)
            build_report(build)
            counts = (solve.call_count, inv.call_count, det.call_count)
        phases = 2
        assert counts[0] == phases == 2
        assert counts[1] == 2 * phases
        assert counts[2] == phases + 1 == 3
        assert svd.call_count == 0

    def test_audits_and_report_read_the_table(self, build):
        # the orientation and dilatation audits and the build report read
        # the columns of the build's one CellTable: no determinant, solve,
        # inverse, exact sign or cell spectrum is taken again
        with contextlib.ExitStack() as stack:
            calls = [stack.enter_context(mock.patch(name, wraps=fn)) for name, fn in (
                ("numpy.linalg.det", np.linalg.det), ("numpy.linalg.solve", np.linalg.solve),
                ("numpy.linalg.inv", np.linalg.inv),
                ("qrdyn.global_map._det3_signs", global_map._det3_signs),
                ("qrdyn.global_map._cell_spectra", global_map._cell_spectra))]
            audit_orientation(build.g)
            audit_dilatation(build.g)
            build_report(build)
        assert [c.call_count for c in calls] == [0] * 5
        assert build.f.table is build.g.table

    def test_no_selection_or_sort_kernel(self):
        # the first call of a numpy kernel pages its native code into the
        # process: the selection code behind median, partition, percentile
        # and quantile about 0.5 MB, the sort code of a boolean mask
        # 0.06 MB and that of integer keys 0.13 MB, and einsum's about
        # 0.1 MB; unique sorts through ndarray methods, which the patch of
        # numpy.sort does not see (one call in a build's validation raised
        # the peak RSS of a fresh process by 1.5 MB); the build, the four
        # audits and the report call none of them
        names = ("median", "partition", "percentile", "quantile", "sort", "argsort", "einsum",
                 "unique")
        with contextlib.ExitStack() as stack:
            kernels = [stack.enter_context(mock.patch(f"numpy.{name}",
                                                      wraps=getattr(np, name)))
                       for name in names]
            build = build_maps()
            audit_seams(build.g)
            audit_orientation(build.g)
            audit_dilatation(build.g)
            zorich.expansion_min_ratio(build.constants.L, pairs=200)
            build_report(build)
        assert dict(zip(names, (k.call_count for k in kernels))) == dict.fromkeys(names, 0)

    def test_one_certification_pass_per_chart_phase(self):
        # one stacked sign pass per chart phase takes the fan triangles of
        # all its charts' cells, each about its chart's two centres, with
        # the degree count's first direction: the cone signs and the whole
        # boundary-map validation in 2 exact sign calls a build, where a
        # call per chart and a validation call per chart were 7.  No star
        # test: no exact sign is taken in geometry itself, and none in
        # validate_boundary_map, which assembles its report from the pass
        signs = geometry._det3_signs
        validate = star_extend.RadialMap.validate_boundary_map
        in_validation = []

        def counted(rmap):
            before = ext.call_count
            rep = validate(rmap)
            in_validation.append(ext.call_count - before)
            return rep

        with mock.patch("qrdyn.star_extend._cone_signs",
                        wraps=star_extend._cone_signs) as cones, \
                mock.patch("qrdyn.geometry._det3_signs", wraps=signs) as geo, \
                mock.patch("qrdyn.star_extend._det3_signs", wraps=signs) as ext, \
                mock.patch.object(star_extend.RadialMap, "validate_boundary_map", counted):
            build = build_maps()
        assert (geo.call_count, ext.call_count) == (0, 2)
        assert in_validation == [0] * len(build.g.charts)
        phases = [build.g.charts[:1], build.g.charts[1:]]
        assert cones.call_count == len(phases)
        for call, charts in zip(cones.call_args_list, phases):
            points, targets, fans, a, b, d = call.args
            assert np.array_equal(d, np.tile(star_extend._DIRECTIONS[0], (len(fans), 1)))
            assert len(fans) == sum(len(chart.map.fan_cell) for chart in charts)
            assert len(points) == len(targets) == sum(len(chart.map.points) for chart in charts)
            counts = [len(chart.map.fan_cell) for chart in charts]
            for rows, chart in zip(np.split(np.arange(len(fans)), np.cumsum(counts)[:-1]),
                                   charts):
                assert np.array_equal(a[rows], np.tile(chart.map.domain.centre, (len(rows), 1)))
                assert np.array_equal(b[rows], np.tile(chart.map._b, (len(rows), 1)))
        assert sum(len(chart.map.fan_cell) for chart in build.g.charts) == 142
