import functools
import math
import re
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import (_radial_2d, boundary_report, cones_holding_fraction,
                     cover_deviation_all_pairs, face_centre, fan_rows, point_in_polygon,
                     polygon_normal_rows, sector_entry_scan)
from qrdyn import star_extend
from qrdyn.geometry import GeometryError
from qrdyn.pieces import fan_cells
from qrdyn.star_extend import Box, RadialMap, radial_maps


def identity_piece(loop):
    """The identity of a face, as one cell."""
    return [(loop, loop)]


def scale_piece(k, loop):
    """Pure dilation x -> k x of a facet, for dilation-chart tests."""
    return [(loop, [(k * x, k * y, k * z) for x, y, z in loop])]


def collapse_piece(loop):
    """Sends the whole facet to one point: a boundary map that is far from
    injective."""
    return [(loop, [(0.0, 0.0, 1.0)] * len(loop))]


def fold_piece(loop):
    """Fans a face about its centre onto the fan about a point of its plane
    outside the face: one image triangle folds over, though the signed
    areas still add up to the face."""
    c = (0.0, 0.0, 1.0)
    return [((c, p, q), ((1.5, 0.0, 1.0), p, q)) for p, q in zip(loop, loop[1:] + loop[:1])]


def cube_box(side=1.0):
    return Box([-side] * 3, [side] * 3)


# the centre of every cube chart's image solid
ORIGIN = (0.0, 0.0, 0.0)


def face_loops(side):
    x = side
    return {
        0: [(-x, -x, -x), (-x, x, -x), (-x, x, x), (-x, -x, x)],
        1: [(x, -x, -x), (x, x, -x), (x, x, x), (x, -x, x)],
        2: [(-x, -x, -x), (x, -x, -x), (x, -x, x), (-x, -x, x)],
        3: [(-x, x, -x), (x, x, -x), (x, x, x), (-x, x, x)],
        4: [(-x, -x, -x), (x, -x, -x), (x, x, -x), (-x, x, -x)],
        5: [(-x, -x, x), (x, -x, x), (x, x, x), (-x, x, x)],
    }


def one_piece_chart(dom, pieces):
    """The chart about the origin with the piece pieces[f] on domain facet
    f, whose image is the image solid's facet f."""
    return RadialMap(dom, ORIGIN, {f: [p] for f, p in pieces.items()})


@functools.lru_cache(maxsize=None)
def identity_chart():
    pieces = {f: identity_piece(loop) for f, loop in face_loops(1.0).items()}
    return one_piece_chart(cube_box(), pieces)


@functools.lru_cache(maxsize=None)
def scaling_chart(k=2.0):
    pieces = {f: scale_piece(k, loop) for f, loop in face_loops(1.0).items()}
    return one_piece_chart(cube_box(1.0), pieces)


def bilipschitz_ratios(m, pairs, seed):
    """Least and largest |m(x) - m(y)| / |x - y| over seeded pairs of points
    of the chart's box domain."""
    rng = np.random.default_rng(seed)
    lo, hi = m.domain.lo, m.domain.hi
    xs = lo + rng.random((pairs, 3)) * (hi - lo)
    ys = lo + rng.random((pairs, 3)) * (hi - lo)
    ratios = [math.dist(m.eval(tuple(x)), m.eval(tuple(y))) / math.dist(x, y)
              for x, y in zip(xs, ys) if math.dist(x, y) > 1e-9 * m.domain.diameter]
    return min(ratios), max(ratios)


class TestRadialEval:
    def test_identity_chart_is_identity(self):
        m = identity_chart()
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = rng.random(3) * 2 - 1
            assert np.allclose(m.eval(tuple(p)), p, atol=1e-12)

    def test_centre_maps_to_centre(self):
        m = identity_chart()
        assert np.allclose(m.eval((0.0, 0.0, 0.0)), (0, 0, 0))

    def test_scaling_chart_bilipschitz_constants(self):
        m = scaling_chart(2.0)
        l_min, l_max = bilipschitz_ratios(m, pairs=500, seed=1)
        assert l_min == pytest.approx(2.0, abs=1e-9)
        assert l_max == pytest.approx(2.0, abs=1e-9)

    def test_identity_chart_bilipschitz_is_one(self):
        m = identity_chart()
        l_min, l_max = bilipschitz_ratios(m, pairs=500, seed=1)
        assert l_min == pytest.approx(1.0, abs=1e-12)
        assert l_max == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=120, deadline=None)
    @given(st.floats(-0.95, 0.95), st.floats(-0.95, 0.95), st.floats(-0.95, 0.95))
    def test_radial_fraction_identity(self, x, y, z):
        # |m(x) - b| / |bmap(psi(x)) - b| == |x - a| / |psi(x) - a|, psi(x)
        # the crossing with the cube of the ray from its centre through x
        m = scaling_chart(2.0)
        p = np.array([x, y, z])
        r = np.linalg.norm(p)
        if r < 1e-6:
            return
        t, _ = star_extend.psi(identity_chart(), x, y, z)
        hit = t * p
        img_b = 2.0 * hit                # the boundary map of the chart
        out = np.asarray(m.eval(tuple(p)))
        lhs = np.linalg.norm(out) / np.linalg.norm(img_b)
        rhs = r / np.linalg.norm(hit)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_boundary_points_fixed_by_radial_formula(self):
        m = scaling_chart(2.0)
        rng = np.random.default_rng(2)
        pts = rng.random((200, 3)) * 2 - 1
        axis = rng.integers(3, size=200)
        pts[np.arange(200), axis] = rng.choice([-1.0, 1.0], size=200)
        for p in pts:
            out = np.asarray(m.eval(tuple(p)))
            assert np.allclose(out, 2.0 * p, atol=1e-10)


class TestInverse:
    def test_identity_inverse(self):
        m = identity_chart()
        assert np.allclose(m.inverse((0.3, -0.2, 0.9)), (0.3, -0.2, 0.9),
                           atol=1e-12)

    def test_centre_inverse(self):
        m = scaling_chart(2.0)
        assert np.allclose(m.inverse((0.0, 0.0, 0.0)), (0, 0, 0))

    def test_round_trip_scaling(self):
        m = scaling_chart(2.0)
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(2000):
            p = rng.random(3) * 2 - 1
            q = m.eval(tuple(p))
            back = np.asarray(m.inverse(q))
            worst = max(worst, float(np.linalg.norm(back - p)))
        assert worst <= 1e-8


def centroid_fan(dom, img):
    """The face fan of dom onto img about their area centroids."""
    return fan_cells(dom, img, face_centre(dom), face_centre(img))


def chart_with_face(piece_for_top):
    """The identity chart of the cube with the piece of its top face
    (facet 5) replaced."""
    loops = face_loops(1.0)
    pieces = {f: identity_piece(loop) for f, loop in loops.items()}
    pieces[5] = piece_for_top(loops[5])
    return one_piece_chart(cube_box(), pieces)


def refused_then_validated(piece_for_top, monkeypatch):
    """The validation of the chart ``chart_with_face(piece_for_top)``,
    which its cone signs refuse: built with the refused rows dropped from
    what ``_cone_signs`` returns, and all of its signs kept, so that the
    pass that refuses the chart goes on to take the rest of its
    certificate, the seams and the degree count from those same signs.
    The report is the per-chart oracle's."""
    with pytest.raises(GeometryError, match="not oriented as its domain cone"):
        chart_with_face(piece_for_top)
    signs = star_extend._cone_signs
    monkeypatch.setattr(star_extend, "_cone_signs",
                        lambda *args: (signs(*args)[0], np.array([], dtype=int)))
    chart = chart_with_face(piece_for_top)
    rep = chart.validate_boundary_map()
    assert report_bits(rep) == report_bits(boundary_report(chart))
    return rep


def moved_corner(loop, offset):
    img = [np.asarray(p, float) for p in loop]
    img[2] = img[2] + np.asarray(offset)
    return img


class TestValidation:
    def test_identity_chart_passes(self):
        rep = identity_chart().validate_boundary_map()
        assert rep.passed, rep

    def test_scaling_chart_passes(self):
        rep = scaling_chart().validate_boundary_map()
        assert rep.passed, rep

    def test_broken_vertex_image_fails_seams(self):
        # perturb one vertex image of a 2D radial piece on one face only:
        # the shared edges with neighbouring faces must betray the seam
        m = chart_with_face(lambda loop: centroid_fan(
            loop, moved_corner(loop, (0.1, 0.0, 0.0))))
        rep = m.validate_boundary_map()
        assert not rep.passed
        assert rep.seam_violations > 0

    def test_reversed_image_loop_is_not_positive(self, monkeypatch):
        # the face's image is the facet itself, run the other way round
        rep = refused_then_validated(lambda loop: centroid_fan(loop, loop[::-1]), monkeypatch)
        assert not rep.passed
        assert rep.injectivity_violations >= 4
        # each of the four corners takes a second image, the reversed one
        assert rep.seam_violations == 4
        assert ("facet 0 piece 0 cell 0: point (-1.0, 1.0, 1.0) has several images"
                in rep.detail)

    def test_off_plane_image_fails_the_boundary(self):
        # the top face's image, one corner lifted by 0.1, is its own facet:
        # its plane is the one of the image loop's Newell normal through the
        # fan's first image point, the image centroid, and the lifted loop
        # leaves that plane
        m = chart_with_face(lambda loop: centroid_fan(
            loop, moved_corner(loop, (0.0, 0.0, 0.1))))
        rep = m.validate_boundary_map()
        assert not rep.passed
        img = np.array(moved_corner(face_loops(1.0)[5], (0.0, 0.0, 0.1)))
        dev = np.abs((img - face_centre(img)) @ polygon_normal_rows(img)).max()
        assert rep.worst_boundary_dev == pytest.approx(dev, rel=1e-9)
        assert dev > 1e3 * m.tol


    def test_folded_face_fails_the_sign_test(self, monkeypatch):
        rep = refused_then_validated(fold_piece, monkeypatch)
        assert rep.injectivity_violations == 1
        assert (rep.seam_violations, rep.worst_boundary_dev) == (0, 0.0)
        assert not rep.passed


class TestInjectivityCount:
    def test_collapsed_face_is_refused(self):
        # the top face's one cell sends its three first vertices to one
        # point: the image cone over its first fan triangle is flat
        with pytest.raises(GeometryError, match="facet 5 piece 0 cell 0: the image cone of "
                                                "fan triangle 0 .* not oriented"):
            chart_with_face(collapse_piece)

    def test_peak_memory_of_the_build_validation(self, build):
        # the validation runs in the pass that builds the charts: the four
        # A'' charts' pass, the larger of the two, with its 832 sign rows
        specs = [(c.map.domain, c.map._b, c.map.pieces_by_facet) for c in build.g.charts[1:]]
        tracemalloc.start()
        try:
            radial_maps(specs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the sampled count held three 600 x 600 x 3 float arrays at once
        # (26 MB in all); the exact check must stay below half of that
        assert peak <= 1.5 * 600 * 600 * 3 * 8


def top_split(*groups):
    """The identity chart of the cube with its top facet (5) carried by one
    piece per group of polygons, the identity on each, the k-th piece's
    image the image solid's facet 5 + k."""
    pieces = {f: [identity_piece(loop)] for f, loop in face_loops(1.0).items()}
    pieces[5] = [[(t, t) for t in tris] for tris in groups]
    return RadialMap(cube_box(), ORIGIN, pieces)


# the top facet's corners, its centre and a point on its diagonal
P0, P1, P2, P3 = face_loops(1.0)[5]
C, M = (0.0, 0.0, 1.0), (0.5, 0.5, 1.0)
# the top facet's four quadrants, squares meeting at its centre
QUADRANTS = [[(x, y, 1.0), (x, 0.0, 1.0), C, (0.0, y, 1.0)]
             for x in (-1.0, 1.0) for y in (-1.0, 1.0)]

# the pieces that construction refuses, each as the facets that it sets in
# the cube's identity chart, with the start of its message: on the top
# facet, a piece without cells, a cell that is not a pair of polygons or
# whose polygon is not a sequence, a cell whose polygons differ in length or
# have fewer than 3 vertices, a cell with a non-finite coordinate (the last
# of three fan cells), two cells whose images, the top face's two halves
# with the second turned by pi about the x1 axis, pass their cone signs but
# have opposite vector areas, a domain vertex below the top facet, and a
# vertex that is not three numbers; and a piece on a facet key that no box
# has
MALFORMED = {
    "pieces of a number": ({5: 5}, "facet 5: its pieces are a list of pieces, not 5"),
    "piece of a number": ({5: [5]}, "facet 5 piece 0: a piece is a list of cells, not 5"),
    "empty piece": ({5: [[([P0, P1, P2, P3], [P0, P1, P2, P3])], []]},
                    "facet 5 piece 1 has no cells"),
    "three polygons": ({5: [[(P0, P1, P2)]]},
                       "facet 5 piece 0 cell 0: a cell is a pair of polygons, each a sequence "
                       "of vertices, not ("),
    "polygon of a number": ({5: [[(5, 5)]]},
                            "facet 5 piece 0 cell 0: a cell is a pair of polygons, each a "
                            "sequence of vertices, not (5, 5)"),
    "unequal polygons": ({5: [[([P0, P1, P2, P3], [P0, P1, P2])]]},
                         "facet 5 piece 0 cell 0: a polygon of 4 vertices onto one of 3"),
    "two vertices": ({5: [[([P0, P1], [P0, P1])]]},
                     "facet 5 piece 0 cell 0: a polygon of 2 vertices onto one of 2"),
    "nan target": ({5: [[([P0, P1, P2, P3], [P0, (math.nan, -1.0, 1.0), P2, P3])]]},
                   "facet 5 piece 0 cell 0: non-finite coordinates are not admitted"),
    "infinite point": ({5: [[((C, P0, P1), (C, P0, P1)), ((C, P1, P2), (C, P1, P2)),
                             ((C, (1.0, math.inf, 1.0), P3), (C, P2, P3))]]},
                       "facet 5 piece 0 cell 2: non-finite coordinates are not admitted"),
    "zero vector area": ({5: [[((P0, P1, P2), (P0, P1, P2)),
                               ((P2, P3, P0), tuple((x, -y, -z) for x, y, z in (P2, P3, P0)))]]},
                         "facet 5 piece 0: its image has zero vector area"),
    "vertex off its facet": ({5: [[((C, P0, P1), (C, P0, P1)),
                                   ((C, P1, (1.0, 1.0, 0.5)), (C, P1, P2)),
                                   ((C, P2, P3), (C, P2, P3)), ((C, P3, P0), (C, P3, P0))]]},
                             "facet 5 piece 0 cell 1: domain vertex (1.0, 1.0, 0.5) is off "
                             "box facet 5"),
    "short vertex": ({5: [[([P0, P1, P2, P3], [P0, P1, P2, (-1.0, 1.0)])]]},
                     "facet 5 piece 0 cell 0: vertex (-1.0, 1.0) is not three numbers"),
    "vertex of no numbers": ({5: [[([P0, P1, P2, ("x", 1.0, 1.0)], [P0, P1, P2, P3])]]},
                             "facet 5 piece 0 cell 0: vertex ('x', 1.0, 1.0) is not three "
                             "numbers"),
    "facet 6": ({6: [identity_piece(face_loops(1.0)[5])]},
                "facet 6 piece 0 cell 0: a box has no facet 6; its facets are 0 to 5"),
}


class TestConstruction:
    """The map's construction errors, and facets of several pieces."""

    @pytest.mark.parametrize("top", [None, []], ids=["missing", "empty"])
    def test_a_facet_without_pieces_is_refused(self, top):
        pieces = {f: [identity_piece(loop)] for f, loop in face_loops(1.0).items()}
        if top is None:
            del pieces[5]
        else:
            pieces[5] = top
        with pytest.raises(GeometryError, match="no boundary piece for facet 5"):
            RadialMap(cube_box(), ORIGIN, pieces)

    @pytest.mark.parametrize("facets, want", list(MALFORMED.values()), ids=list(MALFORMED))
    def test_a_malformed_piece_or_cell_is_refused_by_name(self, facets, want):
        pieces = {f: [identity_piece(loop)] for f, loop in face_loops(1.0).items()}
        pieces.update(facets)
        with pytest.raises(GeometryError, match=f"^{re.escape(want)}"):
            RadialMap(cube_box(), ORIGIN, pieces)

    def test_cells_that_share_no_vertex_are_refused(self):
        with pytest.raises(GeometryError, match="the cells of facet 5 piece 0 share no vertex"):
            top_split([(P0, P1, C), (P2, P3, M)])

    def test_pieces_that_share_no_vertex_are_refused(self):
        with pytest.raises(GeometryError, match="the pieces of facet 5 share no vertex"):
            top_split([(P0, P1, C)], [(P2, P3, M)])

    def test_a_sector_that_no_cell_covers_is_refused(self):
        with pytest.raises(GeometryError,
                           match="none of the cells of facet 5 piece 0 covers the sector"):
            top_split([(C, P0, P1), (C, P2, P3)])

    def test_a_sector_that_no_piece_covers_is_refused(self):
        with pytest.raises(GeometryError,
                           match="none of the pieces of facet 5 covers the sector"):
            top_split([(C, P0, P1)], [(C, P2, P3)])

    def test_a_sector_that_several_cells_cover_is_refused(self):
        # one fan cell listed twice: both copies have a vertex at each of
        # the sector's bounding angles
        with pytest.raises(GeometryError,
                           match="several of the cells of facet 5 piece 0 cover the sector"):
            top_split([(C, P0, P1), (C, P0, P1), (C, P1, P2), (C, P2, P3), (C, P3, P0)])

    @pytest.mark.parametrize("groups", [
        [[(C, P0, P1)], [(C, P2, P3)]],
        [[(C, P0, P1)], [(C, P0, P1)], [(C, P1, P2)], [(C, P2, P3)], [(C, P3, P0)]],
        [[(C, P0, P1), (C, P1, P2)], [(C, P1, P2), (C, P2, P3), (C, P3, P0)]],
        [[(C, P2, P3)], [(C, P0, P1)], [(C, P0, P1)]],
        [[(P0, P1, C)], [(P2, P3, M)]],
    ], ids=["uncovered", "doubly_covered", "pieces_overlap", "both_faults", "no_shared_vertex"])
    def test_a_sector_fault_is_the_scans(self, groups):
        # the sector layout by index raises the error of the scan of every
        # entry's polygons per sector, word for word, at the same sector
        with pytest.raises(GeometryError) as scan:
            sector_entry_scan("cells of facet 5 piece 0", groups, range(len(groups)), 0, 1)
        with pytest.raises(GeometryError) as indexed:
            star_extend._sector_entry("cells of facet 5 piece 0", groups, 0, 1)
        assert str(indexed.value) == str(scan.value)

    @pytest.mark.parametrize("split", ["halves", "quadrants"])
    def test_a_facet_of_several_pieces(self, split):
        # two fans of two triangles about the centre, or four identity
        # squares meeting at it: every piece owns a sector, and the chart
        # is the identity
        if split == "halves":
            m = top_split([(C, P0, P1), (C, P1, P2)], [(C, P2, P3), (C, P3, P0)])
        else:
            m = top_split(*([square] for square in QUADRANTS))
        *_, by_sector = m._consts[-1][5]
        assert len({id(entry) for entry in by_sector}) == len(m.pieces_by_facet[5])
        rng = np.random.default_rng(6)
        pts = rng.random((500, 3)) * 2 - 1
        pts[:100, 2] = 1.0
        for p in pts.tolist():
            assert math.dist(m.eval(p), p) <= 1e-12


CHARTS = ["A'", "A''1", "A''2", "A''3", "A''4"]


def report_bits(rep):
    """A ValidationReport with its float as IEEE bytes: equal only if
    bitwise equal."""
    return (rep.passed, struct.pack("<d", rep.worst_boundary_dev), rep.seam_violations,
            rep.injectivity_violations, rep.detail)


def fan_triangles(rmap):
    """The fan triangles of a chart's cells and their images (T, 3, 3)."""
    fans = fan_rows(rmap)
    return rmap.points[fans], rmap.targets[fans]


def cell_complex(rmap):
    """({edge: cells}, {point: images}) of a chart's cells, one cell at a
    time in Python: each undirected edge of a cell polygon, as the pair of
    its points' exact coordinates, with the cells that hold it, and each
    point with the set of images that its cells give it."""
    edges, images, at = {}, {}, 0
    for cell, size in enumerate(rmap.sizes.tolist()):
        loop = [tuple(p) for p in rmap.points[at:at + size].tolist()]
        for p, q in zip(loop, loop[1:] + loop[:1]):
            edges.setdefault(frozenset((p, q)), []).append(cell)
        for p, w in zip(loop, rmap.targets[at:at + size].tolist()):
            images.setdefault(p, set()).add(tuple(w))
        at += size
    return edges, images


class TestBatchedValidation:
    """The exact checks of ``validate_boundary_map``, which construction
    takes in its stacked pass: the turned fan triangles form a closed
    surface of one orientation and every point has one image
    (``star_extend._seam_faults``, held against the per-chart Counter of
    ``oracles._seam_faults``), and the cones are oriented as their domain
    cones, one on each side holding the count's direction
    (``star_extend._cone_signs``, held against ``oracles._turned_cones``)."""

    @pytest.mark.parametrize("cid", CHARTS)
    def test_matches_the_per_triangle_checks(self, cid, build):
        # the cell complex taken one cell at a time: a sphere (V - E + F = 2)
        # whose every edge lies in exactly two cells and whose every point
        # has one image, as the stacked check reports
        rmap = build.g.by_id[cid].map
        edges, images = cell_complex(rmap)
        assert len(images) == rmap.point_ids.max() + 1
        assert len(images) - len(edges) + len(rmap.labels) == 2
        assert all(len(cells) == 2 for cells in edges.values())
        assert all(len(w) == 1 for w in images.values())
        dom, img = fan_triangles(rmap)
        signs, held = oracles._turned_cones(np.stack([dom, img]), np.array([rmap._a, rmap._b]))
        assert oracles._seam_faults(rmap.point_ids, fan_rows(rmap), signs[0], rmap.targets)[0] == 0
        faults, first, split = star_extend._seam_faults(rmap.point_ids, [len(images)],
                                                        fan_rows(rmap), signs[0], rmap.targets)
        assert (faults, first, split.any()) == ([0], [None], False)
        # the stacked pass's signs of the chart alone, along the first
        # direction: its cones' orientations and the turned cones that hold
        # the direction are the oracle's
        rows = len(rmap.fan_cell)
        got = star_extend._cone_signs(rmap.points, rmap.targets, fan_rows(rmap),
                                      *(np.tile(c, (rows, 1)) for c in
                                        (rmap._a, rmap._b, star_extend._DIRECTIONS[0])))[0]
        assert np.array_equal(got[:, 0], signs)
        assert np.array_equal((got[:, 1:] * got[0, 0] > 0).all(axis=1), held)
        # the cones' orientations, and the one cone per side that holds the
        # first direction of the count, against Fraction
        for side, (tris, centre) in enumerate(((dom, rmap._a), (img, rmap._b))):
            want, inside = cones_holding_fraction(tris, centre, star_extend._DIRECTIONS[0])
            assert signs[side].tolist() == want == signs[0].tolist()
            assert held[side].tolist() == inside and sum(inside) == 1

    @pytest.mark.parametrize("cid", CHARTS)
    def test_reports_equal_the_all_pairs_oracle(self, cid, build):
        # the chart passes its exact checks with degree 1 on both sides,
        # and the float reading of its seams, every triangle solved against
        # every cell vertex within the domain's tolerance, stays within the
        # relative 1e-9 that the facet area sums once allowed
        rmap = build.g.by_id[cid].map
        rep = rmap.validate_boundary_map()
        assert report_bits(rep) == report_bits(build.validations[cid])
        assert rep.passed and (rep.seam_violations, rep.injectivity_violations) == (0, 0), rep
        assert rep.detail.endswith("; domain degree 1, image degree 1")
        dom, img = fan_triangles(rmap)
        assert (cover_deviation_all_pairs(dom, img, rmap.domain.tol * 1e3)
                <= 1e-9 * max(1.0, rmap.diameter))

    @pytest.mark.parametrize("cid", CHARTS)
    def test_a_tampered_piece_fails_its_chart(self, cid, build):
        # the first cell of a face fan sends the face centre a hundredth of
        # the way along its image edge, away from the image that the other
        # cells give it.  The validation checks the cells that the chart's
        # map took from its pieces, so the built chart still passes and
        # the chart built again from the tampered piece fails
        built = build.g.by_id[cid].map
        facet, k, piece = next((f, k, p) for f, pieces in built.pieces_by_facet.items()
                               for k, p in enumerate(pieces) if len(p) > 1)
        (dom, (c, p, q)), *rest = piece
        moved = tuple(a + 0.01 * (b - a) for a, b in zip(c, p))
        piece[0] = (dom, (moved, p, q))
        try:
            assert report_bits(built.validate_boundary_map()) == report_bits(
                build.validations[cid])
            rmap = RadialMap(built.domain, built._b, built.pieces_by_facet)
        finally:
            piece[0] = (dom, (c, p, q))
        rep = rmap.validate_boundary_map()
        assert not rep.passed
        assert rep.seam_violations == 1
        assert (f"facet {facet} piece {k} cell 0: point {tuple(dom[0])} has several images"
                in rep.detail)
        tris, imgs = fan_triangles(rmap)
        assert cover_deviation_all_pairs(tris, imgs, rmap.domain.tol * 1e3) == pytest.approx(
            math.dist(moved, c), rel=1e-9)

    def test_a_moved_image_shows_in_both(self):
        # one corner image of the top face moves: the exact check finds the
        # corner's second image, and the float reading its distance
        m = chart_with_face(lambda loop: centroid_fan(
            loop, moved_corner(loop, (0.1, 0.0, 0.0))))
        rep = m.validate_boundary_map()
        assert not rep.passed
        assert rep.seam_violations == 1
        assert "facet 1 piece 0 cell 0: point (1.0, 1.0, 1.0) has several images" in rep.detail
        dom, img = fan_triangles(m)
        assert cover_deviation_all_pairs(dom, img, m.domain.tol * 1e3) > 1e-3

    def test_a_t_junction_is_refused(self):
        # the top facet as one identity piece of four square cells is the
        # identity, continuous across every seam, but its cells do not meet
        # edge to edge: each side facet's top edge meets two half edges, a
        # T-junction at its midpoint.  The exact check asks for an
        # edge-to-edge complex, so it refuses such a chart by design: the
        # 4 full edges and the 8 half edges are each run one way only
        m = top_split(QUADRANTS)
        rep = m.validate_boundary_map()
        assert not rep.passed
        assert (rep.seam_violations, rep.injectivity_violations) == (12, 0)
        assert ("facet 0 piece 0 cell 0: its edge from (-1.0, -1.0, 1.0) to (-1.0, 1.0, 1.0) "
                "is run 1 times and its reverse 0 times" in rep.detail)
        dom, img = fan_triangles(m)
        assert cover_deviation_all_pairs(dom, img, m.domain.tol * 1e3) == 0.0


# a U in the top face's plane, whose notch hides its sides from its area
# centroid: the fans over the notch's three edges turn the other way
U_LOOP = [(-1.0, -1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 1.0), (1 / 3, 1.0, 1.0),
          (1 / 3, -1 / 3, 1.0), (-1 / 3, -1 / 3, 1.0), (-1 / 3, 1.0, 1.0), (-1.0, 1.0, 1.0)]
# the top face with a vertex for each of the U's, on its boundary in order
TOP_LOOP = [(-1.0, -1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 1.0), (0.5, 1.0, 1.0),
            (0.25, 1.0, 1.0), (-0.25, 1.0, 1.0), (-0.5, 1.0, 1.0), (-1.0, 1.0, 1.0)]


def collapsed_chart_spec():
    pieces = {f: identity_piece(loop) for f, loop in face_loops(1.0).items()}
    pieces[5] = collapse_piece(face_loops(1.0)[5])
    return cube_box(), ORIGIN, {f: [p] for f, p in pieces.items()}


def chart_spec_without(facet):
    pieces = {f: identity_piece(loop) for f, loop in face_loops(1.0).items()}
    return cube_box(), ORIGIN, {f: [p] for f, p in pieces.items() if f != facet}


class TestBatches:
    """Bad face fans, and ``radial_maps`` against one map at a time."""

    def test_a_bad_face_is_refused(self):
        # loops of different lengths raise at the piece; a face fan about a
        # centre that does not see the whole image face builds, and its
        # chart is refused by the exact cone signs at the first fan over
        # an edge of the U's notch
        with pytest.raises(GeometryError, match="vertex correspondence requires equal counts"):
            centroid_fan(TOP_LOOP, U_LOOP[:7])
        piece = centroid_fan(TOP_LOOP, U_LOOP)
        assert [cell[1][0] for cell in piece] == [face_centre(U_LOOP)] * 8
        with pytest.raises(GeometryError) as err:
            chart_with_face(lambda loop: piece)
        assert str(err.value) == ("facet 5 piece 0 cell 3: the image cone of fan triangle 0 "
                                  "about the codomain centre [0.0, 0.0, 0.0] is not oriented "
                                  "as its domain cone")

    def test_radial_maps_are_the_maps_built_one_by_one(self, build):
        # the A'' maps again, one batch against one map at a time
        specs = [(c.map.domain, c.map._b, c.map.pieces_by_facet) for c in build.g.charts]
        for rmap, spec in zip(radial_maps(specs), specs):
            alone = RadialMap(*spec)
            assert rmap.linear.tobytes() == alone.linear.tobytes()
            assert repr((rmap._consts, rmap._frames, rmap._inverses, rmap._box)) \
                == repr((alone._consts, alone._frames, alone._inverses, alone._box))

    @pytest.mark.parametrize("first", [None, (1.0, 0.3, 1.0)],
                             ids=["directions", "a cube face first"])
    def test_a_report_does_not_depend_on_its_batch(self, build, first, monkeypatch):
        # the five atlas charts and the test charts (identity, scaling, a
        # T-junction, the doubled cube, a moved corner) in one stacked
        # pass: each chart's report equals, bitwise, the report of the
        # chart built alone and the per-chart oracle's.  (1, 0.3, 1) lies
        # in the plane of the cube's edge from (1, -1, 1) to (1, 1, 1) about
        # the origin: put first among the directions, it makes the pass
        # take the signs of the cube charts' rows again along the next, and
        # only theirs
        if first is not None:
            monkeypatch.setattr(star_extend, "_DIRECTIONS", (first, *star_extend._DIRECTIONS))
        charts = [c.map for c in build.g.charts] + [
            identity_chart(), scaling_chart(), top_split(QUADRANTS), doubled_cube(),
            chart_with_face(lambda loop: centroid_fan(loop, moved_corner(loop, (0.1, 0.0, 0.0))))]
        specs = [(m.domain, m._b, m.pieces_by_facet) for m in charts]
        with mock.patch.object(star_extend, "_cone_signs", wraps=star_extend._cone_signs) as cones:
            reports = [rmap.validate_boundary_map() for rmap in radial_maps(specs)]
        rows = [len(call.args[2]) for call in cones.call_args_list]
        cube = sum(len(m.fan_cell) for m in charts[5:])
        assert rows == [cube + 142] + ([cube] if first else [])
        for rep, spec in zip(reports, specs):
            alone = RadialMap(*spec)
            assert report_bits(rep) == report_bits(alone.validate_boundary_map()) \
                == report_bits(boundary_report(alone))
        assert [rep.passed for rep in reports] == [True] * 7 + [False] * 3

    def test_a_map_batch_raises_what_its_first_failing_map_raises(self):
        # a flat image cone fails in the stacked part, a missing facet
        # before it: the batch raises the error of the first map that
        # fails, whatever its stage, with that map's position
        good = (cube_box(), ORIGIN, {f: [identity_piece(loop)]
                                     for f, loop in face_loops(1.0).items()})
        for specs, want, index in (([good, collapsed_chart_spec(), chart_spec_without(2)],
                                    "not oriented as its domain cone", 1),
                                   ([good, chart_spec_without(2), collapsed_chart_spec()],
                                    "no boundary piece for facet 2", 1),
                                   ([good, good, collapsed_chart_spec()],
                                    "not oriented as its domain cone", 2)):
            with pytest.raises(GeometryError, match=want) as err:
                radial_maps(specs)
            assert err.value.map_index == index


def doubling(p):
    """(r, theta, z) -> (r, 2 theta, z) about the x3 axis."""
    x, y, z = p
    r, t = math.hypot(x, y), math.atan2(y, x)
    return (r * math.cos(2 * t), r * math.sin(2 * t), z)


def doubled_cube():
    """The cube chart of angle doubling about the x3 axis: each facet fanned
    about its centre over its corners and edge midpoints, each fan triangle
    a piece onto the triangle of its vertices' images.  Its image surface
    winds twice about the centre."""
    pieces = {}
    for f, loop in face_loops(1.0).items():
        ring = [q for p, r in zip(loop, loop[1:] + loop[:1])
                for q in (p, tuple((a + b) / 2 for a, b in zip(p, r)))]
        c = tuple(sum(p[i] for p in loop) / 4 for i in range(3))
        pieces[f] = [[((c, p, q), tuple(map(doubling, (c, p, q))))]
                     for p, q in zip(ring, ring[1:] + ring[:1])]
    return RadialMap(cube_box(), ORIGIN, pieces)


class TestDegree:
    """The degree count of ``validate_boundary_map``: the cones that hold
    one direction, on each side."""

    def test_an_image_that_winds_twice_is_refused(self):
        # the doubled cube passes its cone signs and its seams, and its
        # image cones cover space twice, so half of the round trips miss
        m = doubled_cube()
        rep = m.validate_boundary_map()
        assert not rep.passed
        assert (rep.seam_violations, rep.injectivity_violations) == (0, 1)
        assert rep.detail.endswith("; domain degree 1, image degree 2")
        pts = np.random.default_rng(0).uniform(-1.0, 1.0, (1000, 3)).tolist()
        assert sum(math.dist(m.inverse(m.eval(p)), p) > 1e-9 for p in pts) == 486

    def test_a_direction_in_a_cone_face_plane_is_passed_over(self, monkeypatch):
        # e1 lies in the plane of the cube's fan diagonals from (1, -1, -1)
        # to (1, 1, 1): the count takes the next direction, and fails
        # where no direction is left.  The count runs in construction, so
        # each reading is of the chart built again under the directions
        def built():
            m = identity_chart()
            return RadialMap(m.domain, m._b, m.pieces_by_facet).validate_boundary_map()

        want = built()
        monkeypatch.setattr(star_extend, "_DIRECTIONS",
                            ((1.0, 0.0, 0.0), star_extend._DIRECTIONS[0]))
        assert built() == want
        monkeypatch.setattr(star_extend, "_DIRECTIONS", ((1.0, 0.0, 0.0),))
        rep = built()
        assert (rep.passed, rep.injectivity_violations) == (False, 2)
        assert rep.detail.endswith("every direction of the degree count lies in the plane of "
                                   "a cone face")

    def test_the_edge_check_is_directed(self):
        # a tetrahedron's four faces, each run outward, form a closed
        # surface of one orientation; a face turned the other way runs its
        # three edges in the direction of their other faces
        ids = np.arange(4)
        fans = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
        targets = np.eye(4, 3)
        turn = np.ones(4, dtype=int)
        assert star_extend._seam_faults(ids, [4], fans, turn, targets)[:2] == ([0], [None])
        assert oracles._seam_faults(ids, fans, turn, targets)[:2] == (0, None)
        turn[3] = -1
        faults, first, split = star_extend._seam_faults(ids, [4], fans, turn, targets)
        assert (faults, first, split.any()) == ([3], [(0, (2, 1), (2, 0))], False)
        faults, first, split = oracles._seam_faults(ids, fans, turn, targets)
        assert (faults, first, split.any()) == (3, (0, (2, 1), (2, 0)), False)


# the cube's identity chart with its vertices as tuples, lists and numpy rows
VERTEX_FORMS = {"tuples": lambda loop: loop, "lists": lambda loop: [list(p) for p in loop],
                "rows": np.array}


class TestVertexForms:
    @pytest.mark.parametrize("form", ["lists", "rows"])
    def test_any_sequence_of_three_numbers_is_a_vertex(self, form):
        # construction takes every vertex as a tuple of floats, so the chart
        # is bitwise the one of tuple vertices
        def chart(as_form):
            return one_piece_chart(cube_box(), {f: identity_piece(as_form(loop))
                                                for f, loop in face_loops(1.0).items()})

        want, got = chart(VERTEX_FORMS["tuples"]), chart(VERTEX_FORMS[form])
        assert repr((got._consts, got._frames, got._inverses, got.validate_boundary_map())) \
            == repr((want._consts, want._frames, want._inverses, want.validate_boundary_map()))
        for name in ("points", "targets", "images", "point_ids", "linear", "fan_cell"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def edit(data, seqs):
    """The lists ``seqs``, of one length, each with the same drawn edit: an
    entry dropped, duplicated or cut off with all after it, or the entries
    permuted."""
    n = len(seqs[0])
    op = data.draw(st.sampled_from(["drop", "duplicate", "truncate", "permute"]))
    if op == "permute":
        order = data.draw(st.permutations(range(n)))
    else:
        k = data.draw(st.integers(0, max(n - 1, 0)))
        order = {"drop": [*range(k), *range(k + 1, n)], "duplicate": [*range(k + 1), *range(k, n)],
                 "truncate": [*range(k)]}[op]
    return [[seq[i] for i in order] for seq in seqs]


def nudge(data, vertices):
    """The ``vertices`` (sequences of numbers), each with the same drawn
    coordinate moved by an ulp or set to NaN, or each with its last
    coordinate cut off."""
    op = data.draw(st.sampled_from(["up", "down", "nan", "truncate"]))
    k = data.draw(st.integers(0, 2))
    out = []
    for v in map(list, vertices):
        if op == "truncate":
            v.pop()
        else:
            v[k] = math.nan if op == "nan" else math.nextafter(
                float(v[k]), math.inf if op == "up" else -math.inf)
        out.append(v)
    return out


def mutated_spec(data, domain, centre, pieces_by_facet):
    """(lo, hi, centre, pieces by facet) of a chart spec with one drawn
    mutation: a box corner or the centre nudged, a facet's pieces or a
    piece's cells edited, a cell's domain polygon, image polygon or both
    edited alike, or one vertex of either or both nudged alike."""
    ends = [domain.lo.tolist(), domain.hi.tolist(), list(centre)]
    tree = {f: [[[list(dom), list(img)] for dom, img in piece] for piece in pieces]
            for f, pieces in pieces_by_facet.items()}
    level = data.draw(st.sampled_from(["ends", "pieces", "cells", "polygon", "vertex"]))
    f = data.draw(st.sampled_from(sorted(tree)))
    piece = data.draw(st.sampled_from(tree[f]))
    cell = data.draw(st.sampled_from(piece))
    sides = data.draw(st.sampled_from([[0], [1], [0, 1]]))
    if level == "ends":
        k = data.draw(st.integers(0, 2))
        ends[k] = nudge(data, [ends[k]])[0]
    elif level == "pieces":
        tree[f] = edit(data, [tree[f]])[0]
    elif level == "cells":
        piece[:] = edit(data, [piece])[0]
    elif level == "polygon":
        for side, polygon in zip(sides, edit(data, [cell[side] for side in sides])):
            cell[side] = polygon
    else:
        k = data.draw(st.integers(0, len(cell[0]) - 1))
        for side, vertex in zip(sides, nudge(data, [cell[side][k] for side in sides])):
            cell[side][k] = vertex
    return (*ends, tree)


def cube_spec():
    return cube_box(), ORIGIN, {f: [identity_piece(loop)] for f, loop in face_loops(1.0).items()}


class TestMutatedSpecs:
    """Every mutant of the cube's identity chart or of an atlas chart
    either builds, and then its validation passes or fails as the per-chart
    oracle's report (``oracles.boundary_report``) does, bitwise, or is
    refused by GeometryError; derandomized, so that every run draws the
    same mutants."""

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(st.data())
    def test_a_mutated_chart_builds_or_is_refused(self, build, data):
        specs = [cube_spec()] + [(c.map.domain, c.map._b, c.map.pieces_by_facet)
                                 for c in build.g.charts]
        lo, hi, centre, pieces_by_facet = mutated_spec(data, *data.draw(st.sampled_from(specs)))
        try:
            rmap = RadialMap(Box(lo, hi), centre, pieces_by_facet)
        except GeometryError:
            return
        rep = rmap.validate_boundary_map()
        assert isinstance(rep.passed, bool)
        assert report_bits(rep) == report_bits(boundary_report(rmap))


class TestRadial2D:
    """The 2D radial formula of the oracles, against which the tests hold
    each face fan's cells, and the charts on their face fans."""

    def test_square_to_square_identity(self):
        # the top face fanned onto itself about its centre: the formula and
        # the chart on the face are both the identity
        sq = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
        m = chart_with_face(lambda loop: centroid_fan(loop, loop))
        rng = np.random.default_rng(4)
        for _ in range(200):
            u, v = rng.random(2) * 2 - 1
            w = _radial_2d(sq, sq, (0.0, 0.0), (0.0, 0.0), u, v)
            assert np.allclose(w, (u, v), atol=1e-12)
            assert np.allclose(m.eval((u, v, 1.0)), (u, v, 1.0), atol=1e-12)

    def test_round_trip_on_nonconvex_image(self, build):
        # img is the A' image face "P0 P1 T1 Q1 Q0" in (x2, x3), about its
        # stated centre, and sq a quarter of it; the A' chart on that face
        # (x1 = 0), the fan about its area centroid onto img, is the formula
        sq = [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5, 0.875), (0.5, 0.0)]
        img = [(0.0, 0.0), (0.0, 4.0), (4.0, 4.0), (2.0, 3.5), (2.0, 0.0)]
        face = [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (2.0, 0.0)]
        a, b = (0.21875, 0.90625), (0.875, 3.625)
        centre = face_centre([(0.0, u, v) for u, v in face])[1:]
        chart = build.g.by_id["A'"].map
        rng = np.random.default_rng(5)
        worst = 0.0
        n = 0
        while n < 500:
            u, v = rng.random(2)
            if not point_in_polygon(sq, (u, v)):
                continue
            w = _radial_2d(sq, img, a, b, u, v)
            u2, v2 = _radial_2d(img, sq, b, a, *w)
            worst = max(worst, math.hypot(u2 - u, v2 - v))
            q = chart.eval((0.0, 2 * u, v))
            assert np.allclose(q, (0.0, *_radial_2d(face, img, centre, b, 2 * u, v)),
                               atol=1e-12)
            assert math.dist(chart.inverse(q), (0.0, 2 * u, v)) <= 1e-12
            n += 1
        assert worst <= 1e-9
