import functools
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (_radial_2d, cover_deviation_all_pairs, cuboid_spec,
                     oriented_area_fraction, point_in_polygon)
from qrdyn import star_extend
from qrdyn.geometry import GeometryError, StarShape
from qrdyn.pieces import face_centre, fan_cells
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


def cube_shape(side=1.0):
    """The cube [-side, side]^3 as a polyhedron, star about the origin."""
    return StarShape(*cuboid_spec([-side] * 3, [side] * 3))


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


def one_piece_chart(dom, cod, pieces):
    """The chart with the piece pieces[f] on domain facet f, serving
    codomain facet f."""
    return RadialMap(dom, cod, {f: [p] for f, p in pieces.items()}, pieces)


@functools.lru_cache(maxsize=None)
def identity_chart():
    pieces = {f: identity_piece(loop) for f, loop in face_loops(1.0).items()}
    return one_piece_chart(cube_box(), cube_shape(), pieces)


@functools.lru_cache(maxsize=None)
def scaling_chart(k=2.0):
    pieces = {f: scale_piece(k, loop) for f, loop in face_loops(1.0).items()}
    return one_piece_chart(cube_box(1.0), cube_shape(k), pieces)


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
        # |m(x) - b| / |bmap(psi(x)) - b| == |x - a| / |psi(x) - a|
        m = scaling_chart(2.0)
        p = np.array([x, y, z])
        r = np.linalg.norm(p)
        if r < 1e-6:
            return
        from qrdyn.geometry import psi
        hit = psi(cube_shape(), p)
        img_b = 2.0 * hit.point          # the boundary map of the chart
        out = np.asarray(m.eval(tuple(p)))
        lhs = np.linalg.norm(out) / np.linalg.norm(img_b)
        rhs = r / np.linalg.norm(hit.point)
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
    return one_piece_chart(cube_box(), cube_shape(), pieces)


def refused_then_validated(piece_for_top, monkeypatch):
    """The chart ``chart_with_face(piece_for_top)``, which its cone signs
    refuse, built with them switched off, so that the boundary-map
    validation, an independent check, can be read on it."""
    with pytest.raises(GeometryError, match="not oriented as its domain cone"):
        chart_with_face(piece_for_top)
    monkeypatch.setattr(star_extend, "_cone_sign_failures",
                        lambda *args: np.array([], dtype=int))
    return chart_with_face(piece_for_top).validate_boundary_map()


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
        m = chart_with_face(lambda loop: centroid_fan(
            loop, moved_corner(loop, (0.0, 0.0, 0.1))))
        rep = m.validate_boundary_map()
        assert not rep.passed
        assert rep.worst_boundary_dev == pytest.approx(0.1, rel=1e-9)


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
        chart = build.g.by_id["A'"].map
        tracemalloc.start()
        try:
            chart.validate_boundary_map()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the sampled count held three 600 x 600 x 3 float arrays at once
        # (26 MB in all); the exact check must stay below half of that
        assert peak <= 1.5 * 600 * 600 * 3 * 8


def top_split_shape(patches):
    """The cube [-1, 1]^3 as a polyhedron about the origin with its top face
    split into the polygons ``patches`` (facets 5, 6, ...); each other face
    takes the patches' vertices on its edges, so that the faces meet edge to
    edge."""
    verts, centre, faces = cuboid_spec([-1.0] * 3, [1.0] * 3)
    points = [tuple(p) for p in verts.tolist()]
    points += dict.fromkeys(p for patch in patches for p in patch if p not in points)
    sides = []
    for face in faces[:5]:
        loop = []
        for i, j in zip(face, face[1:] + face[:1]):
            a, b = points[i], points[j]
            loop.append(i)
            loop += sorted((k for k, p in enumerate(points[8:], 8)
                            if math.isclose(math.dist(a, p) + math.dist(p, b), math.dist(a, b))),
                           key=lambda k: math.dist(a, points[k]))
        sides.append(loop)
    return StarShape(points, centre, sides + [[points.index(p) for p in patch] for patch in patches])


def top_split(*groups, patches=None):
    """The identity chart of the cube with its top facet (5) carried by one
    piece per group of polygons, the identity on each, the k-th piece
    serving codomain facet 5 + k: the cube's top face, or for several
    pieces the patches of ``top_split_shape(patches)``."""
    pieces = {f: [identity_piece(loop)] for f, loop in face_loops(1.0).items()}
    pieces[5] = [[(t, t) for t in tris] for tris in groups]
    by_codomain = {f: p[0] for f, p in pieces.items()}
    by_codomain.update(enumerate(pieces[5][1:], 6))
    shape = top_split_shape(patches) if len(groups) > 1 else cube_shape()
    return RadialMap(cube_box(), shape, pieces, by_codomain)


# the top facet's corners, its centre and a point on its diagonal
P0, P1, P2, P3 = face_loops(1.0)[5]
C, M = (0.0, 0.0, 1.0), (0.5, 0.5, 1.0)
# the top facet's two halves about a diagonal, and its four quadrants,
# squares meeting at its centre
HALVES = [[P0, P1, P2], [P2, P3, P0]]
QUADRANTS = [[(x, y, 1.0), (x, 0.0, 1.0), C, (0.0, y, 1.0)]
             for x in (-1.0, 1.0) for y in (-1.0, 1.0)]


class TestConstruction:
    """The map's construction errors, and facets of several pieces."""

    @pytest.mark.parametrize("top", [None, []], ids=["missing", "empty"])
    def test_a_facet_without_pieces_is_refused(self, top):
        pieces = {f: [identity_piece(loop)] for f, loop in face_loops(1.0).items()}
        by_codomain = {f: p[0] for f, p in pieces.items()}
        if top is None:
            del pieces[5]
        else:
            pieces[5] = top
        with pytest.raises(GeometryError, match="no boundary piece for facet 5"):
            RadialMap(cube_box(), cube_shape(), pieces, by_codomain)

    def test_cells_that_share_no_vertex_are_refused(self):
        with pytest.raises(GeometryError, match="the cells of facet 5 piece 0 share no vertex"):
            top_split([(P0, P1, C), (P2, P3, M)])

    def test_pieces_that_share_no_vertex_are_refused(self):
        with pytest.raises(GeometryError, match="the pieces of facet 5 share no vertex"):
            top_split([(P0, P1, C)], [(P2, P3, M)], patches=HALVES)

    def test_a_sector_that_no_cell_covers_is_refused(self):
        with pytest.raises(GeometryError,
                           match="none of the cells of facet 5 piece 0 covers the sector"):
            top_split([(C, P0, P1), (C, P2, P3)])

    def test_a_sector_that_no_piece_covers_is_refused(self):
        with pytest.raises(GeometryError,
                           match="none of the pieces of facet 5 covers the sector"):
            top_split([(C, P0, P1)], [(C, P2, P3)], patches=HALVES)

    def test_a_sector_that_several_cells_cover_is_refused(self):
        # one fan cell listed twice: both copies have a vertex at each of
        # the sector's bounding angles
        with pytest.raises(GeometryError,
                           match="several of the cells of facet 5 piece 0 cover the sector"):
            top_split([(C, P0, P1), (C, P0, P1), (C, P1, P2), (C, P2, P3), (C, P3, P0)])

    def test_a_piece_that_serves_no_codomain_facet_is_refused(self):
        # codomain facet 5 is served by a piece on no domain facet, so the
        # top facet's piece serves none
        pieces = {f: identity_piece(loop) for f, loop in face_loops(1.0).items()}
        spare = identity_piece(face_loops(1.0)[5])
        with pytest.raises(GeometryError, match="facet 5 piece 0 serves no codomain facet"):
            RadialMap(cube_box(), cube_shape(), {f: [p] for f, p in pieces.items()},
                      {**pieces, 5: spare})

    def test_a_piece_that_serves_several_codomain_facets_is_refused(self):
        pieces = {f: identity_piece(loop) for f, loop in face_loops(1.0).items()}
        with pytest.raises(GeometryError,
                           match=re.escape("facet 0 piece 0 serves several codomain facets, "
                                           "[0, 5]")):
            RadialMap(cube_box(), cube_shape(), {f: [p] for f, p in pieces.items()},
                      {**pieces, 5: pieces[0]})

    @pytest.mark.parametrize("split", ["halves", "quadrants"])
    def test_a_facet_of_several_pieces(self, split):
        # two fans of two triangles about the centre, or four identity
        # squares meeting at it: every piece owns a sector, and the chart
        # is the identity
        if split == "halves":
            m = top_split([(C, P0, P1), (C, P1, P2)], [(C, P2, P3), (C, P3, P0)],
                          patches=HALVES)
        else:
            m = top_split(*([square] for square in QUADRANTS), patches=QUADRANTS)
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
    return rmap.points[rmap.fans], rmap.targets[rmap.fans]


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
    """The exact seam check, ``star_extend._seam_faults``: the cells meet
    edge to edge and every point has one image."""

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
        assert star_extend._seam_faults(rmap.point_ids, rmap.sizes, rmap.targets)[0] == 0
        # the oriented areas of the domain triangles, each along the normal
        # of the box face that holds it, against Fraction
        dom, _ = fan_triangles(rmap)
        normals = np.zeros_like(dom[:, 0])
        axis = np.argmin(np.ptp(dom, axis=1), axis=1)
        normals[np.arange(len(dom)), axis] = 1.0
        signs, areas = star_extend._oriented_areas(normals, dom)
        for k in range(len(dom)):
            sign, area = oriented_area_fraction(normals[k], dom[k])
            assert signs[k] == sign
            assert areas[k] == pytest.approx(area, rel=1e-14)

    @pytest.mark.parametrize("cid", CHARTS)
    def test_reports_equal_the_all_pairs_oracle(self, cid, build):
        # the chart passes its exact seams, and the float reading of the
        # same seams, every triangle solved against every cell vertex
        # within the domain's tolerance, stays within the old seam
        # tolerance TAU_SEAM * max(1, diameter)
        rmap = build.g.by_id[cid].map
        rep = rmap.validate_boundary_map()
        assert report_bits(rep) == report_bits(build.validations[cid])
        assert rep.passed and rep.seam_violations == 0, rep
        dom, img = fan_triangles(rmap)
        assert (cover_deviation_all_pairs(dom, img, rmap.domain.tol * 1e3)
                <= star_extend.TAU_SEAM * max(1.0, rmap.codomain.diameter))

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
            rmap = RadialMap(built.domain, built.codomain, built.pieces_by_facet,
                             built.piece_by_codomain_facet)
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
        # 4 full edges and the 8 half edges each lie in no other cell
        m = top_split(QUADRANTS)
        rep = m.validate_boundary_map()
        assert not rep.passed
        assert (rep.seam_violations, rep.injectivity_violations) == (12, 0)
        assert ("facet 0 piece 0 cell 0: its edge from (-1.0, 1.0, 1.0) lies in 0 "
                "other cells" in rep.detail)
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
    return cube_box(), cube_shape(), {f: [p] for f, p in pieces.items()}, pieces


def chart_spec_without(facet):
    pieces = {f: identity_piece(loop) for f, loop in face_loops(1.0).items()}
    by_facet = {f: [p] for f, p in pieces.items() if f != facet}
    return cube_box(), cube_shape(), by_facet, pieces


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
        specs = [(c.map.domain, c.map.codomain, c.map.pieces_by_facet,
                  c.map.piece_by_codomain_facet) for c in build.g.charts]
        for rmap, spec in zip(radial_maps(specs), specs):
            alone = RadialMap(*spec)
            assert rmap.linear.tobytes() == alone.linear.tobytes()
            assert repr((rmap._consts, rmap._all_image_cells, rmap._box)) \
                == repr((alone._consts, alone._all_image_cells, alone._box))

    def test_a_serving_piece_without_a_domain_facet_is_named(self):
        # the cube's top face as two triangles, codomain facets 5 and 6, the
        # second served by a piece that holds no domain facet: both entry
        # points name it before stacking any cell
        pieces = {f: identity_piece(loop) for f, loop in face_loops(1.0).items()}
        spec = (cube_box(), top_split_shape(HALVES), {f: [p] for f, p in pieces.items()},
                {**pieces, 6: identity_piece(HALVES[1])})
        good = (cube_box(), cube_shape(), {f: [p] for f, p in pieces.items()}, pieces)
        want = "the piece serving codomain facet 6 holds no domain facet"
        with pytest.raises(GeometryError, match=want):
            RadialMap(*spec)
        with pytest.raises(GeometryError, match=want):
            radial_maps([good, spec])

    def test_a_map_batch_raises_what_its_first_failing_map_raises(self):
        # a flat image cone fails in the stacked part, a missing facet
        # before it: the batch raises the error of the first map that
        # fails, whatever its stage, with that map's position
        good = one_piece_chart(cube_box(), cube_shape(), {
            f: identity_piece(loop) for f, loop in face_loops(1.0).items()})
        good = (good.domain, good.codomain, good.pieces_by_facet, good.piece_by_codomain_facet)
        for specs, want, index in (([good, collapsed_chart_spec(), chart_spec_without(2)],
                                    "not oriented as its domain cone", 1),
                                   ([good, chart_spec_without(2), collapsed_chart_spec()],
                                    "no boundary piece for facet 2", 1),
                                   ([good, good, collapsed_chart_spec()],
                                    "not oriented as its domain cone", 2)):
            with pytest.raises(GeometryError, match=want) as err:
                radial_maps(specs)
            assert err.value.map_index == index


class TestRadial2D:
    """The 2D radial formula of the oracles, which the tests hold each face
    fan's cells against."""

    def test_square_to_square_identity(self):
        sq = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
        rng = np.random.default_rng(4)
        for _ in range(200):
            u, v = rng.random(2) * 2 - 1
            w = _radial_2d(sq, sq, (0.0, 0.0), (0.0, 0.0), u, v)
            assert np.allclose(w, (u, v), atol=1e-12)

    def test_round_trip_on_nonconvex_image(self):
        sq = [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5, 0.875), (0.5, 0.0)]
        img = [(0.0, 0.0), (0.0, 4.0), (4.0, 4.0), (2.0, 3.5), (2.0, 0.0)]
        # img is the A' image face "P0 P1 T1 Q1 Q0" in (x2, x3), about its
        # stated centre, and sq a quarter of it
        a, b = (0.21875, 0.90625), (0.875, 3.625)
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
            n += 1
        assert worst <= 1e-9
