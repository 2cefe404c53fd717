import functools
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (_radial_2d, cover_deviation_all_pairs, cover_deviation_per_triangle,
                     oriented_area_fraction,
                     point_in_polygon)
from qrdyn import star_extend
from qrdyn.geometry import GeometryError, StarShape, cuboid_spec
from qrdyn.geometry import CertificationFailure
from qrdyn.pieces import (FacetPiece, FormulaPiece, IdentityPiece, Radial2DPiece,
                          _star_centres, radial_pieces)
from qrdyn.star_extend import RadialMap, radial_maps


class ScalePiece(FacetPiece):
    """Pure dilation x -> k x of a facet, for dilation-chart tests."""

    def __init__(self, k, loop3):
        loop = [tuple(map(float, p)) for p in loop3]
        self.cells = [(loop, [(k * x, k * y, k * z) for x, y, z in loop])]


class CollapsePiece(FacetPiece):
    """Sends the whole facet to one point: a boundary map that is far from
    injective."""

    def __init__(self, loop3):
        self.cells = [(loop3, [(0.0, 0.0, 1.0)] * len(loop3))]


class FoldPiece(FacetPiece):
    """Fans a face about its centre onto the fan about a point of its plane
    outside the face: one image triangle folds over, though the signed
    areas still add up to the face."""

    def __init__(self, loop):
        c = (0.0, 0.0, 1.0)
        self.cells = [((c, p, q), ((1.5, 0.0, 1.0), p, q))
                      for p, q in zip(loop, loop[1:] + loop[:1])]


def cube_shape(side=1.0, centre=(0, 0, 0)):
    return StarShape(*cuboid_spec([-side] * 3, [side] * 3, centre))


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
    pieces = {f: IdentityPiece(loop) for f, loop in face_loops(1.0).items()}
    return one_piece_chart(cube_shape(), cube_shape(), pieces)


@functools.lru_cache(maxsize=None)
def scaling_chart(k=2.0):
    pieces = {f: ScalePiece(k, loop) for f, loop in face_loops(1.0).items()}
    return one_piece_chart(cube_shape(1.0), cube_shape(k), pieces)


def bilipschitz_ratios(m, pairs, seed):
    """Least and largest |m(x) - m(y)| / |x - y| over seeded pairs of points
    of the chart's box domain."""
    rng = np.random.default_rng(seed)
    lo, hi = m.domain.box
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
        hit = psi(m.domain, p)
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


def chart_with_face(piece_for_top):
    """The identity chart of the cube with the piece of its top face
    (facet 5) replaced."""
    loops = face_loops(1.0)
    pieces = {f: IdentityPiece(loop) for f, loop in loops.items()}
    pieces[5] = piece_for_top(loops[5])
    return one_piece_chart(cube_shape(), cube_shape(), pieces)


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
        m = chart_with_face(lambda loop: Radial2DPiece(
            loop, moved_corner(loop, (0.1, 0.0, 0.0))))
        rep = m.validate_boundary_map()
        assert not rep.passed
        assert rep.worst_seam_dev > 1e-3

    def test_reversed_image_loop_is_not_positive(self):
        # the face's image is the facet itself, run the other way round
        m = chart_with_face(lambda loop: Radial2DPiece(loop, loop[::-1]))
        rep = m.validate_boundary_map()
        assert not rep.passed
        assert rep.injectivity_violations >= 4

    def test_off_plane_image_fails_the_boundary(self):
        m = chart_with_face(lambda loop: Radial2DPiece(
            loop, moved_corner(loop, (0.0, 0.0, 0.1))))
        rep = m.validate_boundary_map()
        assert not rep.passed
        assert rep.worst_boundary_dev == pytest.approx(0.1, rel=1e-9)


    def test_folded_face_fails_the_sign_test(self):
        rep = chart_with_face(FoldPiece).validate_boundary_map()
        assert rep.injectivity_violations == 1
        assert rep.worst_seam_dev == rep.worst_boundary_dev == 0.0
        assert not rep.passed


class TestInjectivityCount:
    def test_collapsed_face_is_refused(self):
        # the top face's one cell sends its three first vertices to one
        # point: the cone over it has a singular linear part
        with pytest.raises(GeometryError, match="singular linear part"):
            chart_with_face(CollapsePiece)

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


def top_split(*groups):
    """The identity chart of the cube with its top facet (5) carried by one
    identity ``FormulaPiece`` per group of triangles."""
    pieces = {f: [IdentityPiece(loop)] for f, loop in face_loops(1.0).items()}
    pieces[5] = [FormulaPiece([(t, t) for t in tris]) for tris in groups]
    return RadialMap(cube_shape(), cube_shape(), pieces, {f: p[0] for f, p in pieces.items()})


# the top facet's corners, its centre and a point on its diagonal
P0, P1, P2, P3 = face_loops(1.0)[5]
C, M = (0.0, 0.0, 1.0), (0.5, 0.5, 1.0)


class TestConstruction:
    """The map's construction errors, and facets of several pieces."""

    @pytest.mark.parametrize("top", [None, []], ids=["missing", "empty"])
    def test_a_facet_without_pieces_is_refused(self, top):
        pieces = {f: [IdentityPiece(loop)] for f, loop in face_loops(1.0).items()}
        by_codomain = {f: p[0] for f, p in pieces.items()}
        if top is None:
            del pieces[5]
        else:
            pieces[5] = top
        with pytest.raises(GeometryError, match="no boundary piece for facet 5"):
            RadialMap(cube_shape(), cube_shape(), pieces, by_codomain)

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

    def test_a_piece_that_serves_no_codomain_facet_is_refused(self):
        pieces = {f: IdentityPiece(loop) for f, loop in face_loops(1.0).items()}
        by_codomain = {**pieces, 5: pieces[0]}
        m = RadialMap(cube_shape(), cube_shape(), {f: [p] for f, p in pieces.items()},
                      by_codomain)
        with pytest.raises(GeometryError, match="piece identity serves no codomain facet"):
            m.validate_boundary_map()

    @pytest.mark.parametrize("split", ["halves", "quadrants"])
    def test_a_facet_of_several_pieces(self, split):
        # two fans of two triangles about the centre, or four identity
        # squares meeting at it: every piece owns a sector, and the chart
        # is the identity
        if split == "halves":
            m = top_split([(C, P0, P1), (C, P1, P2)], [(C, P2, P3), (C, P3, P0)])
        else:
            pieces = {f: [IdentityPiece(loop)] for f, loop in face_loops(1.0).items()}
            pieces[5] = [IdentityPiece([(x, y, 1.0), (x, 0.0, 1.0), C, (0.0, y, 1.0)])
                         for x in (-1.0, 1.0) for y in (-1.0, 1.0)]
            m = RadialMap(cube_shape(), cube_shape(), pieces,
                          {f: p[0] for f, p in pieces.items()})
        *_, by_sector = m._facets[5]
        assert len({id(entry) for entry in by_sector}) == len(m.pieces_by_facet[5])
        rng = np.random.default_rng(6)
        pts = rng.random((500, 3)) * 2 - 1
        pts[:100, 2] = 1.0
        for p in pts.tolist():
            assert math.dist(m.eval(p), p) <= 1e-12


CHARTS = ["A'", "A''1", "A''2", "A''3", "A''4"]


def report_bits(rep):
    """A ValidationReport with its floats as IEEE bytes: equal only if
    bitwise equal."""
    return (rep.passed, struct.pack("<2d", rep.worst_boundary_dev, rep.worst_seam_dev),
            rep.injectivity_violations, rep.detail)


def all_pairs_cover(dom, img, tol, *_):
    return cover_deviation_all_pairs(dom, img, tol)


class TestBatchedValidation:
    @staticmethod
    def triangles_of(rmap, monkeypatch):
        """The arguments that the validation of rmap passes to
        ``_cover_deviation`` (the triangles, their images, the tolerance,
        and each triangle's domain facet with the facets' planes), and its
        report."""
        seen = []
        real = star_extend._cover_deviation

        def spy(*args):
            seen.append(args)
            return real(*args)

        monkeypatch.setattr(star_extend, "_cover_deviation", spy)
        rep = rmap.validate_boundary_map()
        return seen[0], rep

    @pytest.mark.parametrize("cid", CHARTS)
    def test_matches_the_per_triangle_checks(self, cid, build, monkeypatch):
        rmap = build.g.by_id[cid].map
        args, rep = self.triangles_of(rmap, monkeypatch)
        dom, img, tol = args[:3]
        got = star_extend._cover_deviation(*args)
        assert got == pytest.approx(cover_deviation_per_triangle(dom, img, tol),
                                    rel=1e-9, abs=1e-15)
        assert got == cover_deviation_all_pairs(dom, img, tol)
        assert got <= rep.worst_seam_dev
        # the oriented areas of the domain triangles, each along the normal
        # of the box face that holds it, against Fraction
        normals = np.zeros_like(dom[:, 0])
        axis = np.argmin(np.ptp(dom, axis=1), axis=1)
        normals[np.arange(len(dom)), axis] = 1.0
        signs, areas = star_extend._oriented_areas(normals, dom)
        for k in range(len(dom)):
            sign, area = oriented_area_fraction(normals[k], dom[k])
            assert signs[k] == sign
            assert areas[k] == pytest.approx(area, rel=1e-14)

    @pytest.mark.parametrize("cid", CHARTS)
    def test_reports_equal_the_all_pairs_oracle(self, cid, build, monkeypatch):
        # the seam check against the vertices on each triangle's facet plane
        # reports bit for bit what solving every triangle against every
        # vertex reports, the seams along the box edges included
        rmap = build.g.by_id[cid].map
        rep = rmap.validate_boundary_map()
        assert report_bits(rep) == report_bits(build.validations[cid])
        monkeypatch.setattr(star_extend, "_cover_deviation", all_pairs_cover)
        assert report_bits(rmap.validate_boundary_map()) == report_bits(rep)

    @pytest.mark.parametrize("cid", CHARTS)
    def test_a_tampered_piece_fails_its_chart(self, cid, build, monkeypatch):
        # the first cell of a face fan sends the face centre a hundredth of
        # the way along its image edge, away from the image that the other
        # cells give it.  The validation checks the cells that the chart's
        # map took from its pieces, so the built chart still passes and
        # the chart built again from the tampered piece fails
        built = build.g.by_id[cid].map
        piece = next(p for pieces in built.pieces_by_facet.values() for p in pieces
                     if isinstance(p, Radial2DPiece))
        (dom, (c, p, q)), *rest = piece.cells
        moved = tuple(a + 0.01 * (b - a) for a, b in zip(c, p))
        monkeypatch.setattr(piece, "cells", [(dom, (moved, p, q))] + rest)
        assert report_bits(built.validate_boundary_map()) == report_bits(build.validations[cid])
        rmap = RadialMap(built.domain, built.codomain, built.pieces_by_facet,
                         built.piece_by_codomain_facet)
        rep = rmap.validate_boundary_map()
        assert not rep.passed
        assert rep.worst_seam_dev == pytest.approx(math.dist(moved, c), rel=1e-9)
        monkeypatch.setattr(star_extend, "_cover_deviation", all_pairs_cover)
        assert report_bits(rmap.validate_boundary_map()) == report_bits(rep)

    def test_a_moved_image_shows_in_both(self, monkeypatch):
        m = chart_with_face(lambda loop: Radial2DPiece(
            loop, moved_corner(loop, (0.1, 0.0, 0.0))))
        args, _ = self.triangles_of(m, monkeypatch)
        dom, img, tol = args[:3]
        got = star_extend._cover_deviation(*args)
        assert got > 1e-3
        assert got == pytest.approx(cover_deviation_per_triangle(dom, img, tol), rel=1e-12)
        assert got == cover_deviation_all_pairs(dom, img, tol)


def piece_bits(piece):
    """A face fan's frames, centres and cells, its floats as IEEE bytes."""
    frames = [getattr(f, k) for f in (piece.dom_frame, piece.img_frame) for k in f.__slots__]
    return struct.pack(f"<{len(frames)}d", *frames), repr((piece.dom_centre, piece.img_centre,
                                                            piece.cells))


# a U whose prongs hide each other: its visibility kernel is empty
U_LOOP = [(0.0, 0.0, 0.0), (3.0, 0.0, 0.0), (3.0, 3.0, 0.0), (2.0, 3.0, 0.0),
          (2.0, 1.0, 0.0), (1.0, 1.0, 0.0), (1.0, 3.0, 0.0), (0.0, 3.0, 0.0)]
BAD_FACES = {"counts": (U_LOOP[:4], U_LOOP[:3]),
             "degenerate": ([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0)],) * 2,
             "kernel": (U_LOOP, U_LOOP)}


def collapsed_chart_spec():
    pieces = {f: IdentityPiece(loop) for f, loop in face_loops(1.0).items()}
    pieces[5] = CollapsePiece(face_loops(1.0)[5])
    return cube_shape(), cube_shape(), {f: [p] for f, p in pieces.items()}, pieces


def chart_spec_without(facet):
    pieces = {f: IdentityPiece(loop) for f, loop in face_loops(1.0).items()}
    by_facet = {f: [p] for f, p in pieces.items() if f != facet}
    return cube_shape(), cube_shape(), by_facet, pieces


class TestBatches:
    """``radial_pieces`` and ``radial_maps`` against one object at a time."""

    def test_radial_pieces_are_the_pieces_built_one_by_one(self, build):
        # the build's face fans, and seeded quadrilaterals off their plane
        faces = {}
        for chart in build.g.charts:
            for piece in chart.map.pieces:
                if piece.kind == "radial2d":
                    faces[id(piece)] = tuple([cell[j][1] for cell in piece.cells] for j in (0, 1))
        loops = list(faces.values())
        rng = np.random.default_rng(12)
        for _ in range(20):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            quad = np.array([(1, 0, 0), (0.2, 1, 0), (-1, 0.1, 0), (0.1, -1, 0)]) * rng.uniform(0.5, 2)
            loops.append(((quad @ q.T).tolist(), (quad @ q.T * 2 + 1).tolist()))
        batch = radial_pieces(loops)
        for piece, (dom, img) in zip(batch, loops):
            assert piece_bits(piece) == piece_bits(Radial2DPiece(dom, img))
        for chart in build.g.charts:
            for piece in chart.map.pieces:
                if piece.kind == "radial2d":
                    assert piece_bits(piece) == piece_bits(Radial2DPiece(*faces[id(piece)]))

    def test_a_piece_batch_raises_what_its_first_failing_piece_raises(self):
        good = (face_loops(1.0)[5], face_loops(2.0)[5])
        alone = {}
        for name, (dom, img) in BAD_FACES.items():
            with pytest.raises(GeometryError) as err:
                Radial2DPiece(dom, img)
            alone[name] = err.value
        assert isinstance(alone["kernel"], CertificationFailure)
        names = list(BAD_FACES)
        for k in range(len(names)):
            order = names[k:] + names[:k]
            with pytest.raises(GeometryError) as err:
                radial_pieces([good] + [BAD_FACES[name] for name in order])
            assert type(err.value) is type(alone[order[0]])
            assert str(err.value) == str(alone[order[0]])

    def test_radial_maps_are_the_maps_built_one_by_one(self, build):
        # the A'' maps again, one batch against one map at a time
        specs = [(c.map.domain, c.map.codomain, c.map.pieces_by_facet,
                  c.map.piece_by_codomain_facet) for c in build.g.charts]
        for rmap, spec in zip(radial_maps(specs), specs):
            alone = RadialMap(*spec)
            assert rmap.linear.tobytes() == alone.linear.tobytes()
            assert repr((rmap._facets, rmap._all_image_cells, rmap._box)) \
                == repr((alone._facets, alone._all_image_cells, alone._box))

    def test_a_serving_piece_without_a_domain_facet_is_named(self):
        # codomain facet 5 is served by a piece that holds no domain facet:
        # both entry points name it before stacking any cell
        pieces = {f: IdentityPiece(loop) for f, loop in face_loops(1.0).items()}
        spare = IdentityPiece(face_loops(1.0)[5])
        spec = (cube_shape(), cube_shape(), {f: [p] for f, p in pieces.items()},
                {**pieces, 5: spare})
        good = (cube_shape(), cube_shape(), {f: [p] for f, p in pieces.items()}, pieces)
        want = "the identity piece serving codomain facet 5 holds no domain facet"
        with pytest.raises(GeometryError, match=want):
            RadialMap(*spec)
        with pytest.raises(GeometryError, match=want):
            radial_maps([good, spec])

    def test_a_map_batch_raises_what_its_first_failing_map_raises(self):
        # a singular cell fails after the sector tests, a missing facet
        # before them: the batch raises the error of the first map that
        # fails, whatever its stage
        good = one_piece_chart(cube_shape(), cube_shape(), {
            f: IdentityPiece(loop) for f, loop in face_loops(1.0).items()})
        good = (good.domain, good.codomain, good.pieces_by_facet, good.piece_by_codomain_facet)
        for specs, want in (([good, collapsed_chart_spec(), chart_spec_without(2)],
                             "singular linear part"),
                            ([good, chart_spec_without(2), collapsed_chart_spec()],
                             "no boundary piece for facet 2")):
            with pytest.raises(GeometryError, match=want):
                radial_maps(specs)


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
        a, b = _star_centres([sq, img])
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
