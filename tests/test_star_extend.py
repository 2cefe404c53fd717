import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import radial2d_invert
from qrdyn.geometry import StarShape
from qrdyn.star_extend import (FacetPiece, IdentityPiece, Radial2DPiece,
                               RadialMap, build_radial_map_2d)


class ScalePiece(FacetPiece):
    """Pure dilation x -> k x of a facet, for dilation-chart tests."""

    def __init__(self, k, loop3):
        self.k = k
        self._loop = [tuple(map(float, p)) for p in loop3]

    def eval3(self, p):
        return (self.k * p[0], self.k * p[1], self.k * p[2])

    def affine_cells(self):
        return [(self._loop, [self.eval3(p) for p in self._loop])]


class CollapsePiece(IdentityPiece):
    """Sends the whole facet to one point: a boundary map that is far from
    injective."""

    def eval3(self, p):
        return (0.0, 0.0, 1.0)


class FoldPiece(IdentityPiece):
    """Fans a face about its centre onto the fan about a point of its plane
    outside the face: one image triangle folds over, though the signed
    areas still add up to the face."""

    def eval3(self, p):
        return (1.5, 0.0, 1.0) if p == (0.0, 0.0, 1.0) else p

    def affine_cells(self):
        c, loop = (0.0, 0.0, 1.0), self.loop
        return [((c, p, q), (self.eval3(c), p, q))
                for p, q in zip(loop, loop[1:] + loop[:1])]


def cube_shape(side=1.0, centre=(0, 0, 0)):
    return StarShape.cuboid([-side] * 3, [side] * 3, centre=centre)


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


@functools.lru_cache(maxsize=None)
def identity_chart():
    dom = cube_shape()
    cod = cube_shape()
    pieces = {f: IdentityPiece(loop) for f, loop in face_loops(1.0).items()}
    return RadialMap.from_pieces(dom, cod, pieces, pieces)


@functools.lru_cache(maxsize=None)
def scaling_chart(k=2.0):
    dom = cube_shape(1.0)
    cod = cube_shape(k)
    pieces = {f: ScalePiece(k, loop) for f, loop in face_loops(1.0).items()}
    return RadialMap.from_pieces(dom, cod, pieces, pieces)


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
    return RadialMap.from_pieces(cube_shape(), cube_shape(), pieces, pieces)


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
    @staticmethod
    def collapsed_chart():
        loops = face_loops(1.0)
        pieces = {f: IdentityPiece(loop) for f, loop in loops.items()}
        pieces[5] = CollapsePiece(loops[5])
        return RadialMap.from_pieces(cube_shape(), cube_shape(), pieces, pieces)

    def test_collapsed_face_is_counted(self):
        # both triangles of the top face have images of area zero, and the
        # face's image does not tile the top facet
        rep = self.collapsed_chart().validate_boundary_map()
        assert rep.injectivity_violations == 2
        assert not rep.passed

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


class TestRadial2D:
    def test_square_to_square_identity(self):
        sq = [(-1, -1), (1, -1), (1, 1), (-1, 1)]
        m = build_radial_map_2d(sq, sq)
        rng = np.random.default_rng(4)
        for _ in range(200):
            u, v = rng.random(2) * 2 - 1
            w = m.eval(u, v)
            assert np.allclose(w, (u, v), atol=1e-12)

    def test_round_trip_on_nonconvex_image(self):
        sq = [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5, 0.875), (0.5, 0.0)]
        img = [(0.0, 0.0), (0.0, 4.0), (4.0, 4.0), (2.0, 3.5), (2.0, 0.0)]
        m = build_radial_map_2d(sq, img)
        rng = np.random.default_rng(5)
        from qrdyn.geometry import locate
        worst = 0.0
        n = 0
        while n < 500:
            u, v = rng.random(2)
            if locate(m.domain, (u, v)).kind != "interior":
                continue
            w = m.eval(u, v)
            u2, v2 = radial2d_invert(m, *w)
            worst = max(worst, math.hypot(u2 - u, v2 - v))
            n += 1
        assert worst <= 1e-9
