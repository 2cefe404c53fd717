import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrdyn.geometry import StarShape, attach_certificate, locate
from qrdyn.star_extend import (FacetPiece, IdentityPiece, Radial2DPiece,
                               RadialMap, TrivialSelect, build_radial_map_2d)


class ScalePiece(FacetPiece):
    """Pure dilation x -> k x of a facet, for dilation-chart tests."""

    def __init__(self, k, loop3):
        self.k = k
        self._loop = [tuple(map(float, p)) for p in loop3]

    def eval3(self, p):
        return (self.k * p[0], self.k * p[1], self.k * p[2])

    def invert3(self, q):
        return (q[0] / self.k, q[1] / self.k, q[2] / self.k)

    def contains_domain_points(self, pts, tol):
        return np.ones(len(pts), dtype=bool)

    def domain_boundary_loops(self):
        return [self._loop]


def cube_shape(side=1.0, centre=(0, 0, 0)):
    s = StarShape.cuboid([-side] * 3, [side] * 3, centre=centre)
    attach_certificate(s, 48)
    return s


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
        l_min, l_max = m.empirical_bilipschitz(pairs=500, seed=1)
        assert l_min == pytest.approx(2.0, abs=1e-9)
        assert l_max == pytest.approx(2.0, abs=1e-9)

    def test_identity_chart_bilipschitz_is_one(self):
        m = identity_chart()
        l_min, l_max = m.empirical_bilipschitz(pairs=500, seed=1)
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
        img_b = np.asarray(m.boundary_eval(hit.point))
        out = np.asarray(m.eval(tuple(p)))
        lhs = np.linalg.norm(out) / np.linalg.norm(img_b)
        rhs = r / np.linalg.norm(hit.point)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_boundary_points_fixed_by_radial_formula(self):
        m = scaling_chart(2.0)
        rng = np.random.default_rng(2)
        pts = m.sample_domain_boundary(200, rng)
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


class TestValidation:
    def test_identity_chart_passes(self):
        rep = identity_chart().validate_boundary_map(samples=400, seed=0)
        assert rep.passed, rep

    def test_scaling_chart_passes(self):
        rep = scaling_chart().validate_boundary_map(samples=400, seed=0)
        assert rep.passed, rep

    def test_broken_vertex_image_fails_seams(self):
        # perturb one vertex image of a 2D radial piece on one face only:
        # the shared edges with neighbouring faces must betray the seam
        dom = cube_shape()
        cod = cube_shape()
        loops = face_loops(1.0)
        pieces = {f: IdentityPiece(loop) for f, loop in loops.items()}
        broken_img = [np.asarray(p, float) for p in loops[5]]
        broken_img[2] = broken_img[2] + np.array([0.1, 0.0, 0.0])
        pieces[5] = Radial2DPiece(loops[5], broken_img, resolution=24)
        m = RadialMap.from_pieces(dom, cod, pieces, pieces)
        rep = m.validate_boundary_map(samples=400, seed=0)
        assert not rep.passed
        assert rep.worst_seam_dev > 1e-3


class TestRadial2D:
    def test_square_to_square_identity(self):
        sq = [(-1, -1), (1, -1), (1, 1), (-1, 1)]
        m = build_radial_map_2d(sq, sq, resolution=24)
        rng = np.random.default_rng(4)
        for _ in range(200):
            u, v = rng.random(2) * 2 - 1
            w = m.eval(u, v)
            assert np.allclose(w, (u, v), atol=1e-12)

    def test_round_trip_on_nonconvex_image(self):
        sq = [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5, 0.875), (0.5, 0.0)]
        img = [(0.0, 0.0), (0.0, 4.0), (4.0, 4.0), (2.0, 3.5), (2.0, 0.0)]
        m = build_radial_map_2d(sq, img, resolution=24)
        rng = np.random.default_rng(5)
        from qrdyn.geometry import locate as loc2
        worst = 0.0
        n = 0
        while n < 500:
            u, v = rng.random(2)
            if loc2(m.domain, (u, v)).kind != "interior":
                continue
            w = m.eval(u, v)
            u2, v2 = m.invert(*w)
            worst = max(worst, math.hypot(u2 - u, v2 - v))
            n += 1
        assert worst <= 1e-9
