import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import radial_power_dilatation_oracle
from qrdyn.dynamics import MapHandle, classify_escape, escape_rate_series, iterate
from qrdyn.example_maps import (PatchMap, build_patch, example_one, example_three,
                                example_two, fatou_h_eval, radial_square_eval,
                                x0_for_example_two)

LOG2 = math.log(2.0)


class TestFatouH:
    def test_origin(self):
        assert fatou_h_eval((0.0, 0.0)) == pytest.approx((2.0, 0.0))

    def test_imaginary_pi(self):
        # e^{-0} cos(pi) = -1 cancels the +1
        assert fatou_h_eval((0.0, math.pi)) == pytest.approx((0.0, math.pi))

    def test_far_right_is_unit_drift(self):
        x1, x2 = fatou_h_eval((20.0, 0.0))
        assert abs(x1 - 21.0) <= 1e-8
        assert x2 == 0.0

    def test_drift_bound_on_real_segment(self):
        for t in np.linspace(5.0, 30.0, 40):
            x1, x2 = fatou_h_eval((t, 0.0))
            dev = math.hypot(x1 - t - 1.0, x2)
            assert dev <= math.exp(-5.0) * (1 + 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-3, 30), st.floats(-10, 10))
    def test_conjugation_symmetry(self, x, y):
        hx, hy = fatou_h_eval((x, y))
        cx, cy = fatou_h_eval((x, -y))
        assert cx == pytest.approx(hx, rel=1e-12, abs=1e-12)
        assert cy == pytest.approx(-hy, rel=1e-12, abs=1e-12)


class TestRadialSquare:
    def test_axis_value(self):
        assert radial_square_eval((0.0, 0.0, 2.0)) == pytest.approx((0, 0, 4))

    def test_fixes_origin(self):
        assert radial_square_eval((0.0, 0.0)) == (0.0, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-40, 40), st.floats(-40, 40), st.floats(-40, 40))
    def test_magnitude_squares(self, x, y, z):
        v = np.array([x, y, z])
        out = np.asarray(radial_square_eval(v))
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(v) ** 2,
                                                    rel=1e-12, abs=1e-12)

    def test_orientation_preserving(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            x = rng.standard_normal(3)
            if np.linalg.norm(x) < 1e-2:
                continue
            h = 1e-6
            j = np.zeros((3, 3))
            for k in range(3):
                dp = np.zeros(3)
                dp[k] = h
                j[:, k] = (np.asarray(radial_square_eval(x + dp))
                           - np.asarray(radial_square_eval(x - dp))) / (2 * h)
            assert np.linalg.det(j) > 0


class TestDilatationOracle:
    def test_inner_dilatation_is_two_in_both_dimensions(self):
        for dim in (2, 3):
            oracle = radial_power_dilatation_oracle(dim, samples=300)
            assert oracle.k_i == 2.0
            assert oracle.max_deviation <= 1e-3

    def test_outer_dilatation_dim3_is_four(self):
        oracle = radial_power_dilatation_oracle(3, samples=300)
        assert oracle.k_o == 4.0

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            radial_power_dilatation_oracle(4)


class TestPatch:
    def test_geometry_of_the_ball_choice(self, fmap):
        lp = fmap.L_prime
        patch = build_patch(fmap)
        # the source ball spans x3 in (-2.1, -0.1) L', inside the half-space
        assert patch.m[2] + patch.radius == pytest.approx(-1.1 * lp)
        assert patch.m[2] - patch.radius == pytest.approx(-3.1 * lp)
        # the recentre pair
        assert np.allclose(patch.b, (0, 0, -1.6 * lp))
        assert np.allclose(patch.a, (0, 0, -2.6 * lp))
        assert np.linalg.norm(patch.a - patch.m) < patch.radius
        assert np.linalg.norm(patch.b - patch.m) < patch.radius

    def test_identity_outside(self, fmap):
        patch = build_patch(fmap)
        rng = np.random.default_rng(1)
        for _ in range(200):
            p = rng.standard_normal(3) * 3 * patch.radius + patch.m
            if np.linalg.norm(p - patch.m) <= patch.radius:
                continue
            assert patch.eval(p) == tuple(p)

    def test_moves_source_to_target(self, fmap):
        patch = build_patch(fmap)
        assert np.allclose(patch.eval(patch.a), patch.b)

    def test_boundary_agrees_with_identity(self, fmap):
        patch = build_patch(fmap)
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(300):
            d = rng.standard_normal(3)
            d /= np.linalg.norm(d)
            p = patch.m + patch.radius * d
            # force the interior branch at an exact boundary point
            exit_pt, t = patch.sphere_exit(p)
            val = patch.b + (1.0 / t) * (exit_pt - patch.b)
            worst = max(worst, float(np.linalg.norm(val - p)))
        assert worst <= 1e-9 * patch.radius

    def test_interior_points_stay_inside(self, fmap):
        patch = build_patch(fmap)
        rng = np.random.default_rng(3)
        for _ in range(300):
            d = rng.standard_normal(3)
            d /= np.linalg.norm(d)
            p = patch.m + rng.random() * patch.radius * d
            q = np.asarray(patch.eval(p))
            assert np.linalg.norm(q - patch.m) <= patch.radius * (1 + 1e-12)


class TestComposedExamples:
    def test_example_one_rate_reaches_log2(self):
        h = example_one()
        ks, aks, _ = escape_rate_series(h, (math.e, 0.0), 30)
        assert abs(aks[19] - LOG2) <= 0.05
        assert all(a <= LOG2 + 0.05 for k, a in zip(ks, aks) if 10 <= k <= 30)

    def test_example_two_rate_reaches_log2(self, fmap):
        h = example_two(fmap)
        x0 = x0_for_example_two(fmap)
        ks, aks, rec = escape_rate_series(h, x0, 30)
        assert abs(aks[19] - LOG2) <= 0.05
        assert all(a <= LOG2 + 0.05 for k, a in zip(ks, aks) if 10 <= k <= 30)
        assert rec.surrogate_from is not None

    def test_example_two_start_crosses_slab_then_descends(self, fmap):
        x0 = x0_for_example_two(fmap)
        h = example_two(fmap)
        x1 = np.asarray(h.fn(tuple(x0)))
        assert np.allclose(x1[:2], 0.0, atol=1e-12)
        assert x1[2] == pytest.approx(-5.0, abs=1e-9)

    def test_example_three_fixes_x0(self, fmap):
        h = example_three(fmap)
        x0 = build_patch(fmap).b
        out = np.asarray(h.fn(tuple(x0)))
        assert np.linalg.norm(out - x0) <= 1e-9

    def test_example_three_orbit_of_x0_stays_fixed(self, fmap):
        h = example_three(fmap)
        x0 = build_patch(fmap).b
        rec = iterate(h, x0, 50)
        assert np.linalg.norm(rec.points[-1] - x0) <= 1e-8

    def test_example_three_control_point_escapes(self, fmap):
        h = example_three(fmap)
        patch = build_patch(fmap)
        lp = fmap.L_prime
        ctrl = (1.5 * lp, 0.0, -0.05 * lp)
        cls = classify_escape(h, ctrl, 50)
        assert cls.kind == "quasi_fatou"
        rec = iterate(h, ctrl, 400)
        # linear escape by translation; never meets the patched ball
        assert rec.points[-1][2] == pytest.approx(-0.05 * lp - 400 * lp, rel=1e-12)
        for p in rec.points:
            assert np.linalg.norm(np.asarray(p) - patch.m) > patch.radius

    def test_fatou_handle_orbit_growth(self):
        h = MapHandle("fatou-h", fatou_h_eval, dim=2)
        rec = iterate(h, (5.0, 0.0), 1000)
        # unit drift: |x_k| ~ k + 5
        for k in (10, 100, 1000):
            assert np.linalg.norm(rec.points[k]) == pytest.approx(5.0 + k, abs=0.2)
        steps = [np.linalg.norm(rec.points[k + 1]) / np.linalg.norm(rec.points[k])
                 for k in range(1000)]
        assert min(steps) >= 1.0 / 3.0
        assert max(steps) <= 3.0
