import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import zorich_composed
from qrdyn import zorich
from qrdyn.zorich import (HORIZON, ConstantsReport, F_eval, F_jacobian, F_scalar,
                          PrecisionLost, _fold1, _fold_vec, _sigma_extremes_det,
                          derive_beam_constants,
                          expansion_min_ratio,
                          fold_square, h_pyramid, region_matrix,
                          verify_beam_inequalities, zorich_eval, zorich_scalar)


@pytest.fixture(scope="module")
def constants():
    return derive_beam_constants(resolution=128)


class TestPyramid:
    def test_apex(self):
        assert h_pyramid(0, 0) == (0, 0, 1)

    def test_base_corner(self):
        assert h_pyramid(1, 1) == (1, 1, 0)

    def test_half_height(self):
        assert h_pyramid(0.5, 0) == (0.5, 0, 0.5)

    def test_outside_raises(self):
        with pytest.raises(ValueError):
            h_pyramid(1.5, 0)


class TestFold:
    def test_base_square_untouched(self):
        fr = fold_square(0.5, -0.3)
        assert fr.u == (0.5, -0.3)
        assert fr.sigma == 1

    def test_single_reflection(self):
        fr = fold_square(1.5, 0.0)
        assert fr.u[0] == pytest.approx(0.5)
        assert fr.u[1] == 0.0
        assert fr.sigma == -1

    def test_period_four_translation_adds_no_reflection(self):
        fr = fold_square(4.5, 0.2)
        assert fr.u[0] == pytest.approx(0.5)
        assert fr.u[1] == pytest.approx(0.2)
        assert fr.sigma == 1

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-50, 50), st.floats(-50, 50))
    def test_fold_lands_in_base_square(self, x, y):
        fr = fold_square(x, y)
        assert -1 - 1e-12 <= fr.u[0] <= 1 + 1e-12
        assert -1 - 1e-12 <= fr.u[1] <= 1 + 1e-12
        assert fr.sigma == (-1) ** (fr.flags[0] + fr.flags[1])


class TestZorichEval:
    def test_apex_ray(self):
        for t in (-1.0, 0.0, 2.5):
            assert np.allclose(zorich_eval((0, 0, t)), (0, 0, math.exp(t)))

    def test_base_corner(self):
        assert np.allclose(zorich_eval((1, 1, 0)), (1, 1, 0))

    def test_reflected_fold_point(self):
        # x1 = 2 folds to u1 = 0 with one reflection
        assert np.allclose(zorich_eval((2, 0, 0)), (0, 0, -1))

    def test_seam_continuity_two_sided(self):
        d = 1e-12
        for x3 in (0.0, 1.0, 3.0):
            for seam in (1.0, 2.0, 3.0, -1.0):
                a = zorich_eval((seam - d, 0.3, x3))
                b = zorich_eval((seam + d, 0.3, x3))
                assert np.linalg.norm(a - b) <= 1e-9 * max(1.0, math.exp(x3))
        # crease |x1| = |x2|
        a = zorich_eval((0.5 - d, 0.5, 1.0))
        b = zorich_eval((0.5 + d, 0.5, 1.0))
        assert np.linalg.norm(a - b) <= 1e-9 * math.e

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-20, 20), st.floats(-20, 20), st.floats(-5, 5))
    def test_magnitude_envelope_and_nonvanishing(self, x, y, z):
        v = zorich_eval((x, y, z))
        m = np.linalg.norm(v)
        e = math.exp(z)
        assert e / math.sqrt(2) - 1e-12 <= m <= math.sqrt(2) * e + 1e-12
        assert m > 0


class TestF:
    def test_axis_value(self):
        L = 4.0
        assert np.allclose(F_eval((0, 0, L)), (0, 0, L + math.exp(L)))

    def test_corner_value(self):
        L = 4.0
        e = math.exp(L)
        assert np.allclose(F_eval((1, 1, L)), (1 + e, 1 + e, L))

    def test_periodicity_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            x = rng.random(3) * np.array([8, 8, 6]) - np.array([4, 4, 3])
            for c in ((4.0, 0.0, 0.0), (0.0, 4.0, 0.0)):
                lhs = F_eval(x + np.array(c))
                rhs = F_eval(x) + np.array(c)
                assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(
                    1.0, np.max(np.abs(rhs)))

    def test_reflection_commutation_exact(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            x = rng.random(3) * np.array([8, 8, 6]) - np.array([4, 4, 3])
            r1 = np.array([4 - x[0], x[1], x[2]])
            lhs = F_eval(r1)
            fx = F_eval(x)
            rhs = np.array([4 - fx[0], fx[1], fx[2]])
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))
            r2 = np.array([x[0], 4 - x[1], x[2]])
            lhs = F_eval(r2)
            rhs = np.array([fx[0], 4 - fx[1], fx[2]])
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def _bits(v):
    return np.float64(v).tobytes()


class TestFolds:
    # the scalar fold serves F_scalar, the array fold the region matrices;
    # they must agree bit for bit, signed zeros included
    EDGES = ([1.0, -1.0, 3.0, -3.0, -0.0, 0.0]
             + [4.0 * k + d for k in range(-3, 4) for d in (-1.0, 1.0, 2.0)]
             + [4.0 * k + d for k in (1e3, -1e3, 2.0 ** 40) for d in (-1.0, 1.0, 2.0)])

    def test_scalar_and_array_folds_agree_bitwise(self):
        rng = np.random.default_rng(41)
        xs = np.concatenate([rng.uniform(-50.0, 50.0, 5000),
                             rng.uniform(-1e9, 1e9, 1000), self.EDGES])
        u, flag = _fold_vec(xs)
        for x, uv, fv in zip(xs.tolist(), u.tolist(), flag.tolist()):
            us, fs = _fold1(x)
            assert (_bits(us), fs) == (_bits(uv), int(fv)), x

    def test_region_matrix_is_the_array_formula(self):
        rng = np.random.default_rng(42)
        pts = [(x, y) for x in self.EDGES for y in self.EDGES[:9]]
        pts += rng.uniform(-9.0, 9.0, (500, 2)).tolist()
        rows = zorich.region_matrices_at([p[0] for p in pts], [p[1] for p in pts])
        for (x1, x2), want in zip(pts, rows):
            n, _ = region_matrix(x1, x2)
            assert n.shape == (3, 3) and n.tobytes() == want.tobytes()


def _hex(values):
    return [float(v).hex() for v in values]


class TestFlatZStep:
    # zorich_scalar writes out the folds, the parity and the scaling of
    # oracles.zorich_composed and must agree with it bit for bit
    LOG_MAX = math.log(sys.float_info.max)
    XS = (TestFolds.EDGES
          + [4.0 * k + d for k in (-5, 5, 2.0 ** 48) for d in (-1.0, 1.0, 2.0)]
          + [2.0 ** 50, -2.0 ** 50, 2.0 ** 50 - 1.0, -2.0 ** 50 + 2.0])
    X3S = [-800.0, -1.0, -0.0, 0.0, 0.5, 5.0, 100.0, LOG_MAX,
           math.nextafter(LOG_MAX, 0.0), math.nextafter(LOG_MAX, math.inf),
           709.9, 710.0, 1e308, math.inf, -math.inf, math.nan]

    def _points(self):
        rng = np.random.default_rng(43)
        pts = [(x1, x2, x3) for x1 in self.XS for x2 in self.XS[::3] for x3 in self.X3S[::4]]
        pts += [(x1, x2, x3) for x1 in self.XS[::5] for x2 in self.XS[::7] for x3 in self.X3S]
        pts += np.column_stack([rng.uniform(-50.0, 50.0, 20000),
                                rng.uniform(-50.0, 50.0, 20000),
                                rng.uniform(-50.0, 715.0, 20000)]).tolist()
        pts += np.column_stack([rng.uniform(-1e9, 1e9, 2000), rng.uniform(-1e9, 1e9, 2000),
                                rng.uniform(-5.0, 10.0, 2000)]).tolist()
        return pts

    def test_matches_the_composed_step_bitwise(self):
        for p in self._points():
            assert _hex(zorich_scalar(*p)) == _hex(zorich_composed(*p)), p

    def test_F_is_the_composed_step_bitwise(self):
        for p in self._points():
            if max(abs(p[0]), abs(p[1])) > HORIZON:
                continue
            want = tuple(x + z for x, z in zip(p, zorich_composed(*p)))
            assert _hex(F_scalar(*p)) == _hex(want), p

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_folds_raise_alike(self, bad):
        for p in [(bad, 0.5, 1.0), (0.5, bad, 1.0), (bad, math.nan, 1.0),
                  (math.inf, bad, 1.0)]:
            with pytest.raises(Exception) as want:
                zorich_composed(*p)
            with pytest.raises(want.type):
                zorich_scalar(*p)


class TestJacobian:
    def test_unit_jacobian_determinant_of_normalized_derivative(self):
        # det N = 1 on every smooth region, so J_Z = e^{3 x3} exactly
        rng = np.random.default_rng(13)
        count = 0
        while count < 1000:
            x1, x2 = rng.random(2) * 16 - 8
            n, onesided = region_matrix(x1, x2)
            if onesided:
                continue
            assert np.linalg.det(n) == pytest.approx(1.0, abs=1e-12)
            count += 1

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        checked = 0
        while checked < 300:
            x = rng.random(3) * np.array([8, 8, 4]) - np.array([4, 4, 2])
            j, onesided = F_jacobian(x)
            if onesided:
                continue
            fr = fold_square(x[0], x[1])
            # stay clear of creases for the FD stencil
            if min(abs(abs(fr.u[0]) - abs(fr.u[1])),
                   abs(abs(fr.u[0]) - 1), abs(abs(fr.u[1]) - 1),
                   abs(fr.u[0]), abs(fr.u[1])) < 1e-3:
                continue
            h = 1e-6 * max(1.0, float(np.max(np.abs(x))))
            fd = np.zeros((3, 3))
            for k in range(3):
                dp = np.zeros(3)
                dp[k] = h
                fd[:, k] = (F_eval(x + dp) - F_eval(x - dp)) / (2 * h)
            rel = np.linalg.norm(fd - j) / np.linalg.norm(j)
            assert rel <= 1e-4
            checked += 1


class TestConstants:
    def test_c0_positive_and_L_finite(self, constants):
        assert constants.c0 > 0
        assert math.isfinite(constants.L)
        assert constants.L > 1

    def test_expansion_floor(self, constants):
        assert math.exp(constants.L) * constants.c0 > 33.0

    def test_c0_bounded_by_spot_values(self, constants):
        # independent spot checks: c0 cannot exceed the smallest singular
        # value at literal region matrices (up to the sampling resolution)
        spots = [
            np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [-1.0, 0.0, 0.0]]),
            np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5], [-1.0, 0.0, 0.5]]),
            np.array([[1.0, 0.0, 0.25], [0.0, 1.0, 0.5], [0.0, -1.0, 0.5]]),
        ]
        for m in spots:
            smin = np.linalg.svd(m, compute_uv=False)[-1]
            assert constants.c0 <= smin + 1e-6
        # frozen value of the infimum, located independently by optimizing
        # the smallest singular value over each region's matrix family
        assert constants.c0 == pytest.approx(0.4450418679126288, abs=5e-6)

    def test_resolution_stability(self, constants):
        other = derive_beam_constants(resolution=64)
        assert abs(other.L - constants.L) <= 0.1

    def test_beam_inequalities_on_grid(self, constants):
        ok, jac_margin, norm_margin, k_f = verify_beam_inequalities(
            constants.L, resolution=32)
        assert ok
        assert jac_margin >= 1.0
        assert norm_margin <= 1.0
        assert k_f >= 1.0

    def test_sigma_floor_above_L(self, constants):
        # e^{x3} * sigma_min(N) > 33 at x3 = L + 1 on a grid
        s = np.linspace(-0.99, 0.99, 41)
        g1, g2 = np.meshgrid(s, s)
        n = zorich.region_matrices_at(g1.ravel(), g2.ravel())
        smin = np.linalg.svd(n, compute_uv=False)[:, -1].min()
        assert math.exp(constants.L + 1) * smin > 33.0

    def test_low_resolution_rejected(self):
        with pytest.raises(ValueError):
            derive_beam_constants(resolution=32)


class TestSigmaKernel:
    """The closed-form singular-value and determinant kernel of the beam
    audit against LAPACK (np.linalg.svd and np.linalg.det)."""

    EPS = np.finfo(float).eps

    @staticmethod
    def oracle(m):
        sv = np.linalg.svd(m, compute_uv=False)
        return sv[..., 0], sv[..., -1], np.linalg.det(m)

    @pytest.mark.parametrize("beam", [(0, 0), (1, 0), (0, 1), (1, 1)])
    @pytest.mark.parametrize("above_L", [0.0, 5.0])
    def test_audit_grid(self, constants, beam, above_L):
        # the grid of verify_beam_inequalities at resolution 16
        s = (np.arange(16) + 0.5) / 16 * 2.0 - 1.0
        u1, u2 = np.meshgrid(s + 2 * beam[0], s + 2 * beam[1], indexing="ij")
        n = zorich.region_matrices_at(u1.ravel(), u2.ravel())
        df = np.eye(3) + math.exp(constants.L + above_L) * n
        for got, want in zip(_sigma_extremes_det(df), self.oracle(df)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_random_matrices_within_the_documented_bound(self):
        m = np.random.default_rng(11).standard_normal((2000, 3, 3))
        s_max, s_min, det = _sigma_extremes_det(m)
        o_max, o_min, o_det = self.oracle(m)
        kappa2 = (o_max / o_min) ** 2
        sq = np.linalg.svd(m, compute_uv=False) ** 2
        g_top = (sq[:, 0] - sq[:, 1]) / sq[:, 0]
        g = (sq[:, 1] - sq[:, 2]) / sq[:, 0]
        # eight times the documented eps (1 + 1/g_top) and
        # eps kappa^2 (1 + 1/g) bounds
        tol = 8 * self.EPS
        assert np.all(np.abs(s_max / o_max - 1) <= tol * (1 + 1 / g_top))
        assert np.all(np.abs(s_min / o_min - 1) <= tol * kappa2 * (1 + 1 / g))
        assert np.all(np.abs(det / o_det - 1) <= tol * kappa2)

    @pytest.mark.parametrize("m", [3.0 * np.eye(3), np.diag([2.0, 2.0, 1.0]),
                                   np.diag([1.0, 2.0, 2.0]),
                                   -np.diag([2.0, 1.0, 1.0])],
                             ids=["3I", "2-2-1", "1-2-2", "neg-2-1-1"])
    def test_repeated_singular_values(self, m):
        got = _sigma_extremes_det(m[None])
        o_max, o_min, o_det = self.oracle(m)
        bound = 8 * self.EPS * (o_max / o_min) ** 2
        assert abs(got[0][0] / o_max - 1) <= bound
        assert abs(got[1][0] / o_min - 1) <= bound
        assert abs(got[2][0] / o_det - 1) <= bound

    def test_singular_matrix(self):
        m = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]])
        s_max, s_min, det = _sigma_extremes_det(m[None])
        assert det[0] == 0.0
        assert s_max[0] == pytest.approx(np.linalg.svd(m)[1][0], rel=1e-14)
        assert 0.0 <= s_min[0] <= 1e-7 * s_max[0]


class TestExpansion:
    def test_min_ratio_exceeds_32(self, constants):
        r = expansion_min_ratio(constants.L, pairs=2000, seed=7)
        assert r >= 32.0

    def test_derivative_floor(self, constants):
        # directional derivative norms at beam points are at least 32
        rng = np.random.default_rng(15)
        for _ in range(200):
            x = np.array([rng.random() * 2 - 1, rng.random() * 2 - 1,
                          constants.L + rng.random() * 3])
            j, onesided = F_jacobian(x)
            if onesided:
                continue
            smin = np.linalg.svd(j, compute_uv=False)[-1]
            assert smin >= 32.0

    def test_reflected_beam_also_expands(self, constants):
        r = expansion_min_ratio(constants.L, pairs=1500, seed=8,
                                beams=((1, 0), (0, 1), (1, 1)))
        assert r >= 32.0


class TestExpOverflowBand:
    # math.exp overflows above log(DBL_MAX) = 709.78..., below the former
    # guard at 710
    def test_F_is_nonfinite_in_the_band(self):
        for x3 in (709.79, 709.9, 709.999):
            v = F_scalar(0.5, 0.25, x3)
            assert not all(math.isfinite(c) for c in v)

    def test_F_is_finite_at_the_limit(self):
        v = F_scalar(0.5, 0.25, math.log(sys.float_info.max))
        assert all(math.isfinite(c) for c in v)


class TestPrecisionLost:
    @pytest.mark.parametrize("point", [(2.0 ** 51, 0.5, 7.25),
                                       (-0.0, -math.nextafter(HORIZON, math.inf), 1e3),
                                       (math.inf, 0.1, math.nan)])
    def test_carries_the_point_and_the_message(self, point):
        with pytest.raises(PrecisionLost) as info:
            F_scalar(*point)
        err = info.value
        assert err.point == point
        assert all(a is b for a, b in zip(err.point, point))
        x1, x2, x3 = point
        assert str(err) == (f"F step from ({x1!r}, {x2!r}, {x3!r}) is past the "
                            f"precision horizon |x1|, |x2| <= 2**50")


def test_expansion_ratio_feeds_python_floats(monkeypatch):
    seen = set()
    plain = zorich.F_scalar

    def recording(*x):
        seen.update(type(c) for c in x)
        return plain(*x)

    monkeypatch.setattr(zorich, "F_scalar", recording)
    expansion_min_ratio(5.0, pairs=50)
    assert seen == {float}


@pytest.mark.parametrize("seed", range(5))
def test_expansion_ratio_is_the_composed_minimum(monkeypatch, seed):
    # the audit's minimum, recomputed from the pairs it evaluated with the
    # composed Z step, agrees bit for bit
    calls = []
    plain = zorich.F_scalar

    def recording(*x):
        calls.append(x)
        return plain(*x)

    monkeypatch.setattr(zorich, "F_scalar", recording)
    got = expansion_min_ratio(5.0, pairs=200, seed=seed)
    want = math.inf
    for x, y in zip(calls[::2], calls[1::2]):
        fx = [c + z for c, z in zip(x, zorich_composed(*x))]
        fy = [c + z for c, z in zip(y, zorich_composed(*y))]
        want = min(want, math.dist(fx, fy) / math.dist(x, y))
    assert len(calls) > 0 and got.hex() == want.hex()
