import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import expansion_min_ratio_rows, fold1_rounded, h_pyramid, zorich_composed
from qrdyn import zorich
from qrdyn.zorich import (C0_LOWER, HORIZON, ConstantsReport, F_array, F_jacobian,
                          F_scalar, PrecisionLost, _fold1, _z_step, certifies_sigma_floor,
                          corner_chi, derive_beam_constants, exp_lower,
                          expansion_min_ratio, fold_square, region_matrix)


@pytest.fixture(scope="module")
def constants():
    return derive_beam_constants()


def _dilatation(m):
    """K = max(sigma_max^3 / det, det / sigma_min^3) of each matrix of a
    stack, by LAPACK."""
    sv = np.linalg.svd(m, compute_uv=False)
    det = np.linalg.det(m)
    return np.maximum(sv[..., 0] ** 3 / det, det / sv[..., -1] ** 3)


def _canonical(a, b):
    """N_c(a, b) of the canonical triangle 0 <= b <= a <= 1."""
    return np.array([[1.0, 0.0, a], [0.0, 1.0, b], [-1.0, 0.0, 1.0 - a]])


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
            assert np.allclose(_z_step(0, 0, t), (0, 0, math.exp(t)))

    def test_base_corner(self):
        assert np.allclose(_z_step(1, 1, 0), (1, 1, 0))

    def test_reflected_fold_point(self):
        # x1 = 2 folds to u1 = 0 with one reflection
        assert np.allclose(_z_step(2, 0, 0), (0, 0, -1))

    def test_seam_continuity_two_sided(self):
        d = 1e-12
        for x3 in (0.0, 1.0, 3.0):
            for seam in (1.0, 2.0, 3.0, -1.0):
                a = np.array(_z_step(seam - d, 0.3, x3))
                b = np.array(_z_step(seam + d, 0.3, x3))
                assert np.linalg.norm(a - b) <= 1e-9 * max(1.0, math.exp(x3))
        # crease |x1| = |x2|
        a = np.array(_z_step(0.5 - d, 0.5, 1.0))
        b = np.array(_z_step(0.5 + d, 0.5, 1.0))
        assert np.linalg.norm(a - b) <= 1e-9 * math.e

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-20, 20), st.floats(-20, 20), st.floats(-5, 5))
    def test_magnitude_envelope_and_nonvanishing(self, x, y, z):
        v = np.array(_z_step(x, y, z))
        m = np.linalg.norm(v)
        e = math.exp(z)
        assert e / math.sqrt(2) - 1e-12 <= m <= math.sqrt(2) * e + 1e-12
        assert m > 0

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-20, 20), st.floats(-20, 20), st.floats(-5, 5))
    def test_is_the_scaled_folded_pyramid(self, x, y, z):
        # e^{x3} (u, sigma h(u)) with u the fold of (x1, x2), bit for bit
        fr = fold_square(x, y)
        u1, u2, height = h_pyramid(*fr.u)
        want = (u1, u2, fr.sigma * height)
        assert _z_step(x, y, z) == tuple(math.exp(z) * c for c in want)


class TestF:
    def test_axis_value(self):
        L = 4.0
        assert np.allclose(F_scalar(0, 0, L), (0, 0, L + math.exp(L)))

    def test_corner_value(self):
        L = 4.0
        e = math.exp(L)
        assert np.allclose(F_scalar(1, 1, L), (1 + e, 1 + e, L))

    def test_periodicity_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            x = rng.random(3) * np.array([8, 8, 6]) - np.array([4, 4, 3])
            for c in ((4.0, 0.0, 0.0), (0.0, 4.0, 0.0)):
                lhs = np.array(F_scalar(*(x + np.array(c))))
                rhs = np.array(F_scalar(*x)) + np.array(c)
                assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(
                    1.0, np.max(np.abs(rhs)))

    def test_reflection_commutation_exact(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            x = rng.random(3) * np.array([8, 8, 6]) - np.array([4, 4, 3])
            r1 = np.array([4 - x[0], x[1], x[2]])
            lhs = np.array(F_scalar(*r1))
            fx = np.array(F_scalar(*x))
            rhs = np.array([4 - fx[0], fx[1], fx[2]])
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))
            r2 = np.array([x[0], 4 - x[1], x[2]])
            lhs = np.array(F_scalar(*r2))
            rhs = np.array([fx[0], 4 - fx[1], fx[2]])
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def _bits(v):
    return np.float64(v).tobytes()


class TestFolds:
    # fold edge cases: period-4 translates of the seams, signed zeros, and
    # large arguments
    EDGES = ([1.0, -1.0, 3.0, -3.0, -0.0, 0.0]
             + [4.0 * k + d for k in range(-3, 4) for d in (-1.0, 1.0, 2.0)]
             + [4.0 * k + d for k in (1e3, -1e3, 2.0 ** 40) for d in (-1.0, 1.0, 2.0)])

    def test_remainder_fold_is_the_rounded_fold(self):
        # the same value and flag as x - 4 round(x / 4); the bits differ
        # only at the negative multiples of 4, where the remainder's zero
        # takes the sign of x
        rng = np.random.default_rng(45)
        xs = (self.EDGES + [4.0 * k + d for k in range(-6, 7) for d in (0.0, 2.0)]
              + [-(2.0 ** 50), 2.0 ** 50, -(2.0 ** 52), 2.0 ** 60, -4.5, 4.5, -6.0]
              + rng.uniform(-50.0, 50.0, 5000).tolist()
              + (2.0 * rng.integers(-10 ** 6, 10 ** 6, 500)).tolist())
        for x in xs:
            (u, f), (w, g) = _fold1(x), fold1_rounded(x)
            assert u == w and f == g, x
            if x < 0.0 and x % 4.0 == 0.0:
                assert (_bits(u), _bits(w)) == (_bits(-0.0), _bits(0.0)), x
            else:
                assert _bits(u) == _bits(w), x

    def test_region_matrix_reduces_to_the_triangle(self):
        # N(x) = D1 P N_c(|u1|, |u2|) P D2 with sign diagonals
        # D1 = diag(s1, s2, sigma), D2 = diag(d1 s1, d2 s2, 1) and P the swap
        # of the first two coordinates where |u2| > |u1|, over the full period
        rng = np.random.default_rng(44)
        pts = [(x, y) for x in self.EDGES for y in self.EDGES[:9]]
        pts += rng.uniform(-2.0, 2.0, (4000, 2)).tolist()
        pts += rng.uniform(-1e6, 1e6, (500, 2)).tolist()
        swap = np.eye(3)[[1, 0, 2]]
        for x1, x2 in pts:
            (u1, f1), (u2, f2) = _fold1(x1), _fold1(x2)
            s1, s2 = (1.0 if u >= 0 else -1.0 for u in (u1, u2))
            d1, d2 = (-1.0 if f else 1.0 for f in (f1, f2))
            first = abs(u1) >= abs(u2)
            p = np.eye(3) if first else swap
            nc = _canonical(*sorted((abs(u1), abs(u2)), reverse=True))
            want = (np.diag([s1, s2, d1 * d2]) @ p @ nc @ p
                    @ np.diag([d1 * s1, d2 * s2, 1.0]))
            n, _ = region_matrix(x1, x2)
            assert np.max(np.abs(n - want)) <= 1e-15, (x1, x2)


def _hex(values):
    return [float(v).hex() for v in values]


class TestFlatZStep:
    # _z_step writes out the folds, the parity and the scaling of
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
            assert _hex(_z_step(*p)) == _hex(zorich_composed(*p)), p

    def test_F_is_the_composed_step_bitwise(self):
        for p in self._points():
            if max(abs(p[0]), abs(p[1])) > HORIZON:
                continue
            want = tuple(x + z for x, z in zip(p, zorich_composed(*p)))
            assert _hex(F_scalar(*p)) == _hex(want), p

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_folds_raise_alike(self, bad):
        # the remainder fold raises what the rounded fold raises, x1 first
        for p in [(bad, 0.5), (0.5, bad), (bad, math.nan), (math.inf, bad)]:
            with pytest.raises(Exception) as want:
                [fold1_rounded(x) for x in p]
            with pytest.raises(want.type):
                fold_square(*p)


class TestFArray:
    def test_rows_are_F_scalar_bitwise(self):
        # the overflow band, signed zeros, NaN x3 and the horizon edges
        pts = [p for p in TestFlatZStep()._points()
               if max(abs(p[0]), abs(p[1])) <= HORIZON]
        got = F_array(np.array(pts))
        assert got.shape == (len(pts), 3) and got.dtype == np.float64
        for p, row in zip(pts, got.tolist()):
            assert _hex(row) == _hex(F_scalar(*p)), p

    def test_negative_multiples_of_two_and_four(self):
        rng = np.random.default_rng(46)
        n = 4000
        h = np.concatenate([2.0 * rng.integers(-10 ** 6, 1, (n, 2)),
                            4.0 * rng.integers(-10 ** 6, 1, (n, 2)),
                            [[-0.0, -0.0], [-0.0, 0.0], [-4.0, -0.0], [-2.0, -8.0]]])
        pts = np.column_stack([h, rng.uniform(-5.0, 10.0, len(h))])
        for p, row in zip(pts.tolist(), F_array(pts).tolist()):
            assert _hex(row) == _hex(F_scalar(*p)), p

    def test_empty_batch(self):
        got = F_array(np.empty((0, 3)))
        assert got.shape == (0, 3) and got.dtype == np.float64

    def test_first_row_past_the_horizon_raises_precision_lost(self):
        past = math.nextafter(HORIZON, math.inf)
        rows = [(0.5, 0.25, 5.0), (1.0, -past, 6.5), (past, 0.0, 7.0), (math.nan, 0.0, 1.0)]
        with pytest.raises(PrecisionLost) as info:
            F_array(np.array(rows))
        assert info.value.point == rows[1]

    def test_a_nan_x1_is_a_value_error(self):
        rows = [(0.5, 0.25, 5.0), (math.nan, 0.5, 1.0), (2.0 ** 51, 0.0, 7.0)]
        with pytest.raises(ValueError, match=r"non-finite point \("):
            F_array(np.array(rows))


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
                fd[:, k] = np.subtract(F_scalar(*(x + dp)), F_scalar(*(x - dp))) / (2 * h)
            rel = np.linalg.norm(fd - j) / np.linalg.norm(j)
            assert rel <= 1e-4
            checked += 1


class TestConstants:
    def test_c0_positive_and_L_finite(self, constants):
        assert constants.c0 > 0
        assert math.isfinite(constants.L)
        assert constants.L == 141 / 32

    def test_expansion_floor(self, constants):
        assert math.exp(constants.L) * constants.c0 > 33.0
        # the certificate, in rational arithmetic
        e_lower = exp_lower(Fraction(constants.L))
        assert e_lower * C0_LOWER > 33
        assert Fraction(constants.exp_margin) <= e_lower * C0_LOWER - 33

    def test_c0_bounded_by_spot_values(self, constants):
        # independent spot checks: c0 cannot exceed the smallest singular
        # value at literal region matrices
        spots = [
            np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [-1.0, 0.0, 0.0]]),
            np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5], [-1.0, 0.0, 0.5]]),
            np.array([[1.0, 0.0, 0.25], [0.0, 1.0, 0.5], [0.0, -1.0, 0.5]]),
        ]
        for m in spots:
            smin = np.linalg.svd(m, compute_uv=False)[-1]
            assert constants.c0 <= smin
        # the infimum 2 cos(3 pi / 7), reached at the fold corners
        c0 = 2.0 * math.cos(3.0 * math.pi / 7.0)
        assert constants.c0 <= C0_LOWER <= c0 < C0_LOWER + Fraction(1, 10 ** 7)

    def test_sigma_floor_certificate(self):
        m = C0_LOWER ** 2
        assert corner_chi(m) < 0
        assert certifies_sigma_floor(C0_LOWER)
        # p is the characteristic polynomial of N^T N at the corner a = b = 1
        nc = _canonical(1.0, 1.0)
        assert np.poly(nc.T @ nc) == pytest.approx([1.0, -5.0, 6.0, -1.0], abs=1e-14)

    def test_certificate_rejects_c_above_the_infimum(self, monkeypatch):
        assert not certifies_sigma_floor(Fraction("0.4450419"))
        assert not certifies_sigma_floor(Fraction(1))
        monkeypatch.setattr(zorich, "C0_LOWER", Fraction("0.4450419"))
        with pytest.raises(ArithmeticError):
            derive_beam_constants()

    def test_chi_identity_on_the_triangle(self):
        sp = pytest.importorskip("sympy")
        a, b, m, t = sp.symbols("a b m t")
        d = sp.symbols("d0:3")
        nc = sp.Matrix([[1, 0, a], [0, 1, b], [-1, 0, 1 - a]])
        p = corner_chi(m)
        chi = (m * sp.eye(3) - nc.T * nc).det()
        # chi - p is a sum of two terms, each <= 0 for 0 <= b <= a <= 1 and
        # 0 <= m <= 1
        assert sp.expand(chi - p - ((m ** 2 - 2 * m) * (1 - b ** 2)
                                    - 2 * a * (1 - a) * m * (1 - m))) == 0
        # p is the minimal polynomial of c0^2 = 4 cos^2(3 pi / 7), its least root
        assert sp.expand(sp.minimal_polynomial(4 * sp.cos(3 * sp.pi / 7) ** 2, m) - p) == 0
        assert 4 * math.cos(3 * math.pi / 7) ** 2 == pytest.approx(
            min(np.roots([1, -5, 6, -1]).real), abs=1e-14)
        # the determinant and the Frobenius norm behind K_F and the margins
        det = (nc + t * sp.diag(*d)).det()
        want = (1 + t * (d[0] * (1 - a) + d[1] + d[2])
                + t ** 2 * (d[1] * d[2] + d[0] * d[2] + d[0] * d[1] * (1 - a))
                + t ** 3 * d[0] * d[1] * d[2])
        assert sp.expand(det - want) == 0
        assert sp.expand(sum(x ** 2 for x in nc) - (3 + a ** 2 + b ** 2 + (1 - a) ** 2)) == 0
        assert zorich._SQRT5_UPPER ** 2 >= 5

    def test_K_F_covers_the_corner_supremum(self, constants):
        # the supremum 11.899 is at x3 = L, at the fold corners
        assert 11.8993 <= constants.K_F <= 12.79
        j, _ = F_jacobian((-1.0005, -1.0, constants.L))
        assert _dilatation(j) <= constants.K_F

    def test_beam_inequalities_on_grid(self, constants):
        # a seeded SVD sweep of DF = I + e^{x3} N over the full period and
        # x3 in [L, L + 50], with the fold corners |u1| = |u2| = 1
        rng = np.random.default_rng(16)
        corners = [(x, y) for x in (-3.0, -1.0, 1.0, 3.0) for y in (-1.0, 1.0)]
        corners += [(x + dx, y + dy) for x, y in corners for dx in (-1e-9, 1e-9)
                    for dy in (-1e-9, 1e-9)]
        pts = corners + rng.uniform(-2.0, 2.0, (400, 2)).tolist()
        n = np.array([region_matrix(x1, x2)[0] for x1, x2 in pts])
        levels = np.concatenate([[constants.L, constants.L + 1e-3],
                                 constants.L + rng.uniform(0.0, 50.0, 40)])
        for x3 in levels.tolist():
            df = np.eye(3) + math.exp(x3) * n
            sv = np.linalg.svd(df, compute_uv=False)
            assert _dilatation(df).max() <= constants.K_F
            assert (np.linalg.det(df) / (0.5 * math.exp(3 * x3))).min() >= constants.jac_margin
            assert (sv[:, 0] / (7.0 * math.exp(x3))).max() <= constants.norm_margin
        assert constants.jac_margin >= 1.0
        assert constants.norm_margin <= 1.0

    def test_sigma_floor_above_L(self, constants):
        # e^{x3} * sigma_min(N) > 33 at x3 = L + 1 on a grid
        s = np.linspace(-0.99, 0.99, 41)
        n = np.array([region_matrix(x1, x2)[0] for x1 in s for x2 in s])
        smin = np.linalg.svd(n, compute_uv=False)[:, -1].min()
        assert math.exp(constants.L + 1) * smin > 33.0


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

    @pytest.mark.parametrize("point", [(math.nan, 0.5, 1.0), (0.5, math.nan, 1.0),
                                       (math.inf, math.nan, 1.0)])
    def test_a_nan_step_is_a_value_error(self, point):
        # NaN fails every comparison with HORIZON, so the horizon branch
        # tells it from an infinite coordinate, which stays PrecisionLost
        with pytest.raises(ValueError, match=r"non-finite point \("):
            F_scalar(*point)


def _record_F_array(monkeypatch):
    """The arrays handed to zorich.F_array, in call order."""
    calls = []
    plain = zorich.F_array

    def recording(X):
        calls.append(X)
        return plain(X)

    monkeypatch.setattr(zorich, "F_array", recording)
    return calls


def test_expansion_ratio_feeds_float_arrays(monkeypatch):
    calls = _record_F_array(monkeypatch)
    expansion_min_ratio(5.0, pairs=50)
    assert len(calls) == 2
    for X in calls:
        assert type(X) is np.ndarray and X.dtype == np.float64 and X.shape == (150, 3)


@pytest.mark.parametrize("seed", range(5))
def test_expansion_ratio_is_the_composed_minimum(monkeypatch, seed):
    # the audit's minimum, recomputed from the pairs it evaluated with the
    # composed Z step, agrees bit for bit
    calls = _record_F_array(monkeypatch)
    got = expansion_min_ratio(5.0, pairs=200, seed=seed)
    xs, ys = calls
    want = math.inf
    for x, y in zip(xs.tolist(), ys.tolist()):
        fx = [c + z for c, z in zip(x, zorich_composed(*x))]
        fy = [c + z for c, z in zip(y, zorich_composed(*y))]
        want = min(want, math.dist(fx, fy) / math.dist(x, y))
    assert len(xs) == 600 and got.hex() == want.hex()


BEAM_SETS = (((0, 0), (1, 0), (1, 1)), ((1, 0), (0, 1), (1, 1)))


@pytest.mark.parametrize("beams", BEAM_SETS, ids=["default", "reflected"])
@pytest.mark.parametrize("pairs", [50, 500, 2000])
def test_expansion_ratio_is_the_pair_loop_bitwise(constants, pairs, beams):
    for seed in range(20):
        got = expansion_min_ratio(constants.L, pairs=pairs, seed=seed, beams=beams)
        want = expansion_min_ratio_rows(constants.L, pairs=pairs, seed=seed, beams=beams)
        assert got.hex() == want.hex(), seed


def test_expansion_ratio_without_crease_pairs_and_without_pairs(constants):
    for seed in range(20):
        got = expansion_min_ratio(constants.L, pairs=300, seed=seed,
                                  include_crease_pairs=False)
        want = expansion_min_ratio_rows(constants.L, pairs=300, seed=seed,
                                        include_crease_pairs=False)
        assert got.hex() == want.hex(), seed
    assert expansion_min_ratio(constants.L, pairs=0) == math.inf
    assert expansion_min_ratio_rows(constants.L, pairs=0) == math.inf


class _FixedDraws:
    """A stand-in for numpy's Generator whose ``random`` hands out given
    arrays in turn."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self, shape):
        out = self.draws.pop(0)
        assert out.shape == shape
        return out.copy()


def _beam00_points(r, L):
    """The points that ``expansion_min_ratio`` makes of the draws r on the
    beam (0, 0) without crease pairs."""
    p = np.array([-1.0, -1.0, 0.0]) + r * np.array([2.0, 2.0, 3.0])
    p[:, 2] += L
    return p.tolist()


@pytest.mark.parametrize("above", [False, True], ids=["at", "above"])
def test_expansion_ratio_retakes_pairs_at_the_skip_distance(monkeypatch, constants, above):
    # the skip distance put at the distance of the pair of least ratio, or
    # one unit in the last place above it: math.dist alone decides whether
    # that pair counts
    rng = np.random.default_rng(47)
    n = 300
    rx, ry = rng.random((n, 3)), rng.random((n, 3))
    xs, ys = _beam00_points(rx, constants.L), _beam00_points(ry, constants.L)
    d = [math.dist(x, y) for x, y in zip(xs, ys)]
    r = [math.dist(F_scalar(*x), F_scalar(*y)) / dj for x, y, dj in zip(xs, ys, d)]
    j = int(np.argmin(r))
    skip = math.nextafter(d[j], math.inf) if above else d[j]
    want = min(rj for rj, dj in zip(r, d) if dj >= skip)
    monkeypatch.setattr(zorich, "_MIN_PAIR_DIST", skip)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _FixedDraws([rx, ry]))
    got = expansion_min_ratio(constants.L, beams=((0, 0),), pairs=n,
                              include_crease_pairs=False)
    assert got.hex() == want.hex() and (got == r[j]) != above


def test_expansion_ratio_is_exact_under_numpy_norm_error(monkeypatch, constants):
    # period translates of one pair, whose exact ratios lie a few units in
    # the last place apart, with numpy's norms of the image differences (its
    # second row-norm call, after the pairs' distances) made to read 1e-13
    # (relative) high on the pairs of least exact ratio: numpy's least ratio
    # is then another pair's, and the math.dist pass still finds the
    # exact minimum
    n = 1000
    shift = np.zeros((n, 3))
    shift[:, 0] = 2.0 * np.arange(n)          # 4 in x1, in units of the span
    rx = np.array([0.65, 0.4, 1.1 / 3.0]) + shift
    ry = np.array([0.775, 0.55, 1.4 / 3.0]) + shift
    xs, ys = _beam00_points(rx, constants.L), _beam00_points(ry, constants.L)
    exact = np.array([math.dist(F_scalar(*x), F_scalar(*y)) / math.dist(x, y)
                      for x, y in zip(xs, ys)])
    least = exact == exact.min()
    assert 1 < np.count_nonzero(least) < n
    norm = np.linalg.norm
    bump = itertools.cycle([1.0, np.where(least, 1.0 + 1e-13, 1.0)])
    monkeypatch.setattr(np.linalg, "norm", lambda v, axis: norm(v, axis=axis) * next(bump))
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _FixedDraws([rx, ry]))
    got = expansion_min_ratio(constants.L, pairs=n, beams=((0, 0),), include_crease_pairs=False)
    assert got.hex() == exact.min().hex()
