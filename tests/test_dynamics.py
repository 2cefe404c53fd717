import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import ball_growth_check
from qrdyn.dynamics import (LOG_SWITCH, RADIUS_CAP, BigExp, EscapeClass,
                            MapHandle, SurrogateSpec, _mhat_steps,
                            _radial_square_rho_step, _fibonacci_sphere,
                            _unit_directions, classify_escape,
                            FastEscapeResult, escape_rate_series,
                            fast_escape_test, iterate, max_modulus_estimate,
                            orbit_csv, orbit_magnitudes_bigexp, rates_csv,
                            sphere_directions, tower_step)
from qrdyn.example_maps import radial_square_eval
from qrdyn.zorich import HORIZON, PrecisionLost, F_scalar


@pytest.fixture(scope="module")
def fhandle(fmap):
    return MapHandle("f", lambda p: fmap.eval3(p[0], p[1], p[2]), dim=3,
                     tracks_h0=True, translate=fmap.L_prime)


class TestBigExp:
    def test_roundtrip_small(self):
        for v in (0.0, 1.0, 5.5, 600.0):
            assert BigExp.from_float(v).value == pytest.approx(v)

    def test_canonicalisation(self):
        b = BigExp.from_float(1e200)
        assert b.depth == 1
        assert b.head == pytest.approx(math.log(1e200))

    def test_exp_matches_floats(self):
        # exp(709.5) = 1.355e308 is below the largest float
        for v in (3.0, 709.5):
            b = BigExp.from_float(v).exp()
            assert b.value == pytest.approx(math.exp(v), rel=1e-12)
            assert BigExp(1, v).value == b.value

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1e250), st.floats(0.0, 1e250))
    def test_order_agrees_with_floats(self, a, b):
        assert (BigExp.from_float(a) < BigExp.from_float(b)) == (a < b)

    def test_tower_ordering(self):
        t = BigExp.from_float(100.0)
        seq = [t]
        for _ in range(6):
            seq.append(seq[-1].exp())
        assert all(seq[i] < seq[i + 1] for i in range(6))

    def test_tower_step_matches_floats_in_range(self):
        c = 87.0
        t = BigExp.from_float(10.0)
        stepped = tower_step(t, c)
        assert stepped.value == pytest.approx(10 + math.exp(10) - c, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            BigExp.from_float(-1.0)

    @pytest.mark.parametrize("head", [math.inf, math.nan])
    @pytest.mark.parametrize("depth", [0, 2])
    def test_a_head_that_is_not_finite_is_rejected(self, depth, head):
        # an infinite head once sent the canonicalising loop round forever
        # (log(inf) is inf), and a NaN head built a NaN magnitude
        with pytest.raises(ValueError, match="finite"):
            BigExp(depth, head)
        with pytest.raises(ValueError, match="finite"):
            BigExp.from_float(head)


class TestIterate:
    def test_translation_orbit_is_exact(self, fhandle, build):
        lp = build.L_prime
        rec = iterate(fhandle, (3.0, -2.0, -5.0), 1000)
        assert rec.reason == "budget"
        assert rec.h0_step == 0
        for k in (1, 10, 500, 1000):
            expect = np.array([3.0, -2.0, -5.0 - k * lp])
            err = np.linalg.norm(rec.points[k] - expect)
            assert err <= 1e-12 * max(1.0, np.linalg.norm(expect))

    def test_axis_tower_matches_recurrence(self, fhandle, build):
        L, lp = build.constants.L, build.L_prime
        rec = iterate(fhandle, (0.0, 0.0, L + 1), 10)
        t = L + 1
        for k in range(1, len(rec.points)):
            t = t + math.exp(t) - lp
            assert rec.points[k][2] == pytest.approx(t, rel=1e-9)
        assert rec.reason in ("nonfinite", "radius_cap")

    def test_nonfinite_terminates_with_reason(self, fhandle):
        rec = iterate(fhandle, (0.0, 0.0, 800.0), 5)
        assert rec.reason == "nonfinite"
        assert len(rec.points) == 1

    def test_an_image_at_minus_inf_entered_the_half_space(self, fhandle, fmap):
        # the F step from x3 = 720 overflows to -inf after the shift: the
        # orbit entered H0 at step 1, and stops there as non-finite
        assert fmap.eval3(2.0, 0.0, 720.0) == (2.0, 0.0, -math.inf)
        rec = iterate(fhandle, (2.0, 0.0, 720.0), 5)
        assert (rec.reason, rec.h0_step) == ("nonfinite", 1)
        assert len(rec.points) == len(rec.rho) == 1

    def test_budget_validation(self, fhandle):
        with pytest.raises(ValueError):
            iterate(fhandle, (0, 0, 0), 0)


class TestClassify:
    def test_lower_half_space_is_step_zero(self, fhandle):
        assert classify_escape(fhandle, (0, 0, -1.0), 10) == \
            EscapeClass("quasi_fatou", n=0)

    def test_slab_enters_in_one_step(self, fhandle):
        c = classify_escape(fhandle, (0.3, 1.2, 2.0), 10)
        assert c.kind == "quasi_fatou"
        assert c.n == 1

    def test_an_image_at_minus_inf_is_an_entry(self, fhandle, build):
        # an F step from x3 >= 709 whose height overflows lands at
        # x3 = -inf: an entry into H0, not a radial escape
        assert classify_escape(fhandle, (2.0, 0.0, 720.0), 10).label == "H0@1"
        assert classify_escape(fhandle, (2.0, 0.0, 709.0), 10).label == "H0@1"
        nan_below = MapHandle("stub", lambda p: (math.nan, 0.0, -math.inf), dim=3,
                              tracks_h0=True)
        assert classify_escape(nan_below, (0.0, 0.0, 1.0), 10).label == "H0@1"

    def test_axis_tower_escapes_radially(self, fhandle, build):
        c = classify_escape(fhandle, (0, 0, build.constants.L + 1), 50)
        assert c.kind == "radial"

    def test_julia_line_escapes_radially(self, fhandle, build):
        c = classify_escape(fhandle, (2.0, 2.0, build.constants.L + 2), 50)
        assert c.kind == "radial"

    def test_monotone_after_entry(self, fhandle, build):
        rec = iterate(fhandle, (0.7, 0.3, 3.0), 20)
        n = rec.h0_step
        assert n is not None
        for k in range(n, len(rec.points)):
            assert rec.points[k][2] < 0 or k < n

    def test_undecided_budget(self, fmap, build):
        # a frozen translation has no escape and never enters the half-space
        handle = MapHandle("shift", lambda p: (p[0], p[1], p[2]), dim=3,
                           tracks_h0=True)
        c = classify_escape(handle, (0, 0, 1.0), 7)
        assert c == EscapeClass("undecided", budget=7)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_start_is_rejected(self, fhandle, axis, value):
        # a slab start with an infinite x1 or x2 once reached math.floor,
        # and (0, 0, nan) was labelled radial
        start = [0.0, 0.0, 0.5]
        start[axis] = value
        for run in (lambda: classify_escape(fhandle, start, 60),
                    lambda: iterate(fhandle, start, 5)):
            with pytest.raises(ValueError, match="finite start") as err:
                run()
            assert repr(value) in str(err.value)


class TestRateSeries:
    def test_translation_rate_tends_to_zero(self, fhandle):
        ks, aks, _ = escape_rate_series(fhandle, (0, 0, -1.0), 200)
        assert aks[-1] <= 0.02
        assert aks[-1] < aks[9]

    def test_pure_squaring_closed_form(self):
        r = 2.0
        for k in range(1, 11):
            r = _radial_square_rho_step(r, 0.0)
            assert r == pytest.approx(2.0 * 2 ** k, rel=1e-15)

    def test_axis_law_matches_direct_iteration(self, build):
        lp = build.L_prime
        r = 25.0
        rho = [math.log(r)]
        while r * r < 1e306 and len(rho) <= 8:
            r = r * r + lp
            rho.append(math.log(r))
        assert len(rho) >= 7      # overlap window before float overflow
        sur = rho[0]
        for a in rho[1:]:
            sur = _radial_square_rho_step(sur, lp)
            assert a == pytest.approx(sur, rel=1e-12)


class TestMaxModulus:
    def test_axis_lower_bound(self, fhandle, build):
        L, lp = build.constants.L, build.L_prime
        r = L + 2
        est = max_modulus_estimate(fhandle, r)
        assert est >= r + math.exp(r) - lp

    def test_transcendental_growth_of_the_log_ratio(self, fhandle):
        vals = [math.log(max_modulus_estimate(fhandle, r)) / math.log(r)
                for r in (10.0, 20.0, 40.0)]
        assert vals[0] < vals[1] < vals[2]

    def test_translation_triangle_bound(self, build):
        lp = build.L_prime
        handle = MapHandle("shift", lambda p: (p[0], p[1], p[2] - lp), dim=3)
        for r in (5.0, 50.0):
            est = max_modulus_estimate(handle, r)
            assert est <= r + lp + 1e-9

    def test_samples_a_fixed_direction_set(self):
        # 2000 Fibonacci directions, the 2 poles and the 17 x 17 lattice
        # directions (i, j, 1) in 3D, (0, 0, 1) among them twice; 2000
        # angles in 2D
        for dim, count in ((3, 2000 + 2 + 17 * 17), (2, 2000)):
            seen = []
            max_modulus_estimate(MapHandle("id", lambda p: seen.append(p) or p, dim=dim), 7.0)
            assert len(seen) == count and len(set(seen)) == count - (dim == 3), dim

    @pytest.mark.parametrize("r", [math.inf, -math.inf, math.nan])
    def test_non_finite_radius_is_rejected(self, fhandle, r):
        with pytest.raises(ValueError, match="non-finite radius"):
            max_modulus_estimate(fhandle, r)

    def test_equals_the_numpy_direction_loop(self, fhandle):
        # the float loop over cached direction tuples returns the value of
        # the loop over r * (direction array), bitwise, past r = 355 too
        for r in np.geomspace(5.0, 500.0, 10).tolist():
            assert max_modulus_estimate(fhandle, r) == _max_modulus_numpy(fhandle, r, 2000), r
        circle = MapHandle("square", lambda p: (p[0] * p[0] - p[1] * p[1], 2 * p[0] * p[1]),
                           dim=2)
        for r in (5.0, 50.0):
            assert max_modulus_estimate(circle, r) == _max_modulus_numpy(circle, r, 2000)

    def test_nan_norms_never_count(self):
        odd = MapHandle("odd", lambda p: (math.nan,) * 3 if p[2] > 0 else p, dim=3)
        est = max_modulus_estimate(odd, 2.0)
        assert est == _max_modulus_numpy(odd, 2.0, 2000)
        assert est == pytest.approx(2.0, rel=1e-15)


def _max_modulus_numpy(handle, r, samples):
    """``max_modulus_estimate`` as a loop over the rows of r times the
    direction array (``samples`` angles, or as many Fibonacci directions
    with the poles and the lattice directions (i, j, 1), |i|, |j| <= 8),
    skipping NaN norms: the oracle of its float loop."""
    if handle.dim == 2:
        th = np.linspace(0, 2 * math.pi, samples, endpoint=False)
        dirs = np.column_stack([np.cos(th), np.sin(th)])
    else:
        lattice = [[i, j, 1.0] for i in range(-8, 9) for j in range(-8, 9)]
        dirs = np.vstack([_fibonacci_sphere(samples), [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]],
                          np.array(lattice, dtype=float)])
        dirs = dirs / np.linalg.norm(dirs, axis=1)[:, None]
    best = 0.0
    for p in (r * dirs).tolist():
        m = math.hypot(*handle.fn(tuple(p)))
        if math.isnan(m):
            continue
        if m > best:
            best = m
    return best


class TestFastEscape:
    def test_axis_point_is_fast(self, fhandle, build):
        res = fast_escape_test(fhandle, (0, 0, build.constants.L + 1), R=10.0)
        assert res.kind == "fast"
        assert res.ell <= 2

    def test_translation_orbit_is_not_fast(self, fhandle):
        res = fast_escape_test(fhandle, (0, 0, -1.0), R=10.0)
        assert res.kind == "not_observed"

    def test_julia_line_is_fast(self, fhandle, build):
        res = fast_escape_test(fhandle, (2.0, 2.0, build.constants.L + 2), R=10.0)
        assert res.kind == "fast"

    def test_growth_precondition(self):
        handle = MapHandle("half", lambda p: (p[0] / 2, p[1] / 2, p[2] / 2),
                           dim=3)
        with pytest.raises(ValueError):
            fast_escape_test(handle, (0, 0, -1.0), R=10.0)

    @pytest.mark.parametrize("k, estimates", [(60.0, 1), (10.0, 2)])
    def test_max_modulus_of_R_is_estimated_once(self, k, estimates):
        # x -> k x has M(10) = 10 k: above 500 the tower needs no further
        # estimate, and M(100) = 1000 ends it after one more
        calls = []

        def scale(p):
            calls.append(p)
            return (k * p[0], k * p[1], k * p[2])

        fast_escape_test(MapHandle("scale", scale), (0.0, 0.0, 1.0), R=10.0)
        orbit_steps = 12 + 4
        assert len(calls) == estimates * len(sphere_directions()) + orbit_steps

    def test_results_match_two_estimates_of_M_R(self, fhandle, build):
        # the tower with M(R) reused equals the one that estimates it
        # again, and so does the verdict
        L = build.constants.L
        for x, R in [((0.0, 0.0, L + 1), 10.0), ((2.0, 2.0, L + 2), 10.0),
                     ((0.3, -0.4, L + 0.5), 25.0), ((0.0, 0.0, -1.0), 10.0)]:
            tower = _mhat_steps(lambda r: max_modulus_estimate(fhandle, r), R, 12)
            orbit = orbit_magnitudes_bigexp(fhandle, x, 16, fhandle.translate)
            want = next((ell for ell in range(5) if 12 + ell < len(orbit) and all(
                orbit[k + ell] >= tower[k] for k in range(1, 13))), None)
            res = fast_escape_test(fhandle, x, R)
            assert (res.kind, res.ell) == (("fast", want) if want is not None
                                           else ("not_observed", None))


class _Counting:
    """x -> k x, counting its calls."""

    def __init__(self, k):
        self.k = k
        self.calls = 0

    def __call__(self, p):
        self.calls += 1
        return tuple(self.k * c for c in p)


class TestStoredTower:
    DIRECTIONS = len(sphere_directions())
    ORBIT = 12 + 4

    def test_repeated_radius_iterates_only_the_orbit(self):
        # x -> 60 x: M(10) = 600 > 500, so the tower needs one estimate
        fn = _Counting(60.0)
        h = MapHandle("scale", fn)
        first = fast_escape_test(h, (0.0, 0.0, 1.0), R=10.0)
        assert fn.calls == self.DIRECTIONS + self.ORBIT
        fn.calls = 0
        second = fast_escape_test(h, (0.0, 1.0, 0.5), R=10.0)
        assert fn.calls == self.ORBIT
        assert first == second == FastEscapeResult("not_observed")

    def test_new_radius_or_map_estimates_again(self):
        # the towers are keyed by the map and the radius alone
        fn = _Counting(60.0)
        h = MapHandle("scale", fn)
        fast_escape_test(h, (0.0, 0.0, 1.0), R=10.0)
        fn.calls = 0
        fast_escape_test(h, (0.0, 0.0, 1.0), R=12.0)
        assert fn.calls == self.DIRECTIONS + self.ORBIT
        h.fn = other = _Counting(60.0)
        fast_escape_test(h, (0.0, 0.0, 1.0), R=10.0)
        assert other.calls == self.DIRECTIONS + self.ORBIT
        assert set(h._towers) == {(fn, 3, 10.0), (fn, 3, 12.0), (other, 3, 10.0)}

    def test_failed_precondition_raises_on_each_call(self):
        fn = _Counting(0.5)
        h = MapHandle("half", fn)
        for _ in range(3):
            fn.calls = 0
            with pytest.raises(ValueError, match="precondition"):
                fast_escape_test(h, (0.0, 0.0, -1.0), R=10.0)
            assert fn.calls == self.DIRECTIONS
        assert h._towers == {}

    def test_stored_towers_give_a_fresh_handle_s_results(self, fmap, build):
        # the benchmark's fast-escape cases: starts on invariant vertical
        # lines above the fixed point log L', a start below the slab and one
        # that falls under the fixed point
        L, lp = build.constants.L, build.L_prime
        t_star = math.log(lp)
        rng = np.random.default_rng(31)
        cases = []
        for R in [5.5, 10.0, 20.0, 5.75] * 2:
            a, b = (int(v) for v in rng.integers(-2, 3, 2))
            s = 2.0 * int(rng.integers(2))
            cases.append(((4.0 * a + s, 4.0 * b + s, t_star + 0.3 + 2.7 * float(rng.random())), R))
        cases += [((3.1, -6.2, -4.0), 10.0), ((0.0, 0.0, L + 0.06), 20.0)]
        kept = MapHandle("f", lambda p: fmap.eval3(p[0], p[1], p[2]), dim=3,
                         tracks_h0=True, translate=lp)
        kinds = set()
        for x, R in cases:
            fresh = MapHandle("f", lambda p: fmap.eval3(p[0], p[1], p[2]), dim=3,
                              tracks_h0=True, translate=lp)
            want = fast_escape_test(fresh, x, R)
            assert fast_escape_test(kept, x, R) == want, (x, R)
            assert fast_escape_test(kept, x, R) == want, (x, R)
            kinds.add(want.kind)
        assert kinds == {"fast", "not_observed"}
        assert len(kept._towers) == 4

    def test_directions_are_built_once_and_read_only(self):
        dirs = _unit_directions(3)
        assert dirs is _unit_directions(3)
        assert isinstance(dirs, tuple) and all(type(d) is tuple for d in dirs)
        assert np.array(dirs).tobytes() == sphere_directions().tobytes()
        h = MapHandle("id", lambda p: p)
        assert max_modulus_estimate(h, 3.0) == pytest.approx(3.0, rel=1e-15)


def _ball_growth_numpy(gm, xi, delta, samples):
    """The sample loop of ``ball_growth_check`` on numpy rows and
    ``np.linalg.norm``, the oracle of its loop on Python floats."""
    xi = np.asarray(xi, dtype=float)
    fxi = np.asarray(gm.eval3(xi[0], xi[1], xi[2]))
    worst = math.inf
    for d in _fibonacci_sphere(samples):
        p = xi + delta * d
        fp = np.asarray(gm.eval3(p[0], p[1], p[2]))
        worst = min(worst, float(np.linalg.norm(fp - fxi)) / delta)
    return worst


class TestBallGrowth:
    def test_matches_the_numpy_loop(self, fmap, build):
        rng = np.random.default_rng(17)
        L = build.constants.L
        for _ in range(5):
            # an even number of fold reflections keeps the image above L
            n1, n2 = rng.integers(-3, 4, size=2).tolist()
            n2 += (n1 + n2) % 2
            xi = (2 * n1 + rng.uniform(-0.5, 0.5), 2 * n2 + rng.uniform(-0.5, 0.5),
                  L + 0.5 + 3 * rng.random())
            delta = 10 ** rng.uniform(-3, -1)
            want = _ball_growth_numpy(fmap, xi, delta, 300)
            got = ball_growth_check(fmap, xi, delta, samples=300)
            assert abs(got - want) <= 1e-15 * want, (xi, delta, got, want)

    def test_beam_ball_expansion(self, fmap, build):
        L = build.constants.L
        ratio = ball_growth_check(fmap, (0.2, 0.1, L + 2), 0.1, samples=400)
        assert ratio >= 32.0

    def test_small_radius_limit_approaches_derivative_floor(self, fmap, build):
        from qrdyn.zorich import F_jacobian
        L = build.constants.L
        xi = (0.2, 0.1, L + 2)
        j, _ = F_jacobian(xi)
        ell = np.linalg.svd(j, compute_uv=False)[-1]
        assert ell >= 32.0
        r1 = ball_growth_check(fmap, xi, 1e-2, samples=400)
        r2 = ball_growth_check(fmap, xi, 1e-3, samples=400)
        assert abs(r2 - ell) < abs(r1 - ell) + 1e-9
        assert r2 == pytest.approx(ell, rel=0.05)

    def test_identity_region_rejected(self, fmap):
        with pytest.raises(ValueError):
            ball_growth_check(fmap, (0.2, 0.1, -5.0), 0.1)

    def test_beam_overflow_rejected(self, fmap, build):
        with pytest.raises(ValueError):
            ball_growth_check(fmap, (0.95, 0.0, build.constants.L + 2), 0.1)


class TestCsv:
    def test_orbit_csv_shape(self, fhandle, build):
        rec = iterate(fhandle, (0, 0, -1.0), 5)
        text = orbit_csv(rec, classify_escape(fhandle, (0, 0, -1.0), 5))
        lines = text.strip().splitlines()
        assert lines[0] == "k,x1,x2,x3,rho,a_k,class"
        assert len(lines) == 7
        row = lines[2].split(",")
        assert row[0] == "1"
        assert float(row[3]) == -1.0 - build.L_prime
        assert row[6] == "H0@0"

    def test_rate_is_zero_at_the_origin(self):
        # |x| x fixes the origin, where log |x| = -inf and log+ log |x| = 0
        h = MapHandle("sq", radial_square_eval, dim=2)
        ks, aks, rec = escape_rate_series(h, (0.0, 0.0), 3)
        assert (ks, aks) == ([1, 2, 3], [0.0, 0.0, 0.0])
        rows = [line.split(",") for line in orbit_csv(rec).strip().splitlines()[1:]]
        assert [row[4] for row in rows] == ["", "0.0", "0.0", "0.0"]

    def test_rates_csv_shape(self, fhandle):
        ks, aks, rec = escape_rate_series(fhandle, (0, 0, -1.0), 10)
        text = rates_csv(ks, aks, rec)
        lines = text.strip().splitlines()
        assert lines[0] == "k,rho,a_k,class"
        assert len(lines) == 11


class TestConsistency:
    def test_direct_and_surrogate_overlap(self, build):
        # compare the surrogate continuation against direct floats on the
        # window where both are representable
        lp = build.L_prime
        handle = MapHandle(
            "axis-square",
            lambda p: (0.0, 0.0, -(math.hypot(p[0], math.hypot(p[1], p[2])) ** 2 + lp)),
            dim=3, tracks_h0=True,
            surrogate=SurrogateSpec(translate=lp))
        rec = iterate(handle, (0.0, 0.0, -5.0), 12)
        assert rec.surrogate_from is not None
        direct = [math.log(5.0)]
        r = 5.0
        while r * r < 1e306:
            r = r * r + lp
            direct.append(math.log(r))
        assert len(direct) > rec.surrogate_from  # genuine overlap
        for k in range(len(direct)):
            assert rec.rho[k] == pytest.approx(direct[k], rel=1e-6)

    def test_norm_safe_handles_huge_components(self):
        assert math.hypot(3e200, 4e200, 0.0) == pytest.approx(5e200, rel=1e-12)
        assert math.isinf(math.hypot(float("inf"), 0.0, 0.0))


class TestOverflowBands:
    def test_max_modulus_past_the_squared_sum_overflow(self, fhandle, build):
        # |f(x)|^2 overflows for r > ~355 although |f(x)| itself is finite
        est = max_modulus_estimate(fhandle, 360.0)
        assert math.isfinite(est)
        assert est >= 360.0 + math.exp(360.0) - build.L_prime

    def test_fast_escape_with_large_first_modulus(self, fhandle, build):
        # M(5.75) lies in (355, 500], where the tower is sampled directly
        res = fast_escape_test(fhandle, (0.0, 0.0, build.constants.L + 1), R=5.75)
        assert res.kind in ("fast", "not_observed")

    def test_F_step_from_the_exp_overflow_band_is_radial(self, fhandle):
        # math.exp overflows for x3 in (log(DBL_MAX), 710)
        assert classify_escape(fhandle, (0.5, 0.25, 709.9), 5).kind == "radial"


class TestPrecisionHorizon:
    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 2.0 ** 60), st.booleans(), st.booleans())
    def test_F_step_on_both_sides_of_the_horizon(self, fhandle, build, x, neg, second):
        x = -x if neg else x
        start = (0.5, x, build.constants.L + 1.0) if second else \
            (x, 0.5, build.constants.L + 1.0)
        c = classify_escape(fhandle, start, 5)
        rec = iterate(fhandle, start, 5)
        if abs(x) > HORIZON:
            with pytest.raises(PrecisionLost):
                F_scalar(*start)
            assert c == EscapeClass("precision_lost")
            assert c.label == "precision_lost"
            assert rec.reason == "precision_lost" and len(rec.points) == 1
            assert len(orbit_magnitudes_bigexp(fhandle, start, 5, build.L_prime)) == 1
        else:
            F_scalar(*start)
            assert rec.points[1][2] == fhandle.fn(start)[2]
            assert c.kind != "precision_lost" or rec.reason == "precision_lost"

    def test_threshold_is_inclusive(self, fhandle, build):
        L = build.constants.L
        assert classify_escape(fhandle, (HORIZON, 0.5, L + 1.0), 1).kind != "precision_lost"
        assert classify_escape(fhandle, (math.nextafter(HORIZON, math.inf), 0.5, L + 1.0),
                               1).kind == "precision_lost"

    def test_rate_series_stops_at_the_horizon(self, fhandle, build):
        ks, aks, rec = escape_rate_series(fhandle, (2.0 ** 51, 0.5, build.constants.L + 1), 10)
        assert ks == [] and rec.reason == "precision_lost"

    def test_identity_steps_past_the_horizon_go_on(self, fhandle):
        # only F steps lose the fold parity; identity steps stay exact
        rec = iterate(fhandle, (1e20, -3e18, -1.0), 5)
        assert rec.reason == "budget"
        assert classify_escape(fhandle, (1e20, 0.0, -1.0), 5).kind == "quasi_fatou"


class TestFloatInputs:
    def test_map_sees_python_floats(self, fmap, build):
        seen = set()

        def fn(p):
            seen.update(type(c) for c in p)
            return fmap.eval3(*p)

        handle = MapHandle("recording", fn, dim=3, tracks_h0=True,
                           translate=fmap.L_prime)
        start = np.array([0.3, 0.2, 1.5])
        iterate(handle, start, 3)
        classify_escape(handle, start, 3)
        max_modulus_estimate(handle, 5.0)
        orbit_magnitudes_bigexp(handle, np.array([0.0, 0.0, build.constants.L + 1]),
                                4, fmap.L_prime)
        assert seen == {float}


# ---------------------------------------------------------------------------
# the float-only orbit loops against the numpy loops they replaced

def _norm_numpy(p):
    v = np.asarray(p, dtype=float)
    s = float(np.max(np.abs(v)))
    if s == 0.0 or not math.isfinite(s):
        return s
    w = v / s
    return s * math.sqrt(float(w @ w))


def _log_norm_numpy(p):
    v = np.asarray(p, dtype=float)
    s = float(np.max(np.abs(v)))
    if s == 0.0:
        return -math.inf
    if not math.isfinite(s):
        return math.inf
    w = v / s
    return math.log(s) + 0.5 * math.log(float(w @ w))


def _classify_numpy(f, x, n_max):
    p = np.asarray(x, dtype=float)
    if p[2] < 0:
        return EscapeClass("quasi_fatou", n=0)
    for n in range(1, n_max + 1):
        try:
            nxt = np.asarray(f.fn(tuple(p.tolist())), dtype=float)
        except PrecisionLost:
            return EscapeClass("precision_lost")
        if nxt[2] < 0:
            return EscapeClass("quasi_fatou", n=n)
        if not np.all(np.isfinite(nxt)):
            return EscapeClass("radial")
        if _norm_numpy(nxt) > RADIUS_CAP:
            return EscapeClass("radial")
        p = nxt
    return EscapeClass("undecided", budget=n_max)


def _iterate_numpy(map_handle, x0, k_max):
    """(points, rho, reason, h0_step, surrogate_from) of the numpy loop."""
    x = np.asarray(x0, dtype=float)
    pts = [x.copy()]
    rho = [_log_norm_numpy(x)]
    h0_step = None
    if map_handle.tracks_h0 and x[2] < 0:
        h0_step = 0
    reason = "budget"
    surrogate_from = None
    for k in range(1, k_max + 1):
        try:
            nxt = np.asarray(map_handle.fn(tuple(x.tolist())), dtype=float)
        except PrecisionLost:
            reason = "precision_lost"
            break
        if not np.all(np.isfinite(nxt)):
            if map_handle.tracks_h0 and h0_step is None and nxt[2] < 0:
                h0_step = k
            reason = "nonfinite"
            break
        m = _norm_numpy(nxt)
        if m > RADIUS_CAP:
            reason = "radius_cap"
            break
        pts.append(nxt.copy())
        rho.append(_log_norm_numpy(nxt))
        if map_handle.tracks_h0 and h0_step is None and nxt[2] < 0:
            h0_step = k
        sur = map_handle.surrogate
        if sur is not None and m > LOG_SWITCH and sur.regime(nxt):
            surrogate_from = k
            r = rho[-1]
            for _ in range(k + 1, k_max + 1):
                r = _radial_square_rho_step(r, sur.translate)
                rho.append(r)
            break
        x = nxt
    return pts, rho, reason, h0_step, surrogate_from


def _stub(value, dim=3):
    return MapHandle("stub", lambda p: value, dim=dim, tracks_h0=True)


STUB_VALUES = [
    (math.inf, 0.0, 1.0), (0.0, -math.inf, 1.0), (math.nan, 0.0, 1.0),
    (0.0, 0.0, math.nan), (math.nan, 0.0, -1.0), (2e300, 0.0, 1.0),
    (2e300, 0.0, -1.0), (1e299, 1e299, 1e299), (1e308, 1e308, 1.0),
    (1.0, 2.0, 3.0), (1.0, 2.0, -3.0),
]


@pytest.fixture(scope="module")
def horizon_starts(build):
    """The portrait benchmark's fixed starts whose reference orbits pass the
    precision horizon."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import workloads
        return workloads.Portrait(workloads.Context(build), 1).horizon_starts


class TestSharedOutcomes:
    def test_equal_outcomes_are_one_object(self, fhandle, build):
        L = build.constants.L
        pairs = [((0, 0, -1.0), (3.5, -2.0, -0.25)),               # H0@0
                 ((0.3, 1.2, 2.0), (-5.1, 0.4, 0.5)),              # H0@1
                 ((0, 0, L + 1), (2.0, 2.0, L + 2)),               # radial
                 ((2.0 ** 51, 0.5, L + 1), (0.5, -2.0 ** 52, L + 2))]  # precision_lost
        for a, b in pairs:
            ca, cb = classify_escape(fhandle, a, 50), classify_escape(fhandle, b, 50)
            assert ca == cb and ca is cb, (a, b, ca, cb)
        frozen = MapHandle("shift", lambda p: p, dim=3, tracks_h0=True)
        seven = classify_escape(frozen, (0, 0, 1.0), 7)
        assert seven is classify_escape(frozen, (1, 2, 3.0), 7)
        assert seven is not classify_escape(frozen, (0, 0, 1.0), 8)

    def test_outcomes_are_frozen(self, fhandle, build):
        for x in ((0, 0, -1.0), (0, 0, build.constants.L + 1), (2.0 ** 51, 0.5, 9.0)):
            c = classify_escape(fhandle, x, 50)
            for name, value in (("kind", "radial"), ("n", 3), ("budget", 1)):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(c, name, value)
            assert c == classify_escape(fhandle, x, 50)

    def test_matches_numpy_loop_on_the_horizon_starts(self, fhandle, horizon_starts):
        assert len(horizon_starts) == 35
        kinds = set()
        for x in horizon_starts:
            c = classify_escape(fhandle, x, 60)
            assert c == _classify_numpy(fhandle, x, 60), x
            kinds.add(c.kind)
        assert "precision_lost" in kinds

    @pytest.mark.parametrize("n_max", [3, 11])
    def test_matches_numpy_loop_when_the_budget_runs_out(self, n_max):
        handle = MapHandle("creep", lambda p: (p[0] + 1.0, p[1], p[2] + 0.5),
                           dim=3, tracks_h0=True)
        c = classify_escape(handle, (0.0, 0.0, 1.0), n_max)
        assert c == _classify_numpy(handle, (0.0, 0.0, 1.0), n_max)
        assert c.label == "undecided" and c.budget == n_max


class TestFloatLoops:
    def test_classify_matches_numpy_loop_on_portrait_grid(self, fhandle, build):
        L = build.constants.L
        for x1 in np.linspace(-8.0, 8.0, 100).tolist():
            for x3 in np.linspace(-1.0, L + 3.0, 50).tolist():
                x = (x1, 0.37, x3)
                assert classify_escape(fhandle, x, 60) == _classify_numpy(fhandle, x, 60), x

    @pytest.mark.parametrize("value", STUB_VALUES)
    def test_classify_matches_numpy_loop_on_stubs(self, value):
        for wrap in (tuple, list, np.array):
            handle = _stub(wrap(value))
            for x in ((0.0, 0.0, 1.0), np.array([1.0, 2.0, 3.0])):
                assert classify_escape(handle, x, 5) == _classify_numpy(handle, x, 5)

    def _same_orbit(self, handle, x0, k_max):
        rec = iterate(handle, x0, k_max)
        pts, rho, reason, h0_step, surrogate_from = _iterate_numpy(handle, x0, k_max)
        assert (rec.reason, rec.h0_step, rec.surrogate_from) == (reason, h0_step, surrogate_from)
        assert all(isinstance(p, np.ndarray) for p in rec.points)
        assert len(rec.points) == len(pts)
        for got, want in zip(rec.points, pts):
            assert np.array_equal(got, want)
        # log(hypot) against log(s) + log(|v/s|)/2: a few ulps of log|x|
        assert len(rec.rho) == len(rho)
        for got, want in zip(rec.rho, rho):
            assert got == want or abs(got - want) <= 8 * 2.0 ** -52 * max(1.0, abs(want))

    def test_iterate_matches_numpy_loop(self, fhandle, build):
        from qrdyn.example_maps import example_one, example_two, x0_for_example_two
        L = build.constants.L
        rng = np.random.default_rng(22)
        for x in rng.uniform([-8, -8, -1], [8, 8, L + 3], (60, 3)).tolist():
            self._same_orbit(fhandle, x, 8)
        self._same_orbit(fhandle, (0.0, 0.0, L + 1.0), 6)
        self._same_orbit(example_one(), (math.e, 0.0), 30)
        two = example_two(build.f)
        self._same_orbit(two, tuple(x0_for_example_two(build.f)), 30)
        for value in STUB_VALUES:
            self._same_orbit(_stub(value), (0.0, 0.0, 1.0), 4)
            self._same_orbit(_stub(value), (0.0, 0.0, -1.0), 4)
