"""f's scalar path against the layered oracle, and the Python frames it runs.

``GlobalMap.eval3`` runs each regime in as few Python frames as it needs:
the chart rule, the chart's locate and Z are written out in ``eval3``,
``RadialMap.eval3`` and ``zorich.F_scalar``.  ``oracles.layered_eval3``
composes the same map from one function per layer; the two must agree bit
for bit, errors included.  The frame counts are taken with
``sys.setprofile``, so they are exact and do not depend on timing."""

import math
import sys

import numpy as np
import pytest

from oracles import facet_tables, layered_eval3
from qrdyn import dynamics
from qrdyn.dynamics import MapHandle, classify_escape, max_modulus_estimate
from qrdyn.zorich import PrecisionLost


def _bits(values):
    return tuple(float(v).hex() for v in values)


def _outcome(fn, p):
    """fn(*p) as the hex of each coordinate, or the type of what it raised."""
    try:
        return _bits(fn(*p))
    except (ValueError, ArithmeticError) as err:
        return type(err)


def _points(L, charts):
    """Seeded points of [-9, 9]^2 x [-1, L + 3], the fold, reflection, chart
    and level planes (x1, x2 in Z / 2; x3 in {0, 1, L}), signed zeros, and
    points on and a relative 1e-13 off the cones from each chart's domain
    centre over its box edges, where two exit times tie or nearly tie."""
    rng = np.random.default_rng(2026)
    n = 100_000
    pts = np.column_stack([rng.uniform(-9.0, 9.0, n), rng.uniform(-9.0, 9.0, n),
                           rng.uniform(-1.0, L + 3.0, n)]).tolist()
    halves = [k / 2 for k in range(-18, 19)]
    levels = [0.0, 1.0, L]
    pts += [(x1, x2, x3) for x1 in halves for x2 in halves for x3 in levels]
    m = 200
    for axis in (0, 1):
        for v in halves:
            p = np.column_stack([rng.uniform(-9.0, 9.0, m), rng.uniform(-9.0, 9.0, m),
                                 rng.uniform(-1.0, L + 3.0, m)])
            p[:, axis] = v
            pts += p.tolist()
    for v in levels:
        p = np.column_stack([rng.uniform(-9.0, 9.0, 2000), rng.uniform(-9.0, 9.0, 2000),
                             np.full(2000, v)])
        pts += p.tolist()
    signed = [-0.0, 0.0, 0.5, -2.0, 4.0, -4.0]
    pts += [(x1, x2, x3) for x1 in signed for x2 in signed
            for x3 in (-0.0, 0.0, 0.5, 1.0, L, L + 1.0, -1.0)]
    for chart in charts:
        a, lo, hi = chart.map.domain.centre, chart.lo, chart.hi
        for axis in range(3):
            i, j = [k for k in range(3) if k != axis]
            for ci in (lo[i], hi[i]):
                for cj in (lo[j], hi[j]):
                    e = np.empty((50, 3))          # points of one box edge
                    e[:, i], e[:, j] = ci, cj
                    e[:, axis] = lo[axis] + rng.random(50) * (hi[axis] - lo[axis])
                    p = a + rng.uniform(0.2, 1.0, (50, 1)) * (e - a)
                    pts += p.tolist()
                    pts += (p * (1.0 + rng.choice([-1e-13, 1e-13], (50, 3)))).tolist()
    return pts


@pytest.fixture(scope="module")
def tables(gmap):
    """The nested locate tables of the slab charts, which g and f share."""
    return [facet_tables(chart.map) for chart in gmap._slab_charts]


class TestLayeredOracle:
    def test_g_and_f_match_the_layered_path_bitwise(self, gmap, fmap, tables):
        pts = _points(fmap.L, gmap._slab_charts)
        assert len(pts) > 100_000
        for gm in (gmap, fmap):
            ev = gm.eval3
            for p in pts:
                assert _bits(ev(*p)) == _bits(layered_eval3(gm, tables, *p)), (gm.mode, p)

    def test_special_points_match_the_layered_path(self, gmap, fmap, tables):
        L = fmap.L
        big = math.log(sys.float_info.max)
        specials = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, 2.0, 0.5, -3.0, 2.0 ** 51]
        heights = [math.nan, math.inf, -math.inf, -1.0, 0.5, L + 1.0, big,
                   math.nextafter(big, math.inf), 800.0, 1e308]
        for gm in (gmap, fmap):
            for x1 in specials:
                for x2 in specials:
                    for x3 in heights:
                        p = (x1, x2, x3)
                        assert _outcome(gm.eval3, p) == _outcome(
                            lambda *q: layered_eval3(gm, tables, *q), p), (gm.mode, p)

    def test_error_cases(self, fmap):
        L = fmap.L
        for p in [(math.nan, 0.5, 0.5), (0.5, math.nan, 0.5), (0.5, 0.5, math.nan),
                  (math.nan, 0.5, L + 1.0), (0.5, math.nan, L + 1.0),
                  (math.inf, 0.5, 0.5)]:
            with pytest.raises(ValueError):
                fmap.eval3(*p)
        for p in [(math.inf, 0.5, L + 1.0), (0.5, -math.inf, L + 1.0)]:
            with pytest.raises(PrecisionLost):
                fmap.eval3(*p)
        # above log(DBL_MAX) the scale is infinite, and 0 * inf is 0
        x1, x2, x3 = fmap.eval3(0.5, 0.25, 800.0)
        assert x1 == x2 == x3 == math.inf
        x1, x2, x3 = fmap.eval3(0.0, 2.0, 800.0)
        assert (x1, x2, x3) == (0.0, 2.0, -math.inf)
        x1, x2, x3 = fmap.eval3(1.0, 1.0, 800.0)
        assert (x1, x2) == (math.inf, math.inf) and x3 == 800.0 - fmap.L_prime

    def test_orbits_match_the_layered_handle(self, fmap, tables):
        f = fmap
        handle = MapHandle("f", lambda p: f.eval3(p[0], p[1], p[2]), dim=3,
                           tracks_h0=True, translate=f.L_prime)
        layered = MapHandle("layered", lambda p: layered_eval3(f, tables, p[0], p[1], p[2]),
                            dim=3, tracks_h0=True, translate=f.L_prime)
        rng = np.random.default_rng(41)
        for x2 in (0.5, float(rng.uniform(-8.0, 8.0))):
            for x1, x3 in zip(rng.uniform(-8.0, 8.0, 1500).tolist(),
                              rng.uniform(-1.0, f.L + 3.0, 1500).tolist()):
                assert classify_escape(handle, (x1, x2, x3), 60) is \
                    classify_escape(layered, (x1, x2, x3), 60)
        for r in np.linspace(5.0, 500.0, 20).tolist():
            assert max_modulus_estimate(handle, r).hex() == \
                max_modulus_estimate(layered, r).hex(), r


def _calls(fn, *args):
    """The Python-level calls (profile "call" events) that fn(*args) makes,
    fn's own included."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event == "call"

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return count


class TestFlatPath:
    def test_one_eval3_per_regime(self, fmap):
        L = fmap.L
        assert _calls(fmap.eval3, 0.3, 0.7, -2.0) == 1           # identity
        assert _calls(fmap.eval3, 0.3, 0.7, L + 1.0) == 2        # eval3, F_scalar
        # eval3 and one chart's RadialMap.eval3, on every chart and facet
        rng = np.random.default_rng(3)
        for x, y, z in np.column_stack([rng.uniform(-8.0, 8.0, 200),
                                        rng.uniform(-8.0, 8.0, 200),
                                        rng.uniform(0.0, L, 200)]).tolist():
            assert _calls(fmap.eval3, x, y, z) == 2, (x, y, z)

    def test_classify_escape_on_a_slab_start(self, fmap):
        # classify_escape, the handle's lambda, GlobalMap.eval3 and
        # RadialMap.eval3: the slab step lands below -1, in H0
        f = fmap
        handle = MapHandle("f", lambda p: f.eval3(p[0], p[1], p[2]), dim=3,
                           tracks_h0=True, translate=f.L_prime)
        start = (0.3, 0.7, 2.0)
        assert classify_escape(handle, start, 60) is dynamics._entered(1)
        assert _calls(classify_escape, handle, start, 60) == 4
