"""The benchmark's two workloads.

Each workload runs whole rounds; a round is a fixed list of operations whose
inputs come from the run's seeded random stream.  Only the calls into
``qrdyn`` are timed; drawing inputs and checking outputs are not.  Every
output is checked against ``reference`` or against a property of the
construction, never against a stored copy of an earlier output.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from qrdyn import dynamics, example_maps, global_map, zorich

import reference as ref

LOG2 = math.log(2.0)
N_MAX = 60                    # classify_escape budget

# portrait: each round classifies PORTRAIT_SEEDED in-horizon starts drawn
# from the seed's slice, then the same PORTRAIT_HORIZON starts that pass the
# precision horizon (a kept fault, counted as failed while labelled).
PORTRAIT_SEEDED = 965
PORTRAIT_HORIZON = 35
HORIZON_SEED = 20150923       # fixed: these starts do not depend on --seed
HORIZON_X2 = 0.5

# growth
SWEEP_OK = 6                  # radii in [5, 350], one per stratum
SWEEP_OVERFLOW = (360.0, 500.0)   # kept fault: M(r) = inf here
FAST_R = (5.5, 10.0, 20.0)
FAST_R_OVERFLOW = 5.75        # kept fault: M(R) in (355, 500], so it raises
RATE_SERIES = 5               # per example map, per round
RATE_K = 30

# certify: a quarter of the tests' audit samples keeps rounds short, so that
# a run has enough rounds for a steady lower decile
ROUND_TRIPS = 20              # per chart, per round
SEAM_SAMPLES = 200
ORIENTATION_SAMPLES = 75
DILATATION_SAMPLES = 100
EXPANSION_PAIRS = 500


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    busy: float = 0.0                       # seconds inside timed calls
    rates: list = field(default_factory=list)   # ops per second, per round
    kinds: dict = field(default_factory=dict)   # kind -> [calls, seconds]
    errors: list = field(default_factory=list)

    def check(self, ok, what):
        if not ok and len(self.errors) < 20:
            self.errors.append(what)
        return ok

    def timed(self, kind, seconds, calls=1):
        entry = self.kinds.setdefault(kind, [0, 0.0])
        entry[0] += calls
        entry[1] += seconds

    def close_round(self, ops, seconds):
        self.attempted += ops
        self.busy += seconds
        self.rates.append(ops / seconds)


class Context:
    """The built maps and what the checks derive from them."""

    def __init__(self, build):
        self.build = build
        self.g = build.g
        self.f = build.f
        self.L = build.constants.L
        self.L_prime = build.L_prime
        self.diameter = build.g.image_diameter
        self.vertex_norm = max(float(np.linalg.norm(v))
                               for v in build.vertex_table.images.values())
        f = self.f
        self.handle = dynamics.MapHandle(
            "f", lambda p: f.eval3(p[0], p[1], p[2]), dim=3, tracks_h0=True,
            translate=self.L_prime)
        self.example_one = example_maps.example_one()
        self.example_two = example_maps.example_two(f)
        self.x0_two = example_maps.x0_for_example_two(f)


def check_build(ctx, tally):
    c = ctx.build.constants
    expect = ctx.L + math.exp(ctx.L) + 1.0
    tally.check(abs(ctx.L_prime - expect) <= 1e-12 * expect,
                f"build: L' = {ctx.L_prime!r}, expected L + e^L + 1 = {expect!r}")
    tally.check(math.exp(ctx.L) * c.c0 > 33.0,
                f"build: e^L c0 = {math.exp(ctx.L) * c.c0!r} is not above 33")


# ---------------------------------------------------------------------------
# portrait

class Portrait:
    def __init__(self, ctx, seed):
        self.ctx = ctx
        self.x2 = float(np.random.default_rng([seed, 1]).uniform(-8.0, 8.0))
        self.horizon_starts = self._horizon_starts()

    def _horizon_starts(self):
        """Fixed starts whose reference orbit passes the precision horizon."""
        ctx = self.ctx
        rng = np.random.default_rng(HORIZON_SEED)
        out = []
        while len(out) < PORTRAIT_HORIZON:
            x1, x3 = rng.uniform(-8.0, 8.0), rng.uniform(-1.0, ctx.L + 3.0)
            _, flags = ref.portrait_labels(x1, HORIZON_X2, x3, ctx.L,
                                           ctx.L_prime, N_MAX)
            if flags == {"horizon"}:
                out.append((float(x1), HORIZON_X2, float(x3)))
        return out

    def run(self, rng, tally):
        ctx = self.ctx
        starts, accepted = [], []
        while len(starts) < PORTRAIT_SEEDED:
            x1s = rng.uniform(-8.0, 8.0, PORTRAIT_SEEDED).tolist()
            x3s = rng.uniform(-1.0, ctx.L + 3.0, PORTRAIT_SEEDED).tolist()
            for x1, x3 in zip(x1s, x3s):
                labels, flags = ref.portrait_labels(x1, self.x2, x3, ctx.L,
                                                    ctx.L_prime, N_MAX)
                if flags:
                    continue
                starts.append((x1, self.x2, x3))
                accepted.append(labels)
                if len(starts) == PORTRAIT_SEEDED:
                    break
        starts += self.horizon_starts
        classify, handle = dynamics.classify_escape, ctx.handle
        t0 = time.perf_counter()
        out = [classify(handle, p, N_MAX) for p in starts]
        dt = time.perf_counter() - t0
        for p, labels, c in zip(starts, accepted, out):
            tally.check(c.label in labels,
                        f"portrait: classify_escape{p} = {c.label}, reference {sorted(labels)}")
        for c in out[PORTRAIT_SEEDED:]:
            if c.kind in ("quasi_fatou", "radial"):
                tally.failed += 1
        tally.timed("classify_escape", dt, len(starts))
        return len(starts), dt

    def probe(self):
        for p in self.horizon_starts:
            dynamics.classify_escape(self.ctx.handle, p, N_MAX)


# ---------------------------------------------------------------------------
# growth

class Growth:
    def __init__(self, ctx):
        self.ctx = ctx
        self.t_star = math.log(ctx.L_prime)   # fixed point of t + e^t - L'

    def _line_start(self, rng):
        """A start on an invariant vertical line, above the fixed point."""
        ctx = self.ctx
        while True:
            a, b = (int(v) for v in rng.integers(-2, 3, 2))
            shift = 2.0 * int(rng.integers(2))
            x3 = self.t_star + 0.3 + 2.7 * float(rng.random())
            if not ref.tower_meets_exp_band(x3, ctx.L, ctx.L_prime):
                return (4.0 * a + shift, 4.0 * b + shift, x3)

    def _sweep(self, rng, tally):
        ctx = self.ctx
        width = (350.0 - 5.0) / SWEEP_OK
        radii = [5.0 + width * (i + float(rng.random())) for i in range(SWEEP_OK)]
        lo, hi = SWEEP_OVERFLOW
        radii.append(lo + (hi - lo) * float(rng.random()))
        busy = 0.0
        for r in radii:
            t0 = time.perf_counter()
            m = dynamics.max_modulus_estimate(ctx.handle, r)
            busy += time.perf_counter() - t0
            if not math.isfinite(m):
                tally.failed += 1
                tally.check(r > 354.0, f"growth: max_modulus_estimate({r!r}) = {m!r}")
                continue
            lo = ref.max_modulus_lower(r, ctx.L_prime)
            hi = ref.max_modulus_upper(r, ctx.L_prime, ctx.diameter)
            tally.check(lo * (1 - 1e-12) <= m <= hi,
                        f"growth: M({r!r}) = {m!r} outside [{lo!r}, {hi!r}]")
        tally.timed("max_modulus_estimate", busy, len(radii))
        return len(radii), busy

    def _fast_escape(self, rng, tally):
        ctx = self.ctx
        tests = [(self._line_start(rng), R, "fast") for R in FAST_R]
        below = (float(rng.uniform(-8, 8)), float(rng.uniform(-8, 8)),
                 float(rng.uniform(-8, -0.5)))
        tests.append((below, FAST_R[1], "below"))
        tests.append(((0.0, 0.0, ctx.L + 0.06), FAST_R[2], "under_fixed_point"))
        tests.append((self._line_start(rng), FAST_R_OVERFLOW, "fast"))
        busy = 0.0
        for x, R, kind in tests:
            t0 = time.perf_counter()
            try:
                res = dynamics.fast_escape_test(ctx.handle, x, R)
            except ValueError as err:
                busy += time.perf_counter() - t0
                tally.failed += 1
                tally.check(R == FAST_R_OVERFLOW,
                            f"growth: fast_escape_test({x}, R={R}) raised {err}")
                continue
            busy += time.perf_counter() - t0
            self._check_fast(x, R, kind, res, tally)
        tally.timed("fast_escape_test", busy, len(tests))
        return len(tests), busy

    def _check_fast(self, x, R, kind, res, tally):
        ctx = self.ctx
        lp = ctx.L_prime
        if kind == "fast":
            ell = ref.fast_certificate(x[2], R, lp, ctx.diameter)
            tally.check(ell is not None, f"growth: no fast certificate for {x}, R={R}")
            tally.check(res.kind == "fast" and ell is not None and res.ell <= ell,
                        f"growth: fast_escape_test({x}, R={R}) = {res}, certified ell {ell}")
            return
        if kind == "below":
            norm = math.sqrt(sum(c * c for c in x))
            bound = lambda j: norm + j * lp          # pure translation
        else:
            # the axis orbit falls under the fixed point into the slab, whose
            # image lies in the hull of the chart image vertices
            t1 = x[2] + math.exp(x[2]) - lp
            tally.check(x[2] < self.t_star and 0.0 <= t1 <= ctx.L,
                        f"growth: {x} does not fall into the slab (t1 = {t1!r})")
            bound = lambda j: ctx.vertex_norm + j * lp
        certified = ref.not_fast_certificate(bound, R, lp)
        tally.check(certified, f"growth: no not-fast certificate for {x}, R={R}")
        tally.check(res.kind == "not_observed",
                    f"growth: fast_escape_test({x}, R={R}) = {res}")

    def _rate_series(self, rng, tally):
        ctx = self.ctx
        starts = []
        for _ in range(RATE_SERIES):
            r = math.exp(float(rng.uniform(0.8, 1.25)))
            th = float(rng.uniform(-0.3, 0.3))
            starts.append((ctx.example_one, (r * math.cos(th), r * math.sin(th))))
        for _ in range(RATE_SERIES):
            d1, d2 = (float(v) for v in rng.uniform(-0.05, 0.05, 2))
            x0 = ctx.x0_two
            starts.append((ctx.example_two, (x0[0] + d1, x0[1] + d2, float(x0[2]))))
        busy = 0.0
        for handle, x in starts:
            t0 = time.perf_counter()
            ks, aks, _ = dynamics.escape_rate_series(handle, x, RATE_K)
            busy += time.perf_counter() - t0
            a20 = aks[19] if len(aks) >= 20 else math.nan
            tally.check(abs(a20 - LOG2) <= 0.05,
                        f"growth: {handle.name} from {x}: a_20 = {a20!r}")
        tally.timed("escape_rate_series", busy, len(starts))
        return len(starts), busy

    def run(self, rng, tally):
        ops, busy = 0, 0.0
        for part in (self._sweep, self._fast_escape, self._rate_series):
            n, dt = part(rng, tally)
            ops += n
            busy += dt
        return ops, busy

    def probe(self):
        ctx = self.ctx
        dynamics.max_modulus_estimate(ctx.handle, 20.0)
        dynamics.fast_escape_test(ctx.handle, (0.0, 0.0, self.t_star + 1.0), 10.0)
        dynamics.escape_rate_series(ctx.example_one, (math.e, 0.0), RATE_K)


# ---------------------------------------------------------------------------
# certify

class Certify:
    def __init__(self, ctx):
        self.ctx = ctx

    def _round_trips(self, rng, tally):
        busy = 0.0
        n = 0
        for chart in self.ctx.g.charts:
            rmap = chart.map
            pts = (chart.lo + rng.random((ROUND_TRIPS, 3)) * (chart.hi - chart.lo)).tolist()
            t0 = time.perf_counter()
            back = [rmap.inverse(rmap.eval(p)) for p in pts]
            busy += time.perf_counter() - t0
            tol = 1e-8 * rmap.domain.diameter
            for p, q in zip(pts, back):
                err = math.dist(p, q)
                tally.check(err <= tol,
                            f"certify: {chart.cell_id} round trip of {p} off by {err!r}")
            n += len(pts)
        tally.timed("round_trip", busy, n)
        return n, busy

    def _audits(self, rng, tally):
        ctx = self.ctx
        seed = int(rng.integers(2 ** 31))
        t0 = time.perf_counter()
        seams = global_map.audit_seams(ctx.g, samples=SEAM_SAMPLES, seed=seed)
        orient = global_map.audit_orientation(
            ctx.g, samples_per_chart=ORIENTATION_SAMPLES, seed=seed)
        dil = global_map.audit_dilatation(ctx.g, samples=DILATATION_SAMPLES, seed=seed)
        ratio = zorich.expansion_min_ratio(ctx.L, pairs=EXPANSION_PAIRS, seed=seed)
        busy = time.perf_counter() - t0
        tally.check(seams.passed, f"certify: seams failed, seed {seed}: {seams.per_interface}")
        tally.check(orient.passed and orient.min_det > 0,
                    f"certify: orientation failed, seed {seed}: {orient.per_chart}")
        tally.check(math.isfinite(dil.k_sup) and dil.k_sup >= dil.k_median >= 1.0,
                    f"certify: dilatation {dil}, seed {seed}")
        tally.check(ratio >= 32.0, f"certify: expansion ratio {ratio!r}, seed {seed}")
        tally.timed("audits", busy, 4)
        return 4, busy

    def run(self, rng, tally):
        n1, t1 = self._round_trips(rng, tally)
        n2, t2 = self._audits(rng, tally)
        return n1 + n2, t1 + t2

    def probe(self):
        ctx = self.ctx
        for chart in ctx.g.charts:
            mid = tuple((chart.lo + chart.hi) / 3.0)
            chart.map.inverse(chart.map.eval(mid))
        global_map.audit_seams(ctx.g, samples=SEAM_SAMPLES, seed=0)
        global_map.audit_orientation(ctx.g, samples_per_chart=ORIENTATION_SAMPLES, seed=0)
        global_map.audit_dilatation(ctx.g, samples=DILATATION_SAMPLES, seed=0)
        zorich.expansion_min_ratio(ctx.L, pairs=EXPANSION_PAIRS, seed=0)


# ---------------------------------------------------------------------------

class Workload:
    """A round runs each part once; its operations and timed seconds add up."""

    def __init__(self, parts):
        self.parts = parts

    def round(self, rng, tally):
        ops, busy = 0, 0.0
        for part in self.parts:
            n, dt = part.run(rng, tally)
            ops += n
            busy += dt
        tally.close_round(ops, busy)

    def probe(self):
        for part in self.parts:
            part.probe()


# growth and certify share one workload, so that each run can measure three
# times as long in the same total benchmark time: the machine's speed drifts
# on a scale of seconds (see README.md)
WORKLOADS = {
    "portrait": lambda ctx, seed: Workload([Portrait(ctx, seed)]),
    "growth_certify": lambda ctx, seed: Workload([Growth(ctx), Certify(ctx)]),
}
