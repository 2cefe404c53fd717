"""Orbit iteration, escape classification and growth-rate instrumentation.

Orbits are iterated directly in floating point while representable; maps
whose tail admits the closed-form log-domain surrogate of radial squaring
with a bounded additive translation continue in log magnitudes past the
overflow threshold, and the magnitudes of an orbit on an invariant
vertical line follow the tower t -> t + e^t - c in iterated-exponential
form (``tower_step``).
Doubly-exponential comparisons (orbit versus iterated maximum modulus) are
carried out in a normalized iterated-exponential representation.

An orbit that takes an F step past the precision horizon (``PrecisionLost``
from ``zorich.F_scalar``) stops there with the outcome ``precision_lost``
instead of a label that rounding noise decided.

The fast-escape test keeps the iterated maximum modulus it builds for a
radius on the ``MapHandle`` it was built for, keyed by the handle's ``fn``,
and reuses it on later calls; so ``fn`` must be a fixed, deterministic map
(assigning a new ``fn`` starts a new tower).
"""

from __future__ import annotations

import functools
import io
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .zorich import PrecisionLost, fold_square

RADIUS_CAP = 1e300        # orbit terminates beyond this magnitude
LOG_SWITCH = 1e150        # surrogate continuation starts beyond this

_EXP_MAX = 700.0          # exp(head) stays finite below this
_HEAD_MIN = 6.6           # > log(_EXP_MAX); keeps (depth, head) lexicographic
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class BigExp:
    """A non-negative magnitude exp^depth(head) with canonical head range.

    Canonical form: depth == 0 with 0 <= head < _EXP_MAX, or depth >= 1 with
    _HEAD_MIN <= head < _EXP_MAX.  Magnitudes a float can hold also keep that
    float in `value` (exactly, when built from depth 0), since head = log(v)
    maps neighbouring large floats to one head.  Comparison is on `value`
    when both sides have one and otherwise lexicographic on (depth, head),
    which the canonical ranges make order-faithful.
    """

    __slots__ = ("depth", "head", "value")

    def __init__(self, depth, head):
        depth = int(depth)
        head = float(head)
        if head < 0:
            raise ValueError("BigExp represents non-negative magnitudes")
        exact = head if depth == 0 else None
        while head >= _EXP_MAX:
            head = math.log(head)
            depth += 1
        while depth > 0 and head < _HEAD_MIN:
            head = math.exp(head)
            depth -= 1
        self.depth = depth
        self.head = head
        if exact is not None:
            self.value = exact
        elif depth == 0:
            self.value = head
        elif depth == 1 and head < _LOG_FLOAT_MAX:
            self.value = math.exp(head)
        else:
            self.value = math.inf

    @classmethod
    def from_float(cls, v):
        if not math.isfinite(v):
            raise ValueError("cannot build BigExp from a non-finite float")
        return cls(0, v)

    def exp(self):
        return BigExp(self.depth + 1, self.head)

    def _key(self):
        if self.value < math.inf:
            return (0, self.value)
        return (1, self.depth, self.head)

    def __lt__(self, other):
        return self._key() < other._key()

    def __le__(self, other):
        return self._key() <= other._key()

    def __ge__(self, other):
        return self._key() >= other._key()

    def __gt__(self, other):
        return self._key() > other._key()

    def __eq__(self, other):
        return isinstance(other, BigExp) and self._key() == other._key()

    def __repr__(self):
        return f"BigExp(exp^{self.depth}({self.head:.6g}))"


# ---------------------------------------------------------------------------
# map handles

@dataclass
class SurrogateSpec:
    """Closed-form log-domain continuation for the tail of an orbit.

    The one kind, "radial-square": |x_{k+1}| = |x_k|^2 + c with
    0 <= c <= translate (direction-independent bound); exact for orbits on
    the invariant axis.  Any other kind raises ValueError.
    """

    kind: str
    translate: float = 0.0

    def __post_init__(self):
        if self.kind != "radial-square":
            raise ValueError(f"unknown surrogate kind: {self.kind!r}")

    def regime(self, point) -> bool:
        return len(point) == 2 or point[2] < 0


@dataclass
class MapHandle:
    name: str
    fn: Callable
    dim: int = 3
    tracks_h0: bool = False      # third-coordinate sign is the escape proxy
    surrogate: Optional[SurrogateSpec] = None
    translate: float = 0.0       # downward shift, for tower continuations
    # fast_escape_test's towers: (fn, dim, R, k_max, samples) -> [Mhat^k(R)]
    _towers: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __call__(self, p):
        return self.fn(p)


@dataclass
class OrbitRecord:
    x0: np.ndarray
    points: List[np.ndarray]          # while directly representable
    rho: List[float]                  # log|x_k|, continued by the surrogate
    reason: str                       # budget | entered_h0 | radius_cap | nonfinite
                                      # | precision_lost
    h0_step: Optional[int] = None
    surrogate_from: Optional[int] = None

    @property
    def steps(self):
        return len(self.rho) - 1


def _log_norm(p):
    """log|p| for a tuple of floats, also where |p| overflows a float."""
    m = math.hypot(*p)
    if m == 0.0:
        return -math.inf
    if m < math.inf:
        return math.log(m)
    if not all(map(math.isfinite, p)):
        return math.inf
    s = max(map(abs, p))
    return math.log(s) + math.log(math.hypot(*(c / s for c in p)))


def _as_floats(p):
    return tuple(map(float, p))


def iterate(map_handle: MapHandle, x0, k_max: int, radius_cap: float = RADIUS_CAP,
            stop_on_h0: bool = False) -> OrbitRecord:
    """Iterate the map, recording points and log magnitudes.

    Terminates on the iteration budget, on (optional) entry into the lower
    half-space, on exceeding the radius cap, on a non-finite value, or on an
    F step past the precision horizon (reason "precision_lost").  A
    non-finite image with x3 < 0, such as (x1, x2, -inf), entered the
    half-space: it sets ``h0_step`` before the orbit stops as "nonfinite",
    with no point or log magnitude recorded for it.  If the
    map declares a surrogate whose regime matched the last representable
    point, the log magnitudes continue to k_max without points.  The orbit
    is carried as tuples of Python floats; the record's points are arrays.
    A start with an infinite or NaN coordinate raises ValueError.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    x = _as_floats(x0)
    if not all(map(math.isfinite, x)):
        raise ValueError(f"iterate needs a finite start, got {x}")
    pts = [x]
    rho = [_log_norm(x)]
    h0_step = None
    tracks_h0 = map_handle.tracks_h0
    if tracks_h0 and x[2] < 0:
        h0_step = 0
        if stop_on_h0:
            return OrbitRecord(x0=np.array(x), points=[np.array(x)], rho=rho,
                               reason="entered_h0", h0_step=0)
    reason = "budget"
    surrogate_from = None
    fn, sur, isfinite = map_handle.fn, map_handle.surrogate, math.isfinite
    for k in range(1, k_max + 1):
        try:
            x = _as_floats(fn(x))
        except PrecisionLost:
            reason = "precision_lost"
            break
        if not all(map(isfinite, x)):
            if tracks_h0 and h0_step is None and x[2] < 0:
                h0_step = k         # an image such as (x1, x2, -inf) entered H0
            reason = "nonfinite"
            break
        m = math.hypot(*x)
        if m > radius_cap:
            reason = "radius_cap"
            break
        pts.append(x)
        rho.append(_log_norm(x))
        if tracks_h0 and h0_step is None and x[2] < 0:
            h0_step = k
            if stop_on_h0:
                reason = "entered_h0"
                break
        if sur is not None and m > LOG_SWITCH and sur.regime(x):
            surrogate_from = k
            r = rho[-1]
            for _ in range(k + 1, k_max + 1):
                r = _radial_square_rho_step(r, sur.translate)
                rho.append(r)
            reason = "budget"
            break
    return OrbitRecord(x0=np.asarray(x0, dtype=float), points=list(np.array(pts)),
                       rho=rho, reason=reason, h0_step=h0_step,
                       surrogate_from=surrogate_from)


def _radial_square_rho_step(r, c):
    """log of (e^r)^2 + c, computed without overflow."""
    if c == 0.0:
        return 2 * r
    if 2 * r > 709.0:
        return 2 * r
    return 2 * r + math.log1p(c * math.exp(-2 * r))


# ---------------------------------------------------------------------------
# escape classification

@dataclass(frozen=True)
class EscapeClass:
    """The outcome of ``classify_escape``.  Frozen, so ``classify_escape``
    returns one shared instance per outcome (``H0@n`` for each n, radial,
    precision_lost, undecided for each budget) rather than a new one per
    start; compare outcomes with ``==`` or by ``label``."""

    kind: str                 # "quasi_fatou" | "radial" | "undecided" | "precision_lost"
    n: Optional[int] = None   # first entry step for the half-space proxy
    budget: Optional[int] = None

    @property
    def label(self):
        if self.kind == "quasi_fatou":
            return f"H0@{self.n}"
        return self.kind


_RADIAL = EscapeClass("radial")
_PRECISION_LOST = EscapeClass("precision_lost")

# one cached instance per entry step and per budget, so these caches hold
# no more entries than the largest budget classify_escape was given

@functools.lru_cache(maxsize=None)
def _entered(n):
    return EscapeClass("quasi_fatou", n=n)


@functools.lru_cache(maxsize=None)
def _undecided(budget):
    return EscapeClass("undecided", budget=budget)


def classify_escape(f: MapHandle, x, n_max: int,
                    radius_cap: float = RADIUS_CAP) -> EscapeClass:
    """Half-space entry proxy: the least n with third coordinate < 0, an
    image with x3 = -inf (an F step whose height overflows after the shift)
    among them; radial escape once the magnitude passes the cap without entering
    (or on another non-finite iterate); precision_lost at an F step past the
    precision horizon; undecided otherwise.  The orbit is carried as three Python
    floats.  Equal outcomes are one shared, immutable ``EscapeClass``.  A
    start with an infinite or NaN coordinate raises ValueError: it has no
    orbit to classify."""
    if not f.tracks_h0:
        raise ValueError("escape classification needs the shifted map")
    x1, x2, x3 = map(float, x)
    fn, isfinite, hypot = f.fn, math.isfinite, math.hypot
    if not (isfinite(x1) and isfinite(x2) and isfinite(x3)):
        raise ValueError(f"classify_escape needs a finite start, got {(x1, x2, x3)}")
    if x3 < 0:
        return _entered(0)
    for n in range(1, n_max + 1):
        try:
            y1, y2, y3 = fn((x1, x2, x3))
        except PrecisionLost:
            return _PRECISION_LOST
        x1, x2, x3 = float(y1), float(y2), float(y3)
        if x3 < 0:
            return _entered(n)
        if not (isfinite(x1) and isfinite(x2) and isfinite(x3)):
            return _RADIAL
        if hypot(x1, x2, x3) > radius_cap:
            return _RADIAL
    return _undecided(n_max)


# ---------------------------------------------------------------------------
# growth-rate series

def log_plus(v):
    return math.log(v) if v > 1.0 else 0.0


def escape_rate_series(map_handle: MapHandle, x, k_max: int, p: int = 1):
    """a_k = log+ log |map^{kp}(x)| / k, from direct or surrogate magnitudes;
    the series stops where the orbit does (at the precision horizon, say)."""
    if p < 1:
        raise ValueError("period must be positive")
    rec = iterate(map_handle, x, k_max * p)
    ks, aks = [], []
    for k in range(1, k_max + 1):
        idx = k * p
        if idx >= len(rec.rho):
            break
        r = rec.rho[idx]
        ks.append(k)
        aks.append(log_plus(r) / k if math.isfinite(r) else math.inf)
    return ks, aks, rec


def tower_step(t: BigExp, translate: float) -> BigExp:
    """One step of t -> t + e^t - translate in the iterated-exp representation."""
    if t.depth == 0:
        v = t.head
        if v < _EXP_MAX:
            nxt = v + math.exp(v) - translate
            if nxt < 0:
                raise ArithmeticError("tower step left the growth regime")
            return BigExp.from_float(nxt)
    # beyond float range the additive terms are vanishing relative corrections
    return t.exp()


# ---------------------------------------------------------------------------
# maximum modulus and the fast-escape proxy

def _fibonacci_sphere(n):
    i = np.arange(n) + 0.5
    phi = math.pi * (3.0 - math.sqrt(5.0))
    z = 1 - 2 * i / n
    r = np.sqrt(np.maximum(0.0, 1 - z * z))
    th = phi * i
    return np.column_stack([r * np.cos(th), r * np.sin(th), z])


# sphere_directions adds the directions (i, j, 1) for |i|, |j| up to this
_LATTICE_EXTENT = 8


def sphere_directions(samples):
    """Quasi-uniform directions plus the poles and the lattice directions
    (i, j, 1), |i|, |j| <= 8.  On f the lattice directions are extremal
    only near r = 1: |Z| = sqrt(2) e^{x3} is largest where the fold gives
    u = (+-1, +-1), at odd x1 and x2, and no direction here lies within
    about 1/r of vertical but the pole.  So the maximum over r times these
    directions falls short of M(r) by a factor up to sqrt(2) (1.35 at
    r = 50, 1.41 at r = 500, against |f| at (1, 1, sqrt(r^2 - 2))), and
    for r >= 120 it is exactly |f(0, 0, r)|, the pole."""
    dirs = [_fibonacci_sphere(samples)]
    dirs.append(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
    lat = []
    for i in range(-_LATTICE_EXTENT, _LATTICE_EXTENT + 1):
        for j in range(-_LATTICE_EXTENT, _LATTICE_EXTENT + 1):
            lat.append((float(i), float(j)))
    dirs.append(np.array([[i, j, 1.0] for (i, j) in lat]))
    out = np.vstack(dirs)
    return out / np.linalg.norm(out, axis=1)[:, None]


@functools.lru_cache(maxsize=None)
def _unit_directions(dim, samples):
    """The unit directions that ``max_modulus_estimate`` scales by r, as a
    tuple of float tuples: ``samples`` equally spaced angles in 2D,
    ``sphere_directions`` in 3D."""
    if dim == 2:
        th = np.linspace(0, 2 * math.pi, samples, endpoint=False)
        out = np.column_stack([np.cos(th), np.sin(th)])
    else:
        out = sphere_directions(samples)
    return tuple(map(tuple, out.tolist()))


def max_modulus_estimate(map_handle: MapHandle, r: float, samples: int = 2000) -> float:
    """Sampled lower bound for max_{|x|=r} |map(x)|, over r times the
    ``sphere_directions`` (``samples`` angles in 2D).  On f it is low by a
    factor up to sqrt(2), and exactly |f(0, 0, r)| for r >= 120 (see
    ``sphere_directions``).  The points r d are scaled in Python floats, which
    is IEEE-equal to scaling the direction array; a NaN norm never counts,
    since it is not greater than the best so far.  A non-finite r raises
    ValueError."""
    if samples < 1000:
        raise ValueError("use at least 1000 samples")
    r = float(r)
    if not math.isfinite(r):
        raise ValueError(f"non-finite radius {r}")
    fn, hypot = map_handle.fn, math.hypot
    dirs = _unit_directions(map_handle.dim, samples)
    if map_handle.dim == 3:
        points = ((r * a, r * b, r * c) for a, b, c in dirs)
    else:
        points = (tuple(r * c for c in d) for d in dirs)
    best = 0.0
    for p in points:
        m = hypot(*fn(p))
        if m > best:
            best = m
    return best


@dataclass(frozen=True)
class FastEscapeResult:
    kind: str                      # "fast" | "not_observed"
    ell: Optional[int] = None


def _vertical_line_invariant(p, tol=1e-9):
    """True if the orbit of p stays on the vertical line through p with the
    upward exponential branch (both horizontal coordinates folding to the
    base-square centre with positive parity)."""
    fr = fold_square(p[0], p[1])
    return (abs(fr.u[0]) <= tol and abs(fr.u[1]) <= tol and fr.sigma == 1)


def orbit_magnitudes_bigexp(f: MapHandle, x, count: int, translate: float):
    """|f^k(x)| for k = 0..count as BigExp, continuing past float overflow
    along invariant vertical lines; the list stops at an F step past the
    precision horizon."""
    p = _as_floats(x)
    out = [BigExp.from_float(math.hypot(*p))]
    for _ in range(count):
        try:
            nxt = _as_floats(f.fn(p))
        except PrecisionLost:
            break
        m = math.hypot(*nxt)
        if math.isfinite(m):      # every coordinate finite, and the norm too
            out.append(BigExp.from_float(m))
            p = nxt
            continue
        # overflow: continue only on an invariant vertical line
        if not _vertical_line_invariant(p):
            break
        t = BigExp.from_float(p[2])
        horiz = math.hypot(p[0], p[1])
        while len(out) < count + 1:
            t = tower_step(t, translate)
            # |x| = sqrt(t^2 + horizontal^2) ~ t at these scales
            mag = t if t.depth > 0 or t.head > 1e8 else BigExp.from_float(
                math.hypot(t.head, horiz))
            out.append(mag)
        break
    return out


# _mhat_steps estimates M(r) up to this radius and bounds it by e^r beyond
_DIRECT_LIMIT = 500.0


def _mhat_steps(estimate, R, count):
    """Iterates Mhat^k(R), k = 0..count, of the maximum modulus as BigExp
    values, with the estimate of M(r) given as estimate(r).

    Each step up to r = 500 takes the estimate, which on f is low by a
    factor up to sqrt(2) for ``max_modulus_estimate`` (exactly |f(0, 0, r)|
    from r = 120 on), so the tower is low by up to that factor per step.
    Beyond that radius the step uses the conservative lower bound
    M(r) >= e^r (valid on the vertical axis once r exceeds the downward
    translation), keeping the fast-escape test one-sided."""
    m = BigExp.from_float(R)
    out = [m]
    for _ in range(count):
        if m.depth == 0 and m.head <= _DIRECT_LIMIT:
            m = BigExp.from_float(max(estimate(m.head), m.head))
        else:
            m = m.exp()
        out.append(m)
    return out


def fast_escape_test(f: MapHandle, x, R: float, ell_max: int = 4,
                     k_max: int = 12, samples: int = 2000) -> FastEscapeResult:
    """Least ell with |f^{k+ell}(x)| >= Mhat^k(R) for all k <= k_max.

    The tower Mhat^k(R) depends on the map and R, not on x: it is built on
    the first call for (f.fn, R, k_max, samples) and kept on the handle, so
    a later call with the same radius only iterates the orbit of x.  This
    needs ``f.fn`` to be a fixed, deterministic map.  M(R) is estimated
    once, for the precondition M(R) > R and the tower's first step; a
    failed precondition raises on every call and stores nothing."""
    key = (f.fn, f.dim, R, k_max, samples)
    tower = f._towers.get(key)
    if tower is None:
        mhat_R = max_modulus_estimate(f, R, samples)
        if mhat_R <= R:
            raise ValueError("R fails the growth precondition M(R) > R")
        tower = f._towers[key] = _mhat_steps(
            lambda r: mhat_R if r == R else max_modulus_estimate(f, r, samples),
            R, k_max)
    orbit = orbit_magnitudes_bigexp(f, x, k_max + ell_max, f.translate)
    for ell in range(ell_max + 1):
        if k_max + ell >= len(orbit):
            break
        ok = all(orbit[k + ell] >= tower[k] for k in range(1, k_max + 1))
        if ok:
            return FastEscapeResult("fast", ell)
    return FastEscapeResult("not_observed")


# ---------------------------------------------------------------------------
# CSV emission

def orbit_csv(record: OrbitRecord, escape: Optional[EscapeClass] = None,
              period: int = 1) -> str:
    """One row per step: k, coordinates (while representable) or the log
    magnitude, the rate a_k, and the classification label."""
    buf = io.StringIO()
    dim = len(record.x0)
    cols = ["k"] + [f"x{i+1}" for i in range(dim)] + ["rho", "a_k", "class"]
    buf.write(",".join(cols) + "\n")
    label = escape.label if escape is not None else ""
    for k, r in enumerate(record.rho):
        if k < len(record.points):
            coords = [f"{float(c)!r}" for c in record.points[k]]
        else:
            coords = [""] * dim
        if k >= 1 and k % period == 0 and math.isfinite(r):
            a = f"{log_plus(r) / (k // period)!r}"
        else:
            a = ""
        rho_s = f"{r!r}" if math.isfinite(r) else ""
        buf.write(",".join([str(k)] + coords + [rho_s, a, label]) + "\n")
    return buf.getvalue()


def rates_csv(ks: Sequence[int], aks: Sequence[float], rec: OrbitRecord,
              escape: Optional[EscapeClass] = None) -> str:
    buf = io.StringIO()
    buf.write("k,rho,a_k,class\n")
    label = escape.label if escape is not None else ""
    for k, a in zip(ks, aks):
        r = rec.rho[k] if k < len(rec.rho) else math.nan
        buf.write(f"{k},{r!r},{a!r},{label}\n")
    return buf.getvalue()
