"""A pyramid-based exponential-type map of R^3 and the shifted map F = Id + Z.

Z maps the square cylinder [-1,1]^2 x R onto the upper half-space by scaling
the graph of a square pyramid by e^{x3}; reflections in the cylinder faces
(with the image reflected in {x3 = 0}) extend it to all of R^3, periodic with
period 4 in the first two coordinates.  Above a derived level L the shifted
map F = Id + Z is uniformly expanding on every unit square beam.  This module
certifies L, the expansion constant c0 and the dilatation bound K_F from the
analytic derivative by a finite computation in rational arithmetic
(``derive_beam_constants``): a sign test of a cubic for c0, a Taylor lower
bound of e^L, and Weyl's inequality with a cubic expansion of the
determinant for K_F and the margins.

The fold modulo the period 4 is the IEEE remainder ``math.remainder(x,
4.0)``: the quotient x/4 is exact, so the remainder takes the round-half-even
quotient that ``x - 4 * round(x / 4)`` takes, and both differences are exact.
The two agree bit for bit except at the negative multiples of 4, where
the remainder is -0.0 and the rounded form +0.0.  Every scalar fold here
(``_fold1``, and the step ``_z_step`` of ``F_scalar``) is the remainder,
which builds no Python int as ``round`` does.  ``F_array`` is F on the
rows of an (N, 3) array, bitwise equal to ``F_scalar`` row by row.

An F step from a point with |x1| or |x2| beyond HORIZON raises
PrecisionLost: there a float's spacing is at least 0.25, so the fold modulo
the period 4, and with it the sign of the third coordinate, is rounding
noise.  One from a NaN x1 or x2 raises ValueError.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import exp, remainder

import numpy as np

INF = math.inf
# math.exp overflows above this
_EXP_ARG_MAX = math.log(sys.float_info.max)
# F steps need |x1|, |x2| at most this: above it the float spacing is >= 0.25
HORIZON = 2.0 ** 50


class PrecisionLost(ArithmeticError):
    """An F step from a point whose |x1| or |x2| exceeds HORIZON, raised as
    ``PrecisionLost(x1, x2, x3)``; the message is built only when read."""

    @property
    def point(self):
        """The point (x1, x2, x3) of the F step."""
        return self.args

    def __str__(self):
        x1, x2, x3 = self.args
        return (f"F step from ({x1!r}, {x2!r}, {x3!r}) is past the "
                f"precision horizon |x1|, |x2| <= 2**50")


@dataclass(frozen=True)
class FoldResult:
    u: tuple
    sigma: int
    flags: tuple


def _unfoldable(x):
    """The error of folding a non-finite x, of the type ``round(x / 4.0)``
    raises: OverflowError for an infinity, ValueError for NaN."""
    if x != x:
        return ValueError(f"cannot fold {x!r} modulo 4")
    return OverflowError(f"cannot fold {x!r} modulo 4")


def _fold1(x):
    if not abs(x) < INF:
        raise _unfoldable(x)
    t = remainder(x, 4.0)
    if -1.0 <= t <= 1.0:
        return t, 0
    u = (2.0 - abs(t)) if t > 0 else -(2.0 - abs(t))
    return u, 1


def fold_square(x1, x2) -> FoldResult:
    """Fold a point of R^2 into the base square [-1,1]^2, recording the
    reflection parity per coordinate."""
    u1, f1 = _fold1(x1)
    u2, f2 = _fold1(x2)
    return FoldResult(u=(u1, u2), sigma=-1 if (f1 + f2) % 2 else 1,
                      flags=(f1, f2))


def _times_inf(v):
    """v times an infinite scale, with 0 * inf taken as 0."""
    return math.copysign(INF, v) if v != 0.0 else 0.0


def _z_step(x1, x2, x3):
    """Z at (x1, x2, x3) with x1 and x2 finite: the remainder folds of x1
    and x2 into [-1, 1] and their parity (the ``fold_square`` formula,
    written out), the pyramid height 1 - max(|u1|, |u2|) with that parity's
    sign, all scaled by e^{x3}."""
    u1 = remainder(x1, 4.0)
    u2 = remainder(x2, 4.0)
    odd = False
    if u1 > 1.0:
        u1 = 2.0 - u1
        odd = True
    elif u1 < -1.0:
        u1 = -(2.0 + u1)
        odd = True
    if u2 > 1.0:
        u2 = 2.0 - u2
        odd = not odd
    elif u2 < -1.0:
        u2 = -(2.0 + u2)
        odd = not odd
    a1 = abs(u1)
    a2 = abs(u2)
    zh = 1.0 - (a2 if a2 > a1 else a1)
    if odd:
        zh = -zh
    if x3 <= _EXP_ARG_MAX:
        scale = exp(x3)
        return (scale * u1, scale * u2, scale * zh)
    return (_times_inf(u1), _times_inf(u2), _times_inf(zh))


def _off_horizon(x1, x2, x3):
    """The error of an F step from a point whose |x1| or |x2| is not at most
    HORIZON: ValueError if x1 or x2 is NaN, else PrecisionLost."""
    if x1 != x1 or x2 != x2:
        return ValueError(f"non-finite point {(x1, x2, x3)}")
    return PrecisionLost(x1, x2, x3)


def F_scalar(x1, x2, x3):
    """F at (x1, x2, x3); raises PrecisionLost where |x1| or |x2| exceeds
    HORIZON (inf included), and ValueError where x1 or x2 is NaN.  F is
    bitwise what the rounded fold x - 4 round(x / 4) gives: the remainder
    fold differs from it only in the sign of a zero u at x < 0, where
    x + (+-0.0) is x."""
    if not (abs(x1) <= HORIZON and abs(x2) <= HORIZON):
        raise _off_horizon(x1, x2, x3)
    z1, z2, z3 = _z_step(x1, x2, x3)
    return (x1 + z1, x2 + z2, x3 + z3)


def F_array(X):
    """F on each row of an (N, 3) float array, as an (N, 3) array bitwise
    equal row by row to ``F_scalar``; the first row past HORIZON, or with a
    NaN x1 or x2, raises what ``F_scalar`` raises there.

    The fold is x - 4 rint(x / 4), exact like the remainder.  The quotient's
    -0.0 is made +0.0, so that the fold of x = -0.0 is -0.0 as the
    remainder's is; the two then differ only in the sign of a zero at the
    negative multiples of 4, where x + (+-0.0) is x.  The scale is ``math.exp`` mapped over the x3 column:
    numpy's exp differs from it in the last bit on about 4.5 % of the
    arguments.  Rows with x3 above log(DBL_MAX), or NaN, take the infinite
    scale of ``_times_inf``."""
    X = np.asarray(X, dtype=np.float64)
    h = X[:, :2]
    ok = np.all(np.abs(h) <= HORIZON, axis=1)
    if not ok.all():
        raise _off_horizon(*X[np.argmin(ok)].tolist())
    t = h - 4.0 * (np.rint(h / 4.0) + 0.0)
    over, under = t > 1.0, t < -1.0
    v = np.empty_like(X)
    v[:, :2] = np.where(over, 2.0 - t, np.where(under, -(2.0 + t), t))
    a = np.abs(v[:, :2])
    zh = 1.0 - np.maximum(a[:, 0], a[:, 1])
    odd = over | under
    v[:, 2] = np.where(odd[:, 0] ^ odd[:, 1], -zh, zh)
    x3 = X[:, 2]
    big = ~(x3 <= _EXP_ARG_MAX)
    scale = np.fromiter(map(exp, np.where(big, 0.0, x3).tolist()), np.float64, len(X))
    z = scale[:, None] * v
    if big.any():
        vb = v[big]
        z[big] = np.where(vb != 0.0, np.copysign(INF, vb), 0.0)
    with np.errstate(invalid="ignore"):     # inf - inf is NaN, as in F_scalar
        return X + z


# ---------------------------------------------------------------------------
# derivatives

def region_matrix(x1, x2):
    """N with DZ(x) = e^{x3} N, constant on each smooth region, plus a flag
    marking points on a crease or fold seam (value is then one-sided)."""
    u1, f1 = _fold1(x1)
    u2, f2 = _fold1(x2)
    a1, a2 = abs(u1), abs(u2)
    onesided = (abs(a1 - a2) < 1e-12 or abs(a1 - 1) < 1e-12
                or abs(a2 - 1) < 1e-12 or a1 < 1e-12 or a2 < 1e-12)
    d1 = -1.0 if f1 else 1.0
    d2 = -1.0 if f2 else 1.0
    sigma = -1.0 if f1 != f2 else 1.0
    if a1 >= a2:
        row = (-sigma * (1.0 if u1 >= 0 else -1.0) * d1, 0.0, sigma * (1.0 - a1))
    else:
        row = (0.0, -sigma * (1.0 if u2 >= 0 else -1.0) * d2, sigma * (1.0 - a2))
    return np.array([(d1, 0.0, u1), (0.0, d2, u2), row]), onesided


def F_jacobian(x):
    """Analytic Jacobian of F; returns (matrix, onesided_flag)."""
    x1, x2, x3 = float(x[0]), float(x[1]), float(x[2])
    n, onesided = region_matrix(x1, x2)
    return np.eye(3) + math.exp(x3) * n, onesided


# ---------------------------------------------------------------------------
# derived constants
#
# With a = |u1| >= b = |u2|, the region matrix is N = D1 N_c(a, b) D2, where
#     N_c(a, b) = [[1, 0, a], [0, 1, b], [-1, 0, 1 - a]],  0 <= b <= a <= 1,
# D1 = diag(s1, s2, sigma) and D2 = diag(d1 s1, d2 s2, 1) are sign diagonals
# (s_i the sign of u_i, d_i = -1 on a reflected coordinate, sigma = d1 d2);
# on b > a the first two coordinates swap, by a permutation P on both sides.
# So I + e^{x3} N = e^{x3} D1 P (t D + N_c) P D2 with t = e^{-x3} and the
# sign diagonal D = P D1 D2 P, and K(DF) = K(t D + N_c): the canonical
# triangle and t in [0, e^{-L}] cover every beam point above L.

# a short rational just below c0 = 2 cos(3 pi / 7) = 0.44504186791...
C0_LOWER = Fraction(4450418, 10 ** 7)
# >= sqrt(5) >= |N_c|_F, since |N_c|_F^2 = 3 + a^2 + b^2 + (1 - a)^2 <= 5
_SQRT5_UPPER = Fraction(2237, 1000)


def corner_chi(m):
    """p(m) = m^3 - 5 m^2 + 6 m - 1, the characteristic polynomial
    det(m I - N_c^T N_c) at the fold corner a = b = 1.

    On the triangle, det(m I - N_c^T N_c) = p(m) + (m^2 - 2m)(1 - b^2)
    - 2a(1 - a) m(1 - m), which is at most p(m) for 0 <= m <= 1."""
    return m ** 3 - 5 * m ** 2 + 6 * m - 1


def certifies_sigma_floor(c):
    """Whether the rational c is certified to satisfy c <= sigma_min(N) on
    every region.  The roots of ``corner_chi`` are 4 cos^2(k pi / 7),
    k = 1, 2, 3 (0.198, 1.555, 3.247), so p(c^2) < 0 with 0 < c^2 < 1 puts
    c^2 below the least root: p < 0 on [0, c^2], hence so is det(m I -
    N_c^T N_c) on the whole triangle, and its least root sigma_min(N)^2
    exceeds c^2."""
    m = Fraction(c) ** 2
    return 0 < m < 1 and corner_chi(m) < 0


def exp_lower(x):
    """A rational lower bound of e^x for a rational x >= 0: the Taylor
    partial sum of 30 terms, all of them non-negative."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("exp_lower needs x >= 0")
    return sum(x ** k / math.factorial(k) for k in range(30))


def _rounded(q, side):
    """The float nearest the rational q on its ``side`` (-1 below, 1 above)."""
    x = float(q)
    return x if (Fraction(x) - q) * side >= 0 else math.nextafter(x, side * math.inf)


@dataclass(frozen=True)
class ConstantsReport:
    """Certified constants of the beam regime of F, each a bound at every
    point above L: c0 <= sigma_min(N) over the base square; L a dyadic level
    with e^L * c0 > 33, so that F expands 32-fold above it; K_F >= the
    dilatation of F above L.  Each float is rounded to the safe side of the
    rational bound that ``derive_beam_constants`` certifies."""

    c0: float
    L: float
    K_F: float
    exp_margin: float          # lower bound of e^L * c0 - 33
    jac_margin: float          # lower bound of J_F / (e^{3 x3}/2) above L
    norm_margin: float         # upper bound of |DF| / (7 e^{x3}) above L


def derive_beam_constants() -> ConstantsReport:
    """Derive (c0, L, K_F) and the beam margins as finite certificates in
    rational arithmetic.

    c0 is ``C0_LOWER``, certified by ``certifies_sigma_floor``.  L is the
    least multiple of 1/32 not below log(33 / c0) + 0.1, and t0 = 1 /
    ``exp_lower``(L) >= e^{-L} bounds t = e^{-x3} for every x3 >= L.  On
    t D + N_c (see above), Weyl's inequality gives sigma_max <= s5 + t0 with
    s5 >= |N_c|_F and sigma_min >= c0 - t0.  The determinant expands as
    det N_c + t sum_i D_ii M_i + t^2 sum_i N_ii D_jj D_kk + t^3 det D, with
    {i, j, k} = {1, 2, 3}, det N_c = 1, and the 2 x 2 principal minors M_i
    (row and column i deleted: 1 - a, 1, 1) and the diagonal entries N_ii
    (1, 1, 1 - a) of N_c in [0, 1]; so det lies in
    [2 - (1 + t0)^3, (1 + t0)^3].  K = max(sigma_max^3 / det,
    det / sigma_min^3) then gives K_F, and J_F = e^{3 x3} det and
    |DF| = e^{x3} sigma_max give the margins.  Raises ArithmeticError if a
    certificate fails."""
    c = C0_LOWER
    L = Fraction(math.ceil(32 * (math.log(33 / c) + 0.1)), 32)
    e_lower = exp_lower(L)
    t0 = 1 / e_lower
    s_max = _SQRT5_UPPER + t0
    s_min = c - t0
    det_lo, det_hi = 2 - (1 + t0) ** 3, (1 + t0) ** 3
    exp_margin = e_lower * c - 33
    jac_margin = 2 * det_lo
    norm_margin = s_max / 7
    if not (certifies_sigma_floor(c) and exp_margin > 0 and s_min > 0
            and jac_margin >= 1 and norm_margin <= 1):
        raise ArithmeticError("beam constants failed to certify")
    k_f = max(s_max ** 3 / det_lo, det_hi / s_min ** 3)
    return ConstantsReport(c0=_rounded(c, -1), L=float(L), K_F=_rounded(k_f, 1),
                           exp_margin=_rounded(exp_margin, -1),
                           jac_margin=_rounded(jac_margin, -1),
                           norm_margin=_rounded(norm_margin, 1))


# a pair's skip distance in expansion_min_ratio (exact, by math.dist)
_MIN_PAIR_DIST = 1e-12
# bounds the relative error of numpy's row norms and their ratios against
# math.dist (a few units of 1.1e-16), with a wide margin
_RATIO_RTOL = 1e-12


def expansion_min_ratio(L, pairs=10000, seed=0, beams=((0, 0), (1, 0), (1, 1)),
                        x3_span=3.0, include_crease_pairs=True):
    """Minimum sampled expansion ratio |F(x)-F(y)| / |x-y| over point pairs
    inside single fundamental half-beams above L, skipping pairs closer than
    1e-12.

    One stacked pass: the pairs of every beam are drawn from ``rng`` in
    beam order, each side is mapped by one ``F_array`` call, and numpy
    takes the distances and ratios.  numpy's norms differ from
    ``math.dist`` in the last bits, so a float filter keeps the result
    exact: only the pairs whose numpy ratio is within a relative
    ``_RATIO_RTOL`` of the least numpy ratio, or whose numpy distance is
    within it of the skip distance, are taken again with ``math.dist``.
    Every other pair's exact ratio exceeds that of the pair of least numpy
    ratio, so the minimum is bitwise that of the pair by pair loop over all
    of them."""
    rng = np.random.default_rng(seed)
    xs = np.empty((len(beams) * pairs, 3))
    ys = np.empty_like(xs)
    for i, (bn, bm) in enumerate(beams):
        bx = xs[i * pairs:(i + 1) * pairs]
        by = ys[i * pairs:(i + 1) * pairs]
        lo = np.array([2 * bn - 1.0, 2 * bm - 1.0, 0.0])
        span = np.array([2.0, 2.0, x3_span])
        bx[:] = lo + rng.random((pairs, 3)) * span
        by[:] = lo + rng.random((pairs, 3)) * span
        bx[:, 2] += L
        by[:, 2] += L
        if include_crease_pairs:
            # force a share of pairs to straddle the diagonal crease
            k = pairs // 10
            cx, cy = 2 * bn, 2 * bm
            du = np.abs(bx[:k, 0] - cx)
            dv = np.abs(bx[:k, 1] - cy)
            bx[:k, 0] = cx + np.maximum(du, dv)
            bx[:k, 1] = cy + np.minimum(du, dv)
            du = np.abs(by[:k, 0] - cx)
            dv = np.abs(by[:k, 1] - cy)
            by[:k, 0] = cx + np.minimum(du, dv)
            by[:k, 1] = cy + np.maximum(du, dv)
    fx, fy = F_array(xs), F_array(ys)
    d = np.linalg.norm(xs - ys, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.linalg.norm(fx - fy, axis=1) / d
    kept = d >= _MIN_PAIR_DIST * (1.0 + _RATIO_RTOL)
    unsure = ~kept & (d >= _MIN_PAIR_DIST * (1.0 - _RATIO_RTOL))
    finite = r[kept & np.isfinite(r)]
    least = finite.min() if len(finite) else math.inf
    near = unsure | (kept & ~(r > least * (1.0 + _RATIO_RTOL)))
    ratio_min = math.inf
    for x, y, a, b in zip(xs[near].tolist(), ys[near].tolist(),
                          fx[near].tolist(), fy[near].tolist()):
        dist = math.dist(x, y)
        if dist < _MIN_PAIR_DIST:
            continue
        ratio_min = min(ratio_min, math.dist(a, b) / dist)
    return ratio_min
