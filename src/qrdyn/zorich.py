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

An F step from a point with |x1| or |x2| beyond HORIZON raises
PrecisionLost: there a float's spacing is at least 0.25, so the fold modulo
the period 4, and with it the sign of the third coordinate, is rounding
noise.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

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


def h_pyramid(x1, x2):
    """Point on the upper faces of the unit square pyramid over (x1, x2)."""
    if not (-1.0 <= x1 <= 1.0 and -1.0 <= x2 <= 1.0):
        raise ValueError("h is defined on the closed unit square")
    return (x1, x2, 1.0 - max(abs(x1), abs(x2)))


@dataclass(frozen=True)
class FoldResult:
    u: tuple
    sigma: int
    flags: tuple


def _fold1(x):
    t = x - 4.0 * round(x / 4.0)
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


def zorich_scalar(x1, x2, x3):
    """Z at (x1, x2, x3): the folds of x1 and x2 into [-1, 1] and their
    parity (the ``fold_square`` formula, written out), the pyramid height
    1 - max(|u1|, |u2|) with that parity's sign, all scaled by e^{x3}."""
    u1 = x1 - 4.0 * round(x1 / 4.0)
    u2 = x2 - 4.0 * round(x2 / 4.0)
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
        scale = math.exp(x3)
        return (scale * u1, scale * u2, scale * zh)
    return (_times_inf(u1), _times_inf(u2), _times_inf(zh))


def zorich_eval(x):
    return np.asarray(zorich_scalar(float(x[0]), float(x[1]), float(x[2])))


def F_scalar(x1, x2, x3):
    if abs(x1) > HORIZON or abs(x2) > HORIZON:
        raise PrecisionLost(x1, x2, x3)
    z1, z2, z3 = zorich_scalar(x1, x2, x3)
    return (x1 + z1, x2 + z2, x3 + z3)


def F_eval(x):
    return np.asarray(F_scalar(float(x[0]), float(x[1]), float(x[2])))


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


def expansion_min_ratio(L, pairs=10000, seed=0, beams=((0, 0), (1, 0), (1, 1)),
                        x3_span=3.0, include_crease_pairs=True):
    """Minimum sampled expansion ratio |F(x)-F(y)| / |x-y| over point pairs
    inside single fundamental half-beams above L."""
    rng = np.random.default_rng(seed)
    ratio_min = math.inf
    for (bn, bm) in beams:
        lo = np.array([2 * bn - 1.0, 2 * bm - 1.0, 0.0])
        span = np.array([2.0, 2.0, x3_span])
        xs = lo + rng.random((pairs, 3)) * span
        ys = lo + rng.random((pairs, 3)) * span
        xs[:, 2] += L
        ys[:, 2] += L
        if include_crease_pairs:
            # force a share of pairs to straddle the diagonal crease
            k = pairs // 10
            cx, cy = 2 * bn, 2 * bm
            du = np.abs(xs[:k, 0] - cx)
            dv = np.abs(xs[:k, 1] - cy)
            xs[:k, 0] = cx + np.maximum(du, dv)
            xs[:k, 1] = cy + np.minimum(du, dv)
            du = np.abs(ys[:k, 0] - cx)
            dv = np.abs(ys[:k, 1] - cy)
            ys[:k, 0] = cx + np.minimum(du, dv)
            ys[:k, 1] = cy + np.maximum(du, dv)
        for x, y in zip(xs.tolist(), ys.tolist()):
            d = math.dist(x, y)
            if d < 1e-12:
                continue
            fx = F_scalar(*x)
            fy = F_scalar(*y)
            ratio_min = min(ratio_min, math.dist(fx, fy) / d)
    return ratio_min
