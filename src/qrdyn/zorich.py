"""A pyramid-based exponential-type map of R^3 and the shifted map F = Id + Z.

Z maps the square cylinder [-1,1]^2 x R onto the upper half-space by scaling
the graph of a square pyramid by e^{x3}; reflections in the cylinder faces
(with the image reflected in {x3 = 0}) extend it to all of R^3, periodic with
period 4 in the first two coordinates.  Above a derived level L the shifted
map F = Id + Z is uniformly expanding on every unit square beam; this module
derives L, the expansion constant and the dilatation bound from the analytic
derivative.

An F step from a point with |x1| or |x2| beyond HORIZON raises
PrecisionLost: there a float's spacing is at least 0.25, so the fold modulo
the period 4, and with it the sign of the third coordinate, is rounding
noise.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

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
    u1, _ = _fold1(x1)
    u2, _ = _fold1(x2)
    onesided = (abs(abs(u1) - abs(u2)) < 1e-12 or abs(abs(u1) - 1) < 1e-12
                or abs(abs(u2) - 1) < 1e-12 or abs(u1) < 1e-12 or abs(u2) < 1e-12)
    return region_matrices_at(x1, x2), onesided


def F_jacobian(x):
    """Analytic Jacobian of F; returns (matrix, onesided_flag)."""
    x1, x2, x3 = float(x[0]), float(x[1]), float(x[2])
    n, onesided = region_matrix(x1, x2)
    return np.eye(3) + math.exp(x3) * n, onesided


def _fold_vec(x):
    """``_fold1`` on arrays, bitwise: + 0.0 turns the quotient -0.0 into
    0.0, as Python's round does, so that x = -0.0 folds to -0.0."""
    t = x - 4.0 * (np.round(x / 4.0) + 0.0)
    flag = np.abs(t) > 1.0
    u = np.where(flag, np.sign(t) * (2.0 - np.abs(t)), t)
    return u, flag


def region_matrices(u1, u2, d1, d2, sigma):
    """Stacked N matrices for arrays of folded coordinates."""
    n = np.zeros(u1.shape + (3, 3))
    n[..., 0, 0] = d1
    n[..., 1, 1] = d2
    n[..., 0, 2] = u1
    n[..., 1, 2] = u2
    m = np.maximum(np.abs(u1), np.abs(u2))
    n[..., 2, 2] = sigma * (1.0 - m)
    first = np.abs(u1) >= np.abs(u2)
    s1 = np.where(u1 >= 0, 1.0, -1.0)
    s2 = np.where(u2 >= 0, 1.0, -1.0)
    n[..., 2, 0] = np.where(first, -sigma * s1 * d1, 0.0)
    n[..., 2, 1] = np.where(first, 0.0, -sigma * s2 * d2)
    return n


def region_matrices_at(x1, x2):
    u1, f1 = _fold_vec(np.asarray(x1, dtype=float))
    u2, f2 = _fold_vec(np.asarray(x2, dtype=float))
    sigma = np.where((f1.astype(int) + f2.astype(int)) % 2 == 1, -1.0, 1.0)
    d1 = np.where(f1, -1.0, 1.0)
    d2 = np.where(f2, -1.0, 1.0)
    return region_matrices(u1, u2, d1, d2, sigma)


# ---------------------------------------------------------------------------
# derived constants

@dataclass(frozen=True)
class ConstantsReport:
    """Derived constants for the beam regime of F.

    c0 is the infimum over the base square of the smallest singular value of
    the x3-normalized derivative of Z; L is a level with e^L * c0 > 33 so
    that the shifted map expands 32-fold above it; K_F bounds the dilatation
    of F on sampled beams above L."""

    c0: float
    L: float
    K_F: float
    resolution: int
    exp_margin: float          # e^L * c0 - 33
    jac_margin: float          # min J_F / (e^{3 x3}/2) on the audit grid
    norm_margin: float         # max |DF| / (7 e^{x3}) on the audit grid
    sigma_max: float           # sup |N| over the base square


def _grid_sigmas(resolution):
    """Singular-value extremes of N over one full period of the fold."""
    # offset grid avoids creases and fold seams
    s = (np.arange(resolution) + 0.5) / resolution * 4.0 - 2.0
    g1, g2 = np.meshgrid(s, s, indexing="ij")
    pts1 = [g1.ravel()]
    pts2 = [g2.ravel()]
    # refine near the creases |u1| = |u2| and the seams
    t = np.linspace(-1 + 1e-6, 1 - 1e-6, resolution * 4)
    for off in (1e-7, -1e-7):
        pts1.append(t)
        pts2.append(t + off)          # main crease
        pts1.append(t)
        pts2.append(-t + off)         # anti-crease
        pts1.append(np.full_like(t, 1.0 + off))
        pts2.append(t)                # seam |u1| = 1
        pts1.append(t)
        pts2.append(np.full_like(t, 1.0 + off))
    x1 = np.concatenate(pts1)
    x2 = np.concatenate(pts2)
    n = region_matrices_at(x1, x2)
    sv = np.linalg.svd(n, compute_uv=False)
    smin = sv[:, -1]
    c0 = float(smin.min())
    sigma_max = float(sv[:, 0].max())
    # zoom on the minimizer so the sampled minimum converges to the infimum
    k = int(np.argmin(smin))
    cx, cy = float(x1[k]), float(x2[k])
    radius = 8.0 / resolution
    for _ in range(6):
        t = np.linspace(-radius, radius, 33)
        g1, g2 = np.meshgrid(cx + t, cy + t, indexing="ij")
        nloc = region_matrices_at(g1.ravel(), g2.ravel())
        sloc = np.linalg.svd(nloc, compute_uv=False)[:, -1]
        j = int(np.argmin(sloc))
        if sloc[j] < c0:
            c0 = float(sloc[j])
            cx, cy = float(g1.ravel()[j]), float(g2.ravel()[j])
        radius /= 8.0
    return c0, sigma_max


def _sigma_extremes_det(m):
    """Largest and smallest singular value and the determinant of each 3x3
    matrix of the stack ``m`` (shape (..., 3, 3)), in closed form.

    det is the cofactor expansion along the first row.  sigma_max^2 and
    sigma_min^2 are the extreme eigenvalues of the Gram matrix m^T m, taken
    from the trigonometric solution of its characteristic cubic (O. K. Smith,
    CACM 4 (1961) 168).  The Gram matrix carries an absolute rounding error
    of a few eps * sigma_max^2, which bounds the error of its eigenvalues
    except where the arccos is ill-conditioned, next to a double eigenvalue.
    With kappa = sigma_max / sigma_min and the relative gaps
    g_top = (sigma_max^2 - sigma_mid^2) / sigma_max^2 and
    g = (sigma_mid^2 - sigma_min^2) / sigma_max^2, sigma_max is accurate to
    about eps * (1 + 1/g_top) relative, sigma_min to about
    eps * kappa^2 * (1 + 1/g) relative, and the cofactor det to about
    eps * kappa^2 relative.  For separated singular values that is about
    eps * kappa^2 on sigma_min; diagonal matrices with repeated entries
    (3 I, diag(2, 2, 1)) come out exact, but a pair of singular values equal
    only up to rounding can lose half its digits (sqrt(eps)).
    Returns (sigma_max, sigma_min, det), each of shape m.shape[:-2]."""
    m00, m01, m02 = m[..., 0, 0], m[..., 0, 1], m[..., 0, 2]
    m10, m11, m12 = m[..., 1, 0], m[..., 1, 1], m[..., 1, 2]
    m20, m21, m22 = m[..., 2, 0], m[..., 2, 1], m[..., 2, 2]
    det = (m00 * (m11 * m22 - m12 * m21) - m01 * (m10 * m22 - m12 * m20)
           + m02 * (m10 * m21 - m11 * m20))
    # Gram matrix G = m^T m (symmetric)
    g00 = m00 * m00 + m10 * m10 + m20 * m20
    g11 = m01 * m01 + m11 * m11 + m21 * m21
    g22 = m02 * m02 + m12 * m12 + m22 * m22
    g01 = m00 * m01 + m10 * m11 + m20 * m21
    g02 = m00 * m02 + m10 * m12 + m20 * m22
    g12 = m01 * m02 + m11 * m12 + m21 * m22
    q = (g00 + g11 + g22) / 3.0
    d0, d1, d2 = g00 - q, g11 - q, g22 - q
    p = np.sqrt((d0 * d0 + d1 * d1 + d2 * d2
                 + 2.0 * (g01 * g01 + g02 * g02 + g12 * g12)) / 6.0)
    # B = (G - q I) / p has eigenvalues 2 cos(phi + 2 pi k / 3), 3 phi = acos(det B / 2)
    inv = np.where(p > 0.0, 1.0 / np.where(p > 0.0, p, 1.0), 0.0)
    b0, b1, b2 = d0 * inv, d1 * inv, d2 * inv
    b01, b02, b12 = g01 * inv, g02 * inv, g12 * inv
    half_det = 0.5 * (b0 * (b1 * b2 - b12 * b12) - b01 * (b01 * b2 - b12 * b02)
                      + b02 * (b01 * b12 - b1 * b02))
    phi = np.arccos(np.clip(half_det, -1.0, 1.0)) / 3.0
    lam_max = q + 2.0 * p * np.cos(phi)
    lam_min = q + 2.0 * p * np.cos(phi + 2.0 * math.pi / 3.0)
    return np.sqrt(lam_max), np.sqrt(np.maximum(lam_min, 0.0)), det


def verify_beam_inequalities(L, resolution=64, beams=((0, 0), (1, 0), (0, 1), (1, 1)),
                             span=5.0):
    """Grid audit over beam sections x3 in [L, L+span]: the Jacobian and
    norm bounds of the beam regime, and the dilatation sup.

    On each of the ``resolution`` levels, DF = I + e^{x3} N is formed at all
    resolution^2 grid points of a beam and its determinant and extreme
    singular values come from one closed-form kernel over the stack
    (``_sigma_extremes_det``).  sigma_max is accurate to a few eps relative,
    sigma_min and det to about eps * kappa^2 relative, where kappa =
    sigma_max / sigma_min of DF is at most 4.1 on the grid above the derived
    L (and the relative gaps between squared singular values are at least
    0.22 there); so the margins and K_F agree with an SVD-based audit to
    about 1e-14.
    This evaluates the sampled audit faster; it does not bound DF between
    grid points.

    Returns (ok, jac_margin, norm_margin, K_F)."""
    res = max(16, int(resolution))
    s = (np.arange(res) + 0.5) / res * 2.0 - 1.0
    x3 = L + (np.arange(res) + 0.5) / res * span
    jac_margin = math.inf
    norm_margin = 0.0
    k_f = 1.0
    for (bn, bm) in beams:
        u1g, u2g = np.meshgrid(s + 2 * bn, s + 2 * bm, indexing="ij")
        n = region_matrices_at(u1g.ravel(), u2g.ravel())
        for t in x3:
            e = math.exp(t)
            df = np.eye(3)[None, :, :] + e * n
            s_max, s_min, det = _sigma_extremes_det(df)
            jac_floor = 0.5 * math.exp(3 * t)
            norm_cap = 7.0 * e
            jac_margin = min(jac_margin, float((det / jac_floor).min()))
            norm_margin = max(norm_margin, float((s_max / norm_cap).max()))
            ko = s_max ** 3 / det
            ki = det / s_min ** 3
            k_f = max(k_f, float(np.maximum(ko, ki).max()))
    ok = jac_margin >= 1.0 and norm_margin <= 1.0
    return ok, jac_margin, norm_margin, k_f


def derive_beam_constants(resolution: int = 128) -> ConstantsReport:
    """Derive (c0, L, K_F) and audit the beam inequalities above L."""
    if resolution < 64:
        raise ValueError("resolution must be at least 64 per axis")
    c0, sigma_max = _grid_sigmas(resolution)
    if c0 <= 0:
        raise ArithmeticError("degenerate derivative: c0 = 0")
    L = max(1.0, math.log(33.0 / c0)) + 0.1
    for _ in range(6):
        ok, jac_margin, norm_margin, k_f = verify_beam_inequalities(
            L, resolution=min(resolution, 64))
        if ok and math.exp(L) * c0 > 33.0:
            break
        L += 0.5
    else:
        raise ArithmeticError("beam inequalities failed to certify")
    return ConstantsReport(c0=c0, L=L, K_F=k_f, resolution=resolution,
                           exp_margin=math.exp(L) * c0 - 33.0,
                           jac_margin=jac_margin, norm_margin=norm_margin,
                           sigma_max=sigma_max)


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
