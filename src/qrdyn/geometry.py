"""Shared geometry of the slab charts: the exact determinant signs that
certify them, and row-wise vector products.

A chart's image solid is not built here: it is the image of its box's
faces, and ``star_extend.RadialMap`` takes what it needs of it (its facet
planes, diameter and tolerance) from its pieces' image cells.  The
axis-aligned boxes of the radial maps are ``star_extend.Box``.

The cone signs and the degree count that certify each chart in the pass
that builds it, and the cell determinants' signs, come from
``_det3_signs``: exact, in floats where Shewchuk's orient3d error bound
decides a sign and in Python integers inside that bound.

Every operation is pure.
"""

from __future__ import annotations

import math

import numpy as np


class GeometryError(ValueError):
    """Malformed shape or precondition violation."""


# Relative tolerance for boundary classification, scaled by shape diameter.
TAU_GEOM = 1e-12


def _as_array(x):
    a = np.asarray(x, dtype=float)
    if a.shape != (3,):
        raise GeometryError(f"expected a 3-vector, got shape {a.shape}")
    if not all(map(math.isfinite, a.tolist())):
        raise GeometryError("non-finite coordinates are not admitted")
    return a


def _starts(counts):
    """The first row of each of consecutive segments of ``counts`` rows."""
    counts = np.asarray(counts, dtype=int)
    return np.cumsum(counts) - counts


def _dots(x, y):
    """Row-wise dot products of two stacks of 3-vectors, each as numpy's dot
    of one pair of vectors computes it."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def _cross(x, y):
    """Row-wise cross products of two stacks of 3-vectors, with the
    products and differences of ``np.cross``."""
    x0, x1, x2 = x[:, 0], x[:, 1], x[:, 2]
    y0, y1, y2 = y[:, 0], y[:, 1], y[:, 2]
    return np.stack([x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0], axis=1)


# ---------------------------------------------------------------------------
# exact determinant signs

def _det3(u, v, w):
    return (u[0] * (v[1] * w[2] - v[2] * w[1]) - u[1] * (v[0] * w[2] - v[2] * w[0])
            + u[2] * (v[0] * w[1] - v[1] * w[0]))


# Shewchuk's orient3d filter (DCG 18 (1997)), eps = 2^-53: a determinant of
# three float differences, evaluated in the order of ``_det3_signs``, has the
# sign of the exact one where it exceeds this multiple of its permanent
_ORIENT3D_BOUND = (7.0 + 56.0 * 2.0 ** -53) * 2.0 ** -53
# differences in this range keep every product of three normal and finite,
# which the bound assumes
_SAFE_RANGE = (2.0 ** -340, 2.0 ** 340)


def _det3_signs(p, q):
    """(signs, values) of det(p[k] - q[k]) over a stack of 3x3 float
    matrices (p and q broadcast to shape (N, 3, 3); the rows of p[k] - q[k]
    are the determinant's rows).  A row's float determinant decides its sign
    where it exceeds Shewchuk's bound (7 + 56 eps) eps times the permanent
    and every nonzero difference lies in ``_SAFE_RANGE``; the other rows,
    zero determinants among them, are evaluated exactly in Python integers:
    a row's 18 coordinates (each an integer over a power of two) scaled to
    their largest denominator.  Every sign is exact; the values are the
    float determinants, within the bound of the exact ones where the filter
    decides."""
    p, q = np.broadcast_arrays(p, q)
    # the nine differences as contiguous rows of N, which the products below
    # run over at about twice the speed of strided columns; one subtraction
    # per row, as a transposing one buffers twice the rows it writes
    pk, qk = p.reshape(-1, 9), q.reshape(-1, 9)
    d = np.empty((9, len(pk)))
    with np.errstate(over="ignore", invalid="ignore"):   # such rows are unsafe
        for k in range(9):
            np.subtract(pk[:, k], qk[:, k], out=d[k])
        ax, ay, az, bx, by, bz, cx, cy, cz = d
        # det = az (bx cy - cx by) + bz (cx ay - ax cy) + cz (ax by - bx ay)
        # and its permanent, summed term by term in that order, so that
        # two products at a time are held
        s, t = bx * cy, cx * by
        det, permanent = az * (s - t), (abs(s) + abs(t)) * abs(az)
        s, t = cx * ay, ax * cy
        det += bz * (s - t)
        permanent += (abs(s) + abs(t)) * abs(bz)
        s, t = ax * by, bx * ay
        det += cz * (s - t)
        permanent += (abs(s) + abs(t)) * abs(cz)
    size = np.abs(d, out=d)
    lo, hi = _SAFE_RANGE
    safe = ~((size < lo) & (size > 0.0)).any(axis=0) & (size.max(axis=0) <= hi)
    sure = safe & (np.abs(det) > _ORIENT3D_BOUND * permanent)
    signs = np.where(sure, np.sign(det), 0.0).astype(int)
    for k in np.flatnonzero(~sure).tolist():
        ratios = [x.as_integer_ratio() for x in p[k].ravel().tolist() + q[k].ravel().tolist()]
        den = max(d for _, d in ratios)
        m = [n * (den // d) for n, d in ratios]
        exact = _det3(*([a - b for a, b in zip(m[i:i + 3], m[i + 9:i + 12])] for i in (0, 3, 6)))
        signs[k] = (exact > 0) - (exact < 0)
    return signs, det
