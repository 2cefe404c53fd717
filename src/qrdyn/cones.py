"""Stacked kernels of the cones of star shapes: the cone frames of their
surface triangles, the ray crossing read off them (``_cone_frames``,
``_crossing``) and a ray's exit from a box (``_ray_box_scalar``), with the
small row-wise helpers that the stacked construction of star shapes shares
(``_dots``, ``_cross``, ``_starts``).

The star test of ``geometry`` proves that the ray from a shape's centre
crosses its boundary exactly once; ``_crossing`` finds that crossing.
"""

from __future__ import annotations

import math

import numpy as np


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


def _cone_frames(rel, tri_facet, counts):
    """Per shape, of consecutive shapes with ``counts`` surface triangles
    each: [(frame, facet)] for each triangle whose vertices rel[i] (relative
    to its shape's centre) span a cone, the rows of the inverse of the
    matrix with columns rel[i] as a 9-tuple of floats, so that
    lambda = frame (x - centre) writes x - centre in the cone's
    generators."""
    m = np.swapaxes(rel, 1, 2)
    det = np.linalg.det(m)
    size = np.prod(np.linalg.norm(rel, axis=2), axis=1)
    keep = np.abs(det) > 1e-12 * size
    frames = np.linalg.inv(m[keep]).reshape(-1, 9).tolist()
    cones = list(zip(map(tuple, frames), tri_facet[keep].tolist()))
    kept = np.bincount(np.repeat(np.arange(len(counts)), counts)[keep],
                       minlength=len(counts))
    return [cones[i:i + n] for i, n in zip(_starts(kept).tolist(), kept.tolist())]


def _crossing(shape, r, d):
    """(t, facet) of the boundary crossing c + t r of the ray from the centre
    c along r = x - c, |r| = d > tol, or None where x is exterior.

    It scans the cone frames of the shape's surface triangles: with
    lambda = frame r >= 0 (barycentric slack 1e-9, as a fraction of
    sum(lambda)) the ray crosses the triangle at t = 1 / sum(lambda).  Of
    the crossings at or beyond x (within 4 tol) the nearest wins; the
    triangles come in facet order, so a later crossing displaces it only if
    nearer by more than a relative 1e-12 plus tol, and ties go to the lowest
    facet.  The shape is star
    about c, so the ray crosses the boundary once: t is 1 where the crossing
    lies within 4 tol of x, larger where x is interior, and the crossing is
    missing or nearer than that where x is exterior."""
    tol = shape.tol
    rx, ry, rz = r
    s_max = d / (d - 4 * tol) if d > 4 * tol else math.inf
    t, facet = math.inf, -1
    for (m0, m1, m2, m3, m4, m5, m6, m7, m8), k in shape._cones:
        l0 = m0 * rx + m1 * ry + m2 * rz
        l1 = m3 * rx + m4 * ry + m5 * rz
        l2 = m6 * rx + m7 * ry + m8 * rz
        s = l0 + l1 + l2
        slack = -1e-9 * s
        if 0.0 < s <= s_max and l0 >= slack and l1 >= slack and l2 >= slack \
                and 1.0 / s < t * (1 - 1e-12) - tol / d:
            t, facet = 1.0 / s, k
    if facet < 0:
        return None
    if abs(t - 1.0) * d <= 4 * tol:
        return 1.0, facet
    return (t, facet) if t > 1.0 else None


def _ray_box_scalar(ax, ay, az, lo, hi, x, y, z):
    """Exit facet of the ray a->p from an axis-aligned box; (facet, t).

    Facet 2k is the face x_k = lo[k], facet 2k+1 the face x_k = hi[k].  An
    exit time within a relative 1e-12 of an earlier axis's does not displace
    it, so edges and corners go to the lowest axis.  t is at least 1."""
    best_t = math.inf
    best_f = -1
    d = x - ax
    if d > 1e-300:
        best_t, best_f = (hi[0] - ax) / d, 1
    elif d < -1e-300:
        best_t, best_f = (lo[0] - ax) / d, 0
    d = y - ay
    if d > 1e-300:
        t = (hi[1] - ay) / d
        if t < best_t * (1 - 1e-12):
            best_t, best_f = t, 3
    elif d < -1e-300:
        t = (lo[1] - ay) / d
        if t < best_t * (1 - 1e-12):
            best_t, best_f = t, 2
    d = z - az
    if d > 1e-300:
        t = (hi[2] - az) / d
        if t < best_t * (1 - 1e-12):
            best_t, best_f = t, 5
    elif d < -1e-300:
        t = (lo[2] - az) / d
        if t < best_t * (1 - 1e-12):
            best_t, best_f = t, 4
    if best_t < 1.0:
        best_t = 1.0
    return best_f, best_t
