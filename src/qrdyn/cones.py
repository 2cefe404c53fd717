"""Stacked kernels of the cones of star shapes: the cone frames of their
surface triangles, the ray crossing read off them (``_cone_frames``,
``_crossing``) and a ray's exit from a box (``_ray_box_scalar``), and the
vertex term of a star-centre certificate.

At each vertex q of a polyhedron the vertex term (``geometry._vertex_angles``)
takes the least angle between the centre ray u = q - a and the chord
directions at q, and fails where a chord direction is tangential (lies on
the line of u).  The chord directions at q are the differences of the
direction cones of the facets at q.  This module forms those cones for all
facets of many shapes at once (``_facet_vertex_cones``), pairs them within
each vertex (``_same_vertex_pairs``), and holds the line-sector angle and
the line-cone containment kernels that every row of every pair goes
through in one call, with the small row-wise helpers the stacked
construction of star shapes shares (``_dots``, ``_cross``, ``_starts``,
``_tile``).
"""

from __future__ import annotations

import math

import numpy as np


def _starts(counts):
    """The first row of each of consecutive segments of ``counts`` rows."""
    counts = np.asarray(counts, dtype=int)
    return np.cumsum(counts) - counts


def _tile(counts, which):
    """(rows, pair): for each pair p in turn, the rows of segment which[p]
    of a stack of consecutive segments of counts[d] rows each, and p."""
    n = np.asarray(counts, dtype=int)[which]
    pair = np.repeat(np.arange(len(which)), n)
    shift = _starts(counts)[which] - _starts(n)
    return np.arange(n.sum()) + np.repeat(shift, n), pair


def _line_angles(u, d):
    """Acute angles between the lines spanned by the rows of u and d
    (pi/2 where either row is zero); u and d broadcast against each other."""
    den = (np.sqrt(np.einsum("...j,...j->...", u, u))
           * np.sqrt(np.einsum("...j,...j->...", d, d)))
    nonzero = den > 0.0
    c = np.abs(np.einsum("...j,...j->...", u, d)) / np.where(nonzero, den, 1.0)
    return np.where(nonzero, np.arccos(np.minimum(1.0, c)), math.pi / 2)


def _dots(x, y):
    """Row-wise dot products of two stacks of 3-vectors, each as numpy's dot
    of one pair of vectors computes it."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def _line_plane_angles(u, n):
    """Angles between the lines spanned by the rows of u and the planes with
    unit normals the rows of n; each equals the minimum line-line angle over
    directions in that plane."""
    s = np.abs(_dots(n, u)) / np.sqrt(_dots(u, u))
    return np.arcsin(np.minimum(1.0, s))


def _sector_min_angles(u, g1, g2):
    """Minimum line angle between the row u[k] and the directions of the
    planar sector spanned by the rows g1[k], g2[k] (non-negative
    combinations)."""
    best = np.minimum(_line_angles(u, g1), _line_angles(u, g2))
    n = _cross(g1, g2)
    nn = np.sqrt(np.einsum("ij,ij->i", n, n))
    flat = nn < 1e-14
    n = n / np.where(flat, 1.0, nn)[:, None]
    # the projection w of u onto the sector's plane, or -w, inside the sector
    w = u - _dots(n, u)[:, None] * n
    s1 = np.einsum("ij,ij->i", _cross(g1, w), n)
    s2 = np.einsum("ij,ij->i", _cross(w, g2), n)
    inside = (((s1 >= -1e-12) & (s2 >= -1e-12))
              | ((s1 <= 1e-12) & (s2 <= 1e-12)))
    take = ~flat & (np.sqrt(np.einsum("ij,ij->i", w, w)) > 1e-14) & inside
    return np.where(take, np.minimum(best, _line_plane_angles(u, n)), best)


def _facet_vertex_cones(vertices, polys, normals):
    """Generators of the direction cone of every facet ``polys`` (vertex
    index loops into ``vertices``, unit Newell normals ``normals``) at each
    of its corners (directions d with q + eps*d inside the facet polygon at
    the corner q), split into convex sectors.

    Returns (corner_vertex, corner_facet, gens, gen_corner): the corners in
    facet order, each facet's in loop order, and the generators of all
    corners in that order, each with the index of its corner.  A facet loop
    runs counter-clockwise about its Newell normal n, so in the facet frame
    (e1, n x e1), e1 along its first edge, the cone at a corner runs
    counter-clockwise from the edge to the next vertex to the edge to the
    previous one; its arc is cut into ceil(width / 1.5) equal sectors."""
    v = vertices
    sizes = np.array([len(p) for p in polys])
    loop = np.concatenate(polys)
    corner_facet = np.repeat(np.arange(len(polys)), sizes)
    first, size = _starts(sizes)[corner_facet], sizes[corner_facet]
    k = np.arange(len(loop)) - first
    corner_vertex = loop
    back, ahead = loop[first + (k - 1) % size], loop[first + (k + 1) % size]
    e1 = v[[p[1] for p in polys]] - v[[p[0] for p in polys]]
    e1 = (e1 / np.sqrt(_dots(e1, e1))[:, None])[corner_facet]
    e2 = _cross(normals[corner_facet], e1)

    def angle(to):
        d = v[to] - v[corner_vertex]
        return np.array(list(map(math.atan2, _dots(d, e2).tolist(), _dots(d, e1).tolist())))

    start, back = angle(ahead), angle(back)
    width = (2 * math.pi - (start - back) % (2 * math.pi)) % (2 * math.pi)
    pieces = np.maximum(1, np.ceil(width / 1.5)).astype(int)
    gen_corner = np.repeat(np.arange(len(pieces)), pieces + 1)
    j = np.arange(len(gen_corner)) - _starts(pieces + 1)[gen_corner]
    phi = start[gen_corner] + width[gen_corner] * j / pieces[gen_corner]
    gens = np.cos(phi)[:, None] * e1[gen_corner] + np.sin(phi)[:, None] * e2[gen_corner]
    return corner_vertex, corner_facet, gens, gen_corner


def _same_vertex_pairs(vertex, corner):
    """(i, j) over the items with vertex[i] == vertex[j] and corner[i] <
    corner[j], grouped by vertex in increasing order: each item paired with
    the items of its own vertex only."""
    order = np.argsort(vertex, kind="stable")
    v = vertex[order]
    start = np.searchsorted(v, v)
    size = np.searchsorted(v, v, side="right") - start
    i = np.repeat(order, size)
    j = order[np.repeat(start - _starts(size), size) + np.arange(size.sum())]
    keep = corner[i] < corner[j]
    return i[keep], j[keep]


# the four generator triples (a, b, c) of a four-generator cone, the six
# generator pairs, and per triple the pairs (b, c), (a, c), (a, b) whose
# cross products are the rows of its adjugate (c x a = -(a x c))
_CONE_TRIPLES = np.array([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
_CONE_PAIRS = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
_ADJUGATE_PAIRS = np.array([(3, 1, 0), (4, 2, 0), (5, 2, 1), (5, 4, 3)])


def _cones_contain_line(cones, u, tol=1e-9):
    """Per cone: True if u[k] or -u[k] lies in the convex cone in R^3 spanned
    by the four unit generators cones[k] (``cones`` has shape (K, 4, 3)):
    if for one generator triple with |det| >= 1e-12 the coefficients of the
    unit vector along u[k] are all >= -tol or all <= tol (those of -u[k]
    are exactly the negated ones).

    The decision is LAPACK's (``np.linalg.det`` and ``np.linalg.solve`` on
    the matrix with the triple as columns), taken in closed form, all cones
    in one stacked pass, where the two cannot differ: det is a . (b x c)
    over the triple a, b, c, and the coefficients are (b x c, c x a,
    a x b) . u / det, from the cross products of the six generator pairs.
    For unit generators both evaluations of det lie within 1e-13 of the
    exact one, and both coefficient vectors within 1e-13 (1 + |lam|) / |det|
    of the exact ones (the backward error of LU with partial pivoting,
    Higham, Accuracy and Stability of Numerical Algorithms, 2002, 9.3).  A
    triple whose closed-form |det| lies within 5e-13 of 1e-12 takes its det
    from LAPACK, and a kept triple with a coefficient within
    1e-12 (1 + max |lam|) / |det| of -tol or tol takes its coefficients from
    LAPACK."""
    un = u / np.sqrt(np.einsum("ij,ij->i", u, u))[:, None]
    first, second = _CONE_PAIRS.T
    cross = _cross(cones[:, first].reshape(-1, 3),
                   cones[:, second].reshape(-1, 3)).reshape(-1, 6, 3)
    along = np.einsum("kpj,kj->kp", cross, un)                   # (K, 6)
    bc, ac, ab = _ADJUGATE_PAIRS.T
    det = np.einsum("ktj,ktj->kt", cones[:, _CONE_TRIPLES[:, 0]], cross[:, bc])   # (K, 4)
    near = np.abs(np.abs(det) - 1e-12) <= 5e-13
    if near.any():
        det[near] = np.linalg.det(_triple_matrices(cones, near))
    keep = np.abs(det) >= 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.stack([along[:, bc], -along[:, ac], along[:, ab]], axis=2) / det[..., None]
        slack = 1e-12 * (1.0 + np.abs(lam).max(axis=2)) / np.abs(det)
    unsure = keep & np.any(np.abs(np.abs(lam) - tol) <= slack[..., None], axis=2)
    if unsure.any():
        rhs = np.broadcast_to(un[:, None, :], lam.shape)[unsure]
        lam[unsure] = np.linalg.solve(_triple_matrices(cones, unsure), rhs[..., None])[..., 0]
    hit = keep & (np.all(lam >= -tol, axis=2) | np.all(lam <= tol, axis=2))
    return hit.any(axis=1)


def _triple_matrices(cones, mask):
    """The matrices with the generator triples as columns, of the (cone,
    triple) entries where ``mask`` (K, 4) is set."""
    k, t = np.nonzero(mask)
    return np.swapaxes(cones[k[:, None], _CONE_TRIPLES[t]], 1, 2)


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
