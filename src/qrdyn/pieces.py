"""Boundary pieces: the boundary map of a radial extension on the facets
of its box, each piece given as the list of its affine cells.

A piece is a list of (domain polygon, image polygon) pairs of 3D points in
corresponding order, on each of which the boundary map is affine: one cell
onto the images of a face's vertices where the map is affine on the whole
face (the identity, or F on a triangle), or the fan of a planar face about
a face centre onto the fan of its image face about its own centre
(``fan_cells``, the radial extension of the face's edge correspondence).
The pieces take their centres as given: the atlas states them or takes
faces' area centroids (``face_centres``, all faces of a build phase in one
stacked pass), and the exact certificate that the construction of the
chart that holds a fan takes (its cone signs and its degree count) refuses
a centre about which it is not star.
"""

from __future__ import annotations

import numpy as np

from .geometry import GeometryError, _cross


def _loop(points):
    return [tuple(map(float, p)) for p in points]


def face_centres(loops):
    """The area centroids of planar faces given by their vertex loops, as
    the rows of an (n, 3) array, one stacked pass per loop length.  Each is
    the sum of the centroids of the fan triangles (p0, p_i, p_i+1) weighted
    by their signed areas along the face's vector area n (the sum of their
    cross products (p_i - p0) x (p_i+1 - p0)), taken relative to p0, so
    that a coordinate that every vertex shares is the centroid's exactly.
    Every sum runs over the fan triangles in order, from 0, so each row is
    the one that the same sums in Python floats give, bitwise.  Raises
    GeometryError for a loop of fewer than three vertices."""
    sizes = [len(loop) for loop in loops]
    if min(sizes, default=3) < 3:
        raise GeometryError(f"a face needs 3 or more vertices, not {min(sizes)}")
    out = np.empty((len(loops), 3))
    for size in sorted(set(sizes)):
        idx = [k for k, s in enumerate(sizes) if s == size]
        v = np.array([loops[k] for k in idx], dtype=float)
        p0 = v[:, 0]
        rel = v[:, 1:] - p0[:, None]
        a, b = rel[:, :-1], rel[:, 1:]
        c = _cross(a.reshape(-1, 3), b.reshape(-1, 3)).reshape(a.shape)
        n = 0.0
        for j in range(size - 2):
            n = n + c[:, j]
        w = n[:, None, 0] * c[..., 0] + n[:, None, 1] * c[..., 1] + n[:, None, 2] * c[..., 2]
        total, moment = 0.0, 0.0
        for j in range(size - 2):
            total = total + w[:, j]
            moment = moment + w[:, j, None] * (a[:, j] + b[:, j])
        out[idx] = p0 + moment / (3.0 * total)[:, None]
    return out


def fan_cells(domain_loop, image_loop, dom_centre, img_centre):
    """The cells of a planar face mapped onto a planar image face by the
    radial extension of their edge correspondence (vertex i to vertex i,
    each edge affine): the fan of triangles from ``dom_centre`` over each
    edge of the face, onto the fan from ``img_centre`` over the image
    edges, in Python floats.  Raises GeometryError if the loops have
    different lengths.  That the fans tile both faces with a positive
    orientation is not checked here: the construction of the chart that
    holds the piece checks it exactly, by the cone signs that it refuses
    and the degree count that ``validate_boundary_map`` reports."""
    dom, img = _loop(domain_loop), _loop(image_loop)
    if len(dom) != len(img):
        raise GeometryError("vertex correspondence requires equal counts")
    c, c_img = _loop([dom_centre, img_centre])
    return [((c, p, q), (c_img, u, v)) for p, q, u, v in
            zip(dom, dom[1:] + dom[:1], img, img[1:] + img[:1])]
