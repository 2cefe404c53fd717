"""Boundary pieces: the boundary map of a radial extension on the facets
of its box, each piece given as the list of its affine cells.

A piece is a list of (domain polygon, image polygon) pairs of 3D points in
corresponding order, on each of which the boundary map is affine: one cell
onto the images of a face's vertices where the map is affine on the whole
face (the identity, or F on a triangle), or the fan of a planar face about
a face centre onto the fan of its image face about its own centre
(``fan_cells``, the radial extension of the face's edge correspondence).
The pieces take their centres as given: the atlas states them or takes a
face's area centroid (``face_centre``), and the cone signs and the
boundary-map validation of the chart that holds a fan refuse a centre
about which it is not star.
"""

from __future__ import annotations

from .geometry import GeometryError


def _loop(points):
    return [tuple(map(float, p)) for p in points]


def face_centre(loop3):
    """The area centroid of a planar face given by its vertex loop, in
    Python floats: the centroids of the fan triangles (p0, p_i, p_i+1)
    weighted by their signed areas along the Newell normal n (the sum of
    the fan's cross products), taken relative to p0, so that a coordinate
    that every vertex shares is the centroid's exactly."""
    (x0, y0, z0), *rest = _loop(loop3)
    rel = [(x - x0, y - y0, z - z0) for x, y, z in rest]
    fans = [(a, b, (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                    a[0] * b[1] - a[1] * b[0])) for a, b in zip(rel, rel[1:])]
    n = [sum(c[k] for *_, c in fans) for k in range(3)]
    weights = [n[0] * c[0] + n[1] * c[1] + n[2] * c[2] for *_, c in fans]
    total = 3.0 * sum(weights)
    return tuple(o + sum(w * (a[k] + b[k]) for w, (a, b, _) in zip(weights, fans)) / total
                 for k, o in enumerate((x0, y0, z0)))


def fan_cells(domain_loop, image_loop, dom_centre, img_centre):
    """The cells of a planar face mapped onto a planar image face by the
    radial extension of their edge correspondence (vertex i to vertex i,
    each edge affine): the fan of triangles from ``dom_centre`` over each
    edge of the face, onto the fan from ``img_centre`` over the image
    edges, in Python floats.  Raises GeometryError if the loops have
    different lengths.  That the fans tile both faces with a positive
    orientation is not checked here: the cone signs and
    ``validate_boundary_map`` of the chart that holds the piece check it
    exactly."""
    dom, img = _loop(domain_loop), _loop(image_loop)
    if len(dom) != len(img):
        raise GeometryError("vertex correspondence requires equal counts")
    c, c_img = _loop([dom_centre, img_centre])
    return [((c, p, q), (c_img, u, v)) for p, q, u, v in
            zip(dom, dom[1:] + dom[:1], img, img[1:] + img[:1])]
