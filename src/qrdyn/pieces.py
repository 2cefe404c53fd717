"""Boundary pieces: the boundary map of a radial extension on the facets
of its box, each piece given by its affine cells.

A piece is a list of (domain polygon, image polygon) pairs of 3D points in
corresponding order, on each of which it is affine: the fan of a planar
face about a face centre onto the fan of its image face about its own
centre (``Radial2DPiece``, the radial extension of the face's edge
correspondence), the triangles on which a closed-form map is affine
(``FormulaPiece``), or the identity (``IdentityPiece``).  The pieces take
their centres as given: the atlas states them or takes a face's area
centroid (``face_centre``), and the cone signs and the boundary-map
validation of the chart that holds a fan refuse a centre about which it is
not star.
"""

from __future__ import annotations

from .geometry import GeometryError


# ---------------------------------------------------------------------------
# facet pieces: the boundary map as its affine cells

class FacetPiece:
    """One entry of a boundary dispatch table, as its ``cells``: (domain
    polygon, image polygon) pairs of 3D points in corresponding order.  The
    piece is affine on each domain polygon (a triangle, or the whole patch
    of a piece that is affine on it), and together they cover its patch.
    A piece holds no state beyond its cells: each radial map built on it
    takes its sector entries from the cells' vertices."""

    kind = "abstract"


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


class IdentityPiece(FacetPiece):
    kind = "identity"

    def __init__(self, loop3):
        loop = _loop(loop3)
        self.cells = [(loop, loop)]


class Radial2DPiece(FacetPiece):
    """A planar face mapped onto a planar image face by the radial extension
    of their edge correspondence (vertex i to vertex i, each edge affine):
    the fan of triangles from ``dom_centre`` over each edge of the face,
    onto the fan from ``img_centre`` over the image edges.  Raises
    GeometryError if the loops have different lengths.  That the fans tile
    both faces with a positive orientation is not checked here: the cone
    signs and ``validate_boundary_map`` of the chart that holds the piece
    check it exactly."""

    kind = "radial2d"

    def __init__(self, domain_loop3, image_loop3, dom_centre, img_centre):
        dom, img = _loop(domain_loop3), _loop(image_loop3)
        if len(dom) != len(img):
            raise GeometryError("vertex correspondence requires equal counts")
        c, c_img = _loop([dom_centre, img_centre])
        self.cells = [((c, p, q), (c_img, u, v)) for p, q, u, v in
                      zip(dom, dom[1:] + dom[:1], img, img[1:] + img[:1])]


class FormulaPiece(FacetPiece):
    """A closed-form facet map with piecewise-affine structure, as the
    (domain triangle, image triangle) pairs on which it is affine."""

    kind = "formula"

    def __init__(self, cells):
        self.cells = [(_loop(dom), _loop(img)) for dom, img in cells]
