"""Reference implementations that the package replaced by its cell tables
and cone frames, kept here as the oracles of the tests.

- ``radial_eval`` and ``radial_inverse``: a chart's radial extension and its
  inverse by the radial formula, through the boundary pieces;
- ``invert_piece`` and ``radial2d_invert``: the inverses of the boundary
  pieces and of a 2D radial map;
- ``psi_ray_oracle``: psi on a polyhedron by Moller-Trumbore over all surface
  triangles (``_ray_tris``), exterior where no crossing lies at or beyond x;
- ``zorich_composed``: Z composed from the scalar fold ``_fold1``, the parity
  of its flags and a scaling per coordinate, which ``zorich_scalar`` writes
  out.
"""

import math

import numpy as np

from qrdyn.geometry import BoundaryHit, GeometryError, _as_array, _ray_box_scalar
from qrdyn.star_extend import _radial_2d
from qrdyn.zorich import _EXP_ARG_MAX, _fold1


def _ray_tris(shape, origin, direction):
    """Moller-Trumbore over all surface triangles of a 3D shape, for one
    direction (3,) or a stack of directions (N, 3) from a common origin.
    Returns (t, u, v, valid), each of shape (T,) or (N, T)."""
    p0, p1, p2 = np.moveaxis(shape.vertices[shape.triangles], 1, 0)
    e1, e2 = p1 - p0, p2 - p0
    direction = direction[..., None, :]
    p = np.cross(direction, e2)
    det = np.einsum("...j,...j->...", e1, p)
    eps = 1e-14 * max(1.0, shape.diameter)
    valid = np.abs(det) > eps
    inv = np.where(valid, 1.0 / np.where(valid, det, 1.0), 0.0)
    s = origin[None, :] - p0
    u = np.einsum("...j,...j->...", s, p) * inv
    q = np.cross(s, e1)
    v = np.einsum("...j,...j->...", direction, q) * inv
    t = np.einsum("ij,ij->i", e2, q) * inv
    bt = 1e-9
    valid &= (u >= -bt) & (v >= -bt) & (u + v <= 1 + bt)
    return t, u, v, valid


def psi_ray_oracle(shape, x):
    """psi on a 3D shape that is not a box: the nearest ray crossing at or
    beyond x (within 4 tol), ties to the lowest facet; exterior where there
    is none."""
    x = _as_array(x, 3)
    a = shape.centre
    r = x - a
    dist = float(np.linalg.norm(r))
    if dist <= shape.tol:
        raise GeometryError("psi is undefined at the star centre")
    d = r / dist
    t, u, v, valid = _ray_tris(shape, a, d)
    ok = valid & (t >= dist - shape.tol * 4)
    if not np.any(ok):
        raise GeometryError("psi called on an exterior point")
    ts = np.where(ok, t, np.inf)
    tmin = float(ts.min())
    cand = np.nonzero(ts <= tmin * (1 + 1e-12) + shape.tol)[0]
    ti = int(cand[np.argmin(shape.tri_facet[cand])])
    return BoundaryHit(point=a + t[ti] * d, facet=int(shape.tri_facet[ti]),
                       t=float(t[ti] / dist))


def radial2d_invert(m, w1, w2):
    """The inverse of a RadialMap2D: the radial extension of the inverse
    edge correspondence."""
    return _radial_2d(m._iverts, m._dverts, m._b, m._a, m.codomain.tol, w1, w2)


def _transport(src, dst, p):
    """The affine map of the triangle src onto dst, at a point p of its
    plane, by barycentric coordinates; with the least barycentric
    coordinate of p (negative outside src)."""
    src, dst = np.asarray(src, dtype=float), np.asarray(dst, dtype=float)
    e1, e2 = src[1] - src[0], src[2] - src[0]
    d = np.asarray(p, dtype=float) - src[0]
    gram = np.array([[e1 @ e1, e1 @ e2], [e1 @ e2, e2 @ e2]])
    u, v = np.linalg.solve(gram, np.array([e1 @ d, e2 @ d]))
    q = dst[0] + u * (dst[1] - dst[0]) + v * (dst[2] - dst[0])
    return tuple(map(float, q)), min(u, v, 1 - u - v)


def invert_piece(piece, q):
    """The inverse of a boundary piece at a point q of its image."""
    if piece.kind == "identity":
        return q
    if piece.kind == "radial2d":
        u, v = radial2d_invert(piece.map2d, *piece.img_frame.to2d(q))
        return piece.dom_frame.to3d(u, v)
    if piece.kind == "formula":
        # the affine inverse on the image triangle that q misses least
        return max((_transport(img, dom, q) for dom, img in piece.cells),
                   key=lambda hit: min(hit[1], 0.0))[0]
    raise TypeError(f"no inverse for a {piece.kind} piece")


def radial_eval(rmap, p):
    """A chart's radial extension at p: b + (w - b) / t, with w the boundary
    map at the exit point a + t (p - a) of the ray from a through p."""
    ax, ay, az = map(float, rmap.domain.centre)
    bx, by, bz = map(float, rmap.codomain.centre)
    x, y, z = float(p[0]), float(p[1]), float(p[2])
    dx, dy, dz = x - ax, y - ay, z - az
    if dx * dx + dy * dy + dz * dz <= rmap.domain.tol ** 2:
        return (bx, by, bz)
    lo, hi = (tuple(map(float, v)) for v in rmap.domain.box)
    facet, t = _ray_box_scalar(ax, ay, az, lo, hi, x, y, z)
    h = (ax + t * dx, ay + t * dy, az + t * dz)
    piece, _ = rmap.selectors_by_facet[facet].select(h)
    wx, wy, wz = piece.eval3(h)
    frac = 1.0 / t
    return (bx + frac * (wx - bx), by + frac * (wy - by), bz + frac * (wz - bz))


def radial_inverse(rmap, q):
    """A chart's inverse by the same formula: the codomain's ray projection,
    the inverse of the piece serving the hit facet, and the radial
    fraction."""
    ax, ay, az = map(float, rmap.domain.centre)
    bx, by, bz = map(float, rmap.codomain.centre)
    x, y, z = float(q[0]), float(q[1]), float(q[2])
    dx, dy, dz = x - bx, y - by, z - bz
    if dx * dx + dy * dy + dz * dz <= rmap.codomain.tol ** 2:
        return (ax, ay, az)
    hit = psi_ray_oracle(rmap.codomain, (x, y, z))
    piece = rmap.piece_by_codomain_facet[hit.facet]
    ux, uy, uz = invert_piece(piece, tuple(map(float, hit.point)))
    frac = 1.0 / hit.t
    return (ax + frac * (ux - ax), ay + frac * (uy - ay), az + frac * (uz - az))


def _scaled(scale, v):
    if math.isinf(scale):
        return math.copysign(math.inf, v) if v != 0.0 else 0.0
    return scale * v


def zorich_composed(x1, x2, x3):
    """Z at (x1, x2, x3): fold each horizontal coordinate, sign the pyramid
    height by the parity of the two reflections, scale by e^{x3} (by inf
    above log(DBL_MAX), with 0 * inf taken as 0)."""
    u1, f1 = _fold1(x1)
    u2, f2 = _fold1(x2)
    sigma = -1.0 if (f1 + f2) % 2 else 1.0
    scale = math.exp(x3) if x3 <= _EXP_ARG_MAX else math.inf
    zh = sigma * (1.0 - max(abs(u1), abs(u2)))
    return (_scaled(scale, u1), _scaled(scale, u2), _scaled(scale, zh))
