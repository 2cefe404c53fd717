"""Reference implementations that the package replaced by its cell tables
and cone frames, kept here as the oracles of the tests.

- ``radial_eval`` and ``radial_inverse``: a chart's radial extension and its
  inverse by the radial formula, through the boundary pieces;
- ``invert_piece`` and ``radial2d_invert``: the inverses of the boundary
  pieces and of a 2D radial map;
- ``psi_ray_oracle``: psi on a polyhedron by Moller-Trumbore over all surface
  triangles (``_ray_tris``), exterior where no crossing lies at or beyond x;
- ``facet_vertex_cones_probe``: the generators of each facet's direction
  cone at each of its corners, with the arc chosen by probing a point just
  off the corner with an even-odd ray cast (``point_in_polygon``), as
  ``geometry`` built them before it read the arc off the loop's
  orientation;
- ``cover_deviation_per_triangle`` and ``oriented_area_fraction``: the
  seam deviation and the oriented areas of a chart's boundary triangles,
  one triangle at a time, the latter in Fraction;
- ``zorich_composed``: Z composed from the scalar fold ``_fold1``, the parity
  of its flags and a scaling per coordinate, which ``zorich_scalar`` writes
  out;
- the build's small geometry one object at a time, on numpy rows, as the
  package computed it before it stacked it per table or shape or moved it
  to Python floats: ``cell_linear_part`` (one solve per cell),
  ``sector_entry`` (one solve per sector probe and cell),
  ``image_cell_frames`` (one inverse per cell), ``frame_rows`` (a face's
  frame, crosses and norms per candidate vertex), ``polygon_kernel_rows``,
  ``polygon_centroid_rows`` and ``pick_star_centre_2d_rows``,
  ``polygon_normal_rows``, ``facet_is_planar_rows`` and
  ``triangulate_planar_rows`` (one ``@`` per facet vertex).
"""

import math
from fractions import Fraction

import numpy as np

from qrdyn.geometry import (BoundaryHit, CertificationFailure, GeometryError, _as_array,
                            _point_in_tri2, _ray_box_scalar)
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


def point_in_polygon(v, p):
    """Even-odd ray casting with a horizontal ray."""
    n = len(v)
    inside = False
    x, y = p
    for i in range(n):
        x0, y0 = v[i]
        x1, y1 = v[(i + 1) % n]
        if (y0 > y) != (y1 > y):
            xi = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
            if xi > x:
                inside = not inside
    return inside


def unit(v):
    n = np.linalg.norm(v)
    if n == 0:
        raise GeometryError("zero direction")
    return v / n


def facet_vertex_cones_probe(shape):
    """For each vertex of a 3D shape: the incident facets and, per facet,
    generators of the convex decomposition of the facet's direction cone at
    that vertex (directions d with q + eps*d inside the facet polygon), as
    {vertex: [(facet, generators (k, 3))]} in the order of first appearance.
    The arc of the cone (from the edge to the previous vertex
    counter-clockwise to the edge to the next one, or its complement) is the
    one whose midpoint direction points into the polygon."""
    verts = shape.vertices
    cones = {}
    for fi, poly in enumerate(shape.facet_polys):
        m = len(poly)
        n0 = shape._facet_normal[fi]
        origin = verts[poly[0]]
        e1ref = unit(verts[poly[1]] - origin)
        e2ref = np.cross(n0, e1ref)
        pts2 = np.asarray([((verts[i] - origin) @ e1ref, (verts[i] - origin) @ e2ref)
                           for i in poly])
        for k in range(m):
            q = verts[poly[k]]
            eprev = verts[poly[k - 1]] - q
            enext = verts[poly[(k + 1) % m]] - q
            phi1 = math.atan2((eprev @ e2ref), (eprev @ e1ref))
            phi2 = math.atan2((enext @ e2ref), (enext @ e1ref))
            width_ccw = (phi2 - phi1) % (2 * math.pi)
            q2 = (float((q - origin) @ e1ref), float((q - origin) @ e2ref))
            eps = 1e-5 * min(np.linalg.norm(eprev), np.linalg.norm(enext))
            mid = phi1 + width_ccw / 2
            if point_in_polygon(pts2, (q2[0] + eps * math.cos(mid),
                                       q2[1] + eps * math.sin(mid))):
                start, width = phi1, width_ccw
            else:
                start, width = phi2, (2 * math.pi - width_ccw) % (2 * math.pi)
            pieces = max(1, int(math.ceil(width / 1.5)))
            gens = [math.cos(start + width * j / pieces) * e1ref
                    + math.sin(start + width * j / pieces) * e2ref
                    for j in range(pieces + 1)]
            cones.setdefault(poly[k], []).append((fi, np.array(gens)))
    return cones


def cover_deviation_per_triangle(dom, img, tol):
    """``star_extend._cover_deviation`` one triangle at a time."""
    pts, images = dom.reshape(-1, 3), img.reshape(-1, 3)
    worst = 0.0
    for tri, tri_img in zip(dom, img):
        e1, e2 = tri[1] - tri[0], tri[2] - tri[0]
        n = np.cross(e1, e2)
        d = pts - tri[0]
        gram = np.array([[e1 @ e1, e1 @ e2], [e1 @ e2, e2 @ e2]])
        u, v = np.linalg.solve(gram, np.stack([d @ e1, d @ e2]))
        inside = ((np.abs(d @ n) <= tol * np.linalg.norm(n))
                  & (u >= -1e-9) & (v >= -1e-9) & (u + v <= 1 + 1e-9))
        want = (tri_img[0] + np.outer(u, tri_img[1] - tri_img[0])
                + np.outer(v, tri_img[2] - tri_img[0]))
        dev = np.linalg.norm(want[inside] - images[inside], axis=1)
        worst = max(worst, float(dev.max(initial=0.0)))
    return worst


def oriented_area_fraction(normal, tri):
    """(sign, signed area) of a 3D triangle seen along a unit normal, from
    normal . ((p1 - p0) x (p2 - p0)) in Fraction."""
    n, p0, p1, p2 = [[Fraction(c) for c in p] for p in [list(normal)] + tri.tolist()]
    e1 = [b - a for a, b in zip(p0, p1)]
    e2 = [b - a for a, b in zip(p0, p2)]
    s = (n[0] * (e1[1] * e2[2] - e1[2] * e2[1]) - n[1] * (e1[0] * e2[2] - e1[2] * e2[0])
         + n[2] * (e1[0] * e2[1] - e1[1] * e2[0]))
    return (s > 0) - (s < 0), float(s) / 2


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


def cell_linear_part(a, b, dom, img):
    """The 3x3 matrix A of the affine map p -> b + A (p - a) that sends the
    first three domain polygon vertices dom[i] to img[i]."""
    d = np.asarray(dom[:3], dtype=float) - np.asarray(a, dtype=float)
    w = np.asarray(img[:3], dtype=float) - np.asarray(b, dtype=float)
    return np.linalg.solve(d, w).T          # rows: A d_i = w_i


def sector_entry(cells, rows, iu, iv):
    """The sector entry (iu, iv, cu, cv, bounds, sectors) of one piece of a
    cell table, one solve per sector midpoint and cell."""
    if len(cells) == 1:
        return (iu, iv, 0.0, 0.0, [], [rows[0]])
    shared = set(cells[0][0]).intersection(*(dom for dom, _ in cells[1:]))
    if not shared:
        raise GeometryError("the cells of a piece share no vertex")
    cu = sum(p[iu] for p in shared) / len(shared)
    cv = sum(p[iv] for p in shared) / len(shared)
    rim = {p for dom, _ in cells for p in dom if (p[iu], p[iv]) != (cu, cv)}
    bounds = sorted({math.atan2(p[iv] - cv, p[iu] - cu) for p in rim})
    reach = 1e-6 * min(math.hypot(p[iu] - cu, p[iv] - cv) for p in rim)
    mids = [0.5 * (lo + hi) for lo, hi in zip(bounds, bounds[1:])]
    mids.append(0.5 * (bounds[-1] + bounds[0]) + math.pi)
    tris = [np.array([[p[iu], p[iv], 1.0] for p in dom]).T for dom, _ in cells]
    picks = []
    for th in mids:
        q = np.array([cu + reach * math.cos(th), cv + reach * math.sin(th), 1.0])
        depth = [float(np.linalg.solve(tri, q).min()) for tri in tris]
        k = int(np.argmax(depth))
        if depth[k] <= 0.0:
            raise GeometryError(f"no cell of the piece covers the sector at angle {th}")
        picks.append(rows[k])
    return (iu, iv, cu, cv, bounds, [picks[-1]] + picks[:-1] + [picks[-1]])


def image_cell_frames(a, dom, m):
    """The barycentric frames (9-tuples) of the fan triangles (0, i, i + 1)
    of the image polygon (dom - a) A^T of one cell, one inverse per cell."""
    img = (dom - a) @ m.T
    fan = np.stack([img[[0, i, i + 1]].T for i in range(1, len(img) - 1)])
    return [tuple(f) for f in np.linalg.inv(fan).reshape(-1, 9).tolist()]


def frame_rows(vertices3):
    """(origin, e1, e2) of the frame of a planar 3D polygon on numpy rows:
    e1 along the first edge, e2 from the largest cross e1 x (q - p0)."""
    v = np.asarray(vertices3, dtype=float)
    p0 = v[0]
    e1 = v[1] - p0
    best = None
    for q in v[2:]:
        n = np.cross(e1, q - p0)
        if best is None or np.linalg.norm(n) > np.linalg.norm(best):
            best = n
    if best is None or np.linalg.norm(best) < 1e-14:
        raise GeometryError("degenerate polygon for frame")
    e2 = np.cross(best, e1)
    e1 = e1 / np.linalg.norm(e1)
    e2 = e2 - np.dot(e2, e1) * e1
    return p0, e1, e2 / np.linalg.norm(e2)


def _clip_halfplane_rows(poly, p0, normal):
    nx, ny = normal
    out = []
    m = len(poly)
    for i in range(m):
        cur, nxt = poly[i], poly[(i + 1) % m]
        c_in = (cur[0] - p0[0]) * nx + (cur[1] - p0[1]) * ny >= 0
        n_in = (nxt[0] - p0[0]) * nx + (nxt[1] - p0[1]) * ny >= 0
        if c_in:
            out.append(cur)
        if c_in != n_in:
            d = nxt - cur
            den = d[0] * nx + d[1] * ny
            t = -((cur[0] - p0[0]) * nx + (cur[1] - p0[1]) * ny) / den
            out.append(cur + t * d)
    return out


def polygon_kernel_rows(vertices):
    """The visibility kernel of a simple polygon on numpy rows: a bounding
    box clipped with every edge half-plane."""
    v = np.asarray(vertices, dtype=float)
    n = len(v)
    area2 = sum(v[i, 0] * v[(i + 1) % n, 1] - v[(i + 1) % n, 0] * v[i, 1]
                for i in range(n))
    sign = 1.0 if area2 > 0 else -1.0
    lo = v.min(axis=0) - 1.0
    hi = v.max(axis=0) + 1.0
    poly = [np.array([lo[0], lo[1]]), np.array([hi[0], lo[1]]),
            np.array([hi[0], hi[1]]), np.array([lo[0], hi[1]])]
    for i in range(n):
        p0 = v[i]
        d = v[(i + 1) % n] - p0
        poly = _clip_halfplane_rows(poly, p0, (-sign * d[1], sign * d[0]))
        if not poly:
            return []
    return poly


def polygon_centroid_rows(vertices):
    v = np.asarray(vertices, dtype=float)
    n = len(v)
    a = 0.0
    cx = cy = 0.0
    for i in range(n):
        x0, y0 = v[i]
        x1, y1 = v[(i + 1) % n]
        w = x0 * y1 - x1 * y0
        a += w
        cx += (x0 + x1) * w
        cy += (y0 + y1) * w
    if abs(a) < 1e-300:
        return v.mean(axis=0)
    return np.array([cx, cy]) / (3 * a)


def pick_star_centre_2d_rows(vertices):
    """The area centroid if it lies in the visibility kernel, else the
    kernel centroid, on numpy rows."""
    kern = polygon_kernel_rows(vertices)
    if not kern:
        raise CertificationFailure("polygon has an empty visibility kernel")
    c = polygon_centroid_rows(vertices)
    kv = np.asarray(kern)
    m = len(kv)
    for i in range(m):
        d = kv[(i + 1) % m] - kv[i]
        if (c[0] - kv[i][0]) * d[1] - (c[1] - kv[i][1]) * d[0] > 1e-12:
            return polygon_centroid_rows(kv)
    return c


def polygon_normal_rows(pts):
    """Unit normal of a planar 3D polygon (Newell's method) on numpy rows."""
    n = np.zeros(3)
    m = len(pts)
    for i in range(m):
        p, q = pts[i], pts[(i + 1) % m]
        n[0] += (p[1] - q[1]) * (p[2] + q[2])
        n[1] += (p[2] - q[2]) * (p[0] + q[0])
        n[2] += (p[0] - q[0]) * (p[1] + q[1])
    norm = np.linalg.norm(n)
    if norm == 0.0:
        raise GeometryError("degenerate facet (zero normal)")
    return n / norm


def facet_is_planar_rows(pts, tol):
    if len(pts) == 3:
        return True
    d = (pts - pts[0]) @ polygon_normal_rows(pts)
    return float(np.max(np.abs(d))) <= max(tol, 1e-9 * np.abs(pts).max())


def triangulate_planar_rows(vertices, poly):
    """Ear-clip a planar facet given as a vertex-index loop, projecting each
    vertex into the facet frame with its own ``@``.  Returns the triangles
    and the projected vertices."""
    n0 = polygon_normal_rows(vertices[poly])
    origin = vertices[poly[0]]
    e1 = vertices[poly[1]] - origin
    e1 = e1 / np.linalg.norm(e1)
    e2 = np.cross(n0, e1)
    pts2 = [((vertices[i] - origin) @ e1, (vertices[i] - origin) @ e2) for i in poly]
    idx = list(range(len(poly)))
    area2 = sum(pts2[i][0] * pts2[(i + 1) % len(pts2)][1]
                - pts2[(i + 1) % len(pts2)][0] * pts2[i][1]
                for i in range(len(pts2)))
    ccw = area2 > 0
    tris = []
    while len(idx) > 3:
        for k in range(len(idx)):
            i0, i1, i2 = idx[k - 1], idx[k], idx[(k + 1) % len(idx)]
            a, b, c = pts2[i0], pts2[i1], pts2[i2]
            cross = (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])
            if (cross > 0) != ccw or abs(cross) < 1e-14:
                continue
            if any(_point_in_tri2(pts2[j], a, b, c) for j in idx
                   if j not in (i0, i1, i2)):
                continue
            tris.append((poly[i0], poly[i1], poly[i2]))
            idx.pop(k)
            break
        else:
            raise GeometryError("ear clipping failed (non-simple facet?)")
    tris.append((poly[idx[0]], poly[idx[1]], poly[idx[2]]))
    return tris, pts2
