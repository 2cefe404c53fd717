import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrdyn import geometry
from qrdyn.geometry import (CertificationFailure, GeometryError, StarShape,
                            _boundary_samples, _chord_sweep_angle,
                            _vertex_angle, _visible_from, attach_certificate,
                            certify_star_centre, local_lipschitz_constants,
                            locate, psi, pick_star_centre_2d, polygon_kernel)


def cube(a=(0.0, 0.0, 0.0)):
    return StarShape.cuboid([-1, -1, -1], [1, 1, 1], centre=a)


def unit_square(a=(0.0, 0.0)):
    return StarShape.polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)], a)


# image pentagon of the side face {x1 = 0}, in (x2, x3) coordinates
PENTAGON = [(0.0, 0.0), (0.0, 4.0), (4.0, 4.0), (2.0, 3.5), (2.0, 0.0)]


def ray_segment_oracle(vertices, a, x):
    """Independent 2D oracle: first boundary crossing of the ray a->x with
    ray parameter >= 1, by brute force over all edges."""
    a = np.asarray(a, float)
    r = np.asarray(x, float) - a
    best = (math.inf, None, None)
    n = len(vertices)
    for i in range(n):
        p = np.asarray(vertices[i], float)
        q = np.asarray(vertices[(i + 1) % n], float)
        e = q - p
        den = r[0] * e[1] - r[1] * e[0]
        if abs(den) < 1e-15:
            continue
        t = ((p[0] - a[0]) * e[1] - (p[1] - a[1]) * e[0]) / den
        s = ((p[0] - a[0]) * r[1] - (p[1] - a[1]) * r[0]) / den
        if 0 - 1e-12 <= s <= 1 + 1e-12 and t >= 1 - 1e-12 and t < best[0]:
            best = (t, i, p + s * e)
    return best


class TestLocate:
    def test_cube_centre_is_interior(self):
        assert locate(cube(), (0, 0, 0)).kind == "interior"

    def test_cube_face_point_is_boundary(self):
        loc = locate(cube(), (1, 0, 0))
        assert loc.kind == "boundary"
        assert loc.facet == 1  # +x face

    def test_cube_outside_point_is_exterior(self):
        assert locate(cube(), (2, 0, 0)).kind == "exterior"

    def test_polygon_classification(self):
        sq = unit_square()
        assert locate(sq, (0.2, -0.3)).kind == "interior"
        assert locate(sq, (1.0, 0.5)).kind == "boundary"
        assert locate(sq, (1.5, 0.0)).kind == "exterior"


class TestPsi:
    def test_cube_axis_ray(self):
        hit = psi(cube(), (0.5, 0, 0))
        assert np.allclose(hit.point, (1, 0, 0), atol=1e-12)
        assert hit.t == pytest.approx(2.0, abs=1e-12)

    def test_square_diagonal_ray_to_corner(self):
        hit = psi(unit_square(), (0.3, 0.3))
        assert np.allclose(hit.point, (1, 1), atol=1e-12)
        assert hit.t == pytest.approx(10.0 / 3.0, abs=1e-12)

    def test_pentagon_matches_brute_force_oracle(self):
        a = (1.0, 2.0)
        shape = StarShape.polygon(PENTAGON, a)
        x = (1.0, 3.0)
        t_or, edge_or, pt_or = ray_segment_oracle(PENTAGON, a, x)
        hit = psi(shape, x)
        assert hit.facet == edge_or == 1
        assert np.allclose(hit.point, pt_or, atol=1e-12)
        assert np.allclose(hit.point, (1.0, 4.0), atol=1e-12)
        assert hit.t == pytest.approx(t_or, rel=1e-12)

    def test_pentagon_random_rays_match_oracle(self):
        a = np.array([1.0, 2.0])
        shape = StarShape.polygon(PENTAGON, a)
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 200:
            x = rng.random(2) * np.array([4.0, 4.0])
            if locate(shape, x).kind != "interior":
                continue
            if np.linalg.norm(x - a) < 1e-3:
                continue
            t_or, edge_or, pt_or = ray_segment_oracle(PENTAGON, a, x)
            hit = psi(shape, x)
            assert np.allclose(hit.point, pt_or, atol=1e-9)
            checked += 1

    def test_centre_and_exterior_raise(self):
        with pytest.raises(GeometryError):
            psi(cube(), (0, 0, 0))
        with pytest.raises(GeometryError):
            psi(cube(), (3, 0, 0))

    @settings(max_examples=150, deadline=None)
    @given(st.floats(-0.99, 0.99), st.floats(-0.99, 0.99), st.floats(-0.99, 0.99))
    def test_idempotence_and_collinearity(self, x, y, z):
        c = cube()
        p = np.array([x, y, z])
        if np.linalg.norm(p) < 1e-6:
            return
        hit = psi(c, p)
        again = psi(c, hit.point)
        assert np.allclose(again.point, hit.point, atol=1e-12)
        # collinear with the centre, and no closer than p
        cr = np.cross(p, hit.point)
        assert np.linalg.norm(cr) <= 1e-12 * max(1.0, np.linalg.norm(hit.point))
        assert np.linalg.norm(hit.point) >= np.linalg.norm(p) - 1e-12


class TestCertification:
    # the exact minimum over the cube boundary of the angle between the
    # centre ray and an in-face direction is atan(1/sqrt(2)), attained at the
    # corners along face diagonals; the certificate carries half of it
    CUBE_MIN_ANGLE = math.atan(1.0 / math.sqrt(2.0))

    def test_cube_certificate_value(self):
        cert = certify_star_centre(cube(), (0, 0, 0), resolution=64)
        assert cert.theta == pytest.approx(self.CUBE_MIN_ANGLE / 2, rel=0.02)
        assert cert.theta >= 0.3

    def test_off_centre_gives_smaller_angle(self):
        c0 = certify_star_centre(cube(), (0, 0, 0), resolution=48)
        c1 = certify_star_centre(cube(), (0.99, 0, 0), resolution=48)
        assert c1.theta < c0.theta

    def test_exterior_centre_rejected(self):
        with pytest.raises(GeometryError):
            certify_star_centre(cube(), (3, 0, 0))

    def test_resolution_doubling_stability(self):
        for shape in (cube(), StarShape.polygon(PENTAGON, pick_star_centre_2d(PENTAGON))):
            c1 = certify_star_centre(shape, shape.centre, resolution=48)
            c2 = certify_star_centre(shape, shape.centre, resolution=96)
            assert abs(c2.theta - c1.theta) <= 0.05 * c1.theta

    def test_nonconvex_pentagon_needs_kernel_centre(self):
        # the area centroid of this pentagon does not see the whole boundary;
        # the kernel fallback produces a certifiable centre
        kern = polygon_kernel(PENTAGON)
        assert kern, "kernel should be nonempty"
        centre = pick_star_centre_2d(PENTAGON)
        shape = StarShape.polygon(PENTAGON, centre)
        cert = certify_star_centre(shape, centre, resolution=48)
        assert cert.theta > 0.01
        # kernel of this pentagon sits high: x3 >= 3 + 0.25*(x2 - 2)
        assert centre[1] >= 3.0


class TestLipschitz:
    def test_constant_formulas(self):
        shape = cube()
        shape.certificate = None
        from qrdyn.geometry import Certificate
        shape.certificate = Certificate(theta=0.6, eps=1.0, resolution=1)
        eta, T = local_lipschitz_constants(shape)
        s = math.sin(0.3)
        assert T == pytest.approx(2.0 / s * math.sqrt(3.0), rel=1e-12)
        assert eta == pytest.approx(min(0.5, s / 4, 1.0 * s / (4 * math.sqrt(3))), rel=1e-12)
        assert eta <= 0.5

    def test_missing_certificate_raises(self):
        with pytest.raises(GeometryError):
            local_lipschitz_constants(cube())

    @pytest.mark.parametrize("make", [cube, lambda: StarShape.polygon(
        PENTAGON, pick_star_centre_2d(PENTAGON))])
    def test_psi_local_lipschitz_bound(self, make):
        shape = make()
        attach_certificate(shape, resolution=48)
        eta, T = local_lipschitz_constants(shape)
        a = shape.centre
        rng = np.random.default_rng(7)
        lo = shape.vertices.min(axis=0)
        hi = shape.vertices.max(axis=0)
        tested = 0
        while tested < 2000:
            xi = lo + rng.random(shape.dim) * (hi - lo)
            if locate(shape, xi).kind != "interior":
                continue
            rxi = np.linalg.norm(xi - a)
            if rxi < 1e-3:
                continue
            pair = []
            for _ in range(2):
                for _try in range(50):
                    cand = xi + (rng.random(shape.dim) - 0.5) * 2 * eta * rxi
                    if (np.linalg.norm(cand - xi) <= eta * rxi
                            and locate(shape, cand).kind != "exterior"
                            and np.linalg.norm(cand - a) > 1e-9):
                        pair.append(cand)
                        break
            if len(pair) < 2:
                continue
            x, y = pair
            px = psi(shape, x).point
            py = psi(shape, y).point
            lhs = np.linalg.norm(px - py)
            rhs = T / rxi * np.linalg.norm(x - y)
            assert lhs <= rhs * (1 + 1e-9)
            tested += 1


# ---------------------------------------------------------------------------
# plain per-point oracles for the batched certification kernels

def _nearest_oracle(shape, p):
    """Closest boundary point by a loop over the edges (2D) or the triangles
    (3D, with the same clamped barycentric projection as the kernel)."""
    best_d, best_q = math.inf, None
    if shape.dim == 2:
        v = shape.vertices
        n = len(v)
        for i in range(n):
            ab = v[(i + 1) % n] - v[i]
            t = min(1.0, max(0.0, float(np.dot(p - v[i], ab) / np.dot(ab, ab))))
            q = v[i] + t * ab
            d = float(np.linalg.norm(p - q))
            if d < best_d:
                best_d, best_q = d, q
        return best_q
    for a0, e1, e2 in zip(shape._tri_a, shape._tri_e1, shape._tri_e2):
        d = p - a0
        d11, d12, d22 = e1 @ e1, e1 @ e2, e2 @ e2
        den = d11 * d22 - d12 * d12
        u = min(1.0, max(0.0, (d22 * (e1 @ d) - d12 * (e2 @ d)) / den))
        v = min(1.0, max(0.0, (d11 * (e2 @ d) - d12 * (e1 @ d)) / den))
        if u + v > 1.0:
            u, v = u / (u + v), v / (u + v)
        q = a0 + u * e1 + v * e2
        dist = float(np.linalg.norm(q - p))
        if dist < best_d:
            best_d, best_q = dist, q
    return best_q


def _angle_oracle(u, d):
    nu, nd = np.linalg.norm(u), np.linalg.norm(d)
    if nu == 0.0 or nd == 0.0:
        return math.pi / 2
    return math.acos(min(1.0, abs(float(np.dot(u, d))) / (nu * nd)))


def _sweep_oracle(shape, a, resolution):
    """The sampled chord sweep, one candidate and one pair at a time."""
    rng = np.random.default_rng(20250810)
    count = resolution * max(4, shape.facet_count)
    pts = _boundary_samples(shape, count, rng)
    eps = min(0.5 * shape.min_feature, 0.25 * shape.diameter)
    lo = 1e-12 * shape.diameter
    theta = math.pi / 2
    for w in pts[: count // 2]:
        for cand in w + (rng.random((8, shape.dim)) - 0.5) * eps:
            d = _nearest_oracle(shape, cand) - w
            if lo < np.linalg.norm(d) < eps:
                theta = min(theta, _angle_oracle(w - a, d))
    m = min(count, 400)
    pairs = 0
    for i in range(m):
        for j in range(m):
            d = pts[j] - pts[i]
            if pairs < 20000 and lo < np.linalg.norm(d) < eps:
                theta = min(theta, _angle_oracle(pts[i] - a, d))
                pairs += 1
    return theta


def _visible_oracle(shape, a, w):
    """The visibility test of one segment a -> w, edge by edge (2D) or
    triangle by triangle (3D), with the kernel's tolerances."""
    r = w - a
    dist = float(np.linalg.norm(r))
    if dist <= shape.tol:
        return True
    if shape.dim == 2:
        v = shape.vertices
        n = len(v)
        for i in range(n):
            e = v[(i + 1) % n] - v[i]
            den = r[0] * e[1] - r[1] * e[0]
            if abs(den) < 1e-300:
                continue
            dx, dy = v[i][0] - a[0], v[i][1] - a[1]
            t = (dx * e[1] - dy * e[0]) / den
            s = (dx * r[1] - dy * r[0]) / den
            if 1e-9 < s < 1 - 1e-9 and shape.tol / dist < t < 1 - 1e-7:
                return False
        return True
    d = r / dist
    for a0, e1, e2 in zip(shape._tri_a, shape._tri_e1, shape._tri_e2):
        p = np.cross(d, e2)
        det = e1 @ p
        if abs(det) <= 1e-14 * max(1.0, shape.diameter):
            continue
        s = a - a0
        q = np.cross(s, e1)
        u, v, t = (s @ p) / det, (d @ q) / det, (e2 @ q) / det
        if (u >= -1e-9 and v >= -1e-9 and u + v <= 1 + 1e-9
                and shape.tol < t < dist * (1 - 1e-7)):
            return False
    return True


# a U-shaped polygon and an L-shaped prism; centres in one arm do not see
# the other arm
U_SHAPE = [(0, 0), (3, 0), (3, 3), (2, 3), (2, 1), (1, 1), (1, 3), (0, 3)]
L_BASE = [(0, 0), (3, 0), (3, 1), (1, 1), (1, 3), (0, 3)]


def l_prism(centre):
    verts = [(x, y, z) for z in (0.0, 1.0) for (x, y) in L_BASE]
    m = len(L_BASE)
    facets = [list(range(m - 1, -1, -1)), list(range(m, 2 * m))]
    facets += [[i, (i + 1) % m, (i + 1) % m + m, i + m] for i in range(m)]
    return StarShape.polyhedron(verts, facets, centre)


class TestBatchedCertification:
    @pytest.mark.parametrize("which", ["pentagon", "cube", "aprime"])
    def test_sweep_matches_per_pair_oracle(self, which, request):
        if which == "pentagon":
            shape = StarShape.polygon(PENTAGON, pick_star_centre_2d(PENTAGON))
        elif which == "cube":
            shape = cube()
        else:
            shape = request.getfixturevalue("build").g.by_id["A'"].map.codomain
        a, res = shape.centre, 24
        oracle = _sweep_oracle(shape, a, res)
        rng = np.random.default_rng(20250810)
        count = res * max(4, shape.facet_count)
        pts = _boundary_samples(shape, count, rng)
        eps = min(0.5 * shape.min_feature, 0.25 * shape.diameter)
        swept = _chord_sweep_angle(shape, a, pts, eps, rng)
        assert swept == pytest.approx(oracle, rel=1e-12)
        cert = certify_star_centre(shape, a, resolution=res)
        expected = min(min(_vertex_angle(shape, a), oracle) / 2,
                       math.pi / 4 - 1e-9)
        assert cert.theta == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("make", [
        lambda: StarShape.polygon(U_SHAPE, (0.5, 2.0)),
        lambda: l_prism((2.5, 0.5, 0.5))], ids=["u_polygon", "l_prism"])
    def test_visibility_kernel_matches_oracle(self, make):
        shape = make()
        a = shape.centre
        probes = np.concatenate([shape.vertices, _boundary_samples(
            shape, 300, np.random.default_rng(1))])
        expected = [_visible_oracle(shape, a, w) for w in probes]
        assert list(_visible_from(shape, a, probes)) == expected
        assert not all(expected) and any(expected)

    @pytest.mark.parametrize("make", [
        lambda: StarShape.polygon(U_SHAPE, (0.5, 2.0)),
        lambda: l_prism((2.5, 0.5, 0.5))], ids=["u_polygon", "l_prism"])
    def test_hidden_centre_fails_visibility_audit(self, make, monkeypatch):
        # the exact vertex part rejects these centres first; without it the
        # audit must still reject them, naming the first hidden probe
        shape = make()
        a = shape.centre
        with pytest.raises(CertificationFailure, match="tangential"):
            certify_star_centre(shape, a, resolution=24)
        monkeypatch.setattr(geometry, "_vertex_angle",
                            lambda shape, a: math.pi / 2)
        count = 24 * max(4, shape.facet_count)
        pts = _boundary_samples(shape, count, np.random.default_rng(20250810))
        probes = np.concatenate([shape.vertices, pts[:: max(1, count // 200)]])
        first = next(w for w in probes if not _visible_oracle(shape, a, w))
        with pytest.raises(CertificationFailure,
                           match=re.escape(f"{first} is not visible")):
            certify_star_centre(shape, a, resolution=24)

    def test_small_batches_give_the_same_certificate(self, monkeypatch):
        shapes = [cube(), StarShape.polygon(PENTAGON, pick_star_centre_2d(PENTAGON)),
                  l_prism((0.5, 0.5, 0.5))]
        whole = [certify_star_centre(s, s.centre, resolution=24) for s in shapes]
        monkeypatch.setattr(geometry, "BATCH_ELEMENTS", 50)
        for shape, cert in zip(shapes, whole):
            assert certify_star_centre(shape, shape.centre, resolution=24) == cert
