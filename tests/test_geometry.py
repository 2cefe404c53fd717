import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import psi_ray_oracle
from qrdyn import geometry
from qrdyn.geometry import (Certificate, CertificationFailure, GeometryError,
                            StarShape, THETA_MIN, _facet_vertex_cones,
                            _line_angles, _plane_angle, _unit, _vertex_angle,
                            certify_star_centre, local_lipschitz_constants,
                            locate, psi, pick_star_centre_2d, polygon_kernel)


def cube(a=(0.0, 0.0, 0.0)):
    return StarShape.cuboid([-1, -1, -1], [1, 1, 1], centre=a)


def unit_square(a=(0.0, 0.0)):
    return StarShape.polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)], a)


# image pentagon of the side face {x1 = 0}, in (x2, x3) coordinates; its
# visibility kernel lies above the line through (2, 3.5) and (4, 4), so
# (1, 3.5) is a star centre and (1, 2) is not
PENTAGON = [(0.0, 0.0), (0.0, 4.0), (4.0, 4.0), (2.0, 3.5), (2.0, 0.0)]
PENTAGON_CENTRE = (1.0, 3.5)


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


# the 6-vertex triangulation of the real projective plane: closed, each edge
# in two triangles, and not orientable
RP2 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
       (1, 3, 2), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 4)]


def _outward_volumes(shape):
    t = shape.vertices[shape.triangles] - shape.centre
    return np.linalg.det(t)


class TestOrientation:
    def test_mixed_facet_loops_are_oriented_outward(self):
        # the cube with every other facet loop reversed
        lo_hi = StarShape.cuboid([-1, -1, -1], [1, 1, 1])
        polys = [p[::-1] if i % 2 else p for i, p in enumerate(lo_hi.facet_polys)]
        shape = StarShape.polyhedron(lo_hi.vertices, polys, (0.2, -0.1, 0.3))
        assert np.all(_outward_volumes(shape) > 0)
        edges = [e for t in shape.triangles.tolist() for e in zip(t, t[1:] + t[:1])]
        assert sorted(edges) == sorted((b, a) for a, b in edges)

    def test_chart_codomains_face_their_centres(self, build):
        for chart in build.g.charts:
            assert np.all(_outward_volumes(chart.map.codomain) > 0), chart.cell_id

    @pytest.mark.parametrize("centre", [(0.0, 0.0, 0.0), (1.5, 0.0, 0.0)])
    def test_disconnected_surface_rejected(self, centre):
        # two nested cubes: each closed and orientable, together two
        # components, about a point inside both or between them
        outer = StarShape.cuboid([-2, -2, -2], [2, 2, 2])
        inner = StarShape.cuboid([-1, -1, -1], [1, 1, 1])
        verts = np.vstack([outer.vertices, inner.vertices])
        polys = outer.facet_polys + [[i + 8 for i in p] for p in inner.facet_polys]
        with pytest.raises(GeometryError, match="surface is not connected"):
            StarShape.polyhedron(verts, polys, centre)

    def test_open_or_non_orientable_surface_rejected(self):
        cube_ = StarShape.cuboid([-1, -1, -1], [1, 1, 1])
        with pytest.raises(GeometryError, match="not closed or not orientable"):
            StarShape.polyhedron(cube_.vertices, cube_.facet_polys[:-1], (0, 0, 0))
        rng = np.random.default_rng(0)
        with pytest.raises(GeometryError, match="not closed or not orientable"):
            geometry._orient_outward(rng.random((6, 3)), RP2)


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
        a = PENTAGON_CENTRE
        shape = StarShape.polygon(PENTAGON, a)
        x = (1.0, 3.75)
        t_or, edge_or, pt_or = ray_segment_oracle(PENTAGON, a, x)
        hit = psi(shape, x)
        assert hit.facet == edge_or == 1
        assert np.allclose(hit.point, pt_or, atol=1e-12)
        assert np.allclose(hit.point, (1.0, 4.0), atol=1e-12)
        assert hit.t == pytest.approx(t_or, rel=1e-12)

    def test_pentagon_random_rays_match_oracle(self):
        a = np.array(PENTAGON_CENTRE)
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
        cert = certify_star_centre(cube(), (0, 0, 0))
        assert cert.theta == pytest.approx(self.CUBE_MIN_ANGLE / 2, rel=1e-12)

    def test_off_centre_gives_smaller_angle(self):
        c0 = certify_star_centre(cube(), (0, 0, 0))
        c1 = certify_star_centre(cube(), (0.99, 0, 0))
        assert c1.theta < c0.theta

    def test_exterior_centre_rejected(self):
        with pytest.raises(GeometryError):
            certify_star_centre(cube(), (3, 0, 0))

    def test_boundary_centre_rejected(self):
        # (a, the face triangle through a) has volume zero
        with pytest.raises(CertificationFailure, match="star test"):
            certify_star_centre(cube(), (1, 0.2, 0.3))
        with pytest.raises(CertificationFailure, match="star test"):
            StarShape.polygon(PENTAGON, (0.0, 1.0))

    def test_every_shape_carries_its_centre_certificate(self, build):
        # the build's 5 boxes, 5 codomain polyhedra and the 48 face polygons
        # of its 24 nested 2D radial maps, then three shapes of the tests
        shapes = {}
        for chart in build.g.charts:
            for shape in (chart.map.domain, chart.map.codomain):
                shapes[id(shape)] = shape
            for piece in chart.map.all_pieces:
                if piece.kind == "radial2d":
                    for shape in (piece.map2d.domain, piece.map2d.codomain):
                        shapes[id(shape)] = shape
        assert len(shapes) == 58
        shapes = [*shapes.values(), cube(), unit_square((0.3, -0.2)),
                  StarShape.polygon(PENTAGON, PENTAGON_CENTRE)]
        for shape in shapes:
            assert shape.certificate == certify_star_centre(shape, shape.centre)

    def test_nonconvex_pentagon_needs_kernel_centre(self):
        # the area centroid of this pentagon does not see the whole boundary;
        # the kernel fallback produces a certifiable centre
        kern = polygon_kernel(PENTAGON)
        assert kern, "kernel should be nonempty"
        centre = pick_star_centre_2d(PENTAGON)
        shape = StarShape.polygon(PENTAGON, centre)
        cert = certify_star_centre(shape, centre)
        assert cert.theta > 0.01
        # kernel of this pentagon sits high: x3 >= 3 + 0.25*(x2 - 2)
        assert centre[1] >= 3.0


class TestLipschitz:
    def test_constant_formulas(self):
        shape = cube()
        shape.certificate = Certificate(theta=0.6, eps=1.0)
        eta, T = local_lipschitz_constants(shape)
        s = math.sin(0.3)
        assert T == pytest.approx(2.0 / s * math.sqrt(3.0), rel=1e-12)
        assert eta == pytest.approx(min(0.5, s / 4, 1.0 * s / (4 * math.sqrt(3))), rel=1e-12)
        assert eta <= 0.5

    @pytest.mark.parametrize("make", [cube, lambda: StarShape.polygon(
        PENTAGON, pick_star_centre_2d(PENTAGON))])
    def test_psi_local_lipschitz_bound(self, make):
        shape = make()
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
# brute-force oracles for the exact certificate

def _boundary_grid(shape, k):
    """The points of a grid of step 1/k on every edge (2D) or, in barycentric
    coordinates, on every surface triangle (3D)."""
    v = shape.vertices
    if shape.dim == 2:
        s = np.linspace(0.0, 1.0, k + 1)[:, None]
        return np.concatenate([v[i] + s * (np.roll(v, -1, axis=0)[i] - v[i])
                               for i in range(len(v))])
    ij = np.array([(i, j) for i in range(k + 1) for j in range(k + 1 - i)]) / k
    tri = v[shape.triangles]
    return np.concatenate([t[0] + ij[:, :1] * (t[1] - t[0]) + ij[:, 1:] * (t[2] - t[0])
                           for t in tri])


def _chord_oracle(shape, a, k):
    """Least angle between the centre ray at w and the chord w -> w', over
    all pairs of grid points (``_boundary_grid``) closer than the
    certificate's eps."""
    pts = _boundary_grid(shape, k)
    eps = min(0.5 * shape.min_feature, 0.25 * shape.diameter)
    best = math.pi / 2
    for w in pts:
        d = pts - w
        dn = np.linalg.norm(d, axis=1)
        close = (dn > 1e-12 * shape.diameter) & (dn < eps)
        if np.any(close):
            best = min(best, float(_line_angles(w - a, d[close]).min()))
    return best


def _visible_oracle(shape, a, w):
    """The visibility test of one segment a -> w, edge by edge (2D) or
    triangle by triangle (3D)."""
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
    p0, p1, p2 = np.moveaxis(shape.vertices[shape.triangles], 1, 0)
    for a0, e1, e2 in zip(p0, p1 - p0, p2 - p0):
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


def _first_backward_simplex(vertices, a, triangles=None):
    """Index of the first edge of a polygon (no ``triangles``) or triangle
    of an outward-oriented surface whose simplex with apex a has a
    non-positive orientation, in floats."""
    v = np.asarray(vertices, dtype=float) - a
    if triangles is None:
        w = np.roll(v, -1, axis=0)
        vol = v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]
        vol = vol * np.sign(vol.sum())
    else:
        vol = np.linalg.det(v[triangles])
    return int(np.flatnonzero(vol <= 0)[0])


# a U-shaped polygon, which has no star centre, and an L-shaped prism, star
# about a point of its corner block; points in one arm do not see the other
# arm
U_SHAPE = [(0, 0), (3, 0), (3, 3), (2, 3), (2, 1), (1, 1), (1, 3), (0, 3)]
L_BASE = [(0, 0), (3, 0), (3, 1), (1, 1), (1, 3), (0, 3)]
L_CENTRE = (0.5, 0.5, 0.5)
L_HIDDEN = (2.5, 0.5, 0.5)


def l_prism(centre):
    verts = [(x, y, z) for z in (0.0, 1.0) for (x, y) in L_BASE]
    m = len(L_BASE)
    facets = [list(range(m - 1, -1, -1)), list(range(m, 2 * m))]
    facets += [[i, (i + 1) % m, (i + 1) % m + m, i + m] for i in range(m)]
    return StarShape.polyhedron(verts, facets, centre)


class TestBatchedCertification:
    @pytest.mark.parametrize("which", ["pentagon", "cube", "aprime"])
    def test_theta_below_brute_force_chord_minimum(self, which, request):
        if which == "pentagon":
            shape = StarShape.polygon(PENTAGON, pick_star_centre_2d(PENTAGON))
        elif which == "cube":
            shape = cube()
        else:
            shape = request.getfixturevalue("build").g.by_id["A'"].map.codomain
        a = shape.centre
        cert = certify_star_centre(shape, a)
        theta_obs = _plane_angle(shape, a)
        if shape.dim == 3:
            theta_obs = min(theta_obs, _vertex_angle(shape, a))
        assert cert.theta == min(theta_obs / 2, math.pi / 4 - 1e-9)
        brute = _chord_oracle(shape, a, 24 if shape.dim == 2 else 6)
        assert theta_obs <= brute * (1 + 1e-12)

    @pytest.mark.parametrize("make, hidden", [
        (lambda: StarShape.polygon(PENTAGON, PENTAGON_CENTRE), (1.0, 2.0)),
        (lambda: l_prism(L_CENTRE), L_HIDDEN)], ids=["pentagon", "l_prism"])
    def test_visibility_kernel_matches_oracle(self, make, hidden):
        # the star test passes exactly where the point sees every grid point
        # of the boundary
        shape = make()
        for a in (shape.centre, np.asarray(hidden)):
            probes = _boundary_grid(shape, 8)
            seen = all(_visible_oracle(shape, a, w) for w in probes)
            try:
                certify_star_centre(shape, a)
                passed = True
            except CertificationFailure as err:
                assert "star test" in str(err)
                passed = False
            assert passed == seen == (a is shape.centre)

    @pytest.mark.parametrize("which", ["u_polygon", "l_prism"])
    def test_hidden_centre_fails_visibility_audit(self, which):
        # the star test is the exact visibility audit: construction rejects
        # these centres before the vertex term, naming the first simplex that
        # does not face the centre
        if which == "u_polygon":
            what, k = "edge", _first_backward_simplex(U_SHAPE, (0.5, 2.0))
            make = lambda: StarShape.polygon(U_SHAPE, (0.5, 2.0))
        else:
            star = l_prism(L_CENTRE)
            what = "triangle"
            k = _first_backward_simplex(star.vertices, L_HIDDEN, star.triangles)
            make = lambda: l_prism(L_HIDDEN)
        with pytest.raises(CertificationFailure,
                           match=re.escape(f"star test fails at {what} {k} ")):
            make()


# ---------------------------------------------------------------------------
# the exact vertex part of the certification, one facet pair, one sub-sector
# pair and one generator triple at a time: the oracle of the stacked kernel

def _line_plane_angle_oracle(u, n):
    s = abs(float(np.dot(u, n))) / np.linalg.norm(u)
    return math.asin(min(1.0, s))


def _sector_min_angle_oracle(u, g1, g2):
    best = float(_line_angles(u, np.array([g1, g2])).min())
    n = np.cross(g1, g2)
    nn = np.linalg.norm(n)
    if nn < 1e-14:
        return best
    n = n / nn
    w = u - np.dot(u, n) * n
    if np.linalg.norm(w) > 1e-14:
        for wc in (w, -w):
            if (np.dot(np.cross(g1, wc), n) >= -1e-12
                    and np.dot(np.cross(wc, g2), n) >= -1e-12):
                best = min(best, _line_plane_angle_oracle(u, n))
    return best


def _cone_contains_oracle(gens, u, tol=1e-9):
    un = _unit(np.asarray(u, dtype=float))
    k = len(gens)
    for i in range(k):
        for j in range(i + 1, k):
            for l in range(j + 1, k):
                m = np.column_stack([gens[i], gens[j], gens[l]])
                if abs(np.linalg.det(m)) < 1e-12:
                    continue
                if np.all(np.linalg.solve(m, un) >= -tol):
                    return True
    return False


def _vertex_angle_oracle(shape, a):
    theta_obs = math.pi / 2
    for vi, facet_cones in _facet_vertex_cones(shape).items():
        q = shape.vertices[vi]
        u = q - a
        for fi, _ in facet_cones:
            theta_obs = min(theta_obs,
                            _line_plane_angle_oracle(u, shape._facet_normal[fi]))
        for fa, gens_a in facet_cones:
            for fb, gens_b in facet_cones:
                if fa == fb:
                    continue
                for i in range(len(gens_a) - 1):
                    for j in range(len(gens_b) - 1):
                        cone = [gens_b[j], gens_b[j + 1],
                                -gens_a[i], -gens_a[i + 1]]
                        if (_cone_contains_oracle(cone, u)
                                or _cone_contains_oracle(cone, -u)):
                            raise CertificationFailure(
                                f"tangential chord direction at vertex {q}")
                for gb in gens_b:
                    for ga in gens_a:
                        theta_obs = min(theta_obs,
                                        _sector_min_angle_oracle(u, gb, -ga))
        if theta_obs / 2 < THETA_MIN:
            raise CertificationFailure(
                f"vertex angle too small at {q}: {theta_obs:.2e}")
    return theta_obs


class TestStackedVertexKernel:
    @pytest.mark.parametrize("which", ["cube", "l_prism", "aprime", "asecond"])
    def test_theta_matches_per_pair_oracle(self, which, request):
        if which == "cube":
            shape = cube()
        elif which == "l_prism":
            shape = l_prism(L_CENTRE)
        else:
            cell = "A'" if which == "aprime" else "A''2"
            shape = request.getfixturevalue("build").g.by_id[cell].map.codomain
        oracle = _vertex_angle_oracle(shape, shape.centre)
        assert _vertex_angle(shape, shape.centre) == pytest.approx(oracle,
                                                                   rel=1e-12)

    def test_tangential_vertex_matches_oracle(self):
        shape = l_prism(L_CENTRE)
        with pytest.raises(CertificationFailure, match="tangential") as want:
            _vertex_angle_oracle(shape, np.asarray(L_HIDDEN))
        with pytest.raises(CertificationFailure, match="tangential") as got:
            _vertex_angle(shape, np.asarray(L_HIDDEN))
        assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# psi on polyhedra: the cone frames against the ray-triangle oracle

def poly_cube(centre=(0.1, -0.2, 0.15)):
    """The cube [-1, 1]^3 as a polyhedron, so that psi takes the cone path."""
    box = cube()
    return StarShape.polyhedron(box.vertices, box.facet_polys, centre)


def _facets_at(shape):
    """{frozenset of vertex ids of a facet edge or a vertex: incident facets}."""
    at = {}
    for fi, poly in enumerate(shape.facet_polys):
        for i in range(len(poly)):
            for key in (frozenset((poly[i], poly[i - 1])), frozenset((poly[i],))):
                at.setdefault(key, set()).add(fi)
    return at


def named_shape(which, request):
    """A chart codomain of the build, the polyhedral cube, the L-prism or the
    pentagon, each about a star centre."""
    if which == "cube":
        return poly_cube()
    if which == "l_prism":
        return l_prism(L_CENTRE)
    if which == "pentagon":
        return StarShape.polygon(PENTAGON, PENTAGON_CENTRE)
    cell = "A'" if which == "aprime" else f"A''{which[-1]}"
    return request.getfixturevalue("build").g.by_id[cell].map.codomain


POLYHEDRA = ["aprime", "asecond1", "asecond2", "asecond3", "asecond4", "cube",
             "l_prism"]


class TestPsiCones:
    @pytest.mark.parametrize("which", POLYHEDRA)
    def test_matches_the_ray_oracle(self, which, request):
        shape = named_shape(which, request)
        rng = np.random.default_rng(31)
        lo, hi = shape.vertices.min(axis=0), shape.vertices.max(axis=0)
        tol = 1e-12 * shape.diameter
        checked = 0
        for x in (lo + rng.random((400, 3)) * (hi - lo)).tolist():
            try:
                want = psi_ray_oracle(shape, x)
            except GeometryError:
                with pytest.raises(GeometryError):
                    psi(shape, x)
                continue
            got = psi(shape, x)
            assert got.facet == want.facet
            assert np.linalg.norm(got.point - want.point) <= tol
            assert got.t == pytest.approx(max(want.t, 1.0), rel=1e-12)
            # the hit is a boundary point: it maps to itself with t = 1
            again = psi(shape, got.point)
            assert again.t == 1.0 and again.facet == got.facet
            assert np.linalg.norm(again.point - got.point) <= tol
            checked += 1
        assert checked >= 50

    @pytest.mark.parametrize("which", POLYHEDRA)
    def test_edge_and_vertex_ties_go_to_the_lowest_facet(self, which, request):
        shape = named_shape(which, request)
        c, v = shape.centre, shape.vertices
        for ids, facets in _facets_at(shape).items():
            ends = v[sorted(ids)]
            w = ends.mean(axis=0)
            for f in (0.4, 1.0):
                x = c + f * (w - c)
                got, want = psi(shape, x), psi_ray_oracle(shape, x)
                assert got.facet == want.facet == min(facets), (ids, f)
                assert np.linalg.norm(got.point - w) <= 1e-12 * shape.diameter

    @pytest.mark.parametrize("which", POLYHEDRA)
    def test_centre_and_exterior_rejected(self, which, request):
        shape = named_shape(which, request)
        c = shape.centre
        with pytest.raises(GeometryError, match="centre"):
            psi(shape, c)
        with pytest.raises(GeometryError, match="centre"):
            psi(shape, c + 0.5 * shape.tol)
        for w in shape.vertices:
            x = c + 1.5 * (w - c)
            with pytest.raises(GeometryError, match="exterior"):
                psi_ray_oracle(shape, x)
            with pytest.raises(GeometryError, match="exterior"):
                psi(shape, x)
        with pytest.raises(GeometryError, match="non-finite"):
            psi(shape, (math.nan, 0.0, 0.0))


# ---------------------------------------------------------------------------
# locate and psi read one crossing of the centre ray

def _probe_points(shape, rng):
    """Seeded points of a box 20 % larger than the shape's, the boundary
    points psi sends them to, the vertices, and points 2 and 6 tol inside
    and outside along the centre ray through each vertex."""
    lo, hi = shape.vertices.min(axis=0), shape.vertices.max(axis=0)
    pad = 0.2 * (hi - lo)
    pts = list(lo - pad + rng.random((300, shape.dim)) * (hi - lo + 2 * pad))
    for x in pts[:100]:
        if np.linalg.norm(x - shape.centre) > shape.tol:
            try:
                pts.append(psi(shape, x).point)
            except GeometryError:
                pass
    c = shape.centre
    for w in shape.vertices:
        d = np.linalg.norm(w - c)
        pts += [c + (1 + k * shape.tol / d) * (w - c) for k in (-6, -2, 0, 2, 6)]
    return pts


class TestLocateFromTheCrossing:
    @pytest.mark.parametrize("which", POLYHEDRA + ["pentagon"])
    def test_locate_agrees_with_psi(self, which, request):
        # exterior exactly where psi raises, boundary exactly where psi
        # gives t = 1, on the facet psi hits
        shape = named_shape(which, request)
        kinds = {"interior": 0, "boundary": 0, "exterior": 0}
        for x in _probe_points(shape, np.random.default_rng(41)):
            loc = locate(shape, x)
            kinds[loc.kind] += 1
            try:
                hit = psi(shape, x)
            except GeometryError as err:
                assert loc.kind == "exterior", (x, err)
                continue
            assert loc.kind != "exterior", x
            assert (loc.kind == "boundary") == (hit.t == 1.0), (x, hit.t)
            if loc.kind == "boundary":
                assert loc.facet == hit.facet
        assert min(kinds.values()) >= 20, kinds

    def test_centre_ball_is_interior(self):
        shape = named_shape("l_prism", None)
        for x in (shape.centre, shape.centre + 0.5 * shape.tol):
            assert locate(shape, x).kind == "interior"
            with pytest.raises(GeometryError, match="centre"):
                psi(shape, x)
