import itertools
import math
import re
import struct
from unittest import mock
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import cones_contain_line_lapack, facet_vertex_cones_probe, psi_ray_oracle, unit
from qrdyn import geometry
from qrdyn.cones import _cones_contain_line, _facet_vertex_cones, _line_angles
from qrdyn.geometry import (Certificate, CertificationFailure, GeometryError,
                            StarShape, THETA_MIN, _det3_signs, _PairRows,
                            _plane_angles, _vertex_angles, certify_star_centres, star_shapes,
                            certify_star_centre, cuboid_spec, local_lipschitz_constants,
                            locate, psi)
from qrdyn.pieces import pick_star_centre_2d, polygon_kernel


def vertex_angle(shape, a):
    """The vertex term of the one pair (shape, a), raised where it fails."""
    out = _vertex_angles(_PairRows([(shape, np.asarray(a, dtype=float))]))[0]
    if isinstance(out, CertificationFailure):
        raise out
    return out


def plane_angle(shape, a):
    """The plane term of the one pair (shape, a)."""
    return _plane_angles(_PairRows([(shape, np.asarray(a, dtype=float))]))[0]


def facet_vertex_cones(shape):
    return _facet_vertex_cones(shape.vertices, shape.facet_polys, shape._facet_normal)


def cube(a=(0.0, 0.0, 0.0)):
    return StarShape.cuboid([-1, -1, -1], [1, 1, 1], centre=a)


# image pentagon of the side face {x1 = 0}, in (x2, x3) coordinates; its
# visibility kernel lies above the line through (2, 3.5) and (4, 4), so
# (1, 3.5) is a star centre and (1, 2) is not
PENTAGON = [(0.0, 0.0), (0.0, 4.0), (4.0, 4.0), (2.0, 3.5), (2.0, 0.0)]
PENTAGON_CENTRE = (1.0, 3.5)


def prism(base, centre, height=1.0):
    """The right prism of the given height over a polygon in the (x1, x2)
    plane: facet 0 the bottom, facet 1 the top and facet 2 + i the side over
    the edge from base vertex i to vertex i + 1."""
    verts = [(x, y, z) for z in (0.0, height) for (x, y) in base]
    m = len(base)
    facets = [list(range(m - 1, -1, -1)), list(range(m, 2 * m))]
    facets += [[i, (i + 1) % m, (i + 1) % m + m, i + m] for i in range(m)]
    return StarShape.polyhedron(verts, facets, centre)


def pentagon(centre2=PENTAGON_CENTRE):
    """The prism of height 4 over the pentagon, about (centre2, 2); star
    about it exactly where the pentagon is star about centre2."""
    return prism(PENTAGON, (*centre2, 2.0), height=4.0)


class TestLocate:
    def test_cube_centre_is_interior(self):
        assert locate(cube(), (0, 0, 0)).kind == "interior"

    def test_cube_face_point_is_boundary(self):
        loc = locate(cube(), (1, 0, 0))
        assert loc.kind == "boundary"
        assert loc.facet == 1  # +x face

    def test_cube_outside_point_is_exterior(self):
        assert locate(cube(), (2, 0, 0)).kind == "exterior"


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

    def test_pentagon_matches_brute_force_oracle(self):
        # the ray from the centre through x leaves by the side over edge 1
        shape = pentagon()
        x = (1.0, 3.75, 2.0)
        want = psi_ray_oracle(shape, x)
        hit = psi(shape, x)
        assert hit.facet == want.facet == 3
        assert np.allclose(hit.point, want.point, atol=1e-12)
        assert np.allclose(hit.point, (1.0, 4.0, 2.0), atol=1e-12)
        assert hit.t == pytest.approx(want.t, rel=1e-12)

    def test_pentagon_random_rays_match_oracle(self):
        shape = pentagon()
        a = shape.centre
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 200:
            x = rng.random(3) * 4.0
            if locate(shape, x).kind != "interior":
                continue
            if np.linalg.norm(x - a) < 1e-3:
                continue
            hit = psi(shape, x)
            assert np.allclose(hit.point, psi_ray_oracle(shape, x).point, atol=1e-9)
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
            pentagon((0.0, 1.0))

    def test_every_shape_carries_its_centre_certificate(self, build):
        # the build's 5 boxes and 5 codomain polyhedra, then three shapes of
        # the tests
        shapes = {}
        for chart in build.g.charts:
            for shape in (chart.map.domain, chart.map.codomain):
                shapes[id(shape)] = shape
        assert len(shapes) == 10
        shapes = [*shapes.values(), cube((0.3, -0.2, 0.1)), pentagon(), l_prism(L_CENTRE)]
        for shape in shapes:
            assert shape.certificate == certify_star_centre(shape, shape.centre)

    def test_nonconvex_pentagon_needs_kernel_centre(self):
        # the area centroid of this pentagon does not see the whole boundary;
        # the kernel fallback gives a centre about which the prism over the
        # pentagon certifies
        kern = polygon_kernel(PENTAGON)
        assert kern, "kernel should be nonempty"
        centre = pick_star_centre_2d(PENTAGON)
        shape = pentagon(centre)
        cert = certify_star_centre(shape, shape.centre)
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

    @pytest.mark.parametrize("make", [cube, lambda: pentagon(pick_star_centre_2d(PENTAGON))])
    def test_psi_local_lipschitz_bound(self, make):
        shape = make()
        eta, T = local_lipschitz_constants(shape)
        a = shape.centre
        rng = np.random.default_rng(7)
        lo = shape.vertices.min(axis=0)
        hi = shape.vertices.max(axis=0)
        tested = 0
        while tested < 2000:
            xi = lo + rng.random(3) * (hi - lo)
            if locate(shape, xi).kind != "interior":
                continue
            rxi = np.linalg.norm(xi - a)
            if rxi < 1e-3:
                continue
            pair = []
            for _ in range(2):
                for _try in range(50):
                    cand = xi + (rng.random(3) - 0.5) * 2 * eta * rxi
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
    """The points of a grid of step 1/k, in barycentric coordinates, on
    every surface triangle."""
    v = shape.vertices
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
    """The visibility test of one segment a -> w, triangle by triangle."""
    r = w - a
    dist = float(np.linalg.norm(r))
    if dist <= shape.tol:
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


def _first_backward_simplex(vertices, a, triangles):
    """Index of the first triangle of an outward-oriented surface whose
    simplex with apex a has a non-positive orientation, in floats."""
    v = np.asarray(vertices, dtype=float) - a
    return int(np.flatnonzero(np.linalg.det(v[triangles]) <= 0)[0])


# an L-shaped prism, star about a point of its corner block; points in one
# arm do not see the other arm
L_BASE = [(0, 0), (3, 0), (3, 1), (1, 1), (1, 3), (0, 3)]
L_CENTRE = (0.5, 0.5, 0.5)
L_HIDDEN = (2.5, 0.5, 0.5)


def l_prism(centre):
    return prism(L_BASE, centre)


class TestBatchedCertification:
    @pytest.mark.parametrize("which", ["pentagon", "cube", "aprime"])
    def test_theta_below_brute_force_chord_minimum(self, which, request):
        if which == "pentagon":
            shape = pentagon(pick_star_centre_2d(PENTAGON))
        elif which == "cube":
            shape = cube()
        else:
            shape = request.getfixturevalue("build").g.by_id["A'"].map.codomain
        a = shape.centre
        cert = certify_star_centre(shape, a)
        theta_obs = min(plane_angle(shape, a), vertex_angle(shape, a))
        if shape.box is not None:
            # a box's certificate is its plane term in closed form; the
            # vertex term reaches the same angle a few ulps lower
            assert theta_obs <= plane_angle(shape, a) <= theta_obs * (1 + 1e-14)
            theta_obs = plane_angle(shape, a)
        assert cert.theta == min(theta_obs / 2, math.pi / 4 - 1e-9)
        brute = _chord_oracle(shape, a, 6)
        assert theta_obs <= brute * (1 + 1e-12)

    @pytest.mark.parametrize("make, hidden", [
        (pentagon, (1.0, 2.0, 2.0)),
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

    @pytest.mark.parametrize("which", ["l_prism"])
    def test_hidden_centre_fails_visibility_audit(self, which):
        # the star test is the exact visibility audit: construction rejects
        # the hidden centre before the vertex term, naming the first simplex
        # that does not face it
        make, centre, hidden = {"l_prism": (l_prism, L_CENTRE, L_HIDDEN)}[which]
        star = make(centre)
        k = _first_backward_simplex(star.vertices, hidden, star.triangles)
        with pytest.raises(CertificationFailure,
                           match=re.escape(f"star test fails at triangle {k} ")):
            make(hidden)


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
    un = unit(np.asarray(u, dtype=float))
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
    for vi, facet_cones in facet_vertex_cones_probe(shape).items():
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
        assert vertex_angle(shape, shape.centre) == pytest.approx(oracle,
                                                                   rel=1e-12)

    def test_tangential_vertex_matches_oracle(self):
        shape = l_prism(L_CENTRE)
        with pytest.raises(CertificationFailure, match="tangential") as want:
            _vertex_angle_oracle(shape, np.asarray(L_HIDDEN))
        with pytest.raises(CertificationFailure, match="tangential") as got:
            vertex_angle(shape, np.asarray(L_HIDDEN))
        assert str(got.value) == str(want.value)


def spec_of(shape):
    """The ``StarShape`` arguments that build the shape."""
    return shape.vertices, shape.centre, shape.facet_polys, shape.box


def shape_bits(shape):
    """Everything a built shape keeps, its floats as IEEE bytes."""
    cert = shape.certificate
    return (shape.vertices.tobytes(), shape.centre.tobytes(), shape.facet_polys,
            shape.triangles.tobytes(), shape.tri_facet.tobytes(),
            shape._facet_normal.tobytes(), [x.tobytes() for x in shape.facet_planes],
            [(np.array(frame).tobytes(), facet) for frame, facet in shape._cones],
            struct.pack("<5d", shape.diameter, shape.tol, shape.min_feature,
                        cert.theta, cert.eps))


def warped_cube():
    """A unit cube with one corner lifted off its three faces: building it
    fails on its facets, before any certificate."""
    verts = np.array([[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)])
    verts[7] += (0.0, 0.0, 1e-3)
    return (verts, (0.5, 0.5, 0.5), [[0, 1, 3, 2], [4, 6, 7, 5], [0, 4, 5, 1],
                                    [2, 3, 7, 6], [0, 2, 6, 4], [1, 5, 7, 3]], None)


class TestStackedCertification:
    def test_a_batch_is_the_shapes_built_one_by_one(self, build):
        # the build's 10 shapes and the test shapes in one batch, against
        # one StarShape per spec and against the shapes as built
        shapes = [shape for chart in build.g.charts
                  for shape in (chart.map.domain, chart.map.codomain)]
        shapes += [cube((0.3, -0.2, 0.1)), pentagon(), pentagon(pick_star_centre_2d(PENTAGON)),
                   l_prism(L_CENTRE), prism(PENTAGON, (1.0, 3.5, 0.5))]
        specs = [spec_of(shape) for shape in shapes]
        batch = star_shapes(specs)
        for got, shape, spec in zip(batch, shapes, specs):
            assert shape_bits(got) == shape_bits(StarShape(*spec)) == shape_bits(shape)

    @pytest.mark.parametrize("which", ["aprime", "asecond4", "cube", "l_prism"])
    def test_candidate_centres_of_one_shape(self, which, build):
        shape = {"aprime": lambda: build.g.by_id["A'"].map.codomain,
                 "asecond4": lambda: build.g.by_id["A''4"].map.codomain,
                 "cube": cube, "l_prism": lambda: l_prism(L_CENTRE)}[which]()
        rng = np.random.default_rng(3)
        centres = shape.centre + 0.05 * shape.diameter * rng.uniform(-1, 1, (40, 3))
        one_by_one = []
        for a in centres:
            try:
                one_by_one.append((a, certify_star_centre(shape, a)))
            except CertificationFailure:
                pass
        assert len(one_by_one) >= 10
        batch = certify_star_centres([shape] * len(one_by_one), [a for a, _ in one_by_one])
        assert [(c.theta, c.eps) for c in batch] == [(c.theta, c.eps) for _, c in one_by_one]

    def test_the_first_failing_shape_raises_what_it_raises_alone(self):
        good = spec_of(cube())
        hidden = spec_of(l_prism(L_CENTRE))[:1] + (L_HIDDEN,) + spec_of(l_prism(L_CENTRE))[2:]
        alone = {}
        for name, spec in (("hidden", hidden), ("warped", warped_cube())):
            with pytest.raises(GeometryError) as err:
                StarShape(*spec)
            alone[name] = err.value
        # the stacked pass meets the warped facet before any certificate,
        # but the hidden centre of the shape before it fails first
        for specs, first, index in (([good, hidden, warped_cube()], "hidden", 1),
                                    ([good, good, warped_cube(), hidden], "warped", 2)):
            with pytest.raises(GeometryError) as err:
                star_shapes(specs)
            assert type(err.value) is type(alone[first])
            assert str(err.value) == str(alone[first])
            assert err.value.shape_index == index

    def test_the_first_failing_centre_raises_what_it_raises_alone(self):
        # centres that certify, fail the star test at different triangles,
        # or are not finite, in every rotation of the batch
        shape = l_prism(L_CENTRE)
        centres = [L_CENTRE, (0.4, 0.6, 0.3), L_HIDDEN, (9.0, 0.0, 0.0), (math.nan, 0.0, 0.0)]
        alone = []
        for a in centres:
            try:
                certify_star_centre(shape, a)
                alone.append(None)
            except GeometryError as err:
                alone.append(err)
        assert [err is None for err in alone] == [True, True, False, False, False]
        for k in range(len(centres)):
            batch = centres[k:] + centres[:k]
            first = next(err for err in alone[k:] + alone[:k] if err is not None)
            with pytest.raises(GeometryError) as err:
                certify_star_centres([shape] * len(batch), batch)
            assert type(err.value) is type(first)
            assert str(err.value) == str(first)


def box_bits(shape):
    """``shape_bits`` without the certificate's theta (a box's cone frames,
    which it never reads, taken on demand)."""
    *fields, sizes = shape_bits(shape)
    return fields, sizes[:-16] + sizes[-8:]


def general_box(lo, hi, centre):
    """The box [lo, hi] about ``centre`` built as a general polyhedron."""
    vertices, _, facets, _ = cuboid_spec(lo, hi)
    return StarShape.polyhedron(vertices, facets, centre)


_BOX_CORNER = st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=3)
_BOX_SIDES = st.lists(st.floats(0.05, 20.0), min_size=3, max_size=3)


class TestClosedFormBox:
    """``StarShape.cuboid`` against the same box built as a general
    polyhedron: every field bitwise, the certificate's theta the general
    plane term bitwise (the general vertex term reaches the same angle a
    few ulps lower), and a failing centre the general path's error."""

    @staticmethod
    def assert_matches_general(lo, hi, centre):
        box = StarShape.cuboid(lo, hi, centre)
        general = general_box(lo, hi, centre)
        assert [x.tobytes() for x in box.box] == [x.tobytes() for x in cuboid_spec(lo, hi)[3]]
        assert general.box is None
        assert box_bits(box) == box_bits(general)
        plane = plane_angle(general, general.centre)
        assert box.certificate.theta == min(plane / 2, math.pi / 4 - 1e-9)
        assert box.certificate.eps == general.certificate.eps
        assert general.certificate.theta <= box.certificate.theta
        assert box.certificate.theta <= general.certificate.theta + 1e-12

    def test_chart_boxes(self, build):
        for chart in build.g.charts:
            domain = chart.map.domain
            self.assert_matches_general(*domain.box, domain.centre)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(_BOX_CORNER, _BOX_SIDES,
           st.lists(st.floats(0.02, 0.98), min_size=3, max_size=3))
    def test_boxes_about_interior_centres(self, corner, sides, at):
        # off-centre centres too: cube(a) builds [-1, 1]^3 about any a
        lo = np.array(corner)
        hi = lo + np.array(sides)
        centre = lo + np.array(at) * (hi - lo)
        try:
            general_box(lo, hi, centre)
        except CertificationFailure as err:
            # a centre too near a face fails both ways, with one error
            with pytest.raises(CertificationFailure) as got:
                StarShape.cuboid(lo, hi, centre)
            assert str(got.value) == str(err)
            return
        self.assert_matches_general(lo, hi, centre)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(_BOX_CORNER, _BOX_SIDES, st.integers(0, 2), st.sampled_from([-1.0, 0.0, 1.0, 2.0]),
           st.floats(0.1, 0.9))
    def test_centres_on_or_outside_raise_what_the_general_path_raises(
            self, corner, sides, axis, where, at):
        # where along the axis: 0 and 1 are the two faces, -1 and 2 outside
        lo = np.array(corner)
        hi = lo + np.array(sides)
        centre = lo + at * (hi - lo)
        centre[axis] = lo[axis] + where * (hi[axis] - lo[axis])
        if where == 1.0:
            centre[axis] = hi[axis]
        with pytest.raises(CertificationFailure) as want:
            general_box(lo, hi, centre)
        with pytest.raises(CertificationFailure) as got:
            StarShape.cuboid(lo, hi, centre)
        assert "star test" in str(got.value)
        assert str(got.value) == str(want.value)


class TestConeContainment:
    @staticmethod
    def build_rows(build):
        shapes = [shape for chart in build.g.charts
                  for shape in (chart.map.domain, chart.map.codomain)]
        rows = _PairRows([(shape, shape.centre) for shape in shapes])
        corner_vertex, _, gens, gen_corner = _facet_vertex_cones(
            rows.vertices, rows.polys, rows.normals)
        sub = np.flatnonzero(gen_corner[:-1] == gen_corner[1:])
        jb, ia = np.meshgrid(sub, sub, indexing="ij")
        same = corner_vertex[gen_corner[jb]] == corner_vertex[gen_corner[ia]]
        jb, ia = jb[same], ia[same]
        cones = np.stack([gens[jb], gens[jb + 1], -gens[ia], -gens[ia + 1]], axis=1)
        return cones, rows.vertices[corner_vertex[gen_corner[jb]]]

    def test_equals_the_lapack_test(self, build):
        # the build's cone rows with rays from the centres and from points
        # along their generators (hits), and random cones and rays
        cones, at = self.build_rows(build)
        rng = np.random.default_rng(5)
        u = np.concatenate([at - rng.uniform(-1, 1, (len(at), 3)),
                            cones[:, 0] + 0.5 * cones[:, 2] + 1e-3 * rng.normal(size=(len(at), 3))])
        cones = np.concatenate([cones, cones])
        g = rng.normal(size=(4000, 4, 3))
        cones = np.concatenate([cones, g / np.linalg.norm(g, axis=2)[..., None]])
        u = np.concatenate([u, rng.normal(size=(4000, 3))])
        want = cones_contain_line_lapack(cones, u)
        assert 0 < want.sum() < len(want)
        assert np.array_equal(_cones_contain_line(cones, u), want)

    def test_near_thresholds_lapack_decides(self):
        # a triple of determinant 1e-12 (within the window about the keep
        # threshold) and a ray with a coefficient of -1e-9 (at the
        # tolerance) take LAPACK's det and solve; far from both, neither
        ex, ey, ez = np.eye(3)
        flat = ex + ey + 1e-12 * math.sqrt(2.0) * ez
        cones = np.array([[ex, ey, flat / np.linalg.norm(flat), -ez],
                          [ex, ey, ez, -ex - ey - ez]])
        cones[1, 3] /= np.linalg.norm(cones[1, 3])
        u = np.array([[0.3, 0.2, 0.5], [-1e-9, 1.0, 1.0]])
        u[1] *= math.sqrt(float(u[1] @ u[1]))
        with mock.patch("numpy.linalg.det", wraps=np.linalg.det) as det, \
                mock.patch("numpy.linalg.solve", wraps=np.linalg.solve) as solve:
            got = _cones_contain_line(cones, u)
        assert det.call_count == 1 and solve.call_count == 1
        assert np.array_equal(got, cones_contain_line_lapack(cones, u))
        with mock.patch("numpy.linalg.det", wraps=np.linalg.det) as det, \
                mock.patch("numpy.linalg.solve", wraps=np.linalg.solve) as solve:
            _cones_contain_line(cones[1:], np.array([[0.3, 0.2, 0.5]]))
        assert det.call_count == solve.call_count == 0


class TestFacetVertexCones:
    def test_orientation_arcs_match_the_probed_arcs(self, build):
        # each facet loop runs counter-clockwise about its Newell normal, so
        # the arc read off the orientation is the one a probe point finds
        # inside the polygon, generator for generator, on the build's 10
        # polyhedra (each chart's box and codomain), a cube and the L-prism
        shapes = [shape for chart in build.g.charts
                  for shape in (chart.map.domain, chart.map.codomain)]
        shapes += [cube(), l_prism(L_CENTRE)]
        for shape in shapes:
            corner_vertex, corner_facet, gens, gen_corner = facet_vertex_cones(shape)
            got = {}
            for c, (v, f) in enumerate(zip(corner_vertex.tolist(), corner_facet.tolist())):
                got.setdefault(v, []).append((f, gens[gen_corner == c]))
            want = facet_vertex_cones_probe(shape)
            assert list(got) == list(want)
            for v, cones in want.items():
                assert [f for f, _ in got[v]] == [f for f, _ in cones]
                for (_, g), (_, w) in zip(got[v], cones):
                    np.testing.assert_array_equal(g, w)

    def test_reflex_corner_is_cut_into_convex_sectors(self):
        # the L-prism's inner corner (1, 1) has an interior angle of 3 pi / 2
        # in both caps: ceil((3 pi / 2) / 1.5) = 4 sectors, five generators
        shape = l_prism(L_CENTRE)
        corner_vertex, corner_facet, _, gen_corner = facet_vertex_cones(shape)
        inner = [c for c, v in enumerate(corner_vertex.tolist())
                 if np.array_equal(shape.vertices[v][:2], [1.0, 1.0])
                 and corner_facet[c] < 2]
        assert len(inner) == 2
        assert all(np.count_nonzero(gen_corner == c) == 5 for c in inner)


# ---------------------------------------------------------------------------
# the filtered exact sign of a 3x3 determinant

def _exact_det(p, q):
    """det(p - q) in Fraction, by the Leibniz formula."""
    d = [[Fraction(x) - Fraction(y) for x, y in zip(pr, qr)]
         for pr, qr in zip(np.asarray(p).tolist(), np.asarray(q).tolist())]
    total = Fraction(0)
    for perm in itertools.permutations(range(3)):
        inversions = sum(perm[i] > perm[j] for i in range(3) for j in range(i + 1, 3))
        term = Fraction(-1 if inversions % 2 else 1)
        for row, col in enumerate(perm):
            term *= d[row][col]
        total += term
    return total


def _assert_exact_signs(p, q):
    p, q = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(q, dtype=float))
    signs = _det3_signs(p, q)[0]
    for k in range(len(p)):
        exact = _exact_det(p[k], q[k])
        assert signs[k] == (exact > 0) - (exact < 0), (p[k], q[k])


_COORD = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False)
_WIDE = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e200,
                  max_value=1e200)
_SMALL_INT = st.integers(-6, 6)


class TestDet3Signs:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(_COORD, min_size=18, max_size=18),
           st.lists(_WIDE, min_size=18, max_size=18))
    def test_random_rows(self, moderate, wide):
        # two (p, q) pairs: coordinates up to 1e6, and up to 1e200, where
        # differences and products leave the filter's safe range
        rows = np.array([moderate, wide]).reshape(2, 2, 3, 3)
        _assert_exact_signs(rows[:, 0], rows[:, 1])

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(st.lists(_SMALL_INT, min_size=3, max_size=3), min_size=3, max_size=3),
           st.lists(_SMALL_INT, min_size=6, max_size=6),
           st.integers(-60, 60), st.integers(0, 8), st.sampled_from([-1, 1]))
    def test_coplanar_lattice_points_and_one_ulp_off(self, vecs, steps, k, which, side):
        # exactly coplanar points scaled by 2^k have a zero determinant; one
        # coordinate moved by one ulp gives a tiny one of either sign, far
        # inside the float error of the determinant
        p0, a, b = (np.array(v, dtype=float) * 2.0 ** k for v in vecs)
        pts = np.array([p0 + s * a + t * b for s, t in zip(steps[::2], steps[1::2])])
        nudged = pts.copy()
        r, c = divmod(which, 3)
        nudged[r, c] = np.nextafter(nudged[r, c], side * math.inf)
        _assert_exact_signs(np.array([pts, nudged]), p0)
        signs, _ = _det3_signs(pts[None], p0)
        assert signs[0] == 0

    def test_decided_rows_need_no_fraction(self, monkeypatch):
        # a well-conditioned stack is decided by the float filter alone
        made = []
        monkeypatch.setattr(geometry, "Fraction",
                            lambda *args: made.append(args) or Fraction(*args))
        rng = np.random.default_rng(3)
        signs, values = _det3_signs(rng.standard_normal((50, 3, 3)), np.zeros(3))
        assert made == []
        assert np.array_equal(signs, np.sign(values))
        # a zero determinant falls back to the exact evaluation
        assert _det3_signs(np.ones((1, 3, 3)), np.zeros(3))[0][0] == 0
        assert made


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
    pentagon prism, each about a star centre."""
    if which == "cube":
        return poly_cube()
    if which == "l_prism":
        return l_prism(L_CENTRE)
    if which == "pentagon":
        return pentagon()
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
    pts = list(lo - pad + rng.random((300, 3)) * (hi - lo + 2 * pad))
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
