import itertools
import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import cuboid_spec, psi_ray_oracle, star_test as star_tests
from qrdyn import geometry
from qrdyn.geometry import GeometryError, StarShape, _det3_signs, psi, star_shapes
from qrdyn.star_extend import Box, radial_maps


def star_test(shape, a):
    """The oracle star test of the one pair (shape, a): None where it
    passes, else the first surface triangle that does not face a."""
    return star_tests(shape, [a])[0]


def cube(a=(0.0, 0.0, 0.0)):
    return StarShape(*cuboid_spec([-1, -1, -1], [1, 1, 1], a))


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
    return StarShape(verts, centre, facets)


def pentagon(centre2=PENTAGON_CENTRE):
    """The prism of height 4 over the pentagon, about (centre2, 2); star
    about it exactly where the pentagon is star about centre2."""
    return prism(PENTAGON, (*centre2, 2.0), height=4.0)


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
        lo_hi = StarShape(*cuboid_spec([-1, -1, -1], [1, 1, 1]))
        polys = [p[::-1] if i % 2 else p for i, p in enumerate(lo_hi.facet_polys)]
        shape = StarShape(lo_hi.vertices, (0.2, -0.1, 0.3), polys)
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
        outer = StarShape(*cuboid_spec([-2, -2, -2], [2, 2, 2]))
        inner = StarShape(*cuboid_spec([-1, -1, -1], [1, 1, 1]))
        verts = np.vstack([outer.vertices, inner.vertices])
        polys = outer.facet_polys + [[i + 8 for i in p] for p in inner.facet_polys]
        with pytest.raises(GeometryError, match="surface is not connected"):
            StarShape(verts, centre, polys)

    def test_open_or_non_orientable_surface_rejected(self):
        cube_ = StarShape(*cuboid_spec([-1, -1, -1], [1, 1, 1]))
        with pytest.raises(GeometryError, match="not closed or not orientable"):
            StarShape(cube_.vertices, (0, 0, 0), cube_.facet_polys[:-1])
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
            if np.linalg.norm(x - a) < 1e-3:
                continue
            try:
                want = psi_ray_oracle(shape, x)
            except GeometryError:     # exterior
                continue
            hit = psi(shape, x)
            assert np.allclose(hit.point, want.point, atol=1e-9)
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
    """The oracle star test, which construction no longer runs: a shape
    builds about any finite centre."""

    def test_exterior_centre_rejected(self):
        assert star_test(cube(), (3, 0, 0)) is not None

    def test_boundary_centre_rejected(self):
        # (a, the face triangle through a) has volume zero
        assert star_test(cube(), (1, 0.2, 0.3)) is not None
        shape = pentagon((0.0, 1.0))
        assert star_test(shape, shape.centre) is not None

    def test_centre_near_a_face_passes(self):
        # the star test asks for no angle margin: a centre 1e-6 from a face
        # passes, and psi about it agrees with the ray oracle
        shape = cube((1.0 - 1e-6, 0.3, -0.2))
        assert star_test(shape, shape.centre) is None
        rng = np.random.default_rng(4)
        for x in rng.uniform(-0.9, 0.9, (50, 3)):
            hit, want = psi(shape, x), psi_ray_oracle(shape, x)
            assert hit.facet == want.facet
            assert np.allclose(hit.point, want.point, atol=1e-9)


# ---------------------------------------------------------------------------
# brute-force oracles for the star test

def _boundary_grid(shape, k):
    """The points of a grid of step 1/k, in barycentric coordinates, on
    every surface triangle."""
    v = shape.vertices
    ij = np.array([(i, j) for i in range(k + 1) for j in range(k + 1 - i)]) / k
    tri = v[shape.triangles]
    return np.concatenate([t[0] + ij[:, :1] * (t[1] - t[0]) + ij[:, 1:] * (t[2] - t[0])
                           for t in tri])


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
            assert (star_test(shape, a) is None) == seen == (a is shape.centre)

    @pytest.mark.parametrize("which", ["l_prism"])
    def test_hidden_centre_fails_visibility_audit(self, which):
        # the star test is the exact visibility audit: it rejects the hidden
        # centre, naming the first simplex that does not face it; the shape
        # builds about it all the same
        make, centre, hidden = {"l_prism": (l_prism, L_CENTRE, L_HIDDEN)}[which]
        star = make(centre)
        k = _first_backward_simplex(star.vertices, hidden, star.triangles)
        shape = make(hidden)
        assert shape.triangles.tobytes() == star.triangles.tobytes()
        assert star_test(shape, hidden) == k


def spec_of(shape):
    """The ``StarShape`` arguments that build the shape."""
    return shape.vertices, shape.centre, shape.facet_polys


def shape_bits(shape):
    """Everything a built shape keeps, its floats as IEEE bytes."""
    return (shape.vertices.tobytes(), shape.centre.tobytes(), shape.facet_polys,
            shape.triangles.tobytes(), shape.tri_facet.tobytes(),
            [x.tobytes() for x in shape.facet_planes],
            [(np.array(frame).tobytes(), facet) for frame, facet in shape._cones],
            struct.pack("<2d", shape.diameter, shape.tol))


class TestStackedCertification:
    def test_a_batch_is_the_shapes_built_one_by_one(self, build):
        # the build's 5 image solids and the test shapes in one batch,
        # against one StarShape per spec and against the shapes as built
        shapes = [chart.map.codomain for chart in build.g.charts]
        shapes += [cube((0.3, -0.2, 0.1)), pentagon(), l_prism(L_CENTRE),
                   prism(PENTAGON, (1.0, 3.5, 0.5))]
        specs = [spec_of(shape) for shape in shapes]
        batch = star_shapes(specs)
        for got, shape, spec in zip(batch, shapes, specs):
            assert shape_bits(got) == shape_bits(StarShape(*spec)) == shape_bits(shape)

    @pytest.mark.parametrize("which", ["aprime", "asecond4", "cube", "l_prism"])
    def test_candidate_centres_of_one_shape(self, which, build):
        shape = {"aprime": lambda: build.g.by_id["A'"].map.codomain,
                 "asecond4": lambda: build.g.by_id["A''4"].map.codomain,
                 "cube": cube, "l_prism": lambda: l_prism(L_CENTRE)}[which]()
        # the star test of a batch of centres gives each what it gives
        # alone: a pass where every simplex it spans with a surface
        # triangle is positive in floats (no det of these lies near zero)
        rng = np.random.default_rng(3)
        centres = shape.centre + 0.05 * shape.diameter * rng.uniform(-1, 1, (40, 3))
        verdicts = star_tests(shape, centres)
        for a, first in zip(centres, verdicts):
            assert first == star_test(shape, a)
            dets = np.linalg.det(shape.vertices[shape.triangles] - a)
            assert (first is None) == (dets.min() > 0)
        assert verdicts.count(None) >= 10

    def test_the_first_failing_centre_raises_what_it_raises_alone(self, build):
        # the A' chart about codomain centres that pass its cone signs, or
        # fail them at different cells, in every rotation of one batch:
        # the batch raises the error of the first map that fails alone,
        # with that map's position
        chart = build.g.by_id["A'"].map
        solid = chart.codomain
        centres = [(5.0, 1.0, 2.0), (4.5, 1.5, 2.0), (3.0, -2.0, 1.5), (2.0, -2.0, 0.0),
                   (9.0, 0.0, 0.0)]
        specs = [(chart.domain, StarShape(solid.vertices, c, solid.facet_polys),
                  chart.pieces_by_facet, chart.piece_by_codomain_facet) for c in centres]
        alone = []
        for spec in specs:
            try:
                radial_maps([spec])
                alone.append(None)
            except GeometryError as err:
                assert err.map_index == 0
                alone.append(str(err))
        assert [err is None for err in alone] == [True, True, False, False, False]
        assert len(set(alone[2:])) == 3
        for k in range(len(specs)):
            batch = specs[k:] + specs[:k]
            index, first = next((i, err) for i, err in enumerate(alone[k:] + alone[:k])
                                if err is not None)
            with pytest.raises(GeometryError, match="not oriented as its domain cone") as err:
                radial_maps(batch)
            assert (str(err.value), err.value.map_index) == (first, index)


_BOX_CORNER = st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=3)
_BOX_SIDES = st.lists(st.floats(0.05, 20.0), min_size=3, max_size=3)


class TestBox:
    """A ``Box`` against the same cuboid built as a polyhedron
    (``oracles.cuboid_spec``): its centre, diameter, tolerance, facet
    normals and areas bitwise, and its facet offsets equal (a zero may
    differ in sign); corners that span no box, or are not finite, raise."""

    @staticmethod
    def assert_matches_polyhedron(lo, hi):
        box = Box(lo, hi)
        cuboid = StarShape(*cuboid_spec(lo, hi))
        assert (box.centre.tobytes(), struct.pack("<2d", box.diameter, box.tol)) \
            == (cuboid.centre.tobytes(), struct.pack("<2d", cuboid.diameter, cuboid.tol))
        (n, d, area), (want_n, want_d, want_area) = box.facet_planes, cuboid.facet_planes
        assert (n.tobytes(), area.tobytes()) == (want_n.tobytes(), want_area.tobytes())
        assert np.array_equal(d, want_d)

    def test_chart_boxes(self, build):
        for chart in build.g.charts:
            domain = chart.map.domain
            assert isinstance(domain, Box)
            assert (domain.lo.tobytes(), domain.hi.tobytes()) == (chart.lo.tobytes(),
                                                                  chart.hi.tobytes())
            self.assert_matches_polyhedron(domain.lo, domain.hi)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(_BOX_CORNER, _BOX_SIDES)
    def test_boxes_match_the_polyhedral_cuboid(self, corner, sides):
        lo = np.array(corner)
        self.assert_matches_polyhedron(lo, lo + np.array(sides))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(_BOX_CORNER, _BOX_SIDES, st.integers(0, 2), st.sampled_from([0.0, -1.0]))
    def test_no_box_unless_lo_is_below_hi_on_every_axis(self, corner, sides, axis, where):
        # where: hi on the axis at lo (0) or a side below it (-1)
        lo = np.array(corner)
        hi = lo + np.array(sides)
        hi[axis] = lo[axis] + where * sides[axis]
        with pytest.raises(GeometryError, match="lo < hi"):
            Box(lo, hi)

    @pytest.mark.parametrize("end", ["lo", "hi"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_corners_raise(self, end, bad):
        corners = {"lo": [0.0, 0.0, 0.0], "hi": [1.0, 1.0, 1.0]}
        corners[end][1] = bad
        with pytest.raises(GeometryError, match="non-finite"):
            Box(**corners)


def _seeded_polyhedra(count, seed):
    """``count`` prisms over star polygons of 3 to 8 vertices, each turned
    by a random rotation, scaled and moved up to 100 away from the origin,
    about the image of its own star centre."""
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(count):
        k = int(rng.integers(3, 9))
        th = (np.arange(k) + rng.uniform(-0.2, 0.2, k)) * 2 * math.pi / k
        r = rng.uniform(0.5, 2.0, k)
        h = rng.uniform(0.5, 3.0)
        base = np.column_stack([r * np.cos(th), r * np.sin(th)])
        verts = np.array([(x, y, z) for z in (0.0, h) for x, y in base.tolist()])
        facets = [list(range(k - 1, -1, -1)), list(range(k, 2 * k))]
        facets += [[i, (i + 1) % k, (i + 1) % k + k, i + k] for i in range(k)]
        turn = np.linalg.qr(rng.standard_normal((3, 3)))[0] * rng.uniform(0.1, 10.0)
        shift = rng.uniform(-100.0, 100.0, 3)
        specs.append((verts @ turn.T + shift, np.array([0.0, 0.0, h / 2]) @ turn.T + shift,
                      facets))
    return star_shapes(specs)


def test_facet_offsets_are_the_dots_within_the_bound_of_einsum():
    # each facet's plane offset is its normal's dot with its first vertex,
    # by numpy's row dot (``cones._dots``); einsum sums the same three
    # products in its own order.  Either lies within gamma_3 = 3u / (1 - 3u)
    # (u = eps / 2) of the exact dot times sum |n_i v_i|, whatever the order
    # of its sums, so the two differ by less than 2 gamma_3 < 4 eps of it
    shapes = _seeded_polyhedra(200, seed=61)
    normals = np.concatenate([shape.facet_planes[0] for shape in shapes])
    offsets = np.concatenate([shape.facet_planes[1] for shape in shapes])
    first = np.concatenate([shape.vertices[[poly[0] for poly in shape.facet_polys]]
                            for shape in shapes])
    einsum = np.einsum("ij,ij->i", normals, first)
    bound = 4 * np.finfo(float).eps * np.abs(normals * first).sum(axis=1)
    assert len(offsets) > 1000
    assert np.all(np.abs(offsets - einsum) <= bound)
    assert np.any(offsets != einsum)


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
        # a well-conditioned stack is decided by the float filter alone, and
        # never reaches the exact determinant
        made = []
        exact = geometry._det3
        monkeypatch.setattr(geometry, "_det3", lambda *rows: made.append(rows) or exact(*rows))
        rng = np.random.default_rng(3)
        signs, values = _det3_signs(rng.standard_normal((50, 3, 3)), np.zeros(3))
        assert made == []
        assert np.array_equal(signs, np.sign(values))
        # a zero determinant falls back to the exact evaluation
        assert _det3_signs(np.ones((1, 3, 3)), np.zeros(3))[0][0] == 0
        assert made

    def test_exact_rows_match_the_fraction_oracle(self, monkeypatch):
        # rows the float filter leaves to the integer evaluation: zero
        # determinants, one coordinate one ulp off them, and differences or
        # products outside _SAFE_RANGE (tiny, subnormal, huge, overflowing)
        base = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
        eye = np.eye(3)
        rows = [(base, 0.0), (base * 2.0 ** -60, base[0] * 2.0 ** -60),
                (base * 2.0 ** 70, -base[2] * 2.0 ** 70)]
        for sign in (1, -1):
            for r, c in ((2, 2), (0, 1), (1, 0)):
                nudged = base.copy()
                nudged[r, c] = np.nextafter(nudged[r, c], sign * math.inf)
                rows.append((nudged, 0.0))
            rows += [(sign * eye * 2.0 ** -400, 0.0), (sign * eye * 2.0 ** 400, 0.0),
                     (eye[::sign] * 5e-324 + base * 2.0 ** -1070, 0.0),
                     (np.diag([1e308, sign * 1e308, 1.0]), np.diag([-1e308, -sign * 1e308, 0.0])),
                     (np.array([[2.0 ** 300, 1.0, 0.0], [1.0, 2.0 ** -300, 0.0],
                                [0.0, 0.0, sign * 1.0]]), 0.0)]
        p = np.array([r for r, _ in rows])
        q = np.array([np.broadcast_to(c, (3, 3)) for _, c in rows])
        made = []
        exact = geometry._det3
        monkeypatch.setattr(geometry, "_det3", lambda *r: made.append(r) or exact(*r))
        with np.errstate(over="ignore"):
            _assert_exact_signs(p, q)
        assert len(made) == len(rows)
        assert {(_exact_det(a, b) > 0) - (_exact_det(a, b) < 0) for a, b in zip(p, q)} == {-1, 0, 1}


# ---------------------------------------------------------------------------
# psi on polyhedra: the cone frames against the ray-triangle oracle

def poly_cube(centre=(0.1, -0.2, 0.15)):
    """The cube [-1, 1]^3 about a centre off its midpoint."""
    return cube(centre)


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
