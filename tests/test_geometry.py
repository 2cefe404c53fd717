import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (Polyhedron, cuboid_spec, fan_crosses, image_solid, point_in_polygon,
                     psi_ray_oracle, star_test as star_tests, surface_triangles)
from qrdyn import geometry
from qrdyn.geometry import GeometryError, _det3_signs
from qrdyn.star_extend import Box, RadialMap, psi, radial_maps


def star_test(shape, a):
    """The oracle star test of the one pair (shape, a): None where it
    passes, else the first surface triangle that does not face a."""
    return star_tests(shape, [a])[0]


def cube(a=(0.0, 0.0, 0.0), side=1.0):
    """The cube [-side, side]^3 as a polyhedron about ``a``."""
    return Polyhedron(*cuboid_spec([-side] * 3, [side] * 3, a))


def cube_chart(centre=(0.0, 0.0, 0.0), side=1.0, flip=()):
    """The identity of the cube [-side, side]^3 as a chart from the box
    onto the polyhedral cube about ``centre``: one identity piece per box
    facet, whose image is the image solid's facet of the same number, its
    loop reversed on the facets ``flip``."""
    verts, _, faces = cuboid_spec([-side] * 3, [side] * 3)
    loops = [[tuple(verts[i].tolist()) for i in face[::-1 if f in flip else 1]]
             for f, face in enumerate(faces)]
    return RadialMap(Box([-side] * 3, [side] * 3), centre,
                     {f: [[(loop, loop)]] for f, loop in enumerate(loops)})


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
    return Polyhedron(verts, centre, facets)


def pentagon(centre2=PENTAGON_CENTRE):
    """The prism of height 4 over the pentagon, about (centre2, 2); star
    about it exactly where the pentagon is star about centre2."""
    return prism(PENTAGON, (*centre2, 2.0), height=4.0)


# the outward unit normals -e_k and e_k of a box's facets 2k and 2k + 1
BOX_NORMALS = np.kron(np.eye(3), [[-1.0], [1.0]])

# the 6-vertex triangulation of the real projective plane: closed, each edge
# in two triangles, and not orientable
RP2 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
       (1, 3, 2), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 4)]


def _outward_volumes(shape):
    t = shape.vertices[surface_triangles(shape)[0]] - shape.centre
    return np.linalg.det(t)


class TestOrientation:
    """Each image facet's normal is signed away from the centre, whichever
    way its piece's cells run; the oracle refuses a surface that is not
    closed and orientable."""

    def test_mixed_facet_loops_are_oriented_outward(self):
        # the identity chart of the cube with every other face loop
        # reversed: the facet planes of the cube chart (a zero may differ in
        # sign), and the oracle's surface triangles face outward
        centre = (0.2, -0.1, 0.3)
        shape, lo_hi = cube_chart(centre, flip=(1, 3, 5)), cube_chart(centre)
        assert all(map(np.array_equal, shape.facet_planes, lo_hi.facet_planes))
        assert np.array_equal(shape.facet_planes[0], BOX_NORMALS)
        assert shape.validate_boundary_map().passed
        solid = image_solid(shape)
        assert np.all(_outward_volumes(solid) > 0)
        tris = surface_triangles(solid)[0].tolist()
        edges = [e for t in tris for e in zip(t, t[1:] + t[:1])]
        assert sorted(edges) == sorted((b, a) for a, b in edges)

    def test_chart_codomains_face_their_centres(self, build):
        # the atlas writes its face loops either way round (the raw vector
        # area of so many of each chart's nine facets points inwards); every
        # facet's vertices lie on its plane, on the far side from the centre
        flipped = {}
        for chart in build.g.charts:
            shape = image_solid(chart.map)
            rows = shape.vertices.tolist()
            normals, offsets = chart.map.facet_planes
            flipped[chart.cell_id] = 0
            for poly, n, d in zip(shape.facet_polys, normals, offsets):
                v = shape.vertices[poly]
                assert np.all((v - shape.centre) @ n > 0), chart.cell_id
                assert np.abs(v @ n - d).max() <= 10 * chart.map.tol
                vector_area = np.asarray(fan_crosses([rows[i] for i in poly])[2])
                assert abs(vector_area @ n) == pytest.approx(np.linalg.norm(vector_area),
                                                             rel=1e-15)
                flipped[chart.cell_id] += int(vector_area @ n < 0)
            assert np.all(_outward_volumes(shape) > 0), chart.cell_id
        assert flipped == {"A'": 2, "A''1": 4, "A''2": 5, "A''3": 3, "A''4": 4}

    def test_open_or_non_orientable_surface_rejected(self):
        # the oracle refuses to triangulate the cube without its top facet,
        # and a surface that cannot be oriented
        shape = cube()
        open_cube = Polyhedron(shape.vertices, shape.centre, shape.facet_polys[:-1])
        rng = np.random.default_rng(0)
        for surface in (open_cube, Polyhedron(rng.random((6, 3)), (0.5, 0.5, 0.5), RP2)):
            with pytest.raises(GeometryError, match="not closed or not orientable"):
                surface_triangles(surface)


# the A' image facet that is the pentagon, in the plane x1 = 0
APRIME_PENTAGON = 0


class TestPsi:
    """``star_extend.psi`` on the identity chart of the cube, and on the A'
    chart toward its image face P0 P1 T1 Q1 Q0, the pentagon."""

    def test_cube_axis_ray(self):
        m = cube_chart()
        t, k = psi(m, 0.5, 0.0, 0.0)
        assert t == pytest.approx(2.0, abs=1e-12)
        assert m.cell_facets[k].tolist() == [1, 1]

    def test_pentagon_matches_brute_force_oracle(self, build):
        # the ray from the A' centre through the middle of the pentagon's
        # notch edge, from (0, 4, 4) to (0, 2, 3.5)
        m = build.g.by_id["A'"].map
        shape = image_solid(m)
        assert np.array_equal(shape.vertices[shape.facet_polys[APRIME_PENTAGON]][:, 1:],
                              PENTAGON)
        w = np.array([0.0, 3.0, 3.75])
        x = shape.centre + 0.5 * (w - shape.centre)
        want = psi_ray_oracle(shape, x)
        t, k = psi(m, *(x - shape.centre))
        assert want.facet == m.cell_facets[k][1] == APRIME_PENTAGON
        assert np.allclose(shape.centre + t * (x - shape.centre), want.point, atol=1e-12)
        assert np.allclose(want.point, w, atol=1e-12)
        assert t == pytest.approx(want.t, rel=1e-12)

    def test_pentagon_random_rays_match_oracle(self, build):
        # seeded points of the pentagon and of the rays from the A' centre
        # to them
        m = build.g.by_id["A'"].map
        shape = image_solid(m)
        b = shape.centre
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 200:
            u, v = rng.random(2) * 4.0
            if not point_in_polygon(PENTAGON, (u, v)):
                continue
            w = np.array([0.0, u, v])
            x = b + rng.uniform(0.1, 1.0) * (w - b)
            want = psi_ray_oracle(shape, x)
            t, k = psi(m, *(x - b))
            assert want.facet == m.cell_facets[k][1] == APRIME_PENTAGON
            assert np.allclose(b + t * (x - b), want.point, atol=1e-12 * shape.diameter)
            assert np.allclose(want.point, w, atol=1e-12 * shape.diameter)
            checked += 1

    def test_centre_and_exterior_raise(self):
        with pytest.raises(GeometryError, match="centre"):
            psi(cube_chart(), 0.0, 0.0, 0.0)
        with pytest.raises(GeometryError, match="exterior"):
            psi(cube_chart(), 3.0, 0.0, 0.0)

    @settings(max_examples=150, deadline=None)
    @given(st.floats(-0.99, 0.99), st.floats(-0.99, 0.99), st.floats(-0.99, 0.99))
    def test_idempotence_and_collinearity(self, x, y, z):
        # the crossing b + t d (b the origin) lies on the cube's surface, no
        # nearer than x, and maps to itself with t = 1
        m = cube_chart()
        p = np.array([x, y, z])
        if np.linalg.norm(p) < 1e-6:
            return
        t, k = psi(m, x, y, z)
        hit = t * p
        assert abs(np.abs(hit).max() - 1.0) <= 1e-12
        assert t >= 1.0
        again, _ = psi(m, *hit.tolist())
        assert again == pytest.approx(1.0, abs=1e-12)


class TestCertification:
    """The oracle star test, which construction no longer runs, and the
    cone signs that replaced it: a centre that fails the one fails the
    other."""

    def test_exterior_centre_rejected(self):
        assert star_test(cube(), (3, 0, 0)) is not None
        with pytest.raises(GeometryError, match="not oriented as its domain cone"):
            cube_chart((3.0, 0.0, 0.0))

    def test_boundary_centre_rejected(self):
        # (a, the face triangle through a) has volume zero
        assert star_test(cube(), (1, 0.2, 0.3)) is not None
        with pytest.raises(GeometryError, match="not oriented as its domain cone"):
            cube_chart((1.0, 0.2, 0.3))
        shape = pentagon((0.0, 1.0))
        assert star_test(shape, shape.centre) is not None

    def test_centre_near_a_face_passes(self):
        # the star test asks for no angle margin: a centre 1e-6 from a face
        # passes it, the identity chart onto the cube about it passes its
        # cone signs, and psi about it agrees with the ray oracle
        shape = cube((1.0 - 1e-6, 0.3, -0.2))
        assert star_test(shape, shape.centre) is None
        m = cube_chart(shape.centre)
        rng = np.random.default_rng(4)
        for x in rng.uniform(-0.9, 0.9, (50, 3)):
            t, k = psi(m, *(x - shape.centre))
            want = psi_ray_oracle(shape, x)
            assert m.cell_facets[k][1] == want.facet
            assert np.allclose(shape.centre + t * (x - shape.centre), want.point, atol=1e-9)


# ---------------------------------------------------------------------------
# brute-force oracles for the star test

def _boundary_grid(shape, k):
    """The points of a grid of step 1/k, in barycentric coordinates, on
    every surface triangle."""
    v = shape.vertices
    ij = np.array([(i, j) for i in range(k + 1) for j in range(k + 1 - i)]) / k
    tri = v[surface_triangles(shape)[0]]
    return np.concatenate([t[0] + ij[:, :1] * (t[1] - t[0]) + ij[:, 1:] * (t[2] - t[0])
                           for t in tri])


def _visible_oracle(shape, a, w):
    """The visibility test of one segment a -> w, triangle by triangle."""
    r = w - a
    dist = float(np.linalg.norm(r))
    if dist <= shape.tol:
        return True
    d = r / dist
    p0, p1, p2 = np.moveaxis(shape.vertices[surface_triangles(shape)[0]], 1, 0)
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
    """The oracle star test, which ``test_global_map`` holds the cone signs
    against, and the exact signs of ``geometry._det3_signs`` over the
    outward surface triangles, against the brute-force visibility of the
    boundary."""

    @pytest.mark.parametrize("make, hidden", [
        (pentagon, (1.0, 2.0, 2.0)),
        (lambda: l_prism(L_CENTRE), L_HIDDEN)], ids=["pentagon", "l_prism"])
    def test_visibility_kernel_matches_oracle(self, make, hidden):
        # the star test passes exactly where the point sees every grid point
        # of the boundary
        shape = make()
        tris = shape.vertices[surface_triangles(shape)[0]]
        for a in (shape.centre, np.asarray(hidden)):
            probes = _boundary_grid(shape, 8)
            seen = all(_visible_oracle(shape, a, w) for w in probes)
            signs = _det3_signs(tris, a)[0]
            assert (star_test(shape, a) is None) == seen == (a is shape.centre) == all(signs > 0)

    @pytest.mark.parametrize("which", ["l_prism"])
    def test_hidden_centre_fails_visibility_audit(self, which):
        # the star test is the exact visibility audit: it rejects the hidden
        # centre, naming the first simplex that does not face it; the shape
        # builds about it all the same
        make, centre, hidden = {"l_prism": (l_prism, L_CENTRE, L_HIDDEN)}[which]
        star = make(centre)
        k = _first_backward_simplex(star.vertices, hidden, surface_triangles(star)[0])
        shape = make(hidden)
        tris = surface_triangles(shape)[0]
        assert tris.tobytes() == surface_triangles(star)[0].tobytes()
        assert star_test(shape, hidden) == k
        assert np.flatnonzero(_det3_signs(shape.vertices[tris], np.asarray(hidden))[0] <= 0)[0] == k


class TestStackedCertification:
    @pytest.mark.parametrize("which", ["aprime", "asecond4", "cube", "l_prism"])
    def test_candidate_centres_of_one_shape(self, which, build):
        shape = {"aprime": lambda: image_solid(build.g.by_id["A'"].map),
                 "asecond4": lambda: image_solid(build.g.by_id["A''4"].map),
                 "cube": cube, "l_prism": lambda: l_prism(L_CENTRE)}[which]()
        # the star test of a batch of centres, as the centre grids of
        # test_global_map take it, gives each what it gives alone: a pass
        # where every simplex it spans with a surface triangle is positive
        # in floats (no det of these lies near zero)
        rng = np.random.default_rng(3)
        centres = shape.centre + 0.05 * shape.diameter * rng.uniform(-1, 1, (40, 3))
        verdicts = star_tests(shape, centres)
        for a, first in zip(centres, verdicts):
            assert first == star_test(shape, a)
            dets = np.linalg.det(shape.vertices[surface_triangles(shape)[0]] - a)
            assert (first is None) == (dets.min() > 0)
        assert verdicts.count(None) >= 10

    def test_the_first_failing_centre_raises_what_it_raises_alone(self, build):
        # the A' chart about centres that pass its cone signs, or fail them
        # at different cells, in every rotation of one batch: the batch
        # raises the error of the first map that fails alone, with that
        # map's position
        chart = build.g.by_id["A'"].map
        centres = [(5.0, 1.0, 2.0), (4.5, 1.5, 2.0), (3.0, -2.0, 1.5), (2.0, -2.0, 0.0),
                   (9.0, 0.0, 0.0)]
        specs = [(chart.domain, c, chart.pieces_by_facet) for c in centres]
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
    """A ``Box`` against the identity chart of the same cuboid, whose image
    solid is the cuboid as a polyhedron (``oracles.cuboid_spec``): its
    centre, diameter and tolerance bitwise, and the cuboid's facet 2k on
    x_k = lo[k] and 2k + 1 on x_k = hi[k] (its normals -e_k and e_k, a
    zero may differ in sign); corners that span no box, or are not finite,
    raise."""

    @staticmethod
    def assert_matches_polyhedron(lo, hi):
        box = Box(lo, hi)
        verts, centre, faces = cuboid_spec(lo, hi)
        loops = [[tuple(verts[i].tolist()) for i in face] for face in faces]
        cuboid = RadialMap(box, centre, {f: [[(loop, loop)]] for f, loop in enumerate(loops)})
        assert (box.centre.tobytes(), box.diameter.hex(), box.tol.hex()) \
            == (np.array(cuboid._b).tobytes(), cuboid.diameter.hex(), cuboid.tol.hex())
        assert np.array_equal(cuboid.facet_planes[0], BOX_NORMALS)

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
# psi over a chart's image cells against the ray-triangle oracle

def _facets_at(shape):
    """{frozenset of vertex ids of a facet edge or a vertex: incident facets}."""
    at = {}
    for fi, poly in enumerate(shape.facet_polys):
        for i in range(len(poly)):
            for key in (frozenset((poly[i], poly[i - 1])), frozenset((poly[i],))):
                at.setdefault(key, set()).add(fi)
    return at


def named_chart(which, request):
    """A chart of the build, or the identity chart of the cube onto the
    polyhedral cube about a centre off its midpoint."""
    if which == "cube":
        return cube_chart((0.1, -0.2, 0.15))
    cell = "A'" if which == "aprime" else f"A''{which[-1]}"
    return request.getfixturevalue("build").g.by_id[cell].map


def _cell_boundary_points(rmap, rng, per_edge=3):
    """Seeded points on the edges of every image cell polygon of a chart,
    which lie on its image solid's facets, their edges among them."""
    pts, at = [], 0
    for size in rmap.sizes.tolist():
        loop = rmap.targets[at:at + size]
        at += size
        s = rng.random((per_edge, 1, 1))
        pts.append((loop + s * (np.roll(loop, -1, axis=0) - loop)).reshape(-1, 3))
    return np.concatenate(pts)


POLYHEDRA = ["aprime", "asecond1", "asecond2", "asecond3", "asecond4", "cube"]


class TestPsiCones:
    """``star_extend.psi`` scans the fan frames of a chart's own image
    cells; the ray oracle crosses the image solid's surface triangles."""

    @pytest.mark.parametrize("which", POLYHEDRA)
    def test_matches_the_ray_oracle(self, which, request):
        # seeded points of the image solid's bounding box, and the points of
        # the image cells' edges with points on the rays to them: psi's
        # crossing is the oracle's, and its cell serves the oracle's facet
        # (the lowest of those that hold the crossing) or, on a facet edge,
        # another that holds it
        rmap = named_chart(which, request)
        shape = image_solid(rmap)
        b = shape.centre
        normals, offsets = rmap.facet_planes
        rng = np.random.default_rng(31)
        lo, hi = shape.vertices.min(axis=0), shape.vertices.max(axis=0)
        edges = _cell_boundary_points(rmap, rng)
        tol = 1e-12 * shape.diameter
        checked = 0
        for x in np.vstack([lo + rng.random((400, 3)) * (hi - lo), edges,
                            b + rng.uniform(0.05, 1.0, (len(edges), 1)) * (edges - b)]):
            d = (x - b).tolist()
            try:
                want = psi_ray_oracle(shape, x)
            except GeometryError:
                with pytest.raises(GeometryError, match="exterior"):
                    psi(rmap, *d)
                continue
            t, k = psi(rmap, *d)
            got = b + t * (x - b)
            assert np.linalg.norm(got - want.point) <= tol
            facet = rmap.cell_facets[k][1]
            assert facet == want.facet or abs(normals[facet] @ got - offsets[facet]) <= tol
            checked += 1
        assert checked >= 50 + len(edges)

    @pytest.mark.parametrize("which", POLYHEDRA)
    def test_edge_and_vertex_ties_go_to_the_lowest_facet(self, which, request):
        # at the midpoint w of each facet edge and at each vertex, and on
        # the ray to it: the oracle's tie goes to the lowest incident facet,
        # and psi's to the first cell in cell order whose cone holds the
        # ray, a cell of one of the incident facets; both cross at w
        rmap = named_chart(which, request)
        shape = image_solid(rmap)
        c, v = shape.centre, shape.vertices
        for ids, facets in _facets_at(shape).items():
            w = v[sorted(ids)].mean(axis=0)
            for f in (0.4, 1.0):
                x = c + f * (w - c)
                want = psi_ray_oracle(shape, x)
                t, k = psi(rmap, *(x - c).tolist())
                assert want.facet == min(facets), (ids, f)
                assert rmap.cell_facets[k][1] in facets, (ids, f)
                assert k == min(j for j in range(len(rmap.sizes))
                                if _cone_holds(rmap, j, x - c)), (ids, f)
                assert np.linalg.norm(c + t * (x - c) - w) <= 1e-12 * shape.diameter

    @pytest.mark.parametrize("which", POLYHEDRA)
    def test_centre_and_exterior_rejected(self, which, request):
        # psi has no ray at the centre itself, and none to an exterior
        # point; a point within the chart's tolerance of the centre has its
        # cell (the cones from the centre cover space)
        rmap = named_chart(which, request)
        shape = image_solid(rmap)
        c = shape.centre
        with pytest.raises(GeometryError, match="centre"):
            psi(rmap, 0.0, 0.0, 0.0)
        t, k = psi(rmap, 0.5 * shape.tol, 0.0, 0.0)
        assert t > 1.0 and 0 <= k < len(rmap.sizes)
        for w in shape.vertices:
            x = c + 1.5 * (w - c)
            with pytest.raises(GeometryError, match="exterior"):
                psi_ray_oracle(shape, x)
            with pytest.raises(GeometryError, match="exterior"):
                psi(rmap, *(x - c).tolist())
        with pytest.raises(GeometryError, match="non-finite"):
            psi(rmap, math.nan, 0.0, 0.0)


def _cone_holds(rmap, cell, d):
    """Whether d lies in the cone from the centre b over the image polygon
    of the chart's cell, by the fan triangles' barycentrics in Fraction,
    with psi's slack: each at least -1e-9 times their sum."""
    at = int(rmap.sizes[:cell].sum())
    loop = [[Fraction(x) - Fraction(y) for x, y in zip(p, rmap._b)]
            for p in rmap.targets[at:at + rmap.sizes[cell]].tolist()]
    d = [Fraction(x) for x in d.tolist()]
    for i in range(1, len(loop) - 1):
        m = [loop[0], loop[i], loop[i + 1]]
        det = _fraction_det3(m)
        lam = [_fraction_det3([d if j == r else m[j] for j in range(3)]) / det
               for r in range(3)]
        if sum(lam) > 0 and min(lam) >= -Fraction(1, 10 ** 9) * sum(lam):
            return True
    return False


def _fraction_det3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
