"""Companion maps: the classical slow-escape plane map, radial squaring
compositions that sharpen the escape-rate bound, and a patched map with a
bounded orbit inside an otherwise escaping domain."""

from __future__ import annotations

import math

import numpy as np

from .dynamics import MapHandle, SurrogateSpec


def fatou_h_eval(p):
    """z + e^{-z} + 1 on real pairs (x1, x2) = (Re z, Im z); where e^{-x1}
    overflows, each part is its term's signed infinity, or x2 if sin x2 = 0.
    A NaN part gives NaN parts."""
    x1, x2 = float(p[0]), float(p[1])
    try:
        e = math.exp(-x1)
    except OverflowError:
        e = math.inf
    if math.isinf(e):
        s = math.sin(x2)
        return (math.copysign(math.inf, math.cos(x2)),
                x2 if s == 0.0 else math.copysign(math.inf, -s))
    return (x1 + e * math.cos(x2) + 1.0, x2 - e * math.sin(x2))


def radial_square_eval(p):
    """|x| x in any dimension, as Python floats; fixes the origin."""
    v = tuple(map(float, p))
    m = math.hypot(*v)
    return tuple(m * c for c in v)


# ---------------------------------------------------------------------------
# the patched map

class PatchMap:
    """Radial recentering of a ball: identity on and outside the sphere, the
    interior redistributed so a chosen interior point moves to another."""

    def __init__(self, ball_centre, radius, from_point, to_point):
        self.m = np.asarray(ball_centre, dtype=float)
        self.radius = float(radius)
        self.a = np.asarray(from_point, dtype=float)
        self.b = np.asarray(to_point, dtype=float)
        if np.linalg.norm(self.a - self.m) >= self.radius:
            raise ValueError("recentre source must be interior to the ball")
        if np.linalg.norm(self.b - self.m) >= self.radius:
            raise ValueError("recentre target must be interior to the ball")
        self._tol = 1e-14 * self.radius

    def sphere_exit(self, p):
        """Far intersection of the ray a -> p with the sphere (analytic)."""
        d = p - self.a
        w = self.a - self.m
        aa = float(d @ d)
        bb = 2.0 * float(d @ w)
        cc = float(w @ w) - self.radius ** 2
        disc = bb * bb - 4 * aa * cc
        t = (-bb + math.sqrt(max(disc, 0.0))) / (2 * aa)
        return self.a + t * d, t

    def eval(self, p):
        """The image of p, as a tuple of Python floats."""
        p = np.asarray(p, dtype=float)
        if np.linalg.norm(p - self.m) >= self.radius:
            return tuple(p.tolist())
        d = np.linalg.norm(p - self.a)
        if d <= self._tol:
            return tuple(self.b.tolist())
        exit_pt, t = self.sphere_exit(p)
        frac = 1.0 / t
        out = self.b + frac * (exit_pt - self.b)
        return tuple(out.tolist())


def build_patch(f) -> PatchMap:
    """Ball and recentre choice: C has radius L' centred one-tenth above the
    depth -L', so its downward translate overlaps it; the patch moves the
    image of the midpoint x0 back to x0."""
    lp = f.L_prime
    c_centre = np.array([0.0, 0.0, -1.1 * lp])
    img_centre = c_centre - np.array([0.0, 0.0, lp])
    x0 = np.array([0.0, 0.0, -1.6 * lp])
    if np.linalg.norm(c_centre - img_centre) >= 2 * lp:
        raise ArithmeticError("translated ball no longer overlaps the source")
    assert np.linalg.norm(x0 - c_centre) < lp, "x0 must lie in C"
    assert np.linalg.norm(x0 - img_centre) < lp, "x0 must lie in the image ball"
    fx0 = x0 - np.array([0.0, 0.0, lp])
    return PatchMap(img_centre, lp, fx0, x0)


# ---------------------------------------------------------------------------
# composed map handles

def example_one() -> MapHandle:
    """Plane map: slow-escape map composed with radial squaring."""
    return MapHandle(
        name="example1",
        fn=lambda p: fatou_h_eval(radial_square_eval(p)),
        dim=2,
        surrogate=SurrogateSpec(translate=2.0),
    )


def example_two(f) -> MapHandle:
    """Space map: the shifted global map composed with radial squaring."""
    def fn(p):
        q = radial_square_eval(p)
        return f.eval3(q[0], q[1], q[2])
    return MapHandle(
        name="example2",
        fn=fn,
        dim=3,
        tracks_h0=True,
        surrogate=SurrogateSpec(translate=f.L_prime),
        translate=f.L_prime,
    )


def example_three(f) -> MapHandle:
    """The shifted global map post-composed with the ball patch; the patch
    target ``build_patch(f).b`` is a fixed point while generic orbits still
    escape."""
    patch = build_patch(f)
    def fn(p):
        q = f.eval3(float(p[0]), float(p[1]), float(p[2]))
        return patch.eval(q)
    return MapHandle(name="example3", fn=fn, dim=3, tracks_h0=True,
                     translate=f.L_prime)


def x0_for_example_two(f):
    """Axis start point whose first step crosses the slab and re-enters the
    lower half-space at small magnitude, so the squaring prefactor stays
    small enough for desk-scale rate checks."""
    L = f.L
    e = math.exp(L)
    target = L + e - 4.0          # image height L' - 5 on the axis edge map
    s = 1.0 + (L - 1.0) * (target - 4.0) / (L + e - 4.0)
    return np.array([0.0, 0.0, math.sqrt(s)])
