"""Independent references for the benchmark's checks.

Nothing here imports ``qrdyn``: the formulas are written again from the
construction's definition, so that a fault in the package cannot hide
itself by also being in the check.

* ``portrait_labels`` decides the half-space entry label of a start under
  f = g - (0, 0, L').  g is the identity below {x3 = 0}, the slab
  0 <= x3 <= L maps below -1 after the shift (L' is chosen that way), and
  above L g is the closed form F = Id + Z of the exponential-type map.
* ``fast_certificate`` and ``not_fast_certificate`` bound the fast-escape
  comparison from outside, with the recurrence t -> t + e^t - L' on the
  invariant vertical lines and the upper bound
  M(r) <= r + sqrt(2) e^r + L' + D of the maximum modulus.
"""

from __future__ import annotations

import math
import sys

# An F step taken from a point with |x1| or |x2| beyond this is rounding
# noise modulo the period 4, so the start's label is unknowable in floats.
HORIZON = 2.0 ** 50
# A reference orbit that comes within REL_MARGIN * size of a branch
# threshold accepts the labels of both branches.  ``size`` is the
# magnitude of the terms that formed the coordinate, fold argument
# included (see ``portrait_labels``).
REL_MARGIN = 1e-9
# classify_escape's radius cap and its logarithm
RADIUS_CAP = 1e300
LOG_CAP = math.log(RADIUS_CAP)
# above this height e^x3 is within a factor e^0.8 of float overflow
EXP_LIMIT = 709.0
# The package's F takes e^x3 from math.exp below 710 and saturates it to
# infinity from there, but math.exp already overflows (and raises) above
# log(DBL_MAX); an F step from a height in this band raises OverflowError.
EXP_BAND = (math.log(sys.float_info.max), 710.0)


def h0(n):
    return f"H0@{n}"


def fold(x):
    """Fold x into [-1, 1] by the period-4 tent; returns (u, reflected)."""
    s = math.fmod(x + 1.0, 4.0)
    if s < 0.0:
        s += 4.0
    if s <= 2.0:
        return s - 1.0, False
    return 3.0 - s, True


def in_exp_band(x3, margin):
    return EXP_BAND[0] - margin <= x3 < EXP_BAND[1] + margin


def portrait_labels(x1, x2, x3, L, L_prime, n_max):
    """The labels ``classify_escape(f, x, n_max)`` may return, and flags.

    Labels are ``H0@n``, ``radial`` and ``undecided``.  A branch of the
    reference orbit that takes an F step from beyond ``HORIZON`` adds the
    flag ``horizon``; one that takes an F step from ``EXP_BAND`` adds
    ``exp_band``.  Such a branch contributes no label.
    """
    flags = set()
    size = max(1.0, abs(x1), abs(x2), abs(x3))
    labels = _labels(x1, x2, x3, 0, size, L, L_prime, n_max, flags)
    return labels, flags


def _labels(x1, x2, x3, n, size, L, L_prime, n_max, flags):
    m = REL_MARGIN * size
    out = set()
    if x3 < m:
        out.add(h0(n))
        if x3 < -m:
            return out
    if n == n_max:
        out.add("undecided")
        return out
    if x3 <= L + m:
        # the slab maps below -1, so the next point is in H0
        out.add(h0(n + 1))
        if x3 < L - m:
            return out
    # F branch: f(x) = x + e^x3 (u1, u2, sigma (1 - max|u|)) - (0, 0, L')
    if max(abs(x1), abs(x2)) > HORIZON:
        flags.add("horizon")
        return out
    if in_exp_band(x3, m):
        flags.add("exp_band")
        return out
    u1, r1 = fold(x1)
    u2, r2 = fold(x2)
    zh = (1.0 - max(abs(u1), abs(u2))) * (-1.0 if r1 != r2 else 1.0)
    log_z = x3 + 0.5 * math.log(u1 * u1 + u2 * u2 + zh * zh)
    if log_z >= LOG_CAP - 1.0:
        # the image is at or past the radius cap
        out.add("radial")
        if x3 >= EXP_LIMIT:
            if zh <= m:
                out.add(h0(n + 1))
            if abs(zh) <= m:
                out.add(h0(n + 2))
            return out
    e = math.exp(x3)
    y1 = x1 + e * u1
    y2 = x2 + e * u2
    y3 = x3 + e * zh - L_prime
    size = size * (1.0 + 2.0 * e) + e + L_prime + max(abs(y1), abs(y2), abs(y3))
    return out | _labels(y1, y2, y3, n + 1, size, L, L_prime, n_max, flags)


# ---------------------------------------------------------------------------
# fast escape

def _tower_up(t, L_prime):
    """One step of t -> t + e^t - L' as (value, log_value).

    ``value`` is None once it passes float range; ``log_value`` is then a
    lower bound for its logarithm (t + e^t - L' >= e^t when t >= L')."""
    if t > EXP_LIMIT:
        return None, t
    v = t + math.exp(t) - L_prime
    return v, math.log(v) if v > 0 else -math.inf


def tower_meets_exp_band(t, L, L_prime, steps=8):
    """True if the orbit t -> t + e^t - L' on an invariant line takes an F
    step from a height in ``EXP_BAND`` within ``steps`` steps."""
    for _ in range(steps):
        if in_exp_band(t, REL_MARGIN * max(1.0, t)):
            return True
        if t <= L or t > EXP_BAND[1]:
            return False
        t = t + math.exp(t) - L_prime
    return False


def max_modulus_upper(r, L_prime, diameter):
    """M(r) <= r + sqrt(2) e^r + L' + D, D the diameter of the slab image."""
    return r + math.sqrt(2.0) * math.exp(r) + L_prime + diameter


def max_modulus_lower(r, L_prime):
    """M(r) >= |f(0, 0, r)| = r + e^r - L' for r > L (the pole is sampled)."""
    return r + math.exp(r) - L_prime


def fast_certificate(x3, R, L_prime, diameter, ell_max=4):
    """Least ell <= ell_max for which the orbit of (a, b, x3) on an invariant
    line (a, b in 4Z, or both in 2 + 4Z) provably beats the maximum modulus
    tower with shift ell, or None.

    The orbit's third coordinate follows t -> t + e^t - L' exactly; the
    tower's k-th term is at most U^k(R) with U the upper bound above.  Once
    t_{1+ell} >= U(R) + 1 with U(R) >= 6, induction keeps t_{k+ell} >=
    U^k(R) + 1 for every k, since (e - sqrt 2) e^U > 2 L' + D + 1 there.
    """
    u1 = max_modulus_upper(R, L_prime, diameter)
    if not (math.log(2.0 * L_prime + diameter + 1.0) < u1 < math.inf):
        return None
    target = math.log(u1 + 1.0)
    t = x3
    for ell in range(ell_max + 1):
        # compare t_{1+ell} with U(R) + 1 in the log domain
        if t is None:
            return ell            # t_{ell} is past float range, so t_{1+ell} >= e^t_ell
        t, log_t = _tower_up(t, L_prime)
        if log_t >= target:
            return ell
    return None


def not_fast_certificate(orbit_bound, R, L_prime, ell_max=4):
    """True when an orbit with |f^j(x)| <= orbit_bound(j) for j <= 2 + ell_max
    can never meet the tower at k = 2.  The tower's first term is at least
    t1 = R + e^R - L'; its second is at least e^t1 once t1 >= L', whether it
    is sampled (t1 + e^t1 - L') or extrapolated (e^t1)."""
    t1 = max_modulus_lower(R, L_prime)
    if t1 < L_prime:
        return False
    worst = max(orbit_bound(2 + ell) for ell in range(ell_max + 1))
    return math.log(worst) < t1
