"""Projective renormalization of directions: flip-and-shear matrices, the
piecewise linear-fractional Farey maps, itineraries, and direction recovery.
Matrices are tuples of row tuples, applied as a0*x + a1*y on every machine."""

import math
from collections import namedtuple
from functools import lru_cache

from .surface import _check_pair
from .tracer import sector_of

EPS_DYN = 1e-12


class DomainError(Exception):
    """Direction outside the standard sector."""


class BoundaryOrbit(Exception):
    """Orbit falls within the quarantine band of a sector boundary."""


class NoConvergence(Exception):
    """Nested inverse branches failed to shrink below tolerance."""


@lru_cache(maxsize=None, typed=True)
def gamma(m, n):
    """Linear part of the flip-and-shear map from M(m,n) to M(n,m).

    It factors as a flip, a shear, a similarity and a dual shear, in turn.
    Raises NonPositiveShape for an m or n that is no int or below 2.
    """
    _check_pair(m, n)
    sm, sn = math.sin(math.pi / m), math.sin(math.pi / n)
    cm, cn = math.cos(math.pi / m), math.cos(math.pi / n)
    return ((-math.sqrt(sn / sm), (cm + cn) / math.sqrt(sm * sn)),
            (0.0, math.sqrt(sm / sn)))


@lru_cache(maxsize=None, typed=True)
def reflection(m, n, i):
    """Matrix of the reflection taking sector i of M(m,n) to sector 0.
    Raises NonPositiveShape for an m or n that is no int or below 2."""
    _check_pair(m, n)
    if not 0 <= i <= 2 * n - 1:
        raise ValueError(f"sector {i} out of range 0..{2 * n - 1}")
    if i == 0:
        return ((1.0, 0.0), (0.0, 1.0))
    phi = (i + 1) * math.pi / n
    c, s = math.cos(phi), math.sin(phi)
    return ((c, s), (s, -c))


def _apply(a, v):
    """Matrix times vector."""
    (a0, a1), (b0, b1) = a
    x, y = v
    return (a0 * x + a1 * y, b0 * x + b1 * y)


def _mul(a, b):
    """Matrix product a b, one column of b at a time."""
    (p, q), (r, s) = b
    x0, y0 = _apply(a, (p, r))
    x1, y1 = _apply(a, (q, s))
    return ((x0, x1), (y0, y1))


def _adj(a):
    """Adjugate: det(a) times the inverse, the same map on directions."""
    (p, q), (r, s) = a
    return ((s, -q), (-r, p))


def _upper(v):
    """Representative of the projective class in the closed upper half plane."""
    if v[1] < 0 or (v[1] == 0 and v[0] < 0):
        return (-v[0], -v[1])
    return v


def _angle(v):
    v = _upper(v)
    return math.atan2(v[1], v[0])


@lru_cache(maxsize=None, typed=True)
def _step_data(m, n):
    """The entries of gamma(m, n), pi/m, pi/(2m), and the half-step's sector
    table: at each quotient psi // (pi/m) that an angle psi in [pi/(2m),
    pi + pi/(2m)) has, as a float, the sector a it gives, clamped to
    1..m-1, the entries of reflection(n, m, a), and the bounds a pi/m and
    (a+1) pi/m of sector a."""
    (g0, g1), (h0, h1) = gamma(m, n)
    step = math.pi / m
    sectors = {}
    for q in range(m + 1):
        a = min(max(q, 1), m - 1)
        (r0, r1), (s0, s1) = reflection(n, m, a)
        sectors[float(q)] = a, r0, r1, s0, s1, a * step, (a + 1) * step
    return g0, g1, h0, h1, step, 0.5 * step, sectors


def _orbit(m, n, v, tol, count):
    """The first count renormalization steps from a direction vector,
    alternately from M(m,n) and M(n,m), with the arithmetic of _apply and
    _upper: gamma v has angle psi in sector a of the dual, [a pi/m,
    (a+1) pi/m] (psi < pi/(2m) wraps past pi), and reflection(n, m, a)
    takes it to the standard sector.  Returns a list of (a, normalized
    image, whether psi is within tol of a bound of a)."""
    atan2, hypot, pi = math.atan2, math.hypot, math.pi
    x, y = v
    both = _step_data(m, n), _step_data(n, m)
    steps = []
    for t in range(count):
        g0, g1, h0, h1, step, half, sectors = both[t & 1]
        x, y = g0 * x + g1 * y, h0 * x + h1 * y
        if y <= 0 and (y < 0 or x < 0):  # _upper, one test when y > 0
            x, y = -x, -y
        psi = atan2(y, x)
        if psi < half:
            psi += pi
        a, g0, g1, h0, h1, lo, hi = sectors[psi // step]
        x, y = g0 * x + g1 * y, h0 * x + h1 * y
        if y <= 0 and (y < 0 or x < 0):
            x, y = -x, -y
        r = hypot(x, y)
        x, y = x / r, y / r
        steps.append((a, (x, y), -tol < psi - lo < tol or -tol < psi - hi < tol))
    return steps


def farey_F(m, n, theta):
    """Normalized projective step in angle coordinates: (dual sector, angle)."""
    if not -EPS_DYN <= theta <= math.pi / n + EPS_DYN:
        raise DomainError(f"theta {theta} outside [0, pi/{n}]")
    [(a, out, _)] = _orbit(m, n, (math.cos(theta), math.sin(theta)), 0.0, 1)
    psi = _angle(out)
    if psi > 0.5 * math.pi:
        psi = max(0.0, psi - math.pi)
    return a, psi


def farey_FF(m, n, theta):
    """Composed Farey map: branch pair (a, b) and the image angle."""
    a, psi = farey_F(m, n, theta)
    b, out = farey_F(n, m, psi)
    return (a, b), out


def subsectors(m, n):
    """Angle intervals of the standard sector mapped into each dual sector.

    Entry j-1 is the closure of the set of angles sent by the projective
    flip-and-shear action into sector j of M(n,m), for j = 1..m-1; the
    intervals tile [0, pi/n] in decreasing j order.
    """
    back = _adj(gamma(m, n))
    # the outer cuts, preimages of the bounds pi/m and pi, are pi/n and 0
    cuts = [math.pi / n]
    for j in range(2, m):
        psi = j * math.pi / m
        cuts.append(_angle(_apply(back, (math.cos(psi), math.sin(psi)))))
    cuts.append(0.0)
    return [tuple(sorted(pair)) for pair in zip(cuts, cuts[1:])]


def _branch_matrix(m, n, a, b):
    return _mul(_mul(_mul(reflection(m, n, b), gamma(n, m)),
                     reflection(n, m, a)), gamma(m, n))


@lru_cache(maxsize=None, typed=True)
def _inverse_branches(m, n):
    """Entries (p, q, r, s) of the adjugate of the branch matrix of each
    branch pair (a, b), at [a][b]; index 0 is no branch."""
    _check_pair(m, n)
    return tuple(tuple(sum(_adj(_branch_matrix(m, n, a, b)), ()) if a and b else None
                       for b in range(n)) for a in range(m))


def ff_branches(m, n):
    """Branch domains and matrices of the composed map, keyed by (a, b).

    Each value is (lo, hi, matrix): the branch acts on angles in [lo, hi]
    and maps that interval onto the standard sector.
    """
    duals = subsectors(n, m)
    out = {}
    for a in range(1, m):
        back = _adj(_mul(reflection(n, m, a), gamma(m, n)))
        for b in range(1, n):
            lo, hi = sorted(_angle(_apply(back, (math.cos(e), math.sin(e))))
                            for e in duals[b - 1])
            # the outer branches end on the bounds 0 and pi/n exactly
            lo = 0.0 if (a, b) == (m - 1, n - 1) else lo
            hi = math.pi / n if (a, b) == (1, 1) else hi
            out[(a, b)] = (lo, hi, _branch_matrix(m, n, a, b))
    return out


class Itinerary(namedtuple("Itinerary", "b0 pairs")):
    """Starting sector and branch pairs of an orbit of the composed map."""

    __slots__ = ()

    def flatten(self):
        """Sector sequence (b0, a1, b1, a2, b2, ...)."""
        return [self.b0, *(x for pair in self.pairs for x in pair)]


def itinerary(m, n, theta, k):
    """Sector of theta and the first k branch pairs of its orbit."""
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"need an int k >= 1, got {k!r}")
    b0, on_boundary = sector_of(theta, n, tol=EPS_DYN)
    if on_boundary:
        raise BoundaryOrbit(f"direction {theta} on a sector boundary")
    v = (math.cos(theta), math.sin(theta))
    # Sector n is sector 0 traversed backwards (see renorm.normalize).
    v = _upper(_apply(reflection(m, n, 0 if b0 == n else b0), v))
    branches, _, bad = zip(*_orbit(m, n, v, EPS_DYN, 2 * k))
    if any(bad):
        raise BoundaryOrbit("orbit within quarantine band of a boundary")
    return Itinerary(b0, tuple(zip(branches[::2], branches[1::2])))


def direction_from_itinerary(m, n, b0, pairs, tol=1e-9):
    """Direction whose itinerary starts with the given data, via nested
    inverse branches.  Every direction with this itinerary prefix lies in
    the final interval, so a returned value is within tol of the true
    direction; if the pairs do not pin the direction down that far the
    stall is reported as NoConvergence instead of a fabricated digit.
    Raises ValueError for a tol that is not finite and above 0, and for
    entries that are no int or out of range."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and above 0, got {tol}")
    pairs = [tuple(p) for p in pairs]
    if not pairs:
        raise ValueError("need at least one branch pair")
    if not isinstance(b0, int):
        raise ValueError(f"b0 {b0!r} is no int")
    if not 0 <= b0 <= 2 * n - 1:
        raise ValueError(f"b0 {b0} out of range 0..{2 * n - 1}")
    table = _inverse_branches(m, n)
    e1 = (math.cos(math.pi / n), math.sin(math.pi / n))
    t0, t1, u0, u1 = 1.0, 0.0, 0.0, 1.0
    for pair in pairs:
        try:
            a, b = pair
        except ValueError:
            raise ValueError(f"branch pair {pair!r} is no pair of ints") from None
        if not (isinstance(a, int) and isinstance(b, int)):
            raise ValueError(f"branch pair ({a!r}, {b!r}) is no pair of ints")
        if not (0 < a < m and 0 < b < n):
            raise ValueError(f"branch pair ({a}, {b}) out of range")
        # _mul by the adjugate, scaled by the largest absolute entry, found
        # as max() finds it, without the call
        p, q, r, s = table[a][b]
        x0, x1 = t0 * p + t1 * r, t0 * q + t1 * s
        y0, y1 = u0 * p + u1 * r, u0 * q + u1 * s
        top = abs(x0)
        if abs(x1) > top:
            top = abs(x1)
        if abs(y0) > top:
            top = abs(y0)
        if abs(y1) > top:
            top = abs(y1)
        t0, t1, u0, u1 = x0 / top, x1 / top, y0 / top, y1 / top
    mat = (t0, t1), (u0, u1)
    lo, hi = sorted((_angle(_apply(mat, (1.0, 0.0))), _angle(_apply(mat, e1))))
    if hi - lo >= tol:
        raise NoConvergence(
            f"interval width {hi - lo:.3e} above tol {tol} "
            f"after {len(pairs)} branch inversions")
    theta = (lo + hi) / 2
    if b0 == 0:
        return theta
    if b0 == n:
        return theta + math.pi
    return (b0 + 1) * math.pi / n - theta
