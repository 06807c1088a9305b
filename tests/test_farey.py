"""Contracted sector maps, branch structure, and direction recognition."""

import hashlib
import math
import random
from fractions import Fraction

import pytest

from bouwmoller.farey import (BoundaryOrbit, NoConvergence, _adj, _apply,
                              _branch_matrix, _mul, _orbit,
                              direction_from_itinerary,
                              farey_F, farey_FF, ff_branches, gamma, itinerary,
                              reflection, subsectors)

SMALL = [(3, 4), (4, 3), (3, 5), (5, 3), (4, 5), (5, 4)]

GAMMA_43 = ((-1.106681919700322, 1.542545107856117),
            (0.0, 0.903602003609845))
IDENTITY = ((1, 0), (0, 1))


# Reference 2x2 arithmetic: exact, on the rationals the doubles stand for.
def _exact(a):
    return [[Fraction(x) for x in row] for row in a]


def _times(a, v):
    x, y = map(Fraction, v)
    return [Fraction(p) * x + Fraction(q) * y for p, q in a]


def _product(a, b):
    columns = [_times(a, col) for col in zip(*b)]
    return [list(row) for row in zip(*columns)]


def _det(a):
    (p, q), (r, s) = _exact(a)
    return p * s - q * r


def _deviation(a, b):
    """Largest entry of |a - b|, exactly, for two matrices or two vectors."""
    if isinstance(a[0], (list, tuple)):
        return max(map(_deviation, a, b))
    return max(abs(Fraction(x) - Fraction(y)) for x, y in zip(a, b))


def test_gamma_regression():
    assert _deviation(gamma(4, 3), GAMMA_43) < 1e-12


def test_gamma_reverses_orientation_and_keeps_area():
    for m, n in SMALL:
        assert abs(_det(gamma(m, n)) + 1) < 1e-12


def test_gamma_sends_sector_boundaries_to_dual_boundaries():
    for m, n in SMALL:
        g = gamma(m, n)
        v0 = [float(x) for x in _times(g, (1.0, 0.0))]
        v1 = [float(x) for x in _times(g, (math.cos(math.pi / n),
                                            math.sin(math.pi / n)))]
        ang0 = math.atan2(v0[1], v0[0]) % math.pi
        ang1 = math.atan2(v1[1], v1[0]) % math.pi
        assert min(ang0, math.pi - ang0) < 1e-9 or abs(ang0 - math.pi / m) < 1e-9
        assert min(ang1, math.pi - ang1) < 1e-9 or abs(ang1 - math.pi / m) < 1e-9


def test_reflection_matrices_for_n3():
    r3 = math.sqrt(3)
    want = [IDENTITY, ((-0.5, r3 / 2), (r3 / 2, 0.5)), ((-1, 0), (0, 1))]
    for i, mat in enumerate(want):
        assert _deviation(reflection(4, 3, i), mat) < 1e-12


def test_reflections_are_involutions():
    for m, n in SMALL:
        for i in range(2 * n):
            rho = reflection(m, n, i)
            assert _deviation(_product(rho, rho), IDENTITY) < 1e-12


def test_sector_map_regression():
    branch, image = farey_F(4, 3, math.pi / 8)
    assert branch == 3
    assert abs(image - 0.674862366396710) < 1e-12
    pair, image2 = farey_FF(4, 3, math.pi / 8)
    assert pair == (3, 1)
    assert abs(image2 - 0.881036298635568) < 1e-12


def test_subsectors_tile_the_standard_sector():
    for m, n in SMALL:
        tiles = subsectors(m, n)
        assert len(tiles) == m - 1
        # subsector 1 is the top interval, subsector m-1 touches zero, and
        # both end exactly on the bounds of the standard sector
        assert tiles[0][1] == math.pi / n
        assert tiles[-1][0] == 0.0
        ends = sorted(x for lo, hi in tiles for x in (lo, hi))
        assert ends[0] == 0.0
        assert ends[-1] == math.pi / n
        for a, b in zip(ends[1:-1:2], ends[2:-1:2]):
            assert abs(a - b) < 1e-9


def test_branch_intervals_tile_and_pin_parabolic_points():
    for (m, n), at_zero in (((4, 3), (3, 2)), ((3, 4), (2, 3))):
        branches = ff_branches(m, n)
        assert set(branches) == {(a, b) for a in range(1, m)
                                 for b in range(1, n)}
        ends = sorted((lo, hi) for lo, hi, _ in branches.values())
        assert ends[0][0] == 0.0
        assert ends[-1][1] == math.pi / n
        for (_, hi), (lo, _) in zip(ends, ends[1:]):
            assert abs(hi - lo) < 1e-9
        lo0, hi0, _ = branches[at_zero]
        assert lo0 == 0.0
        lo1, hi1, _ = branches[(1, 1)]
        assert hi1 == math.pi / n


def test_itinerary_regression():
    itin = itinerary(4, 3, 13 * math.pi / 180, 8)
    assert itin.b0 == 0
    assert itin.pairs == ((3, 2), (2, 1), (1, 2), (1, 1),
                          (3, 2), (2, 2), (2, 2), (3, 2))
    assert itin.flatten() == [0, 3, 2, 2, 1, 1, 2, 1, 1, 3, 2, 2, 2, 2, 2, 3, 2]


def test_itinerary_quarantines_boundaries():
    with pytest.raises(BoundaryOrbit):
        itinerary(4, 3, math.pi / 3, 4)


def test_itinerary_rejects_directions_that_are_not_finite():
    for theta in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"direction {theta}"):
            itinerary(4, 3, theta, 5)


def test_constant_itinerary_recovers_the_eigendirection():
    # iterating inverse branches contracts onto the branch matrix's
    # contracting eigenvector
    mat = _branch_matrix(4, 3, 2, 2)
    assert abs(_det(mat) - 1) < 1e-9
    # with determinant 1 the eigenvalues are 1/lam and lam, where lam has
    # the sign of the trace; (b, 1/lam - a) is the eigenvector of 1/lam
    (a, b), (_, d) = mat
    tr = a + d
    assert abs(tr) > 2  # hyperbolic: two real eigendirections
    lam = (tr + math.copysign(math.sqrt(tr * tr - 4), tr)) / 2
    want = math.atan2(1 / lam - a, b) % math.pi
    got = direction_from_itinerary(4, 3, 0, [(2, 2)] * 25, tol=1e-9)
    assert abs(got - want) < 1e-9
    assert abs(got - 0.487806738579) < 1e-9


def test_direction_recovery_is_certified():
    # spread over all six starting sectors, avoiding parabolic tails
    for theta in (0.13, 0.51, 0.97, 1.9, 2.6, 4.0, 4.6, 5.9):
        itin = itinerary(4, 3, theta, 25)
        got = direction_from_itinerary(4, 3, itin.b0, itin.pairs, tol=1e-6)
        assert abs(got - theta) < 1e-6


def test_direction_recovery_reports_stalls():
    itin = itinerary(4, 3, 0.51, 2)
    with pytest.raises(NoConvergence):
        direction_from_itinerary(4, 3, itin.b0, itin.pairs, tol=1e-9)


def test_direction_recovery_validates_input():
    with pytest.raises(ValueError):
        direction_from_itinerary(4, 3, 0, [])
    with pytest.raises(ValueError):
        direction_from_itinerary(4, 3, 6, [(1, 1)])
    with pytest.raises(ValueError):
        direction_from_itinerary(4, 3, 0, [(4, 1)])
    with pytest.raises(ValueError):
        direction_from_itinerary(4, 3, 0, [(1, 3)])


@pytest.mark.parametrize("call, message", [
    (lambda: direction_from_itinerary(4, 3, 0, [(2, 2)] * 25, tol=math.nan),
     "tol must be finite and above 0, got nan"),
    (lambda: direction_from_itinerary(4, 3, 0, [(2, 2)] * 25, tol=-1),
     "tol must be finite and above 0, got -1"),
    (lambda: direction_from_itinerary(4, 3, 0.5, [(2, 2)] * 25),
     "b0 0.5 is no int"),
    (lambda: direction_from_itinerary(4, 3, 0, [(1.5, 1)] * 25),
     r"branch pair \(1.5, 1\) is no pair of ints"),
    (lambda: direction_from_itinerary(4, 3, 0, [[1, 1, 1]], tol=1e-6),
     r"branch pair \(1, 1, 1\) is no pair of ints"),
    (lambda: direction_from_itinerary(4, 3, 0, [(1,)], tol=1e-6),
     r"branch pair \(1,\) is no pair of ints"),
    (lambda: itinerary(4, 3, 0.3, 2.5), "need an int k >= 1, got 2.5"),
], ids=["tol-nan", "tol-negative", "b0-float", "pair-float", "pair-triple",
        "pair-single", "depth-float"])
def test_bad_numeric_arguments_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_recognition_is_bit_exact():
    # itinerary and recovered direction, to the last bit, or the class of
    # the exception, for seeded directions on eight surfaces
    digest = hashlib.sha256()
    rng = random.Random(1613)
    for m, n in SMALL + [(3, 7), (7, 3)]:
        for _ in range(200):
            theta = rng.uniform(0, 2 * math.pi)
            try:
                itin = itinerary(m, n, theta, 25)
                out = (itin, direction_from_itinerary(m, n, itin.b0, itin.pairs,
                                                      tol=1e-6))
            except (BoundaryOrbit, NoConvergence) as exc:
                out = type(exc).__name__
            digest.update(repr(out).encode())
    assert digest.hexdigest() == (
        "936e19eef5cceb5dd36bb454cfbf07b4919732166325f782b1957fe21ba24433")


def test_farey_steps_are_bit_exact():
    # itinerary(..., 25), the recovered direction and the first 60 steps of
    # _orbit, to the last bit, for seeded directions on every surface with
    # 3 <= m, n <= 7
    digest = hashlib.sha256()
    rng = random.Random(3301)
    for m in range(3, 8):
        for n in range(3, 8):
            for _ in range(20):
                theta = rng.uniform(0, 2 * math.pi)
                try:
                    itin = itinerary(m, n, theta, 25)
                    out = (itin, direction_from_itinerary(
                        m, n, itin.b0, itin.pairs, tol=1e-6))
                except (BoundaryOrbit, NoConvergence) as exc:
                    out = type(exc).__name__
                digest.update(repr(out).encode())
                theta = rng.uniform(0, math.pi / n)
                v = (math.cos(theta), math.sin(theta))
                for step in _orbit(m, n, v, 1e-12, 60):
                    digest.update(repr(step).encode())
    assert digest.hexdigest() == (
        "0eccecf81bb3161487f44e8caab2a4c3985ba35a4d6cc33ebadc2b7a16e18daf")


def test_farey_maps_are_bit_exact():
    # farey_F and farey_FF at tol 0, to the last bit, for seeded directions
    # in the standard sector and for every subsector and branch endpoint
    # together with its two floating-point neighbours; on (6,5) an endpoint
    # tells psi // step from floor(psi / step)
    digest = hashlib.sha256()
    rng = random.Random(2718)
    for m, n in SMALL + [(3, 7), (7, 3), (6, 5)]:
        thetas = [rng.uniform(0, math.pi / n) for _ in range(200)]
        ends = [x for lo, hi in subsectors(m, n) for x in (lo, hi)]
        ends += [x for lo, hi, _ in ff_branches(m, n).values() for x in (lo, hi)]
        for x in ends:
            thetas += [math.nextafter(x, -math.inf), x,
                       math.nextafter(x, math.inf)]
        for theta in thetas:
            for fn in (farey_F, farey_FF):
                digest.update(repr(fn(m, n, theta)).encode())
    assert digest.hexdigest() == (
        "4f97ea69f68469edb68ce5c59062193acd68e103a10789819f2eb6eea6800c45")


def test_cached_matrices_do_not_alias_the_public_ones():
    # the cached matrices are the public ones, so they must be immutable
    theta = 13 * math.pi / 180
    before = itinerary(4, 3, theta, 10)
    _, _, mat = ff_branches(4, 3)[(1, 1)]
    for public in (gamma(4, 3), reflection(4, 3, 1), mat):
        with pytest.raises(TypeError):
            public[0] = (0.0, 0.0)
        with pytest.raises(TypeError):
            public[0][0] = 0.0
    assert itinerary(4, 3, theta, 10) == before
    assert abs(direction_from_itinerary(4, 3, 0, before.pairs, tol=1e-3)
               - theta) < 1e-3


def test_matrix_arithmetic_matches_exact_fractions():
    # exact rational arithmetic is the reference for the 2x2 products and
    # images; the adjugate only moves and negates entries, so it is exact
    v = (math.cos(0.3), math.sin(0.3))
    for m, n in SMALL + [(3, 7), (7, 3)]:
        mats = [_branch_matrix(m, n, a, b)
                for a in range(1, m) for b in range(1, n)]
        for a, b in zip(mats, mats[1:] + mats[:1]):
            assert _deviation(_mul(a, b), _product(a, b)) < 1e-12
            assert _deviation(_apply(a, v), _times(a, v)) < 1e-12
            (p, q), (r, s) = _exact(a)
            assert _exact(_adj(a)) == [[s, -q], [-r, p]]
