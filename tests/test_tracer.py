"""Linear trajectories and their cutting sequences."""

import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from bouwmoller.diagrams import admissible_in, build_Ti
from bouwmoller.renorm import derive, fixed_point_form, normalize
from bouwmoller.surface import build_surface
from bouwmoller.tracer import (NotCoAdjacent, VertexHit, _cylinder,
                               realize_periodic, sector_of, start_through,
                               trace)


def test_sector_of():
    assert sector_of(0.1, 3) == (0, False)
    assert sector_of(math.pi / 3, 3) == (0, True)
    assert sector_of(math.pi / 3 + 0.05, 3) == (1, False)
    assert sector_of(2 * math.pi - 0.1, 3) == (5, False)
    assert sector_of(0.1 + 2 * math.pi, 3) == (0, False)


def test_trace_regression():
    surf = build_surface(4, 3)
    start = start_through(surf, 1, math.pi / 8)
    word = trace(surf, start, math.pi / 8, 12)
    assert list(word.labels) == [1, 6, 7, 8, 5, 2, 1, 6, 7, 8, 5, 4]


def _crossings_digest(digest, surf, theta, label, crossings):
    try:
        word = trace(surf, start_through(surf, label, theta), theta, crossings)
    except VertexHit as exc:
        digest.update(f"VertexHit {exc}".encode())
        return
    for c in word.crossings:
        digest.update(repr((c.label, c.polygon, repr(c.point),
                            repr(c.t))).encode())


def test_trace_is_bit_exact():
    # every crossing's label, polygon, point and ray parameter, to the last
    # bit, on nine seeded 2000-crossing traces
    digest = hashlib.sha256()
    rng = random.Random(2015)
    for m, n in ((2, 4), (4, 7), (7, 3)):
        surf = build_surface(m, n)
        for _ in range(3):
            theta = rng.uniform(0, 2 * math.pi)
            _crossings_digest(digest, surf, theta, rng.choice(surf.labels),
                              2000)
    assert digest.hexdigest() == (
        "8a950031eec593e8ee291159b2a65bcbf1dcd2e64d540add465d51de01d63257")
    # directions within 1e-9 to 1e-7 of a side direction, where sides
    # nearly parallel to the ray are entered and left, and a start can lie
    # within rounding of its side (the along-edge rule of tracer.trace)
    digest = hashlib.sha256()
    for m, n in ((2, 4), (4, 7), (7, 3)):
        surf = build_surface(m, n)
        for eps in (1e-7, 1e-9):
            for j in (1, 3):
                for label in (1, 2):
                    _crossings_digest(digest, surf, j * math.pi / n + eps,
                                      label, 200)
    assert digest.hexdigest() == (
        "651f40fd4ac1794b2f3a1ad1b860128965e77ca64da406b43dc4054c5e880f2a")


def test_surface_json_is_unchanged():
    # pins the vertices, the zigzag labelling and the gluing of 90 surfaces
    digest = hashlib.sha256()
    for m in range(2, 12):
        for n in range(3, 12):
            digest.update(build_surface(m, n).to_json().encode())
    assert digest.hexdigest() == (
        "5a3e0d7050ab50689341ba35e88b19bcedda80c153dc0fd078e7a23949cdeb8b")


def test_trace_rejects_starts_outside_their_polygon():
    # behind the polygon along the direction, beyond the side the start
    # would leave by, and beside the polygon, where no ray along the
    # direction meets it
    rng = random.Random(1011)
    for m, n in ((4, 3), (3, 5), (4, 7)):
        surf = build_surface(m, n)
        for _ in range(20):
            theta = rng.uniform(0, 2 * math.pi)
            dx, dy = math.cos(theta), math.sin(theta)
            k, (px, py) = start_through(surf, rng.choice(surf.labels), theta)
            vertices = surf.polygons[k].vertices
            cx = sum(x for x, _ in vertices) / len(vertices)
            cy = sum(y for _, y in vertices) / len(vertices)
            r = max(math.hypot(x - cx, y - cy) for x, y in vertices) + 0.1
            for p in ((cx - r * dx, cy - r * dy),
                      (px + 0.01 * dx, py + 0.01 * dy),
                      (cx - r * dy, cy + r * dx)):
                with pytest.raises(VertexHit):
                    trace(surf, (k, p), theta, 10)


def test_cylinder_is_bit_exact():
    # start and width of the cylinder interval, to the last bit, for traced
    # words, about 30 % of them with one letter corrupted, in random
    # directions and at or near the directions j*pi/(2n), where some seats
    # of a word are parallel to the direction
    digest = hashlib.sha256()
    rng = random.Random(2200)
    for m, n in ((4, 3), (3, 5), (4, 7), (7, 3), (4, 4), (2, 6)):
        surf = build_surface(m, n)
        thetas = [rng.uniform(0, 2 * math.pi) for _ in range(250)]
        for j in range(4 * n):
            for offset in (0.0, 1e-13, -1e-13, 1e-8):
                thetas += [j * math.pi / (2 * n) + offset] * 2
        for theta in thetas:
            label, crossings = rng.choice(surf.labels), rng.randint(1, 40)
            try:
                word = trace(surf, start_through(surf, label, theta + 1e-6),
                             theta + 1e-6, crossings).labels
            except VertexHit:
                digest.update(b"VertexHit")
                continue
            if rng.random() < 0.3:
                word[rng.randrange(len(word))] = rng.choice(surf.labels)
            digest.update(repr((word, _cylinder(surf, word, theta))).encode())
    assert digest.hexdigest() == (
        "d1f32b6aeb37be4115fd5ef66cab23e9e02ff6c8c72fef218ddbae19280ae242")


def test_cylinder_interval_witnesses_traced_words():
    rng = random.Random(11)
    for m, n in ((4, 3), (3, 5)):
        surf = build_surface(m, n)
        for _ in range(20):
            theta = rng.uniform(0, 2 * math.pi)
            label = rng.choice(surf.labels)
            try:
                word = trace(surf, start_through(surf, label, theta), theta,
                             60).labels
            except VertexHit:
                continue
            start, width = _cylinder(surf, word, theta)
            assert 0 < width <= 1
            assert trace(surf, start, theta, len(word)).labels == word
            assert _cylinder(surf, word + [word[-1]], theta) is None


def test_crossings_lie_on_their_sides():
    surf = build_surface(4, 3)
    start = start_through(surf, 1, 0.51)
    word = trace(surf, start, 0.51, 40)
    assert len(word.crossings) == len(word.labels) == 40
    last_t = 0.0
    for c in word.crossings:
        assert c.t > last_t
        last_t = c.t
        found = False
        for k, e in surf.seats(c.label):
            a, b = surf.polygons[k].edge(e)
            dx, dy = b[0] - a[0], b[1] - a[1]
            px, py = c.point[0] - a[0], c.point[1] - a[1]
            if abs(dx * py - dy * px) < 1e-9 and \
                    -1e-9 <= (dx * px + dy * py) / (dx * dx + dy * dy) <= 1 + 1e-9:
                found = True
        assert found
        assert c.as_dict()["label"] == c.label


def test_traced_words_are_admissible_in_the_direction_sector():
    rng = random.Random(5)
    for m, n in ((4, 3), (3, 4)):
        surf = build_surface(m, n)
        for _ in range(20):
            theta = rng.uniform(0, 2 * math.pi)
            sec, boundary = sector_of(theta, n, tol=1e-6)
            if boundary:
                continue
            try:
                start = start_through(surf, 1 + rng.randrange(n * (m - 1)), theta)
                word = list(trace(surf, start, theta, 60).labels)
            except VertexHit:
                continue
            assert sec in admissible_in(m, n, word)


def test_start_through_rejects_parallel_directions():
    # along its own side, in either orientation, no trajectory starts
    # through that side or crosses it
    for m, n in ((4, 3), (3, 4)):
        surf = build_surface(m, n)
        for label in surf.labels:
            for turn in (0.0, math.pi):
                theta = surf.sides[label].direction + turn
                with pytest.raises(VertexHit):
                    start_through(surf, label, theta)
                assert _cylinder(surf, [label], theta) is None


def test_start_through_crosses_its_side_first():
    # within 1e-9 of a side's direction a start through it lies within
    # rounding of that side, so the ray grazes the side: that is a
    # VertexHit, never a crossing of a neighbouring side first
    for m, n in ((4, 5), (4, 7), (5, 4)):
        surf = build_surface(m, n)
        for j in range(2 * n):
            for eps in (1e-9, -1e-9):
                theta = j * math.pi / n + eps
                for label in surf.labels:
                    try:
                        word = trace(surf, start_through(surf, label, theta),
                                     theta, 1)
                    except VertexHit:
                        continue
                    assert word.labels == [label]


def test_periodic_pair_realization():
    theta, start, word = realize_periodic(4, 3, 1, 2)
    w = list(word.labels)
    assert set(w[0::2]) == {w[0]} and set(w[1::2]) == {w[1]}
    assert {w[0], w[1]} == {1, 2}
    assert fixed_point_form(w)
    _, u = normalize(4, 3, w)
    image = derive(4, 3, u, cyclic=True)
    assert len(image) == len(w)
    assert fixed_point_form(image)


def _adjacent_pairs(m, n):
    # same-row pairs adjacent in some T_i that has a reflecting normalization
    pairs = set()
    for i in range(n):
        try:
            grid = build_Ti(m, n, i).grid
        except ValueError:
            continue
        for row in grid:
            pairs.update(zip(row, row[1:]))
            pairs.update(zip(row[1:], row))
    return sorted(pairs)


@pytest.mark.parametrize("m, n", [(3, 5), (4, 7), (2, 4), (4, 4), (4, 6)])
def test_every_adjacent_pair_is_realized(m, n):
    pairs = _adjacent_pairs(m, n)
    assert pairs
    for n1, n2 in pairs:
        theta, start, word = realize_periodic(m, n, n1, n2)
        w = list(word.labels)
        assert len(w) == 40
        assert w[0::2] == [n1] * 20 and w[1::2] == [n2] * 20


def test_periodic_pair_requires_adjacency():
    with pytest.raises(NotCoAdjacent):
        realize_periodic(4, 3, 1, 5)


@settings(deadline=None, max_examples=25)
@given(st.floats(min_value=0.01, max_value=math.pi - 0.01),
       st.integers(min_value=1, max_value=9))
def test_window_length_matches_request(theta, label):
    surf = build_surface(4, 3)
    if sector_of(theta, 3, tol=1e-3)[1]:
        return
    try:
        start = start_through(surf, label, theta)
        word = trace(surf, start, theta, 25)
    except VertexHit:
        return
    assert len(word) == 25
    assert len(word.crossings) == 25
