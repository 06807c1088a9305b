"""Linear trajectories and their cutting sequences."""

import hashlib
import math
import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from bouwmoller import tracer
from bouwmoller.cli import _interior_point
from bouwmoller.diagrams import admissible_in, build_Ti
from bouwmoller.farey import _angle, _apply, gamma
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


def _trace_inputs():
    # nine seeded 2000-crossing traces, then 24 200-crossing traces in
    # directions within 1e-9 to 1e-7 of a side direction, where sides
    # nearly parallel to the ray are entered and left, and a start can lie
    # within rounding of its side (the along-edge rule of tracer.trace)
    rng = random.Random(2015)
    random_set, near_set = [], []
    for m, n in ((2, 4), (4, 7), (7, 3)):
        surf = build_surface(m, n)
        for _ in range(3):
            theta = rng.uniform(0, 2 * math.pi)
            random_set.append((surf, theta, rng.choice(surf.labels), 2000))
    for m, n in ((2, 4), (4, 7), (7, 3)):
        surf = build_surface(m, n)
        for eps in (1e-7, 1e-9):
            for j in (1, 3):
                for label in (1, 2):
                    near_set.append((surf, j * math.pi / n + eps, label, 200))
    return random_set, near_set


def _trace_digest(inputs, crossing_key):
    digest = hashlib.sha256()
    for surf, theta, label, crossings in inputs:
        try:
            word = trace(surf, start_through(surf, label, theta), theta,
                         crossings)
        except VertexHit:
            digest.update(b"VertexHit")
            continue
        for c in word.crossings:
            digest.update(repr(crossing_key(c)).encode())
    return digest.hexdigest()


def test_trace_is_bit_exact():
    # every crossing's label and polygon, or the fact of a VertexHit
    random_set, near_set = _trace_inputs()
    key = lambda c: (c.label, c.polygon)
    assert _trace_digest(random_set, key) == (
        "edc05ba76676b17ebcccbf1baf5b9b7822acde0480b815a008cef7aa9be20a68")
    assert _trace_digest(near_set, key) == (
        "ce1193840c70543288f4d04e2f299fee07901d5e20a2a0321b75ef9dda686285")


def test_trace_points_are_bit_exact():
    # every crossing's point, rebuilt from its exit row and h, and its ray
    # parameter, summed from d . (q - entry), to the last bit
    random_set, near_set = _trace_inputs()
    key = lambda c: (repr(c.point), repr(c.t))
    assert _trace_digest(random_set, key) == (
        "841cb4dfcd404b3fb1cf2c9b8b1842f83ee02ebcb3d6d7114051c65c1bcc9920")
    assert _trace_digest(near_set, key) == (
        "1e54aeaed770284f70555bde45308eb412ee5fbdeb513ce59b7491bc1c5a74c1")


def test_start_through_decisions_are_bit_exact():
    # the first 30 labels traced through every side of the six small
    # surfaces, or the fact of a VertexHit, at the directions j*pi/(2n),
    # where sides are parallel to the ray, and at offsets from them
    digest = hashlib.sha256()
    for m, n in ((3, 4), (4, 3), (3, 5), (5, 3), (4, 5), (5, 4)):
        surf = build_surface(m, n)
        for j in range(4 * n):
            for offset in (0.0, 1e-13, -1e-13, 1e-10, -1e-10, 1e-7, -1e-7,
                           1e-3):
                theta = j * math.pi / (2 * n) + offset
                for label in surf.labels:
                    try:
                        word = trace(surf, start_through(surf, label, theta),
                                     theta, 30).labels
                    except VertexHit:
                        word = "VertexHit"
                    digest.update(repr(word).encode())
    assert digest.hexdigest() == (
        "7a76824438e2433afcd108855a6bc74ed9a056a59c99969b3a397139d35eadc1")


def test_vertex_decisions_near_side_directions_are_bit_exact():
    # the first 20 labels through every side of 2 <= m <= 7, 3 <= n <= 6,
    # or the VertexHit message, within 1e-9 and 1e-11 of the directions
    # j*pi/(2n), where trajectories pass within rounding of EPS_GEO from
    # vertices; a guard deciding these without the exact test changes 9
    digest = hashlib.sha256()
    for m in range(2, 8):
        for n in range(3, 7):
            surf = build_surface(m, n)
            for j in range(4 * n):
                for offset in (1e-9, -1e-9, 1e-11, -1e-11):
                    theta = j * math.pi / (2 * n) + offset
                    for label in surf.labels:
                        try:
                            out = trace(surf,
                                        start_through(surf, label, theta),
                                        theta, 20).labels
                        except VertexHit as e:
                            out = str(e)
                        digest.update(repr(out).encode())
    assert digest.hexdigest() == (
        "23ad1daed4159fdad5c817ac6be43f26d874fafc4d60ab19e444031198679971")


@pytest.mark.parametrize("pin", [
    test_trace_is_bit_exact, test_trace_points_are_bit_exact,
    test_start_through_decisions_are_bit_exact,
    test_vertex_decisions_near_side_directions_are_bit_exact],
    ids=lambda pin: pin.__name__[5:])
def test_block_steps_keep_the_digests(monkeypatch, pin):
    # the four pins above with eight crossings per bisection in every trace,
    # single steps near vertices and in the tail; at the default BLOCK_MIN
    # only the 2000-crossing traces take blocks
    monkeypatch.setattr(tracer, "BLOCK_MIN", 0)
    pin()


def test_block_threshold_and_tails_keep_the_labels(monkeypatch):
    # windows of BLOCK_MIN - 1 to BLOCK_MIN + 8 crossings, below the
    # threshold and at every tail 0..7, against single steps only
    rng = random.Random(1975)
    cases = []
    for m, n in ((2, 4), (4, 7), (7, 3)):
        surf = build_surface(m, n)
        for _ in range(2):
            theta = rng.uniform(0, 2 * math.pi)
            cases.append((surf, start_through(surf, rng.choice(surf.labels),
                                              theta), theta))
    windows = range(tracer.BLOCK_MIN - 1, tracer.BLOCK_MIN + 9)
    got = [trace(*case, w).labels for case in cases for w in windows]
    monkeypatch.setattr(tracer, "BLOCK_MIN", math.inf)
    assert got == [trace(*case, w).labels for case in cases for w in windows]


def test_block_steps_add_the_shifts_one_by_one(monkeypatch):
    # the polygon and h that the block loop hands to _walk for the tail are
    # those of as many single steps, to the last bit; labels alone rarely
    # show an h that is off by an ulp
    walk, tails = tracer._walk, []

    def spy(tables, k, h, count, labels):
        tails.append((k, h, count))
        return walk(tables, k, h, count, labels)

    monkeypatch.setattr(tracer, "_walk", spy)
    monkeypatch.setattr(tracer, "BLOCK_MIN", 0)
    rng = random.Random(1979)
    for m, n in ((2, 4), (4, 7), (7, 3)):
        surf = build_surface(m, n)
        theta = rng.uniform(0, 2 * math.pi)
        k0, (px, py) = start = start_through(surf, rng.choice(surf.labels),
                                             theta)
        dx, dy = d = math.cos(theta), math.sin(theta)
        trace(surf, start, theta, 2005)
        k, h, count = tails[-1]
        tables, _ = tracer._exit_tables(surf, d)
        assert count == 5
        assert walk(tables, k0, dx * py - dy * px, 2000, []) == (k, h)


def _block_endpoint_misses():
    # both ends of every 8-crossing block interval, single-stepped eight
    # times by the guard lists alone, against the block: labels, polygon
    # entered and h; fl(h + s) is monotone in h, so the ends decide the
    # whole interval.  Also how many pieces the end check of _square rejects
    rng = random.Random(1982)
    misses = checked = rejected = 0
    for m in range(2, 8):
        for n in range(3, 7):
            surf = build_surface(m, n)
            thetas = [rng.uniform(0, 2 * math.pi) for _ in range(3)]
            thetas += [j * math.pi / (2 * n) + eps for j in range(4 * n)
                       for eps in (1e-9, -1e-9)]
            for theta in thetas:
                tables, _ = tracer._exit_tables(
                    surf, (math.cos(theta), math.sin(theta)))
                blocks = [(guards, [step and ((step[0],), step[1],
                                              (step[2],)) for step in steps])
                          for guards, steps, _ in tables]
                for _ in range(3):
                    blocks, count = tracer._square(blocks)
                    rejected += count
                for k, (guards, steps) in enumerate(blocks):
                    misses += guards != sorted(guards)  # bisect needs it
                    for a, b, (run, k3, shifts) in zip(
                            guards[::2], guards[1::2], steps[1::2]):
                        for h in (a, math.nextafter(b, -math.inf)):
                            walked, k2, h2 = [], k, h
                            for _ in range(8):
                                guards1, steps1, _ = tables[k2]
                                step = steps1[bisect_right(guards1, h2)]
                                if step is None:
                                    break
                                label, k2, shift = step
                                walked.append(label)
                                h2 += shift
                            want = h
                            for shift in shifts:
                                want += shift
                            checked += 1
                            misses += (walked, k2, h2) != (list(run), k3,
                                                           want)
    return misses, checked, rejected


def test_block_intervals_are_sure_at_both_ends(monkeypatch):
    misses, checked, rejected = _block_endpoint_misses()
    assert misses == 0 and rejected == 0 and checked > 100000
    # negative control: without the shrink the end check rejects 13 235
    # pieces (1 and 2 ulps: 1 611 and 29), and what it keeps is still sure
    monkeypatch.setattr(tracer, "BLOCK_ULPS", 0)
    misses, _, rejected = _block_endpoint_misses()
    assert misses == 0 and rejected > 1000


def _piece_count_misses(drop_one=False):
    # pieces of the block tables of L = 1, 2, 4 and 8 crossings against the
    # law (mn - m - n) L + m, on 20 seeded directions of each of nine
    # surfaces, with every piece that the end check of _square rejects;
    # drop_one removes the first piece of polygon 0 from each L = 1 table
    rng = random.Random(2010)
    misses = checked = rejected = 0
    for m, n in ((3, 4), (4, 3), (3, 5), (5, 3), (4, 5), (5, 4), (3, 7),
                 (4, 7), (7, 3)):
        surf = build_surface(m, n)
        for _ in range(20):
            theta = rng.uniform(0, 2 * math.pi)
            tables, _ = tracer._exit_tables(
                surf, (math.cos(theta), math.sin(theta)))
            blocks = [(guards, [step and ((step[0],), step[1], (step[2],))
                                for step in steps])
                      for guards, steps, _ in tables]
            if drop_one:
                guards, steps = blocks[0]
                blocks[0] = guards[2:], steps[:1] + steps[3:]
            for length in (1, 2, 4, 8):
                if length > 1:
                    blocks, count = tracer._square(blocks)
                    rejected += count
                pieces = sum(len(guards) // 2 for guards, _ in blocks)
                checked += 1
                misses += pieces != (m * n - m - n) * length + m
    return misses, checked, rejected


def test_block_tables_have_the_piece_count_of_the_law():
    assert _piece_count_misses() == (0, 720, 0)
    # negative control: one piece dropped from each single-step table
    misses, checked, _ = _piece_count_misses(drop_one=True)
    assert misses == checked


def _vertex_threshold_misses():
    # starts 1e-3 behind the point at along-edge distance delta from a
    # vertex that two exit rows share, on either of the two edges: trace
    # must raise VertexHit exactly when delta < EPS_GEO (1e-9)
    misses = []
    for m, n in ((4, 3), (3, 5), (5, 4)):
        surf = build_surface(m, n)
        for theta in (0.3, 1.3, 2.6, 4.4, 5.5):
            dx, dy = math.cos(theta), math.sin(theta)
            tables, _ = tracer._exit_tables(surf, (dx, dy))
            for *_, rows in tables:
                for before, after in zip(rows, rows[1:]):
                    if max(before[2], after[2]) > 1e3:
                        continue
                    vx, vy = before[6][6:8]
                    for row, sign in ((before, -1), (after, 1)):
                        k, _, _, _, ex, ey, *_ = row[6]
                        norm = math.hypot(ex, ey)
                        for factor in (0.999, 1.001, 1.999, 2.001):
                            delta = sign * factor * 1e-9 / norm
                            start = (k, (vx + delta * ex - 1e-3 * dx,
                                         vy + delta * ey - 1e-3 * dy))
                            try:
                                got = trace(surf, start, theta, 1).labels
                            except VertexHit:
                                got = "VertexHit"
                            want = "VertexHit" if factor < 1 else [row[3]]
                            if got != want:
                                misses.append((m, n, theta, k, factor, got))
    return misses


def test_vertex_threshold_is_eps_geo(monkeypatch):
    assert _vertex_threshold_misses() == []
    # negative control: at a threshold of 3e-9 every delta above 1e-9 misses
    monkeypatch.setattr(tracer, "EPS_GEO", 3e-9)
    misses = _vertex_threshold_misses()
    assert {miss[4] for miss in misses} == {1.001, 1.999, 2.001}


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


def test_cylinder_is_bit_exact_on_the_oracles_words():
    # what check_geometric_oracle feeds _cylinder: the derived words of
    # 420-crossing windows, on the dual at their image directions, each
    # also with one letter changed
    digest = hashlib.sha256()
    for m, n in ((3, 4), (4, 3), (3, 5), (5, 3), (4, 5), (5, 4)):
        surf, dual = build_surface(m, n), build_surface(n, m)
        g = gamma(m, n)
        rng = random.Random(f"oracle-words:{m}:{n}")
        for _ in range(30):
            theta = rng.uniform(1e-6, math.pi / n - 1e-6)
            try:
                labels = trace(surf, _interior_point(surf, rng), theta,
                               420).labels
            except VertexHit:
                digest.update(b"VertexHit")
                continue
            word = derive(m, n, labels)
            image = _angle(_apply(g, (math.cos(theta), math.sin(theta))))
            bad = list(word)
            i = rng.randrange(len(bad))
            bad[i] = rng.choice([x for x in dual.labels if x != bad[i]])
            for w in (word, bad):
                digest.update(repr((w, _cylinder(dual, w, image))).encode())
    assert digest.hexdigest() == (
        "ac197575a6def8b621a821c5c364d1d8cd23c32b8ead9a4be9fe19b96b0d113b")


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


def _distance_to_segment(p, a, b):
    ex, ey = b[0] - a[0], b[1] - a[1]
    s = ((p[0] - a[0]) * ex + (p[1] - a[1]) * ey) / (ex * ex + ey * ey)
    s = min(max(s, 0.0), 1.0)
    return math.hypot(p[0] - a[0] - s * ex, p[1] - a[1] - s * ey)


def test_crossings_lie_on_their_sides():
    # one seeded 2000-crossing window on each surface of the trace-long
    # benchmark: every point lies on the seat of its label in the polygon
    # it leaves, and the ray parameter grows
    rng = random.Random(51)
    for m, n in ((3, 4), (4, 3), (3, 5), (5, 3), (4, 5), (5, 4), (3, 7),
                 (4, 7), (7, 3)):
        surf = build_surface(m, n)
        while True:
            theta = rng.uniform(0, 2 * math.pi)
            try:
                word = trace(surf, start_through(surf, rng.choice(surf.labels),
                                                 theta), theta, 2000)
                break
            except VertexHit:
                continue
        assert len(word.crossings) == len(word.labels) == 2000
        last_t = 0.0
        for c in word.crossings:
            assert c.t > last_t
            last_t = c.t
            (k, e), = (s for s in surf.seats(c.label) if s[0] == c.polygon)
            assert _distance_to_segment(c.point, *surf.polygons[k].edge(e)) \
                < 1e-9


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
                (_, e), _ = surf.seats(label)
                theta = (e * math.pi / n) % math.pi + turn
                with pytest.raises(VertexHit):
                    start_through(surf, label, theta)
                assert _cylinder(surf, [label], theta) is None


def test_start_through_rejects_unknown_sides():
    surf = build_surface(4, 3)
    for label in (0, 10, -1):
        with pytest.raises(KeyError):
            start_through(surf, label, 0.35)


_SURF = build_surface(4, 3)
_LAST = start_through(_SURF, 8, 0.35)  # a start in polygon 3, the last


@pytest.mark.parametrize("call, match", [
    (lambda: trace(_SURF, _LAST, math.nan, 10), "direction nan"),
    (lambda: trace(_SURF, _LAST, math.inf, 10), "direction inf"),
    (lambda: start_through(_SURF, 1, math.nan), "direction nan"),
    (lambda: start_through(_SURF, 1, -math.inf), "direction -inf"),
    (lambda: sector_of(math.nan, 3), "direction nan"),
    (lambda: _cylinder(_SURF, [1, 6], math.nan), "direction nan"),
    (lambda: trace(_SURF, (4, _LAST[1]), 0.35, 10), "start polygon 4"),
    (lambda: trace(_SURF, (-1, _LAST[1]), 0.35, 10), "start polygon -1"),
    (lambda: trace(_SURF, _LAST, 0.35, -5), "max_crossings -5 "),
    (lambda: trace(_SURF, _LAST, 0.35, 10.0), "max_crossings 10.0 "),
    (lambda: trace(_SURF, _LAST, 0.35, "10"), "max_crossings '10' "),
    (lambda: sector_of(0.35, 0), "n must be at least 1, got 0"),
    (lambda: sector_of(0.35, -3), "n must be at least 1, got -3"),
    (lambda: sector_of(0.3, 2.5), "n must be an int, got 2.5"),
    (lambda: sector_of(0.3, 3.0), "n must be an int, got 3.0"),
    (lambda: sector_of(0.3, "3"), "n must be an int, got '3'"),
    (lambda: trace(_SURF, (3, (math.nan, 0.5)), 0.35, 10),
     r"start point \(nan, 0.5\) is not finite"),
    (lambda: trace(_SURF, (3, (5.0, -math.inf)), 0.35, 10),
     r"start point \(5.0, -inf\) is not finite"),
    (lambda: trace(_SURF, (0.0, _LAST[1]), 0.35, 10), "start polygon 0.0 "),
], ids=["trace-nan", "trace-inf", "start-nan", "start-inf", "sector-nan",
        "cylinder-nan", "polygon-m", "polygon-minus-1", "window-negative",
        "window-float", "window-str", "sector-n-0", "sector-n-negative",
        "sector-n-float", "sector-n-integral-float", "sector-n-str",
        "start-point-nan", "start-point-inf", "polygon-float"])
def test_bad_trace_input_raises_value_error(call, match):
    # a bad argument is a ValueError, never a VertexHit (which asks the
    # caller to perturb the start and retry) nor a TypeError
    with pytest.raises(ValueError, match=match):
        call()


def test_window_of_zero_crossings_is_empty():
    word = trace(_SURF, _LAST, 0.35, 0)
    assert word.labels == [] and word.crossings == []


def test_crossings_ignore_later_edits_of_the_labels():
    surf = build_surface(4, 3)
    start = start_through(surf, 1, 0.35)
    word = trace(surf, start, 0.35, 5)
    word.labels[2] = 3
    fresh = trace(surf, start, 0.35, 5)
    assert [c.polygon for c in word.crossings] == \
        [c.polygon for c in fresh.crossings]


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


def test_each_chord_starts_where_the_last_one_was_glued_to():
    # trace --svg draws the chords (entry, point)
    surf = build_surface(4, 3)
    start = start_through(surf, 1, 0.35)
    crossings = trace(surf, start, 0.35, 50).crossings
    assert crossings[0].entry == start[1]
    for a, b in zip(crossings, crossings[1:]):
        _, k2, _, sx, sy = next(g for g in surf.glue_table[a.polygon]
                                if g and g[0] == a.label)
        assert b.polygon == k2
        assert b.entry == (a.point[0] + sx, a.point[1] + sy)
        assert surf.polygons[k2].contains(b.entry, tol=1e-9)


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


def test_realize_periodic_is_unchanged():
    # every same-row ordered pair of 2 <= m <= 8, 3 <= n <= 8 is realized;
    # the sha256 of (m, n, n1, n2, theta, start, labels) pins direction,
    # start and word bit for bit
    h = hashlib.sha256()
    count = 0
    for m in range(2, 9):
        for n in range(3, 9):
            for r in range(m - 1):
                row = range(r * n + 1, r * n + n + 1)
                for n1 in row:
                    for n2 in row:
                        if n1 == n2:
                            continue
                        theta, start, word = realize_periodic(m, n, n1, n2)
                        key = (m, n, n1, n2, theta, start, list(word.labels))
                        h.update(repr(key).encode() + b"\n")
                        count += 1
    assert count == 4648
    assert h.hexdigest() == ("31806fe789aa1eaba7d60516bfe45fdf"
                             "df31c854cb552c5bc9c35f550bd27860")


def test_periodic_pair_requires_adjacency():
    with pytest.raises(NotCoAdjacent):
        realize_periodic(4, 3, 1, 5)


def test_periodic_pair_rejects_labels_outside_the_surface():
    # labels outside 1..9 of M(4,3) are no sides, not a pair in one row
    for n1, n2 in ((10, 11), (0, -1)):
        with pytest.raises(KeyError):
            realize_periodic(4, 3, n1, n2)


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
    assert list(word) == word.labels
    assert len(word.crossings) == 25
