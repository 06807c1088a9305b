"""Hooper diagrams, cylinder data, and the orthogonal presentation, which
traces straight lines across the diagram's basic rectangles as an oracle
for derivation."""

import math
import random

import pytest

from bouwmoller.diagrams import admissible_in, build_D0
from bouwmoller.hooper import (HooperDiagram, build_hooper, heights, is_white,
                               moduli, widths)
from bouwmoller.renorm import derive


class MalformedDiagram(Exception):
    """Structural inconsistency in a Hooper diagram traversal."""


class CylinderWalk(HooperDiagram):
    """The Hooper diagram with the orbit permutations of its cylinders."""

    def white_end(self, e):
        a, b = self.endpoints(e)
        return a if is_white(a) else b

    def black_end(self, e):
        a, b = self.endpoints(e)
        return b if is_white(a) else a

    def star(self, node):
        """Incident edges in the cyclic order down, right, up, left."""
        i, j = node
        cand = [("V", i + 1, j), ("H", i, j + 1), ("V", i, j), ("H", i, j)]

        def exists(e):
            kind, a, b = e
            if kind == "H":
                return 0 <= a <= self.m and 1 <= b <= self.n
            return 1 <= a <= self.m and 0 <= b <= self.n

        return [e for e in cand if exists(e)]

    def _step(self, e, node, forward):
        ring = self.star(node)
        k = ring.index(e)
        return ring[(k + (1 if forward else -1)) % len(ring)]

    def east(self, e):
        """Next edge east of e within its horizontal cylinder."""
        w = self.white_end(e)
        return self._step(e, w, forward=w[0] % 2 == 1)

    def north(self, e):
        """Next edge north of e within its transverse cylinder."""
        b = self.black_end(e)
        return self._step(e, b, forward=b[1] % 2 == 1)


class OrthogonalPresentation:
    """Straight-line tracing across the basic rectangles.

    A state is (edge, x, y) with (x, y) in the box rect[edge].  Positive-slope
    motion exits east into east(edge) or north into north(edge); degenerate
    boxes are crossed instantaneously.  Each traversal of a box crosses its
    side diagonal once; a traversal of a V box also crosses the dual side
    diagonal when the corner-to-corner test changes sign.
    The dual labels recorded between the first and last side records are
    the derivative of the side word, so this presentation checks
    `renorm.derive` without the polygon tracer or `diagrams.build_D0`.
    """

    def __init__(self, m, n):
        self.m = m
        self.n = n
        self.g = CylinderWalk(m, n)
        w = widths(m, n)
        self.rect = {e: (w[self.g.black_end(e)], w[self.g.white_end(e)])
                     for e in self.g.edges() if not self.g.is_completely_degenerate(e)}
        self.east_north = {e: (self.g.east(e), self.g.north(e)) for e in self.rect}

    def trace(self, edge, x, y, slope, steps):
        """Crossing records ('side'|'dual', label) for `steps` rectangles."""
        out = []
        for _ in range(steps):
            w, h = self.rect[edge]
            if w == 0:
                exit_east, x1, y1 = True, 0.0, y
            elif h == 0:
                exit_east, x1, y1 = False, x, 0.0
            else:
                y_east = y + slope * (w - x)
                if y_east <= h:
                    exit_east, x1, y1 = True, w, y_east
                else:
                    exit_east, x1, y1 = False, x + (h - y) / slope, h
            self._record(edge, x, y, x1, y1, out)
            east, north = self.east_north[edge]
            if exit_east:
                edge, x, y = east, 0.0, y1
            else:
                edge, x, y = north, x1, 0.0
            if edge not in self.rect:
                raise MalformedDiagram(f"trace left the rectangles at {edge}")
        return out

    def _record(self, edge, x0, y0, x1, y1, out):
        lab = self.g.label(edge)
        if lab is None:
            return
        if edge[0] == "H":
            out.append(("side", lab))
            return
        w, h = self.rect[edge]
        if w == 0 or h == 0:
            out.append(("dual", lab))
            return
        g0 = y0 * w - x0 * h
        g1 = y1 * w - x1 * h
        if g0 >= 0 >= g1 or g0 <= 0 <= g1:
            out.append(("dual", lab))


SMALL = [(3, 4), (4, 3), (3, 5), (5, 3), (4, 5), (5, 4)]
ORACLE_SURFACES = SMALL + [(4, 4), (3, 6), (2, 5), (6, 4), (5, 7), (7, 3),
                           (3, 7), (2, 3), (8, 5)]


def test_node_colors_alternate():
    g = build_hooper(4, 3)
    for i in range(5):
        for j in range(4):
            assert is_white((i, j)) == ((i + j) % 2 == 0)


def test_every_side_label_appears_once_per_kind():
    for m, n in SMALL:
        g = build_hooper(m, n)
        h_labels = sorted(g.label(e) for e in g.h_edges if g.label(e) is not None)
        v_labels = sorted(g.label(e) for e in g.v_edges if g.label(e) is not None)
        assert h_labels == list(range(1, n * (m - 1) + 1))
        assert v_labels == list(range(1, m * (n - 1) + 1))


def test_widths_formula_and_boundary_zeros():
    w = widths(4, 3)
    for i in range(5):
        for j in range(4):
            want = math.sin(i * math.pi / 4) * math.sin(j * math.pi / 3)
            assert abs(w[(i, j)] - want) < 1e-12
    assert all(w[(0, j)] == 0 for j in range(4))
    assert all(w[(i, 0)] == 0 for i in range(5))


def test_heights_sum_neighbors():
    w, h = widths(4, 3), heights(4, 3)
    for (i, j), val in h.items():
        want = w[(i - 1, j)] + w[(i + 1, j)] + w[(i, j - 1)] + w[(i, j + 1)]
        assert abs(val - want) < 1e-12


def test_moduli_constant_and_closed_form():
    for m, n in SMALL:
        vals = sorted(moduli(m, n).values())
        assert vals[-1] - vals[0] < 1e-9
        closed = 2 / math.tan(math.pi / n) + \
            2 * math.cos(math.pi / m) / math.sin(math.pi / n)
        assert abs(vals[0] - closed) < 1e-9


def test_orbit_steps_stay_in_the_diagram():
    g = CylinderWalk(4, 3)
    for e in g.edges():
        if g.is_completely_degenerate(e):
            continue
        for step in (g.east, g.north):
            cur = e
            for _ in range(16):
                cur = step(cur)
            assert cur in g.edges()


def _orthogonal_windows(m, n, windows=40, rectangles=1000):
    """Seeded orthogonal-presentation traces: one window per slope stratum
    of [0.02, pi/2 - 0.02] in shuffled order, starting at a random point of
    the non-degenerate boxes in turn."""
    op = OrthogonalPresentation(m, n)
    rng = random.Random(f"orthogonal:{m}:{n}")
    starts = sorted(e for e, (w, h) in op.rect.items() if w > 0 and h > 0)
    strata = list(range(windows))
    rng.shuffle(strata)
    lo, hi = 0.02, math.pi / 2 - 0.02
    for k, stratum in enumerate(strata):
        edge = starts[k % len(starts)]
        w, h = op.rect[edge]
        angle = lo + (hi - lo) * (stratum + rng.random()) / windows
        yield op.trace(edge, rng.uniform(0, w), rng.uniform(0, h),
                       math.tan(angle), rectangles)


def _side_transitions(records, between):
    """Add each side-to-side transition of a trace to `between`, with the
    dual label crossed between its two sides (None if none); return the
    positions of the side records."""
    sides = [t for t, (kind, _) in enumerate(records) if kind == "side"]
    for s, t in zip(sides, sides[1:]):
        crossed = [lab for _, lab in records[s + 1:t]]
        assert len(crossed) <= 1
        between.setdefault((records[s][1], records[t][1]), set()).add(
            crossed[0] if crossed else None)
    return sides


def test_derivation_arrows_match_the_transition_diagram():
    for m, n in ((4, 3), (3, 4)):
        between = {}
        for records in _orthogonal_windows(m, n):
            _side_transitions(records, between)
        d0 = build_D0(m, n)
        assert set(between) == set(d0.arrows)
        for a, labels in between.items():
            assert labels == {d0.arrow_labels.get(a)}


def test_orthogonal_presentation_traces_admissible_words():
    op = OrthogonalPresentation(4, 3)
    start = ("H", 1, 1)
    records = op.trace(start, 0.01, 0.0, 0.83, 60)
    word = [lab for kind, lab in records if kind == "side"]
    assert len(word) > 10
    assert 0 in admissible_in(4, 3, word)


def test_orthogonal_presentation_interleaves_side_and_dual_labels():
    op = OrthogonalPresentation(4, 3)
    records = op.trace(("H", 1, 1), 0.02, 0.0, 1.27, 80)
    kinds = [kind for kind, _ in records]
    assert {"side", "dual"} == set(kinds)
    # two sides of the same cylinder are always separated by one dual side
    for prev, cur in zip(records, records[1:]):
        assert not (prev[0] == "dual" and cur[0] == "dual")


@pytest.mark.parametrize("m,n", ORACLE_SURFACES)
def test_orthogonal_presentation_is_an_oracle_for_derivation(m, n):
    """The orthogonal presentation crosses dual sides where derivation
    puts them: (a) the dual records between the first and last side
    records are derive() of the side word, and (b) the observed side
    transitions, each with the dual label crossed between its two sides,
    are exactly the arrows of D_0 with their labels."""
    between = {}
    for records in _orthogonal_windows(m, n):
        sides = _side_transitions(records, between)
        word = [records[t][1] for t in sides]
        duals = [lab for kind, lab in records[sides[0]:sides[-1]]
                 if kind == "dual"]
        assert derive(m, n, word) == duals
    d0 = build_D0(m, n)
    assert between == {x: {d0.arrow_labels.get(x)} for x in d0.arrows}
