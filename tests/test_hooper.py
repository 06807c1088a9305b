"""Hooper diagrams, cylinder data, and the orthogonal presentation."""

import math
import random

import pytest

from bouwmoller.diagrams import admissible_in, build_D0
from bouwmoller.hooper import (OrthogonalPresentation, build_hooper, heights,
                               is_white, moduli, widths)
from bouwmoller.renorm import derive

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
    g = build_hooper(4, 3)
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
