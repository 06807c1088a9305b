"""Transition diagrams, sector permutations, and the arrow alphabet."""

import hashlib
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from bouwmoller import renorm
from bouwmoller.cli import (GOLDEN_D0_LABELS, GOLDEN_GRIDS, GOLDEN_PERMS,
                            check_substitution_goldens)
from bouwmoller.diagrams import (NotAdmissible, NotChained, admissible_in,
                                 arrow_alphabet, build_D0, build_T0,
                                 build_Ti, sector_permutation, t0_grid)
from bouwmoller.hooper import build_hooper
from bouwmoller.surface import Surface, build_surface
from bouwmoller.tracer import VertexHit, sector_of, start_through, trace

SMALL = [(3, 4), (4, 3), (3, 5), (5, 3), (4, 5), (5, 4)]


def random_walk(m, n, rng, length):
    nxt = {}
    for a, b in build_T0(m, n).arrows:
        nxt.setdefault(a, []).append(b)
    w = [rng.choice(sorted(nxt))]
    while len(w) < length:
        w.append(rng.choice(sorted(nxt[w[-1]])))
    return w


def test_base_grids():
    assert t0_grid(4, 3) == ((1, 2, 3), (6, 5, 4), (7, 8, 9))
    assert t0_grid(3, 4) == ((1, 2, 3, 4), (8, 7, 6, 5))


def test_sector_grids_match_frozen_tables():
    for (m, n), grids in GOLDEN_GRIDS.items():
        for i, grid in grids.items():
            assert build_Ti(m, n, i).grid == grid


def test_sector_out_of_range():
    # a sector n <= i < 2n is sector i - n read backwards, so neither the
    # diagram nor the permutation, nor the operators, take it
    calls = [(build_Ti, ()), (sector_permutation, ()),
             (renorm.tr_operator, (["r1"],)),
             (renorm.tr_operator_inverse, ([1, 2],))]
    for fn, rest in calls:
        for i in (3, 5, -1):
            with pytest.raises(ValueError,
                               match=rf"^sector {i} out of range 0\.\.2$"):
                fn(4, 3, i, *rest)
        if rest:
            fn(4, 3, 2, *rest)  # sector n - 1 is in range


def test_sector_permutations_match_frozen_tables():
    for (m, n), perms in GOLDEN_PERMS.items():
        for i, table in perms.items():
            perm = sector_permutation(m, n, i)
            assert tuple(perm[k] for k in range(1, len(table) + 1)) == table


def test_sector_permutations_are_involutions():
    # the derivation and generation tables use each permutation as its own
    # inverse, so every one that exists must be: 2 007 of them
    found = 0
    for m in range(2, 13):
        for n in range(3, 21):
            labels = list(range(1, n * (m - 1) + 1))
            assert [sector_permutation(m, n, 0)[k] for k in labels] == labels
            for i in range(n):
                try:
                    perm = sector_permutation(m, n, i)
                except ValueError:
                    continue
                assert sorted(perm) == sorted(perm.values()) == labels
                assert [perm[perm[k]] for k in labels] == labels
                found += 1
    assert found == 2007


def test_permuted_grid_rows_are_the_sector_grid():
    for m, n in SMALL:
        base = t0_grid(m, n)
        for i in range(n):
            perm = sector_permutation(m, n, i)
            want = tuple(tuple(perm[x] for x in row) for row in base)
            assert build_Ti(m, n, i).grid == want


def reflected_candidates(m, n, i):
    """Side permutations of sector i found by reflecting seat midpoints.

    Each polygon k is reflected about its centre across the line at angle
    (i+1)pi/(2n) and translated onto polygon k, or onto polygon m-1-k; a
    candidate sends every side to the side whose seat midpoints the images
    of its own hit, within 1e-9, and sends row r to row r (to row m - r
    when i - n is even).  Sector 0 needs no normalization.
    """
    surf = build_surface(m, n)
    labels = list(surf.labels)
    if i == 0:
        return [{s: s for s in labels}]
    c2, s2 = math.cos((i + 1) * math.pi / n), math.sin((i + 1) * math.pi / n)
    centres = [[sum(v) / (2 * n) for v in zip(*p.vertices)] for p in surf.polygons]
    seats = [[] for _ in range(m)]
    for s in labels:
        for k, e in surf.seats(s):
            seats[k].append((surf.polygons[k].edge_midpoint(e), s))
    want_row = (lambda s: m - surf.row(s)) if (i - n) % 2 == 0 else surf.row
    candidates = []
    for image in (lambda k: k, lambda k: m - 1 - k):
        perm = {}
        for k in range(m):
            (ax, ay), (bx, by) = centres[k], centres[image(k)]
            for (x, y), s in seats[k]:
                x, y = x - ax, y - ay
                q = (bx + c2 * x + s2 * y, by + s2 * x - c2 * y)
                hits = [t for p, t in seats[image(k)] if math.dist(p, q) < 1e-9]
                if len(hits) != 1 or perm.setdefault(s, hits[0]) != hits[0]:
                    perm = None
                    break
            if perm is None:
                break
        if (perm and sorted(perm.values()) == labels
                and all(surf.row(perm[s]) == want_row(s) for s in labels)):
            candidates.append(perm)
    return candidates


def test_sector_permutations_are_the_polygon_reflection():
    raised = 0
    for m in range(2, 10):
        for n in range(3, 10):
            for i in range(n):
                candidates = reflected_candidates(m, n, i)
                if not candidates:
                    with pytest.raises(ValueError,
                                       match="has no reflecting normalization"):
                        sector_permutation(m, n, i)
                    raised += 1
                    continue
                assert sector_permutation(m, n, i) == min(
                    candidates, key=lambda p: [p[s] for s in sorted(p)])
    assert raised == 24
    # negative control: a permutation with two images swapped is no reflection
    for m, n in SMALL:
        for i in range(1, n):
            perm = dict(sector_permutation(m, n, i))
            perm[1], perm[2] = perm[2], perm[1]
            assert perm not in reflected_candidates(m, n, i)


@pytest.mark.parametrize("m, n", [(2, 4), (2, 6), (3, 7), (4, 7), (7, 3),
                                  (4, 4), (6, 4)])
def test_traced_words_are_admissible_in_their_sector(m, n):
    # Geometry against combinatorics: a traced cutting sequence must be a
    # path in the transition diagram that sector_permutation builds for the
    # sector of its direction.  On m >= 3 most windows are admitted by their
    # own sector alone, so a permutation built for the wrong sector fails.
    surf = build_surface(m, n)
    rng = random.Random(f"admissible:{m}:{n}")
    checked = exact = 0
    while checked < 30:
        theta = rng.uniform(0, 2 * math.pi)
        sector, near_boundary = sector_of(theta, n, tol=1e-6)
        if near_boundary:
            continue
        try:
            sector_permutation(m, n, sector % n)
        except ValueError:
            continue  # no reflecting normalization
        label = rng.choice(list(surf.labels))
        try:
            word = trace(surf, start_through(surf, label, theta), theta, 200).labels
        except VertexHit:
            continue
        sectors = admissible_in(m, n, word)
        assert sector in sectors
        checked += 1
        exact += sectors == {sector}
    if m >= 3:
        assert exact > 0


def _admissible_reference(m, n, word):
    # one diagram per sector, as admissible_in worked before its mask table;
    # every letter must be a vertex, also the one letter of a short word
    pairs = set(zip(word, word[1:]))
    out = set()
    for i in range(n):
        try:
            diagram = build_Ti(m, n, i)
        except ValueError:
            continue
        if not set(word) <= {x for row in diagram.grid for x in row}:
            continue
        arrows = diagram.arrows
        if pairs <= arrows:
            out.add(i)
        if {(b, a) for a, b in pairs} <= arrows:
            out.add(i + n)
    return out


@pytest.mark.parametrize("m, n", [(4, 3), (3, 5), (3, 7), (4, 4), (4, 6),
                                  (2, 4), (2, 6)])
def test_sector_masks_match_the_diagrams(m, n):
    rng = random.Random(f"masks:{m}:{n}")
    surf = build_surface(m, n)
    labels = list(surf.labels)
    words = [[], [labels[0]], [0], [len(labels) + 1], [1, len(labels) + 1],
             [-1, 1, 2], [1, 1]]
    for _ in range(60):
        # a T_0 walk, and its image in a random sector that has a
        # normalization
        walk = random_walk(m, n, rng, rng.randrange(2, 40))
        i = rng.randrange(n)
        try:
            perm = sector_permutation(m, n, i)
        except ValueError:
            perm = sector_permutation(m, n, 0)
        words += [walk, [perm[x] for x in walk]]
    while len(words) < 300:
        theta = rng.uniform(0, 2 * math.pi)
        try:
            word = trace(surf, start_through(surf, rng.choice(labels), theta),
                         theta, rng.randrange(2, 60)).labels
        except VertexHit:
            continue
        words.append(word)
        corrupted = list(word)
        corrupted[rng.randrange(len(word))] = rng.choice(labels + [0])
        words.append(corrupted)
    seen = set()
    for word in words:
        want = _admissible_reference(m, n, word)
        assert admissible_in(m, n, word) == want, word
        seen |= want
    normalizable = _admissible_reference(m, n, [])
    assert seen == normalizable


def test_admissibility_detects_sector_and_reversal():
    assert admissible_in(4, 3, [1, 2, 3]) == {0, 3}
    assert admissible_in(4, 3, [1, 6, 7, 8, 7, 8, 5, 4, 5, 2]) == {0}
    assert admissible_in(4, 3, [2, 5, 4, 5, 8, 7, 8, 7, 6, 1]) == {3}
    assert admissible_in(4, 3, [1, 1]) == set()


def test_diagram_admits():
    assert 0 in admissible_in(4, 3, [1, 6, 7, 8])
    assert 0 not in admissible_in(4, 3, [1, 7])


def test_derivation_labels_match_frozen_tables():
    for (m, n), labels in GOLDEN_D0_LABELS.items():
        d0 = build_D0(m, n)
        assert d0.arrow_labels == labels
        assert set(d0.arrows) == set(build_T0(m, n).arrows)


def test_arrow_alphabet_size_formula():
    for m, n in SMALL:
        assert len(arrow_alphabet(m, n).names) == 3 * m * n - 2 * m - 4 * n + 2


def test_arrow_alphabet_round_trip():
    import random
    rng = random.Random(11)
    alpha = arrow_alphabet(4, 3)
    for _ in range(50):
        word = random_walk(4, 3, rng, rng.randrange(2, 12))
        names = alpha.to_arrows(word)
        assert alpha.to_vertices(names) == word


def test_arrow_alphabet_rejects_broken_paths():
    alpha = arrow_alphabet(4, 3)
    with pytest.raises(NotChained):
        alpha.to_arrows([1, 7])
    with pytest.raises(NotChained):
        alpha.to_vertices(["r1", "r1"])


def test_serialization_is_canonical():
    t1 = build_Ti(4, 3, 1)
    data = json.loads(t1.to_json())
    assert data["sector"] == 1
    assert tuple(tuple(r) for r in data["grid"]) == GOLDEN_GRIDS[(4, 3)][1]
    assert t1.to_json() == build_Ti(4, 3, 1).to_json()
    dot = build_D0(4, 3).to_dot()
    assert dot.startswith("digraph") and 'label="1"' in dot


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=3, max_value=6),
       st.randoms(use_true_random=False))
def test_walks_are_admissible_in_every_permuted_sector(m, n, rng):
    word = random_walk(m, n, rng, 8)
    assert 0 in admissible_in(m, n, word)
    for i in range(1, n):
        if m % 2 == 0 and n % 2 == 0 and i % 2 == 0:
            with pytest.raises(ValueError, match="no reflecting normalization"):
                sector_permutation(m, n, i)
            continue
        perm = sector_permutation(m, n, i)
        assert i in admissible_in(m, n, [perm[x] for x in word])


def test_sector_permutations_build_no_surface(monkeypatch):
    # seats are index arithmetic, so neither the permutations of every
    # sector of M(4,4) nor the golden check lays out a polygon, nor reads a
    # shared one
    def no_build(self, m, n):
        raise AssertionError(f"built M({m},{n})")

    monkeypatch.setattr(Surface, "__init__", no_build)
    for cached in (sector_permutation, renorm.generation_diagram,
                   renorm._generation_steps, renorm.pseudo_substitution,
                   build_surface):
        cached.cache_clear()
    for i in range(4):
        try:
            sector_permutation(4, 4, i)
        except ValueError:
            pass  # even sectors of a both-even surface
    assert check_substitution_goldens()["status"] == "pass"


def test_surfaces_and_sector_permutations_are_unchanged():
    # pins the JSON, the gluing and the SVG of 198 surfaces, and every
    # sector permutation of each, or its error
    digest = hashlib.sha256()
    for m in range(2, 13):
        for n in range(3, 21):
            surf = build_surface(m, n)
            for text in (surf.to_json(), repr(surf.glue_table), surf.to_svg()):
                digest.update(text.encode())
            for i in range(n):
                try:
                    perm = sector_permutation(m, n, i)
                except ValueError as exc:
                    digest.update(str(exc).encode())
                    continue
                digest.update(repr(sorted(perm.items())).encode())
    assert digest.hexdigest() == (
        "0d368bc67982590de906eaa0ec466ebcba95f66605612e51b4d4026d8bc0f320")


def test_diagrams_hooper_labels_and_arrow_names_are_unchanged():
    # pins T_i in every sector (or its error), D_0, the Hooper diagram and
    # the arrow names of 56 surfaces, in JSON and DOT
    digest = hashlib.sha256()
    for m in range(2, 10):
        for n in range(3, 10):
            for i in range(n):
                try:
                    d = build_Ti(m, n, i)
                except ValueError as exc:
                    digest.update(str(exc).encode())
                    continue
                digest.update((d.to_json() + d.to_dot()).encode())
            d0 = build_D0(m, n)
            for text in (d0.to_json(), d0.to_json(indent=2), d0.to_dot(),
                         build_hooper(m, n).to_dot(),
                         repr(list(arrow_alphabet(m, n).arrow_of_name.items()))):
                digest.update(text.encode())
    assert digest.hexdigest() == (
        "2e4956d1476da8fa875ab7bf491ca849aeebf355a0a86547074c29d030effb49")
