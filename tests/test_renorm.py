"""Derivation, generation, and the substitution operators."""

import hashlib
import itertools
import math
import random
import time

import pytest

from bouwmoller import renorm
from bouwmoller.cli import (GOLDEN_D0_LABELS, GOLDEN_PSUB, GOLDEN_SIGMA11_43,
                            SMALL_SET, _contains, _interior_point,
                            _random_t0_word)
from bouwmoller.diagrams import (NotAdmissible, NotChained, _table,
                                 admissible_in, build_D0, sector_permutation)
from bouwmoller.farey import (EPS_DYN, Itinerary, _angle, _apply, _orbit,
                              _upper, direction_from_itinerary, gamma,
                              reflection)
from bouwmoller.renorm import (derivative_sequence, derive, fixed_point_form,
                               generate, normalize, pseudo_substitution,
                               substitution, tr_operator, tr_operator_inverse)
from bouwmoller.surface import build_surface
from bouwmoller.tracer import (VertexHit, _cylinder, _exit_rows, start_through,
                              trace)


def test_derive_window_and_cyclic():
    word = [1, 6, 7, 8, 7, 8, 5, 4, 5, 2]
    assert derive(4, 3, word) == [4, 3, 4, 7, 6]
    assert derive(4, 3, word, cyclic=True) == [4, 3, 4, 7, 6, 1]


def test_derive_rejects_bad_input():
    with pytest.raises(ValueError):
        derive(4, 3, [1])
    with pytest.raises(NotAdmissible):
        derive(4, 3, [1, 1])
    # the message names the first bad transition, the wrap-around one last
    with pytest.raises(NotAdmissible,
                       match=r"^transition \(7, 1\) not in T_0 of M\(4,3\)$"):
        derive(4, 3, [1, 6, 7, 1, 7])
    assert derive(4, 3, [1, 6, 7, 8]) == [4]
    with pytest.raises(NotAdmissible,
                       match=r"^transition \(8, 1\) not in T_0 of M\(4,3\)$"):
        derive(4, 3, [1, 6, 7, 8], cyclic=True)


def test_generate_rejects_unknown_sides():
    with pytest.raises(NotAdmissible, match="9 is not a side of M\\(3,4\\)"):
        generate(4, 3, 1, [1, 9])
    # a sector that is no int is reported where one out of range is
    with pytest.raises(ValueError, match=r"^sector 1\.0 is no int$"):
        generate(4, 3, 1.0, [1, 2])
    with pytest.raises(NotAdmissible, match="9 is not a side of M\\(3,4\\)"):
        generate(4, 3, 1.0, [1, 9])


def test_generate_checks_that_paths_chain(monkeypatch):
    # the generate table checks every pair of arrows through a letter once,
    # when it is built
    real = renorm.generation_diagram(3, 4, 1)
    broken = {x: ((0, 0), b, path) for x, (_, b, path) in real.items()}
    monkeypatch.setattr(renorm, "generation_diagram", lambda m, n, i: broken)
    renorm._generation_steps.cache_clear()
    with pytest.raises(RuntimeError, match="interpolating paths do not chain"):
        generate(4, 3, 1, [1, 2, 3, 4])
    # one arrow whose path starts elsewhere is enough
    (x, (_, b, path)), *rest = sorted(real.items())
    monkeypatch.setattr(renorm, "generation_diagram",
                        lambda m, n, i: {**dict(rest), x: ((0, 0), b, path)})
    with pytest.raises(RuntimeError, match="interpolating paths do not chain"):
        renorm._generation_steps(4, 3, 1)


def test_normalize():
    assert normalize(3, 4, [4, 3, 4, 7, 6]) == (3, [3, 4, 3, 6, 7])
    assert normalize(4, 3, [1, 6, 7, 8]) == (0, [1, 6, 7, 8])
    # reversal sectors flip the word before relabeling
    i, u = normalize(4, 3, [2, 5, 4, 5, 8, 7, 8, 7, 6, 1])
    assert i == 3
    assert u == [1, 6, 7, 8, 7, 8, 5, 4, 5, 2]


def test_derivative_sequence_shapes():
    # a traced word stays admissible under repeated derivation; a random
    # diagram walk generally does not
    surf = build_surface(4, 3)
    theta = 0.347
    word = trace(surf, start_through(surf, 1, theta), theta, 400).labels
    words, sectors, ambiguous = derivative_sequence(4, 3, word, 4)
    assert len(words) == len(sectors) == len(ambiguous) == 5
    assert words[0] == list(word)
    assert sectors[0] == 0
    for w in words[1:]:
        assert len(w) >= 1


def test_derivative_sequence_stops_at_short_words():
    # the 30-crossing window runs out of letters at its 6th derivative
    surf = build_surface(4, 3)
    word = trace(surf, start_through(surf, 1, 0.3), 0.3, 30).labels
    words, sectors, ambiguous = derivative_sequence(4, 3, word, 8)
    assert len(words) == len(sectors) == len(ambiguous) == 7
    assert len(words[-1]) < 2 and all(len(w) >= 2 for w in words[:-1])
    assert (words, sectors, ambiguous) == derivative_sequence(4, 3, word, 6)
    words, sectors, ambiguous = derivative_sequence(4, 3, [1], 3)
    assert words == [[1]] and len(sectors) == len(ambiguous) == 1


def test_derivation_ends_after_an_ambiguous_stage():
    # this 16-crossing window of M(3,4) reads in sectors 2 and 6; derived
    # in sector 2, the lower one, its derivative is admissible nowhere, and
    # derived in sector 6 it goes on
    start = (1, (2.7787206661460138, 0.07557806142078664))
    word = trace(build_surface(3, 4), start, 4.775914736533735, 16).labels
    assert list(word) == [4, 2, 4, 2, 4, 2, 4, 2, 4, 1, 3, 1, 3, 1, 3, 1]
    assert admissible_in(3, 4, word) == {2, 6}
    words, sectors, ambiguous = derivative_sequence(3, 4, word, 4)
    assert sectors == [2, None] and ambiguous == [True, True]
    assert admissible_in(4, 3, words[1]) == set()
    perm = sector_permutation(3, 4, 2)
    upper = derive(3, 4, [perm[x] for x in word[::-1]])
    assert admissible_in(4, 3, upper) == {1}
    # control: with no ambiguous stage before it, a stage admissible
    # nowhere still raises
    assert admissible_in(4, 3, [5, 6, 7, 8, 7, 8, 9, 8]) == {0}
    with pytest.raises(NotAdmissible, match=r"no sector of M\(3,4\)"):
        derivative_sequence(4, 3, [5, 6, 7, 8, 7, 8, 9, 8], 3)


def test_a_letter_that_is_no_side_is_admissible_nowhere():
    # a one-letter word has no transition to look up, only its letter
    assert admissible_in(4, 3, [999]) == set()
    with pytest.raises(NotAdmissible, match="admissible in no sector"):
        normalize(4, 3, [999])
    assert derivative_sequence(4, 3, [999], 4) == ([[999]], [None], [True])
    # controls: the empty word is admissible in every normalizing sector,
    # and so is every side alone
    assert admissible_in(4, 4, []) == {0, 1, 3, 4, 5, 7}
    for m in range(2, 7):
        for n in range(3, 7):
            everywhere = admissible_in(m, n, [])
            assert all(admissible_in(m, n, [s]) == everywhere
                       for s in build_surface(m, n).labels)
    assert normalize(4, 3, [5]) == (0, [5])
    assert derivative_sequence(4, 3, [5], 4) == ([[5]], [0], [True])


def test_derivative_sequence_rejects_a_negative_depth():
    with pytest.raises(ValueError, match="need k >= 0, got -1"):
        derivative_sequence(4, 3, [1, 6, 7, 8], -1)
    with pytest.raises(ValueError, match=r"^need an int k >= 0, got 2\.5$"):
        derivative_sequence(4, 3, [1, 2, 3], 2.5)
    assert derivative_sequence(4, 3, [1, 6, 7, 8], 0) == (
        [[1, 6, 7, 8]], [0], [False])


def test_generate_regression():
    assert generate(4, 3, 1, [1, 2, 3, 4]) == [7, 8, 5, 6, 5, 2, 1]


def test_generation_inverts_derivation():
    rng = random.Random(17)
    for m, n in ((4, 3), (3, 4)):
        for i in range(1, n):
            done = 0
            while done < 20:
                w = _random_t0_word(m, n, rng, rng.randrange(4, 12))
                g = generate(n, m, i, w)
                d = derive(n, m, g)
                if len([s for s in admissible_in(m, n, d) if s < n]) != 1:
                    continue
                assert normalize(m, n, d) == (i, w)
                done += 1


def test_pseudo_substitution_tables():
    for (m, n, i), table in GOLDEN_PSUB.items():
        got = pseudo_substitution(m, n, i)
        assert set(got) == set(table)
        for name, image in table.items():
            assert list(got[name]) == image


def test_substitution_composes_both_pseudo_halves():
    got = substitution(4, 3, 1, 1)
    assert set(got) == set(GOLDEN_SIGMA11_43)
    for name, image in GOLDEN_SIGMA11_43.items():
        assert list(got[name]) == image


def test_substituted_images_chain():
    # each substituted word must remain a path of the universal diagram;
    # this pins the two table entries a naive reading gets wrong
    assert list(pseudo_substitution(4, 3, 2)["r3"]) == ["r2", "v3"]
    assert list(pseudo_substitution(4, 3, 2)["r6"]) == ["l1", "v3"]
    rng = random.Random(23)
    for i in (1, 2):
        for j in (1, 2, 3):
            table = substitution(4, 3, i, j)
            for _ in range(10):
                w = _random_t0_word(4, 3, rng, rng.randrange(3, 9))
                names = tr_operator_inverse(4, 3, 0, w)
                image = [u for name in names for u in table[name]]
                tr_operator(4, 3, 0, image)


def test_substitution_conjugates_two_generation_steps():
    rng = random.Random(29)
    for i in (1, 2):
        for j in (1, 2, 3):
            table = substitution(4, 3, i, j)
            for _ in range(10):
                w = _random_t0_word(4, 3, rng, rng.randrange(3, 9))
                names = tr_operator_inverse(4, 3, 0, w)
                lhs = tr_operator(4, 3, 0,
                                  [u for name in names for u in table[name]])
                rhs = generate(4, 3, j, generate(3, 4, i, w))
                assert _contains(rhs, lhs) or _contains(lhs, rhs)


def test_tr_operator_round_trip():
    rng = random.Random(31)
    for i in range(3):
        perm = sector_permutation(4, 3, i)
        for _ in range(20):
            w = _random_t0_word(4, 3, rng, rng.randrange(2, 10))
            wi = [perm[x] for x in w]
            names = tr_operator_inverse(4, 3, i, wi)
            assert tr_operator(4, 3, i, names) == wi


def test_tr_operator_rejects_unchained_arrows():
    with pytest.raises(NotChained):
        tr_operator(4, 3, 0, ["r1", "r1"])


def test_fixed_point_form():
    assert fixed_point_form([1, 2, 1, 2]) == (1, 2)
    assert fixed_point_form([5, 4, 5]) == (5, 4)
    assert fixed_point_form([1, 2, 1, 3]) is None
    assert fixed_point_form([1, 1]) is None
    assert fixed_point_form([1]) is None


def _outcome(fn, *args):
    """fn(*args), or the class and message of the exception it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _normalizing_sectors(m, n):
    """Sectors 0..2n-1 of M(m,n) that have a reflecting normalization."""
    out = []
    for i in range(2 * n):
        try:
            sector_permutation(m, n, i % n)
        except ValueError:
            continue
        out.append(i)
    return out


def test_derivative_sequence_is_unchanged():
    # depth-6 derivative sequences of traced windows, two per sector, on
    # every surface with 3 <= m, n <= 7 that is not both even, to the last
    # word, sector and flag
    digest = hashlib.sha256()
    rng = random.Random(4177)
    for m in range(3, 8):
        for n in range(3, 8):
            if m % 2 == n % 2 == 0:
                continue
            surf = build_surface(m, n)
            for i in range(2 * n):
                for _ in range(2):
                    theta = (i + rng.uniform(0.02, 0.98)) * math.pi / n
                    label = rng.choice(surf.labels)
                    try:
                        word = trace(surf, start_through(surf, label, theta),
                                     theta, rng.randrange(40, 400)).labels
                    except VertexHit:
                        digest.update(b"vertex")
                        continue
                    got = _outcome(derivative_sequence, m, n, word, 6)
                    digest.update(repr(got).encode())
    assert digest.hexdigest() == (
        "4e17f6a4ac278bb18772bec8a0f14cb635d91a26696ffe5fe37ff20b1be0dd9b")


def test_generate_is_unchanged():
    # generate on seeded T_0 words, and on the same words with one letter
    # changed, in every sector that has a normalization, 3 <= m, n <= 7,
    # generating ones or not: the output, or the class and message of the
    # first error, so errors keep their order: letters that are no side,
    # then a sector out of 1..m-1, then the first missing transition
    digest = hashlib.sha256()
    rng = random.Random(5261)
    for m in range(3, 8):
        for n in range(3, 8):
            for i in _normalizing_sectors(n, m):
                for _ in range(6):
                    w = _random_t0_word(n, m, rng, rng.randrange(2, 30))
                    digest.update(repr(_outcome(generate, m, n, i, w)).encode())
                    w[rng.randrange(len(w))] = rng.randrange(0, m * (n - 1) + 2)
                    digest.update(repr(_outcome(generate, m, n, i, w)).encode())
    assert digest.hexdigest() == (
        "6b7604c2c6d5c4f6c84669b8b14f5ea64b1a209a7a90b85477dd63b0db38454f")


def _check_derivations(m, n, rng):
    """derive and one stage of derivative_sequence, on seeded words of every
    normalizing sector of M(m,n) spelled in ints and in floats, against a
    plain loop over the pairs of the word normalized by sector_permutation:
    the D_0 label of each labeled arrow, in order."""
    d0 = build_D0(m, n)
    labels = d0.arrow_labels

    def reference(word, j):
        perm = sector_permutation(m, n, j % n)
        u = [perm[x] for x in (word[::-1] if j >= n else word)]
        assert all(pair in d0.arrows for pair in zip(u, u[1:]))
        return [labels[pair] for pair in zip(u, u[1:]) if pair in labels]

    for i in _normalizing_sectors(m, n):
        inv = {v: k for k, v in sector_permutation(m, n, i % n).items()}
        for _ in range(4):
            u = _random_t0_word(m, n, rng, rng.randrange(2, 40))
            word = [inv[x] for x in (u[::-1] if i >= n else u)]
            for spell in (int, float):
                assert derive(m, n, list(map(spell, u))) == reference(u, 0)
                words, sectors, _ = derivative_sequence(
                    m, n, list(map(spell, word)), 1)
                assert words[1] == reference(word, sectors[0])


def test_sector_steps_derive_the_normalized_word():
    # on both codings: bytes for n(m-1) <= 16 and int letters, the dict
    # codes for floats and for the larger surfaces
    rng = random.Random(6007)
    for m in range(2, 10):
        for n in range(3, 10):
            _check_derivations(m, n, rng)


def test_a_swapped_byte_label_fails_the_derivation_reference():
    # two labels of sector 0 swapped in a copy of the cached record's step
    # table: the byte table of M(4,3), and the dict steps of M(4,7), whose
    # 21 sides take the other coding; the record is restored after each
    for m, n in ((4, 3), (4, 7)):
        t = _table(m, n)
        step = dict(t.steps[0])
        a = next(c for c in sorted(step) if step[c])
        b = next(c for c in sorted(step) if step[c] not in (0, step[a]))
        if t.translates is None:
            tables, swapped = t.steps, step
            step[a], step[b] = step[b], step[a]
        else:
            labels = bytearray(t.translates[0][0])
            labels[a], labels[b] = labels[b], labels[a]
            tables, swapped = t.translates, (bytes(labels), t.translates[0][1])
        real, tables[0] = tables[0], swapped
        try:
            with pytest.raises(AssertionError):
                _check_derivations(m, n, random.Random(6007))
        finally:
            tables[0] = real


def test_the_record_keeps_each_permutation_once():
    # sector i >= n reads the permutation of i - n, so the record holds n
    for m, n in ((4, 3), (3, 4), (4, 4), (4, 7)):
        perms = _table(m, n).perms
        assert len(perms) == n
        for i, perm in enumerate(perms):
            if perm is None:
                with pytest.raises(ValueError, match="no reflecting"):
                    sector_permutation(m, n, i)
            else:
                assert perm == sector_permutation(m, n, i)


def test_code_table_edges_are_unchanged():
    # admissible_in, derive (open and cyclic), derivative_sequence and
    # normalize, as the result or the exception's class and message, to the
    # last bit, on seeded words of every normalizing sector with a letter
    # that is no side (0, -1, n(m-1)+1, 255 or 256) or a 1 spelled 1.0 or
    # True put first, in the middle or last, on the whole word spelled in
    # floats, and on one-letter and empty words, for 3 <= m, n <= 7 and for
    # M(3,8) and M(8,3), one on each side of 16 sides with its dual on the
    # other; a one-letter word whose letter is no side is admissible nowhere
    digest = hashlib.sha256()
    rng = random.Random(1717)
    surfaces = [(m, n) for m in range(3, 8) for n in range(3, 8)]
    for m, n in surfaces + [(3, 8), (8, 3)]:
        outside = (0, -1, n * (m - 1) + 1, 255, 256, 1.0, True)
        words = [[], [1], [0], [-1], [n * (m - 1) + 1], [255], [256], [1.0],
                 [True]]
        for _ in range(6):
            i = rng.choice(_normalizing_sectors(m, n))
            inv = {v: k for k, v in sector_permutation(m, n, i % n).items()}
            u = _random_t0_word(m, n, rng, rng.randrange(2, 30))
            word = [inv[x] for x in (u[::-1] if i >= n else u)]
            words += [word, [float(x) for x in word]]
            for x in outside:
                for at in (0, len(word) // 2, len(word) - 1):
                    words.append(word[:at] + [x] + word[at + 1:])
        for word in words:
            for out in (_outcome(admissible_in, m, n, word),
                        _outcome(derive, m, n, word),
                        _outcome(derive, m, n, word, True),
                        _outcome(derivative_sequence, m, n, word, 3),
                        _outcome(normalize, m, n, word)):
                digest.update(repr(out).encode())
    assert digest.hexdigest() == (
        "506f6f1b65b9b2badaa4e4a08818bc48a18bbe851c4262525ecf78c1fed5c1d5")


# Worst deviation of the flux identity below: 7.2e-16 over the 980 seeded
# directions of test_derivation_carries_the_transverse_measure, and 4.4e-16
# over the 1 135 of test_sector_normalizations_transport_the_flux.
FLUX_TOL = 1e-12


def _side_shares(m, n, theta):
    """Each side's share of the flux through the sides of M(m,n) in
    direction theta: the width hb - ha of its exit row over their sum."""
    d = (math.cos(theta), math.sin(theta))
    _, rows = _exit_rows(build_surface(m, n), d)
    flux = {side: hb - ha for side, (ha, hb, *_) in rows.items()}
    total = sum(flux.values())
    return {side: f / total for side, f in flux.items()}


def _flux_deviation(m, n, theta, labels):
    """Largest difference, over the dual sides, between a side's share of
    the flux through the sides of M(n,m) in direction gamma d and the share
    of the T_0 arrows of M(m,n) that labels labels with that side, in d.

    A side's flux is the width hb - ha of its exit row; an arrow (a, b)
    carries the h of a's exit row that, shifted, land in b's row of the
    polygon a enters."""
    d = (math.cos(theta), math.sin(theta))
    _, rows = _exit_rows(build_surface(m, n), d)
    carried = {}
    for (a, b), side in labels.items():
        ra, rb = rows.get(a), rows.get(b)
        width = 0.0
        if ra and rb and rb[6][0] == ra[4]:
            width = max(0.0, min(ra[1], rb[1] - ra[5]) - max(ra[0], rb[0] - ra[5]))
        carried[side] = carried.get(side, 0.0) + width
    shares = _side_shares(n, m, _angle(_apply(gamma(m, n), d)))
    total_carried = sum(carried.values())
    return max(abs(shares.get(s, 0.0) - carried.get(s, 0.0) / total_carried)
               for s in shares.keys() | carried.keys())


def test_derivation_carries_the_transverse_measure():
    # the affine map onto the dual takes the flow in direction d to the flow
    # in direction gamma d with its transverse measure, up to a factor, so
    # in every sector-0 direction each dual side carries the flux of the
    # D_0 arrows it labels; both-even surfaces need no sector permutation
    rng = random.Random(8)
    worst = 0.0
    for m in range(3, 10):
        for n in range(3, 10):
            labels = build_D0(m, n).arrow_labels
            for _ in range(20):
                theta = rng.uniform(0, math.pi / n)
                worst = max(worst, _flux_deviation(m, n, theta, labels))
    assert worst < FLUX_TOL


def test_swapped_d0_labels_break_the_flux_identity():
    # counted control: swap the labels of two differently labelled arrows
    # of M(4,3) and look in five directions.  Arrows that carry equal or
    # no flux there hide a swap, so the count has a floor: 56 of the 62
    # swaps are caught at this seed
    labels = GOLDEN_D0_LABELS[(4, 3)]
    assert build_D0(4, 3).arrow_labels == labels
    rng = random.Random(0)
    thetas = [rng.uniform(0, math.pi / 3) for _ in range(5)]
    arrows = sorted(labels)
    swaps = caught = 0
    for k, a in enumerate(arrows):
        for b in arrows[k + 1:]:
            if labels[a] == labels[b]:
                continue
            swapped = {**labels, a: labels[b], b: labels[a]}
            swaps += 1
            caught += max(_flux_deviation(4, 3, t, swapped) for t in thetas) > 1e-9
    assert swaps == 62 and caught >= 50


def _transport_deviation(m, n, i, theta, perm):
    """Largest difference between side s's share of the flux at theta and
    perm[s]'s share in the direction reflection(m, n, i) takes theta to."""
    d = (math.cos(theta), math.sin(theta))
    here = _side_shares(m, n, theta)
    there = _side_shares(m, n, _angle(_apply(reflection(m, n, i), d)))
    return max(abs(here.get(s, 0.0) - there.get(t, 0.0))
               for s, t in perm.items())


def _normalization_directions():
    """Five seeded directions in each sector 1 <= i < n of M(m,n), for
    3 <= m, n <= 9, that has a reflecting normalization."""
    rng = random.Random(10)
    out = {}
    for m in range(3, 10):
        for n in range(3, 10):
            for i in _normalizing_sectors(m, n):
                if 0 < i < n:
                    out[m, n, i] = [rng.uniform(i * math.pi / n,
                                                (i + 1) * math.pi / n)
                                    for _ in range(5)]
    return out


def test_sector_normalizations_transport_the_flux():
    # the normalizing affine map of sector i carries the flow in direction
    # theta, with its transverse measure, onto the flow in the reflected
    # direction, and side s onto side sector_permutation(m, n, i)[s]
    directions = _normalization_directions()
    assert len(directions) == 227
    worst = max(_transport_deviation(m, n, i, theta,
                                     sector_permutation(m, n, i))
                for (m, n, i), thetas in directions.items()
                for theta in thetas)
    assert worst < FLUX_TOL


def test_swapped_normalization_images_break_the_flux_transport():
    # counted control: swap the images of two sides in every sector of the
    # six small surfaces.  Sides of equal flux hide a swap, so the count
    # has a floor: 1 154 of the 1 248 swaps are caught at this seed
    directions = _normalization_directions()
    swaps = caught = 0
    for m, n in SMALL_SET:
        for i in range(1, n):
            perm = sector_permutation(m, n, i)
            sides = sorted(perm)
            for k, a in enumerate(sides):
                for b in sides[k + 1:]:
                    swapped = {**perm, a: perm[b], b: perm[a]}
                    swaps += 1
                    caught += max(_transport_deviation(m, n, i, t, swapped)
                                  for t in directions[m, n, i]) > 1e-9
    assert swaps == 1248 and caught >= 1100


def _generate_up(m, n, flat, seed):
    """The word of M(m,n) that generation builds along the flattened
    itinerary flat = (b0, a1, b1, ...) from seed, a T_0 word of the surface
    of the last stage: generate by each entry from the last up to a1, then
    carry the T_0 word into sector b0, read backwards when b0 >= n."""
    word = seed
    for t in range(len(flat) - 1, 0, -1):
        word = generate(*((m, n) if t % 2 else (n, m)), flat[t], word)
    perm = sector_permutation(m, n, flat[0] % n)
    word = [perm[x] for x in word]
    return word[::-1] if flat[0] >= n else word


def test_generation_along_every_itinerary_prefix_rebuilds_a_cutting_word():
    # the S-adic expansion, composed: for every branch-pair prefix P of
    # depth k <= 3 and a seeded sector b0, let theta be the midpoint of the
    # interval of (b0, P) and psi the direction 2k renormalization steps
    # below it.  Generation along (b0, P) from an 8-letter word traced at
    # psi gives a word that occurs at theta, and whose derivative sectors
    # read (b0, P) up to the first ambiguous stage.  Controls: the top
    # sector a1 or the deepest b_k changed, the word occurs at theta in
    # none of the prefixes.  Measured at k = 1, 2, 3: narrowest interval
    # 6.1e-3, 7.8e-4 and 3.2e-5 of its side, longest word 66, 472 and
    # 3 572 letters
    t0 = time.perf_counter()
    prefixes = top_rejected = deep_rejected = 0
    for m, n in SMALL_SET:
        surf = build_surface(m, n)
        rng = random.Random(f"s-adic:{m}:{n}")
        pairs = list(itertools.product(range(1, m), range(1, n)))
        for k in (1, 2, 3):
            for prefix in itertools.product(pairs, repeat=k):
                b0 = rng.randrange(2 * n)
                flat = Itinerary(b0, prefix).flatten()
                theta = direction_from_itinerary(m, n, b0, prefix, tol=10)
                # the orbit of theta, as itinerary follows it
                d = (math.cos(theta), math.sin(theta))
                v = _upper(_apply(reflection(m, n, 0 if b0 == n else b0), d))
                steps = _orbit(m, n, v, EPS_DYN, 2 * k)
                assert [a for a, _, _ in steps] == flat[1:], (m, n, flat)
                psi = _angle(steps[-1][1])
                seed = trace(surf, _interior_point(surf, rng), psi, 8).labels
                word = _generate_up(m, n, flat, seed)
                assert _cylinder(surf, word, theta) is not None, (m, n, flat)
                _, sectors, ambiguous = derivative_sequence(m, n, word, 2 * k)
                stop = ambiguous.index(True) if any(ambiguous) else 2 * k + 1
                assert sectors[:stop] == flat[:stop], (m, n, flat, sectors)
                prefixes += 1
                top = [b0, flat[1] % (m - 1) + 1, *flat[2:]]
                deep = [*flat[:-1], flat[-1] % (n - 1) + 1]
                top_rejected += _cylinder(
                    surf, _generate_up(m, n, top, seed), theta) is None
                deep_rejected += _cylinder(
                    surf, _generate_up(m, n, deep, seed), theta) is None
    assert prefixes == 52 + 488 + 4912
    assert top_rejected == deep_rejected == prefixes
    assert time.perf_counter() - t0 < 20.0  # seconds; about 3 s measured
