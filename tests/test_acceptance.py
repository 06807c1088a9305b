"""Acceptance gate: the twelve verification criteria at full trial counts.

Each test runs one criterion through the shared check functions and prints
a single pass/fail line; `bouwmoller verify --all-small` runs the same
checks from the command line.
"""

import random
import time
from types import SimpleNamespace

import pytest

from bouwmoller import build_surface, cli, renorm
from bouwmoller.diagrams import sector_permutation

SMALL = list(cli.SMALL_SET)
DUAL_PAIR = [(4, 3), (3, 4)]


def timed(check, *args, **kwargs):
    """The check's result and its wall time in seconds."""
    t0 = time.perf_counter()
    result = check(*args, **kwargs)
    return result, time.perf_counter() - t0


def report(k, result, runtime=None, budget=None):
    ok = result["status"] == "pass"
    extra = {key: val for key, val in result.items()
             if key not in ("name", "status")}
    line = f"criterion {k}: {'PASS' if ok else 'FAIL'} {result['name']} {extra}"
    print(line)
    assert ok, line
    if budget is not None:
        assert runtime < budget, f"criterion {k}: {runtime:.3f}s over {budget}s"


def test_criterion_01_periodic_derivation_golden():
    report(1, *timed(cli.check_derivation_golden), budget=1e-3)


def test_criterion_02_substitution_tables_golden():
    # the budget times a cold build of the tables
    for cached in (renorm.generation_diagram, renorm._generation_steps,
                   renorm.pseudo_substitution, sector_permutation):
        cached.cache_clear()
    report(2, *timed(cli.check_substitution_goldens), budget=1.0)


def test_criterion_03_sector_permutations_and_reflections():
    report(3, cli.check_permutation_goldens())


def test_criterion_04_diagram_structure():
    report(4, cli.check_diagram_structure())


def test_criterion_05_cylinder_moduli():
    report(5, *timed(cli.check_moduli), budget=1.0)


@pytest.fixture(scope="module")
def traced_windows():
    """Criteria 6 and 7 read the same 200 traced windows per surface."""
    return {(m, n): timed(cli.check_traced_windows, m, n, trials=200)
            for m, n in SMALL}


def test_criterion_06_deep_derivability_of_traced_words(traced_windows):
    # the runtime covers tracing the windows and both verdicts
    for m, n in SMALL:
        (derivability, _), runtime = traced_windows[(m, n)]
        report(6, derivability, runtime, budget=60.0)


def test_criterion_07_sector_sequences_match_itineraries(traced_windows):
    for m, n in SMALL:
        report(7, traced_windows[(m, n)][0][1])


def test_criterion_08_derivation_against_traced_dual_words():
    for m, n in SMALL:
        report(8, *timed(cli.check_geometric_oracle, m, n, trials=100),
               budget=20.0)


def test_criterion_08_rejects_corrupted_words(monkeypatch):
    """Negative control: with one letter of each derived word changed, the
    cylinder interval of every trial is empty and every trial fails."""
    real_derive, real_cylinder = cli.derive, cli._cylinder
    for m, n in SMALL:
        dual = build_surface(n, m)
        rng = random.Random(f"corrupt:{m}:{n}")
        intervals = []

        def corrupt(m, n, word):
            bad = real_derive(m, n, word)
            i = rng.randrange(len(bad))
            bad[i] = rng.choice([x for x in dual.labels if x != bad[i]])
            return bad

        def spy(surf, word, theta):
            intervals.append(real_cylinder(surf, word, theta))
            return intervals[-1]

        monkeypatch.setattr(cli, "derive", corrupt)
        monkeypatch.setattr(cli, "_cylinder", spy)
        result = cli.check_geometric_oracle(m, n, trials=100)
        assert result["failures"] == result["trials"] == 100, (m, n, result)
        assert intervals == [None] * 100, (m, n)


def test_criterion_09_generation_inverts_derivation():
    for m, n in SMALL:
        report(9, cli.check_generation_inverse(m, n, trials=100))


def test_criterion_10_substitutions_conjugate_generation():
    report(10, cli.check_conjugacy(trials=1000))


def test_criterion_11_direction_recognition():
    for m, n in SMALL:
        report(11, *timed(cli.check_direction_recognition, m, n,
                          trials=100), budget=10.0)


def test_criterion_12_periodic_fixed_points():
    report(12, cli.check_periodic_fixed_points())


def _swap_first_two(real):
    def broken(m, n, i):
        perm = dict(real(m, n, i))
        perm[1], perm[2] = perm[2], perm[1]
        return perm
    return broken


def _relabel(real):
    def broken(m, n):
        d0 = real(m, n)  # a new diagram on every call
        d0.arrow_labels = {a: label + 1 for a, label in d0.arrow_labels.items()}
        return d0
    return broken


def _nudge_one(real):
    def broken(m, n):
        values = dict(real(m, n))
        values[min(values)] *= 1 + 1e-6
        return values
    return broken


def _empty_last_word(real):
    def broken(m, n, word, k):
        words, sectors, ambiguous = real(m, n, word, k)
        return words[:-1] + [[]], sectors, ambiguous
    return broken


def _next_b0(real):
    def broken(m, n, theta, k):
        itin = real(m, n, theta, k)
        return itin._replace(b0=(itin.b0 + 1) % (2 * n))
    return broken


def _drop_last_letter(real):
    def broken(m, n, word):
        i, u = real(m, n, word)
        return i, u[:-1]
    return broken


def _next_sector(real):
    def broken(m, n, i, word):
        return real(m, n, i % (m - 1) + 1, word)
    return broken


# (name the check looks up in cli, broken copy of it, the check at a small
# trial count); a copy never changes what the real function returns or caches
NEGATIVE_CONTROLS = [
    ("derive", lambda real: lambda m, n, word, cyclic=False:
        real(m, n, word, cyclic)[::-1], cli.check_derivation_golden),
    ("pseudo_substitution", lambda real: lambda m, n, i:
        {k: v[::-1] for k, v in real(m, n, i).items()},
     cli.check_substitution_goldens),
    ("sector_permutation", _swap_first_two, cli.check_permutation_goldens),
    ("reflection", lambda real: lambda m, n, i:
        tuple(tuple(-x for x in row) for row in real(m, n, i)),
     cli.check_permutation_goldens),
    ("build_D0", _relabel, cli.check_diagram_structure),
    ("arrow_alphabet", lambda real: lambda m, n:
        SimpleNamespace(names=real(m, n).names[1:]),
     cli.check_diagram_structure),
    ("moduli", _nudge_one, cli.check_moduli),
    ("derivative_sequence", _empty_last_word,
     lambda: cli.check_traced_windows(4, 3, trials=5)[0]),
    ("itinerary", _next_b0,
     lambda: cli.check_traced_windows(4, 3, trials=5)[1]),
    ("normalize", _drop_last_letter,
     lambda: cli.check_generation_inverse(4, 3, trials=3)),
    ("generate", _next_sector,
     lambda: cli.check_generation_inverse(4, 3, trials=3)),
    ("direction_from_itinerary", lambda real: lambda *args, **kwargs:
        real(*args, **kwargs) + 1e-5,
     lambda: cli.check_direction_recognition(4, 3, trials=3)),
    ("tr_operator", lambda real: lambda m, n, i, names:
        real(m, n, i, names)[::-1], lambda: cli.check_conjugacy(trials=12)),
    ("fixed_point_form", lambda real: lambda word: None,
     cli.check_periodic_fixed_points),
]


@pytest.mark.parametrize("name, breaker, check", NEGATIVE_CONTROLS,
                         ids=[c[0] for c in NEGATIVE_CONTROLS])
def test_each_check_fails_on_a_broken_copy(name, breaker, check, monkeypatch):
    """Negative control for every criterion but 8, which has its own above:
    the check passes, then fails with one name it looks up in cli broken."""
    assert check()["status"] == "pass"
    monkeypatch.setattr(cli, name, breaker(getattr(cli, name)))
    assert check()["status"] == "fail"
