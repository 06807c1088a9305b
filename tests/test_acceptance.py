"""Acceptance gate: the twelve verification criteria at full trial counts.

Each test runs one criterion through the shared check functions and prints
a single pass/fail line; `bouwmoller verify --all-small` runs the same
checks from the command line.
"""

import random
import time

import pytest

from bouwmoller import build_surface, cli, renorm
from bouwmoller.diagrams import sector_permutation
from bouwmoller.tracer import _cylinder

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
             if key not in ("name", "status") and not key.startswith("_")}
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


@pytest.fixture(scope="module")
def oracle_results():
    return {(m, n): timed(cli.check_geometric_oracle, m, n, trials=100)
            for m, n in SMALL}


def test_criterion_08_derivation_against_traced_dual_words(oracle_results):
    for m, n in SMALL:
        report(8, *oracle_results[(m, n)], budget=20.0)


def test_criterion_08_rejects_corrupted_words(oracle_results):
    """Negative control: one changed letter empties the cylinder interval."""
    for m, n in SMALL:
        dual = build_surface(n, m)
        rng = random.Random(f"corrupt:{m}:{n}")
        for image, word in oracle_results[(m, n)][0]["_words"]:
            bad = list(word)
            i = rng.randrange(len(bad))
            bad[i] = rng.choice([x for x in dual.labels if x != bad[i]])
            assert _cylinder(dual, bad, image) is None, (m, n, i, bad)


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
