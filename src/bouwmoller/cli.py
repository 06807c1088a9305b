"""Command-line entry point and the shared verification suite.

Subcommands are thin wrappers over the library modules.  `verify` runs the
acceptance checks below and emits a machine-readable JSON report whose
bytes depend only on the arguments and the seed.
"""

import argparse
import json
import math
import os
import random
import sys
from functools import lru_cache

from .diagrams import (NotAdmissible, NotChained, arrow_alphabet,
                       admissible_in, build_D0, build_T0, build_Ti,
                       sector_permutation, t0_grid)
from .farey import (BoundaryOrbit, NoConvergence, DomainError, _angle, _apply,
                    ff_branches, farey_F, farey_FF, gamma, itinerary,
                    direction_from_itinerary, reflection, subsectors)
from .hooper import build_hooper, moduli
from .renorm import (derivative_sequence, derive, fixed_point_form, generate,
                     normalize, pseudo_substitution, substitution, tr_operator,
                     tr_operator_inverse)
from .surface import _dumps, build_surface
from .tracer import (NotCoAdjacent, VertexHit, _cylinder, realize_periodic,
                     sector_of, start_through, trace)

SMALL_SET = ((3, 4), (4, 3), (3, 5), (5, 3), (4, 5), (5, 4))

# ---------------------------------------------------------------------------
# Frozen golden data for the verification suite.

GOLDEN_GRIDS = {
    (4, 3): {0: ((1, 2, 3), (6, 5, 4), (7, 8, 9)),
             1: ((7, 9, 8), (5, 6, 4), (1, 3, 2)),
             2: ((2, 1, 3), (6, 4, 5), (8, 7, 9))},
    (3, 4): {0: ((1, 2, 3, 4), (8, 7, 6, 5)),
             1: ((4, 2, 3, 1), (6, 5, 8, 7)),
             2: ((6, 8, 5, 7), (2, 4, 1, 3)),
             3: ((2, 1, 4, 3), (8, 6, 7, 5))},
}

GOLDEN_PERMS = {
    (4, 3): {1: (7, 9, 8, 4, 6, 5, 1, 3, 2),
             2: (2, 1, 3, 5, 4, 6, 8, 7, 9)},
    (3, 4): {1: (4, 2, 3, 1, 7, 8, 5, 6),
             2: (6, 8, 5, 7, 3, 1, 4, 2),
             3: (2, 1, 4, 3, 5, 7, 6, 8)},
}

GOLDEN_D0_LABELS = {
    (4, 3): {(2, 1): 1, (1, 2): 2, (5, 6): 2, (6, 5): 3, (8, 7): 3,
             (7, 8): 4, (9, 8): 5, (8, 9): 6, (4, 5): 6, (5, 4): 7,
             (3, 2): 7, (2, 3): 8},
    (3, 4): {(2, 1): 1, (1, 2): 2, (7, 8): 2, (8, 7): 3, (6, 7): 4,
             (7, 6): 5, (3, 2): 5, (2, 3): 6, (4, 3): 7, (3, 4): 8,
             (5, 6): 8, (6, 5): 9},
}

GOLDEN_RHO_43 = (
    ((1.0, 0.0), (0.0, 1.0)),
    ((-0.5, math.sqrt(3) / 2), (math.sqrt(3) / 2, 0.5)),
    ((-1.0, 0.0), (0.0, 1.0)),
)

_P = lambda s: {k: v.split() for k, v in s.items()}

GOLDEN_PSUB = {
    (4, 3, 1): _P({"r1": "l1 v3", "l1": "l4", "v1": "l1", "r2": "r6",
                   "l2": "r6 v4", "v2": "l2", "r3": "l2", "l3": "l5 v2",
                   "v3": "r4 v2", "r4": "r2 v3", "l4": "r2", "v4": "r2 v3",
                   "r5": "l3 v1", "l5": "l6", "v5": "l4", "r6": "r4",
                   "l6": "r4 v2", "v6": "l5"}),
    (4, 3, 2): _P({"r1": "r1", "l1": "r4 v2", "v1": "r1", "r2": "l3 v1",
                   "l2": "l3", "v2": "r2", "r3": "r2 v3", "l3": "r5",
                   "v3": "l1 v3", "r4": "l5", "l4": "l5 v2", "v4": "l5 v2",
                   "r5": "r3", "l5": "r6 v4", "v5": "r4", "r6": "l1 v3",
                   "l6": "l1", "v6": "r5"}),
    (3, 4, 1): _P({"r1": "r5 v3", "l1": "l2 v1", "v1": "r5", "r2": "l4",
                   "l2": "r3", "v2": "l5 v3", "r3": "r3 v4", "l3": "l4 v2",
                   "v3": "r3 v4", "r4": "r6", "l4": "l1", "v4": "l1",
                   "r5": "l5 v3 v4", "l5": "r2 v5 v6", "r6": "r2",
                   "l6": "l5"}),
    (3, 4, 2): _P({"r1": "l3 v4", "l1": "r4 v6", "v1": "l3",
                   "r2": "r2 v5 v6", "l2": "l5 v3 v4", "v2": "r5 v3 v4",
                   "r3": "l5 v3", "l3": "r2 v5", "v3": "l5 v3 v4",
                   "r4": "l4 v2", "l4": "r3 v4", "v4": "r3",
                   "r5": "r5 v3 v4", "l5": "l2 v1 v2", "r6": "l2 v1",
                   "l6": "r5 v3"}),
    (3, 4, 3): _P({"r1": "r1", "l1": "l6", "v1": "r1", "r2": "l2 v1 v2",
                   "l2": "r5 v3 v4", "v2": "l3 v4", "r3": "r5", "l3": "l2",
                   "v3": "r5 v3", "r4": "r2 v5", "l4": "l5 v3", "v4": "l5",
                   "r5": "l3", "l5": "r4", "r6": "r4 v6", "l6": "l3 v4"}),
}

GOLDEN_SIGMA11_43 = _P({
    "r1": "l2 v1 r3 v4", "l1": "l1", "v1": "l2 v1", "r2": "r2",
    "l2": "r2 l1", "v2": "r3", "r3": "r3", "l3": "r2 v5 v6 l5 v3",
    "v3": "r6 l5 v3", "r4": "l4 r3 v4", "l4": "l4", "v4": "l4 r3 v4",
    "r5": "l4 v2 r5", "l5": "l5", "v5": "l1", "r6": "r6",
    "l6": "r6 l5 v3", "v6": "r2 v5 v6"})

GOLDEN_DERIVE_43 = ([1, 6, 7, 8, 7, 8, 5, 4, 5, 2], [4, 3, 4, 7, 6, 1])


# ---------------------------------------------------------------------------
# Output.

def _emit(args, name, content):
    """Write an artifact under the output directory, or print it when none
    is given; content other than text is written as canonical JSON."""
    text = content if isinstance(content, str) else _dumps(content, indent=2)
    if getattr(args, "out", None):
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        print(path)
    else:
        print(text)


def _print_word(args, word, name, record):
    """Print the word; with --out, also write the record that record() builds."""
    print(",".join(str(x) for x in word))
    if args.out:
        _emit(args, name, record())


def _parse_word(text):
    toks = [t.strip() for t in text.split(",") if t.strip()]
    if all(t.lstrip("-").isdigit() for t in toks):
        return [int(t) for t in toks]
    return toks


def _parse_angle(text):
    """Radians, either a float literal or a multiple of pi like '3*pi/8'."""
    t = text.replace(" ", "")
    if "pi" not in t:
        angle = float(t)
    else:
        num, _, den = t.partition("/")
        den = float(den) if den else 1.0
        if den == 0:
            raise SystemExit2(f"angle {text!r} divides by zero")
        coeff = num.replace("pi", "").rstrip("*")
        coeff = float(coeff) if coeff not in ("", "-") else (-1.0 if coeff else 1.0)
        angle = coeff * math.pi / den
    if not math.isfinite(angle):
        raise SystemExit2(f"angle {text!r} is not finite")
    return angle


def _parse_start(text):
    usage = (f"--start must be K:X,Y with an integer polygon K and finite "
             f"X, Y, got {text!r}")
    poly, _, xy = text.partition(":")
    try:
        x, y = (float(v) for v in xy.split(","))
        k = int(poly)
    except ValueError:
        raise SystemExit2(usage) from None
    if not (math.isfinite(x) and math.isfinite(y)):
        raise SystemExit2(usage)
    return k, (x, y)


def _rng(seed, *tags):
    return random.Random(":".join([str(seed)] + [str(t) for t in tags]))


def _interior_point(surf, rng):
    k = rng.randrange(len(surf.polygons))
    poly = surf.polygons[k]
    x0, y0, x1, y1 = poly.bounds()
    while True:
        p = (rng.uniform(x0, x1), rng.uniform(y0, y1))
        if poly.contains(p, tol=-1e-6):
            return k, p


def _contains(haystack, needle):
    return f",{','.join(map(str, needle))}," in f",{','.join(map(str, haystack))},"


@lru_cache(maxsize=None, typed=True)
def _t0_successors(m, n):
    """Letters of T_0 of M(m,n) -> their successors, both in sorted order."""
    arrows = sorted(build_T0(m, n).arrows)
    return {a: [b for x, b in arrows if x == a] for a, _ in arrows}


def _random_t0_word(m, n, rng, length):
    nxt = _t0_successors(m, n)
    w = [rng.choice(list(nxt))]
    while len(w) < length:
        w.append(rng.choice(nxt[w[-1]]))
    return w


# ---------------------------------------------------------------------------
# Verification checks.  Each returns a dict with "name", "status" and
# deterministic counts/deviations.

def check_derivation_golden():
    """Cyclic derivation of the golden ten-letter word."""
    word, expect = GOLDEN_DERIVE_43
    got = derive(4, 3, word, cyclic=True)
    return {"name": "derivation-golden", "surface": [4, 3],
            "status": "pass" if got == expect else "fail",
            "got": got, "expected": expect}


def check_substitution_goldens():
    """Pseudo-substitution tables and the composed table for (4,3)."""
    tables = [((m, n, i), pseudo_substitution(m, n, i), want)
              for (m, n, i), want in sorted(GOLDEN_PSUB.items())]
    tables.append(((4, 3, "1,1"), substitution(4, 3, 1, 1), GOLDEN_SIGMA11_43))
    bad = [[*key, k, list(got.get(k, [])), v] for key, got, want in tables
           for k, v in want.items() if list(got.get(k, [])) != v]
    return {"name": "substitution-goldens",
            "status": "pass" if not bad else "fail",
            "entries_checked": sum(len(want) for _, _, want in tables),
            "mismatches": bad}


def check_permutation_goldens():
    """Sector permutations for (4,3)/(3,4) and reflection matrices for n=3."""
    bad = []
    for (m, n), perms in sorted(GOLDEN_PERMS.items()):
        for i, table in sorted(perms.items()):
            got = sector_permutation(m, n, i)
            if tuple(got[k] for k in range(1, len(table) + 1)) != table:
                bad.append([m, n, i])
    dev = max(abs(x - y) for i, mat in enumerate(GOLDEN_RHO_43)
              for row, want in zip(reflection(4, 3, i), mat)
              for x, y in zip(row, want))
    ok = not bad and dev < 1e-12
    return {"name": "permutation-goldens",
            "status": "pass" if ok else "fail",
            "mismatches": bad, "max_matrix_deviation": dev}


def check_diagram_structure():
    """Transition/derivation diagram grids, labels, and alphabet sizes."""
    bad = []
    for (m, n), grids in sorted(GOLDEN_GRIDS.items()):
        for i, grid in sorted(grids.items()):
            got = build_Ti(m, n, i)
            shown = tuple(tuple(r) for r in json.loads(got.to_json())["grid"])
            if got.grid != grid or shown != grid:
                bad.append(["grid", m, n, i])
        d0 = build_D0(m, n)
        if d0.arrow_labels != GOLDEN_D0_LABELS[(m, n)]:
            bad.append(["labels", m, n])
        if d0.grid != grids[0]:
            bad.append(["d0-grid", m, n])
    sizes = {}
    for (m, n) in SMALL_SET:
        expect = 3 * m * n - 2 * m - 4 * n + 2
        got = len(arrow_alphabet(m, n).names)
        sizes[f"{m},{n}"] = [got, expect]
        if got != expect:
            bad.append(["alphabet", m, n, got, expect])
    return {"name": "diagram-structure",
            "status": "pass" if not bad else "fail",
            "alphabet_sizes": sizes, "mismatches": bad}


def check_moduli():
    """All cylinder moduli agree and equal the closed form."""
    worst = 0.0
    for (m, n) in SMALL_SET:
        vals = sorted(moduli(m, n).values())
        closed = 2 / math.tan(math.pi / n) + \
            2 * math.cos(math.pi / m) / math.sin(math.pi / n)
        worst = max(worst, vals[-1] - vals[0],
                    max(abs(v - closed) for v in vals))
    return {"name": "moduli", "status": "pass" if worst < 1e-9 else "fail",
            "surfaces": len(SMALL_SET), "max_deviation": worst}


WINDOW = 420  # crossings traced per trial
DEPTH = 6  # derivatives taken of each traced window
RECOGNITION_DEPTH, RECOGNITION_TOL = 25, 1e-6  # branch pairs, radians


def _window(surf, rng, arc, tol):
    """WINDOW crossings traced from an interior start in a direction drawn
    in [0, arc): (direction, labels, None), or (direction, None, reason) to
    redraw, "boundary" within tol of a sector bound or "vertex" on a
    VertexHit."""
    theta = rng.uniform(0, arc)
    if sector_of(theta, surf.n, tol=tol)[1]:
        return theta, None, "boundary"
    start = _interior_point(surf, rng)
    try:
        return theta, trace(surf, start, theta, WINDOW).labels, None
    except VertexHit:
        return theta, None, "vertex"


def check_traced_windows(m, n, trials=200, seed=7):
    """Deep derivability and itinerary agreement on the same traced windows.

    Each trial traces a window from a random direction and interior start,
    derives it DEPTH times and computes the Farey itinerary of the
    direction.  Returns two reports: every DEPTH-k derivative sequence stays
    among the admissible words, and the sectors of the derivatives equal the
    itinerary wherever they are unambiguous.
    """
    surf = build_surface(m, n)
    rng = _rng(seed, "trace", m, n)
    skipped = {"boundary": 0, "vertex": 0, "short": 0}
    done = failures = mismatches = ambiguous = checked = 0
    while done < trials:
        theta, labels, redraw = _window(surf, rng, 2 * math.pi, 1e-9)
        if redraw:
            skipped[redraw] += 1
            continue
        try:
            seq = derivative_sequence(m, n, labels, DEPTH)
        except NotAdmissible:
            seq = None
        if seq is not None and len(seq[0][-1]) < 2 and len(seq[0]) <= DEPTH:
            skipped["short"] += 1
            continue
        try:
            itin = itinerary(m, n, theta, DEPTH // 2)
        except BoundaryOrbit:
            skipped["boundary"] += 1
            continue
        done += 1
        if seq is None:
            failures += 1
            mismatches += 1
            continue
        words, secs, amb = seq
        if any(len(w) < 1 for w in words):
            failures += 1
        if any(amb):
            ambiguous += 1
            continue
        checked += 1
        if secs != itin.flatten():
            mismatches += 1
    derivability = {
        "name": "infinite-derivability", "surface": [m, n],
        "status": "pass" if failures == 0 else "fail",
        "trials": trials, "failures": failures, "depth": DEPTH,
        "window": WINDOW, "skipped": skipped}
    agreement = {
        "name": "itinerary-agreement", "surface": [m, n],
        "status": "pass" if mismatches == 0 else "fail",
        "trials": trials, "checked": checked, "mismatches": mismatches,
        "ambiguous_quarantined": ambiguous, "skipped": dict(skipped)}
    return derivability, agreement


def check_geometric_oracle(m, n, trials=100, seed=7):
    """derive(w) is the cutting sequence of a trajectory on the dual surface
    in the image direction.

    The dual start points whose trajectory spells derive(w) form one
    interval, pushed exactly through the word; a trial passes when that
    interval is not empty and the trajectory from its midpoint, traced
    literally, crosses derive(w)."""
    surf, dual = build_surface(m, n), build_surface(n, m)
    g = gamma(m, n)
    rng = _rng(seed, "oracle", m, n)
    done = failures = redraws = 0
    narrowest = 1.0
    while done < trials:
        theta, labels, redraw = _window(surf, rng, math.pi / n, 1e-6)
        if redraw:
            redraws += 1
            continue
        done += 1
        derived = derive(m, n, labels)
        image = _angle(_apply(g, (math.cos(theta), math.sin(theta))))
        found = _cylinder(dual, derived, image)
        if found is None:
            failures += 1
            narrowest = 0.0
            continue
        dstart, width = found
        narrowest = min(narrowest, width)
        try:
            witness = trace(dual, dstart, image, len(derived)).labels
        except VertexHit:
            witness = None
        if witness != derived:
            failures += 1
    return {"name": "geometric-oracle", "surface": [m, n],
            "status": "pass" if failures == 0 else "fail",
            "trials": trials, "failures": failures, "redraws": redraws,
            "min_interval_width": narrowest}


def check_generation_inverse(m, n, trials=100, seed=7):
    """normalize(derive(generate(i, w))) returns (i, w)."""
    rng = _rng(seed, "generate", m, n)
    failures = ambiguous = 0
    sectors = list(range(1, n))
    for i in sectors:
        done = 0
        while done < trials:
            w = _random_t0_word(m, n, rng, rng.randrange(6, 16))
            gen = generate(n, m, i, w)
            der = derive(n, m, gen)
            upward = [s for s in admissible_in(m, n, der) if s < n]
            if len(upward) != 1:
                ambiguous += 1
                continue
            got = normalize(m, n, der)
            if got != (i, w):
                failures += 1
            done += 1
    return {"name": "generation-inverse", "surface": [m, n],
            "status": "pass" if failures == 0 else "fail",
            "sectors": sectors, "trials_per_sector": trials,
            "failures": failures, "ambiguous_redrawn": ambiguous}


def check_conjugacy(trials=1000, seed=7):
    """Tr_0-conjugated substitutions act like two generation steps on (4,3)."""
    rng = _rng(seed, "conjugacy", 4, 3)
    combos = [(i, j) for i in (1, 2) for j in (1, 2, 3)]
    tables = {ij: substitution(4, 3, *ij) for ij in combos}
    failures = 0
    for t in range(trials):
        i, j = combos[t % len(combos)]
        w = _random_t0_word(4, 3, rng, rng.randrange(3, 11))
        names = tr_operator_inverse(4, 3, 0, w)
        sub = [u for name in names for u in tables[(i, j)][name]]
        try:
            lhs = tr_operator(4, 3, 0, sub)
        except NotChained:
            failures += 1
            continue
        rhs = generate(4, 3, j, generate(3, 4, i, w))
        if not (_contains(rhs, lhs) or _contains(lhs, rhs)):
            failures += 1
    return {"name": "substitution-conjugacy", "surface": [4, 3],
            "status": "pass" if failures == 0 else "fail",
            "trials": trials, "pairs": [list(c) for c in combos],
            "failures": failures}


def check_direction_recognition(m, n, trials=100, seed=7):
    """Round trip direction -> itinerary -> direction within RECOGNITION_TOL.

    Draws whose itinerary does not determine the direction that closely
    (certified by the nested-interval width) are redrawn and counted."""
    rng = _rng(seed, "recognition", m, n)
    worst = 0.0
    failures = redraws = 0
    done = 0
    while done < trials:
        theta = rng.uniform(0, 2 * math.pi)
        try:
            itin = itinerary(m, n, theta, RECOGNITION_DEPTH)
            rec = direction_from_itinerary(m, n, itin.b0, itin.pairs,
                                           tol=RECOGNITION_TOL)
        except (BoundaryOrbit, NoConvergence):
            redraws += 1
            continue
        err = abs(rec - theta)
        worst = max(worst, err)
        if err >= RECOGNITION_TOL:
            failures += 1
        done += 1
    return {"name": "direction-recognition", "surface": [m, n],
            "status": "pass" if failures == 0 else "fail",
            "trials": trials, "failures": failures,
            "quarantined_redraws": redraws, "max_error": worst,
            "depth": RECOGNITION_DEPTH, "tol": RECOGNITION_TOL}


def check_periodic_fixed_points():
    """Same-row-adjacent pairs are realized by periodic trajectories whose
    renormalization keeps the window length and the two-letter form."""
    failures = []
    pairs = [(m, n, *pair) for m, n in ((4, 3), (3, 4))
             for pair in sorted((a, b) for row in t0_grid(m, n)
                                for a in row for b in row if a != b)]
    for m, n, n1, n2 in pairs:
        try:
            theta, start, word = realize_periodic(m, n, n1, n2)
        except (NotCoAdjacent, VertexHit):
            failures.append([m, n, n1, n2, "realize"])
            continue
        w = list(word.labels)
        _, u = normalize(m, n, w)
        image = derive(m, n, u, cyclic=True)
        if not (fixed_point_form(w) in ((n1, n2), (n2, n1))
                and len(image) == len(w) and fixed_point_form(image)):
            failures.append([m, n, n1, n2, "renormalize"])
    return {"name": "periodic-fixed-points",
            "status": "pass" if not failures else "fail",
            "pairs_checked": len(pairs), "failures": failures}


def _entries(name, check, *surface, **kwargs):
    """The report entries of check(*surface, **kwargs); a check that raises
    gives one entry, with "status": "error" and the exception as "error"."""
    try:
        out = check(*surface, **kwargs)
    except Exception as exc:
        entry = {"name": name, "status": "error",
                 "error": f"{type(exc).__name__}: {exc}"}
        if surface:
            entry["surface"] = list(surface)
        return [entry]
    return list(out) if isinstance(out, tuple) else [out]


def run_verification(surfaces, seed=7, trials=None):
    """Run the acceptance checks; returns the report dict.

    trials, when given, replaces every randomized check's own trial count.
    A check that raises fails the report with one error entry; the others
    still run.
    """
    if trials is not None and not isinstance(trials, int):
        raise ValueError(f"trials must be an int, got {trials!r}")
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    kw = {"seed": seed} if trials is None else {"seed": seed, "trials": trials}
    checks = [*_entries("derivation-golden", check_derivation_golden),
              *_entries("substitution-goldens", check_substitution_goldens),
              *_entries("permutation-goldens", check_permutation_goldens),
              *_entries("diagram-structure", check_diagram_structure),
              *_entries("moduli", check_moduli),
              *_entries("substitution-conjugacy", check_conjugacy, **kw),
              *_entries("periodic-fixed-points", check_periodic_fixed_points)]
    for (m, n) in surfaces:
        for name, check in (("traced-windows", check_traced_windows),
                            ("geometric-oracle", check_geometric_oracle),
                            ("generation-inverse", check_generation_inverse),
                            ("direction-recognition",
                             check_direction_recognition)):
            checks += _entries(name, check, m, n, **kw)
    return {
        "seed": seed,
        "surfaces": [list(s) for s in surfaces],
        "checks": checks,
        "status": "pass" if all(c["status"] == "pass" for c in checks)
                  else "fail",
    }


# ---------------------------------------------------------------------------
# Subcommands.

def _require_renorm_params(m, n):
    if m < 3 or n < 3:
        raise SystemExit2(f"renormalization needs m, n >= 3, got ({m}, {n})")


class SystemExit2(Exception):
    """Usage error carrying its message; mapped to exit code 2."""


def cmd_surface(args):
    surf = build_surface(args.m, args.n)
    _emit(args, f"surface_m{args.m}n{args.n}.json", surf.to_json(indent=2))
    if args.svg:
        _emit(args, f"surface_m{args.m}n{args.n}.svg", surf.to_svg())
    return 0


def cmd_trace(args):
    if args.crossings < 1:
        raise SystemExit2(f"--crossings must be at least 1, got {args.crossings}")
    if args.svg and not args.out:
        raise SystemExit2("trace --svg needs --out")
    surf = build_surface(args.m, args.n)
    theta = _parse_angle(args.theta)
    if args.start:
        start = _parse_start(args.start)
        k, p = start
        if not (0 <= k < args.m and surf.polygons[k].contains(p)):
            raise SystemExit2(f"start {args.start} is not inside polygon "
                              f"{k} of 0..{args.m - 1}")
    else:
        if args.through not in surf.labels:
            raise SystemExit2(f"side {args.through} is not a label "
                              f"1..{len(surf.labels)}")
        start = start_through(surf, args.through, theta)
    word = trace(surf, start, theta, args.crossings)
    _print_word(args, word.labels, f"trace_m{args.m}n{args.n}.json", lambda: {
        "m": args.m, "n": args.n, "direction": theta,
        "start": {"polygon": start[0], "point": start[1]},
        "word": list(word.labels),
        "crossings": [{"label": c.label, "polygon": c.polygon,
                       "point": c.point, "t": c.t} for c in word.crossings]})
    if args.svg:
        _emit(args, f"trace_m{args.m}n{args.n}.svg", surf.to_svg(
            segments=[(c.entry, c.point) for c in word.crossings]))
    return 0


def cmd_derive(args):
    word = _parse_word(args.word)
    out = derive(args.m, args.n, word, cyclic=not args.open)
    _print_word(args, out, "derive.json", lambda: {
        "m": args.m, "n": args.n, "word": word, "cyclic": not args.open,
        "derived": out})
    return 0


def cmd_generate(args):
    word = _parse_word(args.word)
    out = generate(args.m, args.n, args.sector, word)
    _print_word(args, out, "generate.json", lambda: {
        "m": args.m, "n": args.n, "sector": args.sector, "word": word,
        "generated": out})
    return 0


def cmd_subst(args):
    if args.word and args.out:
        raise SystemExit2("subst --word prints its image; --out is for the table")
    if args.j is None:
        table = pseudo_substitution(args.m, args.n, args.i)
        kind = "pseudo-substitution"
    else:
        table = substitution(args.m, args.n, args.i, args.j)
        kind = "substitution"
    if not args.word:
        _emit(args, "substitution.json", {
            "m": args.m, "n": args.n, "i": args.i, "j": args.j, "kind": kind,
            "table": {k: list(v) for k, v in table.items()}})
        return 0
    word = _parse_word(args.word)
    unknown = [name for name in word if name not in table]
    if unknown:
        raise SystemExit2(f"unknown arrow names: {','.join(map(str, unknown))}")
    out = [u for name in word for u in table[name]]
    print(",".join(out))
    return 0


def cmd_farey(args):
    m, n = args.m, args.n
    if args.theta is None and args.depth is not None:
        raise SystemExit2("farey --depth needs --theta")
    if args.depth is not None and args.depth < 1:
        raise SystemExit2(f"--depth must be at least 1, got {args.depth}")
    if args.theta is not None:
        if args.out or args.svg:
            raise SystemExit2("farey --theta prints its result; it takes no "
                              "--out or --svg")
        theta = _parse_angle(args.theta)
        branch, image = farey_F(m, n, theta)
        data = {"theta": theta, "F": {"branch": branch, "image": image}}
        try:
            pair, ff = farey_FF(m, n, theta)
            data["FF"] = {"branch": list(pair), "image": ff}
        except DomainError:
            pass
        if args.depth is not None:
            itin = itinerary(m, n, theta, args.depth)
            data["itinerary"] = {"b0": itin.b0,
                                 "pairs": [list(p) for p in itin.pairs]}
            firsts = []  # where a neighbouring double's itinerary departs
            for x in (math.nextafter(theta, -math.inf),
                      math.nextafter(theta, math.inf)):
                try:
                    near = itinerary(m, n, x, args.depth).pairs
                except BoundaryOrbit:
                    continue  # a neighbour on a boundary tells nothing
                firsts += [k for k, (p, q) in enumerate(zip(near, itin.pairs))
                           if p != q][:1]
            if firsts:
                print(f"warning: the double {theta!r} does not determine "
                      f"itinerary pair {min(firsts)} (0-based) or later ones",
                      file=sys.stderr)
        _emit(args, None, data)  # --out was refused above, so this prints
        return 0
    branches = {f"{a},{b}": {"lo": lo, "hi": hi, "matrix": mat}
                for (a, b), (lo, hi, mat) in ff_branches(m, n).items()}
    data = {"m": m, "n": n,
            "gamma": gamma(m, n),
            "subsectors": [list(s) for s in subsectors(m, n)],
            "branches": branches}
    _emit(args, f"farey_m{m}n{n}.json", data)
    if args.svg:
        _emit(args, f"farey_m{m}n{n}.svg", _farey_svg(m, n))
    return 0


def _farey_svg(m, n):
    """Graph of the two-step Farey map as one polyline per branch."""
    width, samples = 480, 160  # pixels, points per branch
    span = math.pi / n
    sc = width / span
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{width}" viewBox="0 0 {width} {width}">',
           f'<rect width="{width}" height="{width}" fill="white" '
           'stroke="black"/>',
           f'<line x1="0" y1="{width}" x2="{width}" y2="0" '
           'stroke="#cccccc"/>']
    for (a, b), (lo, hi, _) in sorted(ff_branches(m, n).items()):
        pts = []
        for t in range(samples + 1):
            th = lo + (hi - lo) * (t / samples)
            th = min(max(th, lo + 1e-9), hi - 1e-9)
            _, image = farey_FF(m, n, th)
            pts.append(f"{th * sc:.2f},{width - image * sc:.2f}")
        out.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                   'stroke="black"/>')
    out.append("</svg>")
    return "\n".join(out)


def cmd_recognize(args):
    if not 0 < args.tol < math.inf:
        raise SystemExit2(f"--tol must be finite and above 0, got {args.tol}")
    m, n = args.m, args.n
    if args.itinerary:
        if args.depth is not None:
            raise SystemExit2("recognize --depth is for --word; --itinerary "
                              "gives the branches itself")
        usage = ("--itinerary must be integers b0,a1,b1[,a2,b2...], "
                 f"got {args.itinerary!r}")
        try:
            flat = [int(t) for t in args.itinerary.split(",")]
        except ValueError:
            raise SystemExit2(usage) from None
        if len(flat) < 3 or len(flat) % 2 == 0:
            raise SystemExit2(usage)
    elif args.word:
        word = _parse_word(args.word)
        depth = 8 if args.depth is None else args.depth
        if depth < 1:
            raise SystemExit2(f"--depth must be at least 1, got {depth}")
        depth += depth % 2
        # derivation stops early where the word runs out of letters; that
        # stage is ambiguous, so the stop rule below applies to it
        _, flat, amb = derivative_sequence(m, n, word, depth)
        if any(amb):
            # a derivative too short to fix its sector fixes no later one
            stop = amb.index(True)
            if stop < 3:
                if flat[stop] is None:
                    mm, nn = (m, n) if stop % 2 == 0 else (n, m)
                    raise SystemExit2(
                        f"word admissible in no sector of M({mm},{nn})")
                raise SystemExit2(f"derivation stage {stop} has ambiguous "
                                  "sectors, before any whole branch pair")
            print(f"warning: stopped at derivation stage {stop}, whose "
                  "sectors are ambiguous", file=sys.stderr)
            flat = flat[:stop]
    else:
        raise SystemExit2("recognize needs --itinerary or --word")
    b0, *rest = flat
    pairs = list(zip(rest[0::2], rest[1::2]))
    theta = direction_from_itinerary(m, n, b0, pairs, tol=args.tol)
    print(f"{theta:.12g}")
    return 0


def cmd_verify(args):
    if args.all_small:
        if args.m is not None or args.n is not None:
            raise SystemExit2("verify --all-small takes no -m or -n")
        surfaces = list(SMALL_SET)
    elif args.m is not None and args.n is not None:
        surfaces = [(args.m, args.n)]
    else:
        raise SystemExit2("verify needs -m/-n or --all-small")
    for (m, n) in surfaces:
        _require_renorm_params(m, n)
        if m % 2 == 0 and n % 2 == 0:
            raise SystemExit2(
                f"verify does not support m and n both even, got ({m}, {n})")
    report = run_verification(surfaces, seed=args.seed, trials=args.trials)
    _emit(args, "verify_report.json", report)
    return 0 if report["status"] == "pass" else 1


def cmd_diagram(args):
    if args.hooper:
        if args.format == "json":
            raise SystemExit2("diagram --hooper writes DOT only")
        text = build_hooper(args.m, args.n).to_dot()
        _emit(args, f"hooper_m{args.m}n{args.n}.dot", text)
        return 0
    if args.derivation:
        diagram = build_D0(args.m, args.n)
        stem = f"d0_m{args.m}n{args.n}"
    else:
        diagram = build_Ti(args.m, args.n, args.sector)
        stem = f"t{args.sector}_m{args.m}n{args.n}"
    if args.format == "dot":
        _emit(args, f"{stem}.dot", diagram.to_dot())
    else:
        _emit(args, f"{stem}.json", diagram.to_json(indent=2))
    return 0


# ---------------------------------------------------------------------------

def _build_parser():
    top = argparse.ArgumentParser(
        prog="bouwmoller",
        description="Semi-regular polygon surfaces, cutting sequences, "
                    "and their renormalization operators.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, out=True, renorm=False):
        p.add_argument("-m", type=int, required=True, help="polygon count")
        p.add_argument("-n", type=int, required=True, help="half the sides")
        if out:
            p.add_argument("--out", help="output directory")
        p.set_defaults(renorm=renorm)  # main then checks m, n >= 3

    # argparse parses a string default as if given, and counts an option
    # given at an int default as absent, so --through and -i default to text

    p = sub.add_parser("surface", help="construct and export a surface")
    common(p)
    p.add_argument("--svg", action="store_true", help="also write an SVG")
    p.set_defaults(fn=cmd_surface)

    p = sub.add_parser("trace", help="cutting sequence of a trajectory")
    common(p)
    p.add_argument("--theta", required=True, help="direction in radians")
    where = p.add_mutually_exclusive_group()
    where.add_argument("--start", help="start as POLY:X,Y")
    where.add_argument("--through", type=int, default="1",
                       help="start just behind this side (default 1)")
    p.add_argument("--crossings", type=int, default=64)
    p.add_argument("--svg", action="store_true",
                   help="with --out, also write the path as SVG")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("derive", help="derivation operator on a word")
    common(p, renorm=True)
    p.add_argument("--word", required=True, help="comma-separated labels")
    p.add_argument("--open", action="store_true",
                   help="treat the word as a finite window, not periodic")
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("generate", help="generation operator on a word")
    common(p, renorm=True)
    p.add_argument("-i", "--sector", type=int, required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("subst", help="substitution tables and images")
    common(p, renorm=True)
    p.add_argument("-i", type=int, required=True)
    p.add_argument("-j", type=int)
    what = p.add_mutually_exclusive_group()
    what.add_argument("--table", action="store_true", help="print the table")
    what.add_argument("--word", help="arrow names to substitute")
    p.set_defaults(fn=cmd_subst)

    p = sub.add_parser("farey", help="Farey map data and plots")
    common(p, renorm=True)
    p.add_argument("--theta", help="apply the map at this direction")
    p.add_argument("--depth", type=int, help="itinerary length")
    p.add_argument("--svg", action="store_true", help="write the map graph")
    p.set_defaults(fn=cmd_farey)

    p = sub.add_parser("recognize", help="direction from an itinerary")
    common(p, out=False, renorm=True)
    given = p.add_mutually_exclusive_group()
    given.add_argument("--itinerary", help="flat list b0,a1,b1,...")
    given.add_argument("--word", help="recover the itinerary from this word")
    p.add_argument("--depth", type=int,
                   help="derivation depth with --word (default 8)")
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(fn=cmd_recognize)

    p = sub.add_parser("diagram", help="transition/derivation/Hooper diagrams")
    common(p)
    p.add_argument("--format", choices=("json", "dot"),
                   help="json (default) or dot; --hooper writes dot")
    which = p.add_mutually_exclusive_group()
    which.add_argument("-i", "--sector", type=int, default="0",
                       help="T_i (default 0)")
    which.add_argument("--derivation", action="store_true")
    which.add_argument("--hooper", action="store_true")
    p.set_defaults(fn=cmd_diagram)

    p = sub.add_parser("verify", help="run the acceptance checks")
    p.add_argument("-m", type=int)
    p.add_argument("-n", type=int)
    p.add_argument("--all-small", action="store_true",
                   help="verify all six small surfaces")
    p.add_argument("--trials", type=int,
                   help="override per-check trial counts")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", help="output directory")
    p.set_defaults(fn=cmd_verify)

    return top


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command != "verify" and (args.m < 2 or args.n < 3):
        print(f"error: need m >= 2 and n >= 3, got ({args.m}, {args.n})",
              file=sys.stderr)
        return 2
    try:
        if getattr(args, "renorm", False):
            _require_renorm_params(args.m, args.n)
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away; send what Python flushes at exit to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (SystemExit2, VertexHit, DomainError, BoundaryOrbit, NoConvergence,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
