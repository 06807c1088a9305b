"""The three workloads: seeded inputs, the timed operation, its checks.

Each workload runs one operation at a time in a closed loop.  `inputs(k)`
makes the inputs of operation k from the seed alone; `run` is the timed
call into bouwmoller; `check` verifies the outputs afterwards, outside the
timed section.  Operations with the same `replay_key` must give the same
digest and counts, which run.py uses as its determinism self-check.

Library functions are looked up on their module at call time, so the spans
of spans.py see every call while they are installed.  Inputs come from the
benchmark's own generators, not from private helpers of cli, so that a
refactoring of cli cannot change what the benchmark runs.
"""

import hashlib
from array import array
import math
import random
import statistics
from dataclasses import dataclass, field
from time import perf_counter

from common import LONG, SMALL


@dataclass
class Checked:
    """Outcome of checking one operation."""
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    quarantined: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    digest: str = ""

    def fail(self, what):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def quarantine(self, kind, count=1):
        self.quarantined[kind] = self.quarantined.get(kind, 0) + count


def _interior_point(surf, rng):
    k = rng.randrange(len(surf.polygons))
    poly = surf.polygons[k]
    x0, y0, x1, y1 = poly.bounds()
    while True:
        p = (rng.uniform(x0, x1), rng.uniform(y0, y1))
        if poly.contains(p, tol=-1e-6):
            return k, p


class VerifySmall:
    """`bouwmoller verify --all-small` with the trial count cut to TRIALS.

    The program seed is fixed (the configuration of the probe that sized
    this workload), so every operation does the same work: at a fixed trial
    count the oracle's cost swings tenfold from one program seed to the
    next, and no run length here would give a steady median.  The
    benchmark seed shuffles the order of the surfaces instead.  That
    changes the report's bytes but not the work, because each check draws
    from its own (seed, check, m, n) stream.
    """

    name = "verify-small"
    PROGRAM_SEED = 1
    TRIALS = 20

    def __init__(self, bm, seed, surfaces):
        self.bm = bm
        self.seed = seed

    def inputs(self, k):
        order = list(SMALL)
        random.Random(f"{self.name}:{self.seed}:{k}").shuffle(order)
        return order

    def run(self, order):
        report = self.bm["cli"].run_verification(
            order, seed=self.PROGRAM_SEED, trials=self.TRIALS)
        return report, {}

    def replay_key(self, k):
        return "same-work"

    @staticmethod
    def throughputs(ops):
        return {"verify_s": (statistics.median(op.seconds for op in ops), "s")}

    def check(self, order, report):
        out = Checked()
        checks = report["checks"]
        for c in checks:
            out.attempted += 1
            if c["status"] != "pass":
                out.fail(f"{c['name']} {c.get('surface', '')} {c['status']}")
            for key in ("redraws", "ambiguous_quarantined", "ambiguous_redrawn",
                        "quarantined_redraws"):
                if c.get(key):
                    out.quarantine(f"{c['name']}.{key}", c[key])
            for key, count in c.get("skipped", {}).items():
                if count:
                    out.quarantine(f"{c['name']}.skipped.{key}", count)
        if report["status"] != "pass" and not out.failed:
            out.fail(f"report status {report['status']}")
        if [list(s) for s in order] != report["surfaces"]:
            out.fail("report lists other surfaces than requested")
        canonical = sorted(checks, key=lambda c: (c["name"], c.get("surface", [])))
        out.digest = hashlib.sha256(repr(canonical).encode()).hexdigest()
        out.counts = {"checks": len(checks),
                      "trials": sum(c.get("trials", 0) for c in checks)}
        return out


class TraceLong:
    """One WINDOW-crossing trace per surface of LONG, from a seeded interior
    start in a seeded direction at least 1e-6 off every sector boundary."""

    name = "trace-long"
    WINDOW = 10000

    def __init__(self, bm, seed, surfaces):
        self.bm = bm
        self.seed = seed
        self.surfaces = surfaces

    def _draw(self, surf, rng):
        n = surf.n
        while True:
            theta = rng.uniform(0, 2 * math.pi)
            if not self.bm["tracer"].sector_of(theta, n, tol=1e-6)[1]:
                return theta, _interior_point(surf, rng)

    def inputs(self, k):
        out = []
        for m, n in LONG:
            surf = self.surfaces[(m, n)]
            rng = random.Random(f"{self.name}:{self.seed}:{k}:{m},{n}")
            out.append((surf, rng, self._draw(surf, rng)))
        return out

    def run(self, inputs):
        tracer = self.bm["tracer"]
        words = []
        for surf, rng, (theta, start) in inputs:
            redraws = 0
            while True:
                try:
                    word = tracer.trace(surf, start, theta, self.WINDOW)
                    break
                except tracer.VertexHit:
                    redraws += 1
                    theta, start = self._draw(surf, rng)
            words.append((surf.m, surf.n, theta, word.labels, redraws))
        return words, {}

    def replay_key(self, k):
        return k

    @staticmethod
    def throughputs(ops):
        crossings = sum(op.checked.counts["crossings"] for op in ops)
        return {"crossings_per_s": (crossings / sum(op.seconds for op in ops), "1/s")}

    def check(self, inputs, words):
        out = Checked()
        digest = hashlib.sha256()
        crossings = 0
        for m, n, theta, labels, redraws in words:
            out.attempted += 1
            if redraws:
                out.quarantine("VertexHit", redraws)
            sector = self.bm["tracer"].sector_of(theta, n)[0]
            if len(labels) != self.WINDOW:
                out.fail(f"({m},{n}) window has {len(labels)} crossings")
            elif sector not in self.bm["diagrams"].admissible_in(m, n, labels):
                out.fail(f"({m},{n}) theta={theta!r} not admissible in sector {sector}")
            crossings += len(labels)
            digest.update(array("H", [m, n, *labels]).tobytes())
        out.digest = digest.hexdigest()
        out.counts = {"crossings": crossings, "windows": len(words)}
        return out


class Renormalize:
    """Three parts per operation, none of which traces:

    (a) generate -> derive -> normalize round trips on 6-15-letter T0 words,
        TRIPS per small surface;
    (b) derivative_sequence at depth DEPTH on one LONG_WORD-letter word per
        small surface, built once per run by iterating generate (the letters
        derived per operation vary by about 1 % between seeds);
    (c) itinerary at depth ITINERARY -> direction_from_itinerary, RECOGNITIONS
        per small surface, redrawing quarantined directions.

    The sizes make each part roughly a third of the operation's time.
    """

    name = "renormalize"
    TRIPS = 200
    LONG_WORD = 20000
    DEPTH = 4
    RECOGNITIONS = 20
    ITINERARY = 25
    TOL = 1e-6

    def __init__(self, bm, seed, surfaces):
        self.bm = bm
        self.seed = seed
        self.successors = {}
        for m, n in SMALL:
            nxt = {}
            for a, b in bm["diagrams"].build_T0(m, n).arrows:
                nxt.setdefault(a, []).append(b)
            self.successors[(m, n)] = {a: sorted(bs) for a, bs in nxt.items()}
        rng = random.Random(f"{self.name}:{seed}:long-words")
        self.longs = [(m, n, self._long_word(m, n, rng)) for m, n in SMALL]

    def _t0_word(self, m, n, rng, length):
        nxt = self.successors[(m, n)]
        w = [rng.choice(sorted(nxt))]
        while len(w) < length:
            w.append(rng.choice(nxt[w[-1]]))
        return w

    def _long_word(self, m, n, rng):
        """A LONG_WORD-letter T0 word of M(m,n), DEPTH or more generations
        above a random one.  Prefixes of admissible words are admissible,
        so each generation is cut to LONG_WORD letters."""
        generate = self.bm["renorm"].generate
        w = self._t0_word(m, n, rng, self.LONG_WORD // 8)
        mm, nn = n, m
        steps = 0
        while steps < self.DEPTH or len(w) < self.LONG_WORD or steps % 2:
            w = generate(mm, nn, rng.randrange(1, mm), w)[:self.LONG_WORD]
            mm, nn = nn, mm
            steps += 1
        return w

    def inputs(self, k):
        rng = random.Random(f"{self.name}:{self.seed}:{k}")
        trips, recs = [], []
        for m, n in SMALL:
            for _ in range(self.TRIPS):
                i = rng.randrange(1, n)
                trips.append((m, n, i, self._t0_word(m, n, rng, rng.randrange(6, 16))))
            recs.append((m, n, random.Random(f"{self.name}:{self.seed}:{k}:{m},{n}")))
        return trips, self.longs, recs

    def run(self, inputs):
        renorm, farey = self.bm["renorm"], self.bm["farey"]
        trips, longs, recs = inputs
        quarantine = (farey.BoundaryOrbit, farey.NoConvergence)
        t0 = perf_counter()
        out_a = []
        for m, n, i, w in trips:
            try:
                der = renorm.derive(n, m, renorm.generate(n, m, i, w))
                out_a.append((der, renorm.normalize(m, n, der)))
            except Exception as exc:  # checked as a failure below
                out_a.append((None, exc))
        t1 = perf_counter()
        out_b = []
        for m, n, word in longs:
            try:
                out_b.append(renorm.derivative_sequence(m, n, word, self.DEPTH))
            except Exception as exc:
                out_b.append(exc)
        t2 = perf_counter()
        out_c = []
        for m, n, rng in recs:
            done = redraws = 0
            while done < self.RECOGNITIONS:
                theta = rng.uniform(0, 2 * math.pi)
                try:
                    itin = farey.itinerary(m, n, theta, self.ITINERARY)
                    got = farey.direction_from_itinerary(
                        m, n, itin.b0, itin.pairs, tol=self.TOL)
                except quarantine:
                    redraws += 1
                    continue
                except Exception as exc:
                    got = exc
                out_c.append(((m, n), theta, got, redraws))
                done += 1
                redraws = 0
        t3 = perf_counter()
        parts = {"roundtrips_s": t1 - t0, "derivation_s": t2 - t1,
                 "recognition_s": t3 - t2}
        return (out_a, out_b, out_c), parts

    def replay_key(self, k):
        return k

    @staticmethod
    def throughputs(ops):
        def per_s(count, part):
            return (sum(op.checked.counts[count] for op in ops)
                    / sum(op.parts[part] for op in ops), "1/s")
        return {"roundtrips_per_s": per_s("roundtrips", "roundtrips_s"),
                "letters_per_s": per_s("letters", "derivation_s"),
                "recognitions_per_s": per_s("recognitions", "recognition_s")}

    def check(self, inputs, outputs):
        trips, longs, _ = inputs
        out_a, out_b, out_c = outputs
        out = Checked()
        digest = hashlib.sha256()
        for (m, n, i, w), (der, got) in zip(trips, out_a):
            out.attempted += 1
            digest.update(repr(got).encode())
            if got == (i, w):
                continue
            if der is not None and not isinstance(got, Exception):
                upward = [s for s in self.bm["diagrams"].admissible_in(m, n, der) if s < n]
                if len(upward) != 1:
                    out.quarantine("ambiguous")
                    continue
            out.fail(f"round trip ({m},{n}) i={i} w={w}: {got!r}")
        letters = 0
        for (m, n, word), seq in zip(longs, out_b):
            out.attempted += 1
            if isinstance(seq, Exception):
                out.fail(f"derivative_sequence ({m},{n}): {seq!r}")
                continue
            words, sectors, ambiguous = seq
            if len(words) != self.DEPTH + 1 or not all(words):
                out.fail(f"derivative_sequence ({m},{n}) stopped at {len(words) - 1}")
            if any(ambiguous):
                out.quarantine("ambiguous-stage", sum(ambiguous))
            letters += sum(len(x) for x in words[:self.DEPTH])
            for x in words:
                digest.update(array("H", [len(x), *x]).tobytes())
            digest.update(repr(sectors).encode())
        for surface, theta, got, redraws in out_c:
            out.attempted += 1
            if redraws:
                out.quarantine("BoundaryOrbit/NoConvergence", redraws)
            digest.update(repr(got).encode())
            if isinstance(got, Exception) or not abs(got - theta) < self.TOL:
                out.fail(f"recognition {surface} theta={theta!r}: {got!r}")
        out.digest = digest.hexdigest()
        out.counts = {"roundtrips": len(out_a), "letters": letters,
                      "recognitions": len(out_c)}
        return out


WORKLOADS = {w.name: w for w in (VerifySmall, TraceLong, Renormalize)}
