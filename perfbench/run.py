"""Benchmark of bouwmoller: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload {verify-small,trace-long,renormalize}
        --seed N --seconds S --trace {0,1}

One process, one caller, a closed loop: each operation starts when the
previous one returns, and the benchmark runs nothing beside it (BLAS pools
are pinned to one thread, and no subprocess runs inside a timed section).

--trace 0 measures the end-to-end metrics: setup_s, the median of several
cold set-ups in fresh interpreters (cold_setup.py), and latency_ms, the
median wall time of one operation over S seconds of operations.  Afterwards
an operation is replayed and must give the same digest and counts.

--trace 1 measures the per-module metrics.  It runs each operation twice in
a row, untraced and then with the spans of spans.py installed, until the
untraced runs add up to S/2 seconds.  The two runs of an operation must
agree, and the time ratio of the two passes is the tracing overhead.  Module metrics cover the cold
fill and the traced pass; input generation and checks are excluded.

Every output is checked.  Human-readable metrics go to stdout, the full
record (provenance, every operation, every span total) to
perfbench/out/<workload>-seed<N>-trace<T>.json, and the last stdout line is
one JSON object with correct, attempted, failed and the metrics.  The exit
code is 1 when any check fails.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass

import common
import spans
from workloads import WORKLOADS, Checked

SETUP_RUNS = 9
# Stop starting operations after this much wall time in one loop, so that
# a run ends within its time limit even if an operation turns out slow.
LOOP_WALL_CAP_S = 100.0
ROUNDTRIP_PERCENTILES = (50, 75, 90, 95, 99, 99.9, 99.99)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(common.SETUP_SURFACES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# Provenance.

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = common.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, numpy):
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "nproc": os.cpu_count(), "affinity_cpus": affinity,
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in common.BLAS_THREAD_VARS},
        "git_commit": _git_commit(), "seed": args.seed,
        "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace, "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


# ---------------------------------------------------------------------------
# Set-up and the closed loop.

class ColdSetups:
    """Cold set-ups in fresh interpreters (cold_setup.py), spread over the
    timed loop so that a slow spell of the machine hits few of them."""

    def __init__(self, workload, budget_s):
        self.workload = workload
        self.every_s = budget_s / SETUP_RUNS
        self.results = []

    def _run_one(self):
        script = common.ROOT / "perfbench" / "cold_setup.py"
        proc = subprocess.run([sys.executable, str(script), self.workload],
                              cwd=common.ROOT, capture_output=True, text=True,
                              timeout=120, check=False)
        if proc.returncode != 0:
            sys.exit(f"perfbench: cold set-up failed:\n{proc.stderr}")
        self.results.append(json.loads(proc.stdout.strip().splitlines()[-1]))

    def due(self, measured_s):
        """Run the set-ups whose turn has come; called between operations."""
        while (len(self.results) < SETUP_RUNS
               and measured_s >= len(self.results) * self.every_s):
            self._run_one()

    def finish(self):
        while len(self.results) < SETUP_RUNS:
            self._run_one()
        return self.results


@dataclass
class Op:
    """One operation: its index, wall time, part times and check outcome."""
    k: int
    seconds: float
    parts: dict
    checked: Checked

    def as_dict(self):
        return {"k": self.k, "seconds": self.seconds, "parts": self.parts,
                **asdict(self.checked)}


def _set_phase(rec, phase):
    if rec is not None:
        rec.phase = phase


def run_ops(wl, rec, budget_s=None, ks=None, between=None):
    """Operations in a closed loop: ks if given, else 0, 1, ... until their
    measured time reaches budget_s.  between(measured_s) runs before each
    operation, outside its timing."""
    ops = []
    measured = 0.0
    wall0 = time.perf_counter()
    k = 0
    while True:
        if ks is not None:
            if len(ops) == len(ks):
                break
            k = ks[len(ops)]
        elif ops and (measured >= budget_s
                      or time.perf_counter() - wall0 > LOOP_WALL_CAP_S):
            break
        if between is not None:
            between(measured)
        _set_phase(rec, "inputs")
        inputs = wl.inputs(k)
        _set_phase(rec, "timed")
        t0 = time.perf_counter()
        try:
            outputs, parts = wl.run(inputs)
            error = None
        except Exception as exc:  # an operation that raises is a failure
            error = exc
        dt = time.perf_counter() - t0
        _set_phase(rec, "check")
        if error is None:
            checked = wl.check(inputs, outputs)
        else:
            checked, parts = Checked(attempted=1), {}
            checked.fail(f"operation {k} raised {error!r}")
        ops.append(Op(k, dt, parts, checked))
        measured += dt
        k += 1
    return ops


def same_result(a, b):
    return (a.checked.digest, a.checked.counts) == (b.checked.digest, b.checked.counts)


def determinism(wl, ops):
    """Ops with equal replay keys must agree; replay op 0 if none share one.

    Returns (pairs compared, mismatching pairs, replayed ops)."""
    by_key = {}
    for op in ops:
        by_key.setdefault(wl.replay_key(op.k), []).append(op)
    pairs = [(group[0], other) for group in by_key.values() for other in group[1:]]
    replayed = []
    if not pairs:
        replayed = run_ops(wl, None, ks=[ops[0].k])
        pairs = [(ops[0], replayed[0])]
    bad = [(a.k, b.k) for a, b in pairs if not same_result(a, b)]
    return len(pairs), bad, replayed


# ---------------------------------------------------------------------------
# Metrics.

def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _tail(samples):
    """Highest percentile with at least ten samples beyond it (nearest rank)."""
    xs = sorted(samples)
    best = None
    for p in ROUNDTRIP_PERCENTILES:
        if len(xs) * (1 - p / 100) >= 10:
            best = (p, xs[min(len(xs) - 1, int(len(xs) * p / 100))])
    return best


def module_metrics(rec, import_s):
    """Per-module numbers from the spans of the cold fill and traced pass.

    Returns (per_layer, extra): per_layer holds the metrics that exist on
    every workload (BENCHMARK.json lists them); extra holds the times of
    functions a workload may never call, which are printed and recorded
    but not listed."""
    phases = ("setup", "timed")
    f = lambda mod, fn: rec.fn(mod, fn, phases)
    trace = f("tracer", "trace")
    sp = f("diagrams", "sector_permutation")
    itin = f("farey", "itinerary")
    direction = f("farey", "direction_from_itinerary")
    quarantined = itin.errors.get("BoundaryOrbit", 0) + direction.errors.get("NoConvergence", 0)
    ratio = lambda a, b: a / b if b else 0.0
    per_layer = {
        "surface.build_calls": (f("surface", "build_surface").calls, "count"),
        "surface.build_s": (f("surface", "build_surface").incl_s, "s"),
        "tracer.calls": (trace.calls, "count"),
        "tracer.crossings": (trace.work, "count"),
        "tracer.self_s": (rec.module_self_s("tracer", phases), "s"),
        "tracer.crossings_per_s": (ratio(trace.work, trace.incl_s), "1/s"),
        "tracer.vertex_hit_ratio": (ratio(trace.errors.get("VertexHit", 0), trace.calls), "ratio"),
        "tracer.max_call_crossings": (trace.max_work, "count"),
        "hooper.calls": (rec.module_calls("hooper", phases), "count"),
        "diagrams.self_s": (rec.module_self_s("diagrams", phases), "s"),
        "diagrams.sector_permutation_cold_s": (sp.cold_s, "s"),
        "diagrams.sector_permutation_calls": (sp.calls, "count"),
        "diagrams.admissible_in_calls": (f("diagrams", "admissible_in").calls, "count"),
        "diagrams.build_Ti_calls": (f("diagrams", "build_Ti").calls, "count"),
        "diagrams.build_Ti_s": (f("diagrams", "build_Ti").incl_s, "s"),
        "diagrams.build_D0_calls": (f("diagrams", "build_D0").calls, "count"),
        "renorm.self_s": (rec.module_self_s("renorm", phases), "s"),
        "renorm.derive_calls": (f("renorm", "derive").calls, "count"),
        "renorm.derive_letters": (f("renorm", "derive").work, "count"),
        "renorm.ambiguous_ratio": (ratio(rec.ambiguous_stages, rec.stages), "ratio"),
        "farey.itinerary_calls": (itin.calls, "count"),
        "farey.quarantine_ratio": (ratio(quarantined, itin.calls), "ratio"),
        "farey.roundtrip_samples": (len(rec.roundtrips_s), "count"),
        "cli.import_s": (import_s, "s"),
        "cli.oracle_crossings": (rec.oracle_crossings, "count"),
        "cli.oracle_dual_calls": (rec.oracle_dual_calls, "count"),
        "cli.oracle_useful_ratio": (ratio(rec.oracle_trials, rec.oracle_dual_calls), "ratio"),
    }
    extra = {
        "hooper.self_s": (rec.module_self_s("hooper", phases), "s"),
        "farey.self_s": (rec.module_self_s("farey", phases), "s"),
        "cli.self_s": (rec.module_self_s("cli", phases), "s"),
        "diagrams.admissible_in_s": (f("diagrams", "admissible_in").incl_s, "s"),
        "renorm.derive_s": (f("renorm", "derive").incl_s, "s"),
        "renorm.normalize_s": (f("renorm", "normalize").incl_s, "s"),
        "renorm.generate_s": (f("renorm", "generate").incl_s, "s"),
        "renorm.derivative_sequence_s": (f("renorm", "derivative_sequence").incl_s, "s"),
        "farey.itinerary_s": (itin.incl_s, "s"),
        "farey.direction_s": (direction.incl_s, "s"),
    }
    us = [s * 1e6 for s in rec.roundtrips_s]
    if us:
        extra["farey.roundtrip_p50_us"] = (_median(us), "us")
        tail = _tail(us)
        if tail is not None:
            extra["farey.roundtrip_tail_us"] = (tail[1], "us")
            extra["farey.roundtrip_tail_percentile"] = (tail[0], "%")
    for (phase, check), s in sorted(rec.check_s.items()):
        if phase in phases:
            extra[f"cli.check.{check}_s"] = (s, "s")
    return per_layer, extra


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _print_metrics(title, metrics):
    print(f"# {title}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {_fmt(value)} {unit}")


# ---------------------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    common.single_thread_env()
    t0 = time.perf_counter()
    bm = common.load_bouwmoller()
    import_s = time.perf_counter() - t0
    import numpy

    rec = spans.Recorder(bm) if args.trace else None
    if rec is not None:
        rec.install()
    _set_phase(rec, "setup")
    t0 = time.perf_counter()
    surfaces = common.fill_caches(bm, common.SETUP_SURFACES[args.workload])
    fill_s = time.perf_counter() - t0
    _set_phase(rec, "inputs")
    wl = WORKLOADS[args.workload](bm, args.seed, surfaces)

    traced_ops = []
    setups = []
    try:
        if rec is None:
            cold = ColdSetups(args.workload, args.seconds)
            ops = run_ops(wl, None, budget_s=args.seconds, between=cold.due)
            setups = cold.finish()
            compared, mismatched, replayed = determinism(wl, ops)
        else:
            ops = []
            wall0 = time.perf_counter()
            while not ops or (sum(op.seconds for op in ops) < args.seconds / 2
                              and time.perf_counter() - wall0 < LOOP_WALL_CAP_S):
                rec.uninstall()
                ops += run_ops(wl, None, ks=[len(ops)])
                rec.install()
                traced_ops += run_ops(wl, rec, ks=[len(traced_ops)])
            compared = len(ops)
            mismatched = [(a.k, b.k) for a, b in zip(ops, traced_ops) if not same_result(a, b)]
            replayed = []
    finally:
        if rec is not None:
            rec.uninstall()

    record = {"provenance": provenance(args, numpy), "in_process_import_s": import_s,
              "in_process_fill_s": fill_s, "cold_setups": setups}
    checked_ops = ops + traced_ops + replayed
    attempted = sum(op.checked.attempted for op in checked_ops)
    failed = sum(op.checked.failed for op in checked_ops) + len(mismatched)
    attempted += compared
    quarantined = {}
    for op in checked_ops:
        for kind, count in op.checked.quarantined.items():
            quarantined[kind] = quarantined.get(kind, 0) + count
    failures = [f for op in checked_ops for f in op.checked.failures]
    failures += [f"determinism: ops {a} and {b} differ" for a, b in mismatched]

    own = wl.throughputs(ops)
    summary = {
        "operations": (len(ops), "count"),
        "error_ratio": (failed / attempted, "ratio"),
        "quarantined": (sum(quarantined.values()), "count"),
        "determinism_pairs": (compared, "count"),
    }
    if rec is None:
        totals = [s["import_s"] + s["fill_s"] for s in setups]
        result = {
            "setup_s": (_median(totals), "s"),
            "latency_ms": (_median([op.seconds for op in ops]) * 1e3, "ms"),
        }
        _print_metrics(f"{args.workload}: end to end, seed {args.seed}", result)
        _print_metrics("workload", {**own, **summary,
                                    "setup_import_s": (_median([s["import_s"] for s in setups]), "s"),
                                    "setup_fill_s": (_median([s["fill_s"] for s in setups]), "s")})
    else:
        untraced = sum(op.seconds for op in ops)
        traced = sum(op.seconds for op in traced_ops)
        result, extra = module_metrics(rec, import_s)
        result["spans.overhead_ratio"] = (traced / untraced - 1, "ratio")
        timed_self = {m: rec.module_self_s(m, ("timed",)) for m in spans.MODULES}
        accounting = {f"timed.{m}.self_s": (s, "s") for m, s in timed_self.items()}
        accounting["timed.module_self_sum_s"] = (sum(timed_self.values()), "s")
        accounting["timed.traced_wall_s"] = (traced, "s")
        accounting["timed.untraced_wall_s"] = (untraced, "s")
        _print_metrics(f"{args.workload}: per module, seed {args.seed}", result)
        _print_metrics("per module, not on every workload", extra)
        _print_metrics("traced pass: module self times against wall time", accounting)
        _print_metrics("workload (untraced pass)", {**own, **summary})
        record["extra_metrics"] = {k: v for k, (v, _) in extra.items()}
        record["accounting"] = {k: v for k, (v, _) in accounting.items()}
        record["spans"] = rec.dump()
    if quarantined:
        print("# quarantined (not errors): " + json.dumps(quarantined, sort_keys=True))
    for f in failures[:20]:
        print(f"FAILED: {f}")

    correct = failed == 0
    record.update({
        "correct": correct, "attempted": attempted, "failed": failed,
        "failures": failures, "quarantined": quarantined,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.items()},
        "workload_metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**own, **summary}.items()},
        "ops": [op.as_dict() for op in ops],
        "traced_ops": [op.as_dict() for op in traced_ops],
        "replayed_ops": [op.as_dict() for op in replayed],
    })
    out_dir = common.ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True, default=repr) + "\n")
    print(f"# record: {path.relative_to(common.ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
