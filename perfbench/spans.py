"""Spans at the module boundaries of bouwmoller, installed from outside.

`Recorder.install` replaces each module's entry points (ENTRY_POINTS) by a
wrapper that times the call, and rebinds the wrapper wherever another module
bound the original with `from .x import y`.  Every call therefore opens a
span, whatever module it comes from; a call inside the same module opens one
too, because module code looks its globals up at call time.  `uninstall`
puts every original back.

Spans are not kept one by one: verify-small opens tens of thousands per
operation.  They are folded, as they close, into per-(phase, module,
function) totals.  A span's self time is its duration minus the durations of
the spans it opened, so the module self times of a phase add up to the time
spent inside top-level spans.
"""

import functools
import time

# The functions other modules import by name, plus the verify checks.
# Three small helpers are left out on purpose, and their time counts in the
# caller's self time: itinerary calls farey.gamma and farey.reflection 100
# times at depth 25, and every build_Ti and build_D0 calls
# diagrams.t0_grid; spans there would multiply the tracing overhead.
ENTRY_POINTS = {
    "surface": ("build_surface",),
    "tracer": ("trace", "start_through", "sector_of", "realize_periodic"),
    "hooper": ("build_hooper", "moduli"),
    "diagrams": ("build_T0", "build_Ti", "build_D0",
                 "sector_permutation", "admissible_in", "arrow_alphabet"),
    "renorm": ("derive", "normalize", "derivative_sequence",
               "generation_diagram", "generate", "pseudo_substitution",
               "substitution", "tr_operator", "tr_operator_inverse",
               "fixed_point_form"),
    "farey": ("itinerary", "direction_from_itinerary", "ff_branches",
              "farey_F", "farey_FF", "subsectors"),
    "cli": ("run_verification", "check_derivation_golden",
            "check_substitution_goldens", "check_permutation_goldens",
            "check_diagram_structure", "check_moduli", "check_conjugacy",
            "check_periodic_fixed_points", "check_infinite_derivability",
            "check_itinerary_agreement", "check_geometric_oracle",
            "check_generation_inverse", "check_direction_recognition"),
}

MODULES = tuple(ENTRY_POINTS)

# cli keeps its checks in these tuples too; run_verification tests
# `fn is check_conjugacy`, so the tuples must hold the same wrappers.
CHECK_TUPLES = ("GLOBAL_CHECKS", "SURFACE_CHECKS")

# Phases whose calls feed the cross-call counters of Recorder._observe; the
# benchmark's own input generation and output checks do not.
COUNTED_PHASES = ("setup", "timed")


class FnStats:
    """Totals of one function's spans in one phase."""

    __slots__ = ("calls", "incl_s", "self_s", "cold_calls", "cold_s",
                 "errors", "work", "max_work")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.cold_calls = 0
        self.cold_s = 0.0
        self.errors = {}
        self.work = 0
        self.max_work = 0

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}


def _work(fn_name, args, result):
    """Exact work count of one call: crossings traced or letters derived."""
    if fn_name == "trace":
        return len(result.labels)
    if fn_name == "derive":
        return len(args[2])
    if fn_name == "derivative_sequence":
        return sum(len(w) for w in result[0][:-1])
    return 0


class Recorder:
    """Folds spans into totals per phase; see the module docstring."""

    def __init__(self, bm):
        self.bm = bm  # dict: module name -> module object, plus "package"
        self.phase = "setup"
        self.stats = {}
        self.stack = []
        self.saved = []
        self.last_itinerary_s = None
        self.roundtrips_s = []
        self.stages = 0
        self.ambiguous_stages = 0
        self.oracle = None
        self.oracle_trials = 0
        self.oracle_dual_calls = 0
        self.oracle_crossings = 0
        self.check_s = {}

    # -- installation -----------------------------------------------------

    def install(self):
        if self.saved:
            raise RuntimeError("spans already installed")
        homes = [self.bm[name] for name in MODULES] + [self.bm["package"]]
        wrapped = {}
        for mod_name, fn_names in ENTRY_POINTS.items():
            mod = self.bm[mod_name]
            for fn_name in fn_names:
                orig = getattr(mod, fn_name, None)
                if orig is not None:  # a later version may have dropped it
                    wrapped[id(orig)] = (orig, self._wrap(mod_name, fn_name, orig))
        for home in homes:
            for attr, value in list(vars(home).items()):
                if callable(value) and id(value) in wrapped:
                    orig, span = wrapped[id(value)]
                    if value is orig:
                        self.saved.append((home, attr, value))
                        setattr(home, attr, span)
        cli = self.bm["cli"]
        for attr in CHECK_TUPLES:
            orig = getattr(cli, attr, None)
            if orig is not None:
                self.saved.append((cli, attr, orig))
                setattr(cli, attr, tuple(wrapped.get(id(fn), (fn, fn))[1] for fn in orig))

    def uninstall(self):
        for home, attr, value in reversed(self.saved):
            setattr(home, attr, value)
        self.saved = []

    def _wrap(self, mod_name, fn_name, fn):
        cache_info = getattr(fn, "cache_info", None)
        rec = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            return rec._call(mod_name, fn_name, fn, cache_info, args, kwargs)

        if cache_info is not None:
            span.cache_info = fn.cache_info
            span.cache_clear = fn.cache_clear
        return span

    # -- recording --------------------------------------------------------

    def _call(self, mod_name, fn_name, fn, cache_info, args, kwargs):
        children = [0.0]
        self.stack.append(children)
        misses = cache_info().misses if cache_info is not None else 0
        if fn_name == "check_geometric_oracle" and self.phase in COUNTED_PHASES:
            self.oracle = (args[0], args[1])
            self.oracle_trials += kwargs.get("trials", 100)
        error = None
        result = None
        work = 0
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as exc:
            error = type(exc).__name__
            raise
        finally:
            dur = time.perf_counter() - t0
            self.stack.pop()
            if self.stack:
                self.stack[-1][0] += dur
            st = self._stats(mod_name, fn_name)
            st.calls += 1
            st.incl_s += dur
            st.self_s += dur - children[0]
            if cache_info is not None and cache_info().misses != misses:
                st.cold_calls += 1
                st.cold_s += dur
            if error is not None:
                st.errors[error] = st.errors.get(error, 0) + 1
            else:
                work = _work(fn_name, args, result)
                st.work += work
                st.max_work = max(st.max_work, work)
            if self.phase in COUNTED_PHASES:
                self._observe(fn_name, args, result, error, dur, work)

    def _observe(self, fn_name, args, result, error, dur, work):
        """Cross-call counters: round trips, ambiguity, the oracle, checks."""
        if fn_name == "itinerary":
            self.last_itinerary_s = dur if error is None else None
        elif fn_name == "direction_from_itinerary":
            if error is None and self.last_itinerary_s is not None:
                self.roundtrips_s.append(self.last_itinerary_s + dur)
            self.last_itinerary_s = None
        elif fn_name == "derivative_sequence" and error is None:
            self.stages += len(result[2])
            self.ambiguous_stages += sum(result[2])
        elif fn_name == "trace" and self.oracle is not None:
            m, n = self.oracle
            self.oracle_crossings += work
            if (args[0].m, args[0].n) == (n, m):
                self.oracle_dual_calls += 1
        elif fn_name == "check_geometric_oracle":
            self.oracle = None
        if fn_name.startswith("check_") and error is None:
            key = (self.phase, result["name"])
            self.check_s[key] = self.check_s.get(key, 0.0) + dur

    def _stats(self, mod_name, fn_name):
        key = (self.phase, mod_name, fn_name)
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = FnStats()
        return st

    # -- summaries --------------------------------------------------------

    def fn(self, mod_name, fn_name, phases=None):
        """Totals of one function over the given phases (default: all)."""
        out = FnStats()
        for (phase, mod, name), st in self.stats.items():
            if mod != mod_name or name != fn_name:
                continue
            if phases is not None and phase not in phases:
                continue
            out.calls += st.calls
            out.incl_s += st.incl_s
            out.self_s += st.self_s
            out.cold_calls += st.cold_calls
            out.cold_s += st.cold_s
            out.work += st.work
            out.max_work = max(out.max_work, st.max_work)
            for k, v in st.errors.items():
                out.errors[k] = out.errors.get(k, 0) + v
        return out

    def module_self_s(self, mod_name, phases=None):
        return sum(st.self_s for (phase, mod, _), st in self.stats.items()
                   if mod == mod_name and (phases is None or phase in phases))

    def module_calls(self, mod_name, phases=None):
        return sum(st.calls for (phase, mod, _), st in self.stats.items()
                   if mod == mod_name and (phases is None or phase in phases))

    def dump(self):
        """Everything recorded, as plain data for the run record."""
        return {
            "functions": [{"phase": p, "module": m, "function": f, **st.as_dict()}
                          for (p, m, f), st in sorted(self.stats.items())],
            "check_s": [{"phase": p, "check": c, "s": s}
                        for (p, c), s in sorted(self.check_s.items())],
            "roundtrips": len(self.roundtrips_s),
            "derivative_stages": self.stages,
            "ambiguous_stages": self.ambiguous_stages,
            "oracle_trials": self.oracle_trials,
            "oracle_dual_calls": self.oracle_dual_calls,
            "oracle_crossings": self.oracle_crossings,
        }
