"""The package namespace: every exported name resolves."""

import ast
import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bouwmoller
from bouwmoller.diagrams import (admissible_in, arrow_alphabet, build_D0,
                                 build_T0, sector_permutation, t0_grid)
from bouwmoller.farey import (direction_from_itinerary, gamma, itinerary,
                              reflection, subsectors)
from bouwmoller.hooper import build_hooper, moduli
from bouwmoller.renorm import derive, generate, generation_diagram, normalize
from bouwmoller.surface import build_surface


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from bouwmoller import *", namespace)
    assert [name for name in bouwmoller.__all__ if name not in namespace] == []
    assert len(set(bouwmoller.__all__)) == len(bouwmoller.__all__)


def test_the_package_keeps_the_one_export_list():
    names = [info.name for info in pkgutil.iter_modules(bouwmoller.__path__)]
    assert "farey" in names and "renorm" in names
    for name in names:
        module = importlib.import_module(f"bouwmoller.{name}")
        assert not hasattr(module, "__all__"), name
    assert bouwmoller.__all__ == sorted(bouwmoller.__all__)


def _package_imports(name):
    path = Path(bouwmoller.__file__).with_name(f"{name}.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").startswith("bouwmoller"):
                found.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            found.update(a.name for a in node.names
                         if a.name.startswith("bouwmoller"))
    return found


def _json_dumps_calls(name):
    path = Path(bouwmoller.__file__).with_name(f"{name}.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sum(isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr == "dumps"
               and isinstance(node.func.value, ast.Name)
               and node.func.value.id == "json"
               for node in ast.walk(tree))


def test_only_the_surface_writes_json():
    # every artifact leaves through surface._dumps, the one canonical
    # writer: sorted keys, floats at 12 significant digits
    names = [info.name for info in pkgutil.iter_modules(bouwmoller.__path__)]
    calls = {name: _json_dumps_calls(name) for name in names + ["__init__"]}
    assert {name: k for name, k in calls.items() if k} == {"surface": 1}


def _literals(source):
    """Every string literal of the source, each f-string with {} for its
    fields."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.JoinedStr):
            yield "".join(v.value if isinstance(v, ast.Constant) else "{}"
                          for v in node.values)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _writes_svg_or_dot(source):
    dot_header = re.compile(r"^\s*(strict\s+)?(di)?graph\b[^\n]*\{\s*$", re.M)
    return any("<svg" in s or "</svg>" in s or dot_header.search(s)
               for s in _literals(source))


def test_only_the_surface_writes_svg_and_dot():
    # every picture leaves through surface._svg and every graph through
    # surface._dot, so no other module holds an envelope or a header
    names = [info.name for info in pkgutil.iter_modules(bouwmoller.__path__)]
    holders = {name for name in names + ["__init__"] if _writes_svg_or_dot(
        Path(bouwmoller.__file__).with_name(f"{name}.py").read_text(
            encoding="utf-8"))}
    assert holders == {"surface"}
    # control: the envelopes and headers each writer once held are caught
    for held in ["out = ['<svg xmlns=\"http://www.w3.org/2000/svg\">']",
                 "out.append('</svg>')", "out = ['graph hooper {']",
                 "out = [f'digraph {name} {{']"]:
        assert _writes_svg_or_dot(held), held


def _callers(tree, name):
    """Top-level functions and classes of a module that call name, with
    "<module>" for a call outside them."""
    return {getattr(stmt, "name", "<module>") for stmt in tree.body
            for node in ast.walk(stmt) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None),
                         getattr(node.func, "attr", None))}


def test_the_cli_states_its_writer_and_its_gate_once():
    # _emit is the one path by which an artifact leaves the CLI; main
    # applies the renormalization gate, and verify to each of its surfaces
    path = Path(bouwmoller.__file__).with_name("cli.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _callers(tree, "_dumps") == {"_emit"}
    assert _callers(tree, "_require_renorm_params") == {"main", "cmd_verify"}
    # both window checks draw their direction, start and window in _window
    assert _callers(tree, "_interior_point") == {"_window"}


def test_renorm_holds_no_word_coding():
    # diagrams picks how a word is coded and derives in that coding, so
    # renorm calls no translate and tests no value for bytes
    path = Path(bouwmoller.__file__).with_name("renorm.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _callers(tree, "translate") == set()
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "isinstance"
                and "bytes" in {getattr(x, "id", None)
                                for x in ast.walk(node.args[1])}]


def test_the_tracers_hot_loops_call_no_max_min_or_hypot():
    # _cylinder steps once per letter of each oracle word, and two builtin
    # max/min calls a letter were most of its cost; |e| is read from the
    # surface's edge_table, built once per surface
    path = Path(bouwmoller.__file__).with_name("tracer.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bounds = _callers(tree, "max") | _callers(tree, "min")
    assert bounds & {"_cylinder", "_exit_tables"} == set()
    assert "_exit_rows" not in _callers(tree, "hypot")


def test_the_geometry_layers_import_no_combinatorics():
    # surface is the bottom layer; the tracer reads only the surface, and
    # takes its periodic directions from the cylinders, not the diagrams
    assert _package_imports("surface") == set()
    assert _package_imports("tracer") <= {".surface"}


def test_hooper_reads_only_the_diagrams():
    # every Hooper edge label is a slot of a T_0 grid, so the Hooper
    # diagram reads t0_grid and nothing else of the package
    assert _package_imports("hooper") <= {".diagrams"}


def test_the_cli_imports_without_dataclasses():
    # every CLI start pays its imports; dataclasses would pull in inspect,
    # ast, dis and tokenize.  pytest loads both, so a fresh interpreter
    # checks it
    probe = ("import sys, bouwmoller.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                       text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def _modules():
    names = [info.name for info in pkgutil.iter_modules(bouwmoller.__path__)]
    return [importlib.import_module(f"bouwmoller.{name}") for name in names]


def test_every_cache_keys_on_exact_types():
    # with typed keys a call with 4.0 never reads the entry of a call with
    # 4, so every call takes the path a cold cache would take
    cached, untyped = set(), []
    for module in _modules():
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            for deco in getattr(node, "decorator_list", ()):
                func = getattr(deco, "func", deco)
                if "lru_cache" not in (getattr(func, "id", None),
                                       getattr(func, "attr", None)):
                    continue
                cached.add(node.name)
                keywords = {k.arg: getattr(k.value, "value", None)
                            for k in getattr(deco, "keywords", ())}
                if keywords.get("typed") is not True:
                    untyped.append(f"{module.__name__}.{node.name}")
    assert "build_surface" in cached and "_table" in cached
    assert untyped == []


def _clear_caches():
    for module in _modules():
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


# a call with m = 4.0 for each function that reaches a per-surface cache:
# its outcome must not depend on whether M(4,3)'s entry is cached
FLOAT_CALLS = {
    "sector_permutation": lambda m: sector_permutation(m, 3, 1),
    "arrow_alphabet": lambda m: arrow_alphabet(m, 3),
    "admissible_in": lambda m: admissible_in(m, 3, [1, 2]),
    "generation_diagram": lambda m: generation_diagram(m, 3, 1),
    "normalize": lambda m: normalize(m, 3, [1, 2, 3]),
    "derive": lambda m: derive(m, 3, [1, 2, 3]),
    "generate": lambda m: generate(m, 3, 1, [1, 2, 3, 4]),
    "itinerary": lambda m: itinerary(m, 3, 0.35, 4),
    "direction_from_itinerary":
        lambda m: direction_from_itinerary(m, 3, 0, [(1, 1)], tol=10.0),
}


# (call out of the domain, a call in it that fills the same caches)
OUT_OF_DOMAIN = {
    "build_T0(1, 5)": (lambda: build_T0(1, 5), lambda: build_T0(4, 5)),
    "arrow_alphabet(0, 3)": (lambda: arrow_alphabet(0, 3),
                             lambda: arrow_alphabet(4, 3)),
    "build_D0(4, 0)": (lambda: build_D0(4, 0), lambda: build_D0(4, 3)),
    "gamma(0, 3)": (lambda: gamma(0, 3), lambda: gamma(4, 3)),
    "gamma(1, 3)": (lambda: gamma(1, 3), lambda: gamma(4, 3)),
    "reflection(0, 3, 1)": (lambda: reflection(0, 3, 1),
                            lambda: reflection(4, 3, 1)),
    "reflection(4.0, 3, 1)": (lambda: reflection(4.0, 3, 1),
                              lambda: reflection(4, 3, 1)),
    "subsectors(0, 3)": (lambda: subsectors(0, 3), lambda: subsectors(4, 3)),
    "moduli(0, 3)": (lambda: moduli(0, 3), lambda: moduli(4, 3)),
    "itinerary(0, 3, 0.1, 1)": (lambda: itinerary(0, 3, 0.1, 1),
                                lambda: itinerary(4, 3, 0.1, 1)),
    "t0_grid(4.0, 3)": (lambda: t0_grid(4.0, 3), lambda: t0_grid(4, 3)),
    "gamma(4.0, 3)": (lambda: gamma(4.0, 3), lambda: gamma(4, 3)),
    "moduli(4, 3.0)": (lambda: moduli(4, 3.0), lambda: moduli(4, 3)),
    "build_surface(4.0, 3)": (lambda: build_surface(4.0, 3),
                              lambda: build_surface(4, 3)),
    "build_hooper(4.0, 3)": (lambda: build_hooper(4.0, 3),
                             lambda: build_hooper(4, 3)),
    **{f"{name}(4.0, ...)": (lambda c=call: c(4.0), lambda c=call: c(4))
       for name, call in FLOAT_CALLS.items()},
}


@pytest.mark.parametrize("name", OUT_OF_DOMAIN)
def test_parameters_out_of_the_domain_raise_value_error(name):
    # an m or n that is no int or below 2 raises ValueError naming the
    # pair, where the record is first built, on a cold cache and after the
    # call in the domain has filled it
    bad, good = OUT_OF_DOMAIN[name]
    _clear_caches()
    with pytest.raises(ValueError, match=r"got \("):
        bad()
    good()
    with pytest.raises(ValueError, match=r"got \("):
        bad()
