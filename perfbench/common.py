"""What run.py and cold_setup.py share: paths, the import, the cold fill."""

import importlib
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SMALL = ((3, 4), (4, 3), (3, 5), (5, 3), (4, 5), (5, 4))
LONG = SMALL + ((3, 7), (4, 7), (7, 3))

# Surfaces whose caches a workload's first calls would fill.
SETUP_SURFACES = {"verify-small": SMALL, "trace-long": LONG,
                  "renormalize": SMALL}

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

MODULE_NAMES = ("surface", "tracer", "hooper", "diagrams", "renorm",
                "farey", "cli")


def single_thread_env():
    """Pin the BLAS pools to one thread; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def load_bouwmoller():
    """Import the package from this checkout's src/, never an installed copy.

    Returns a dict of module name -> module, plus "package".  Exits with
    code 2 when the checkout holds no source tree.
    """
    init = SRC / "bouwmoller" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: no bouwmoller sources at {init}")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("bouwmoller")
    if pathlib.Path(package.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported bouwmoller from {package.__file__}, "
                 f"not from {init}")
    mods = {name: importlib.import_module(f"bouwmoller.{name}")
            for name in MODULE_NAMES}
    mods["package"] = package
    return mods


def fill_caches(bm, surfaces):
    """Cold fill: build_surface, every normalizing sector_permutation and
    every generation_diagram of the given surfaces.  Returns the surfaces."""
    built = {}
    for m, n in surfaces:
        built[(m, n)] = bm["surface"].build_surface(m, n)
        for i in range(n):
            try:
                bm["diagrams"].sector_permutation(m, n, i)
            except ValueError:
                pass  # sector without a reflecting normalization
        for i in range(1, n):
            bm["renorm"].generation_diagram(m, n, i)
    return built
