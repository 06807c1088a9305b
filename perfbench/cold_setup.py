"""One cold set-up in a fresh interpreter, for the setup_s metric.

    python3 perfbench/cold_setup.py <workload>

Times the import of bouwmoller.cli (which imports every module and numpy)
and the cold fill of the workload's caches, and prints both as one JSON
line.  run.py starts this several times outside its timed section.
"""

import json
import sys
import time

import common


def main():
    workload = sys.argv[1]
    surfaces = common.SETUP_SURFACES[workload]
    common.single_thread_env()
    t0 = time.perf_counter()
    bm = common.load_bouwmoller()
    t1 = time.perf_counter()
    common.fill_caches(bm, surfaces)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "fill_s": t2 - t1}))


if __name__ == "__main__":
    main()
