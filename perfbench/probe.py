"""Measurements that need a fresh interpreter, run as child processes.

    python3 perfbench/probe.py setup <workload> <seed>
        import maassl, build the workload's shared forms and fill lazy caches;
        prints {"setup_s": ..., "kernel_s": ...}, the latter the time of
        speed.py's calibration kernel: the mean of its median time right
        before and right after set-up
    python3 perfbench/probe.py import <numpy|scipy.special|maassl>
        prints {"import_s": ...} for that one import
    python3 perfbench/probe.py pass <workload> <seed>
        one untraced pass over the first pass's items; prints its wall time
        and every item's outputs in exact hex form

Each prints one JSON line on standard output.
"""

import json
import sys
import time

import common
import speed

common.pin_threads()

KERNEL_SAMPLES = 9


def probe_setup(workload_name: str, seed: int) -> dict:
    kernel_before = speed.median_time(KERNEL_SAMPLES)
    t0 = time.perf_counter()
    common.import_maassl()
    t_import = time.perf_counter()
    import workload

    items = workload.make_items(workload_name, seed)
    t_items = time.perf_counter()
    workload.setup(items, build_forms=workload.repeats_items(workload_name))
    setup_s = (t_import - t0) + (time.perf_counter() - t_items)
    kernel_after = speed.median_time(KERNEL_SAMPLES)
    return {"setup_s": setup_s, "kernel_s": 0.5 * (kernel_before + kernel_after)}


def probe_import(module: str) -> dict:
    t = time.perf_counter()
    if module == "maassl":
        common.import_maassl()
    else:
        __import__(module)
    return {"import_s": time.perf_counter() - t}


def probe_pass(workload_name: str, seed: int) -> dict:
    common.import_maassl()
    import workload

    items = workload.make_items(workload_name, seed)
    forms = workload.setup(items, build_forms=workload.repeats_items(workload_name))
    t = time.perf_counter()
    outcomes = [workload.run_item(item, forms) for item in items]
    wall = time.perf_counter() - t
    return {"wall_s": wall,
            "bits": {item.id: workload.bits(o.values) for item, o in zip(items, outcomes)}}


def main(argv: list[str]) -> int:
    kind, args = argv[0], argv[1:]
    if kind == "setup":
        result = probe_setup(args[0], int(args[1]))
    elif kind == "import":
        result = probe_import(args[0])
    elif kind == "pass":
        result = probe_pass(args[0], int(args[1]))
    else:
        raise SystemExit(f"unknown probe {kind!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
