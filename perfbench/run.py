#!/usr/bin/env python3
"""maassl benchmark: closed-loop workloads through the public API.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 28 --trace 0

Run from the root of a checkout; maassl is imported from ``src/`` there.
With ``--trace 0`` the run measures the end-to-end metrics: set-up time in
fresh processes, then passes over the workload's items until ``--seconds``
have elapsed, every time scaled to reference seconds (see speed.py).  With
``--trace 1`` it runs one traced pass, checks that its outputs are bitwise
identical to an untraced pass in a fresh process, and reports the
per-layer metrics.  Every run checks the outputs, writes its
details (per-item abs_err, percentiles, environment) to
``.bench_out/<workload>-seed<seed>-trace<k>.json`` and prints one JSON
object as its last line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import common

common.pin_threads()  # before numpy is first imported

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workload  # noqa: E402

SETUP_PROBES = 10
# repeats of cheap slots within one pass of suite or lseries
REPEAT_BUDGET_S = 0.5
MAX_REPEATS = 8
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "latency_p50_ms": "ms",
    "latency_tail_ms": "ms", "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    """Unit of every per-layer metric, in the order BENCHMARK.json lists them."""
    u = {}
    for fn in tracing.SPECFUN_KERNELS:
        u[f"specfun.{fn}.calls"] = "count"
        u[f"specfun.{fn}.elements"] = "count"
        u[f"specfun.{fn}.self_s"] = "s"
    for name in ("segment_calls", "decaying_calls", "integrand_calls", "nodes",
                 "panels", "errors"):
        u[f"quadrature.{name}"] = "count"
    u["quadrature.self_s"] = "s"
    u["quadrature.node_efficiency"] = "ratio"
    u.update({"modforms.eval_at.calls": "count", "modforms.eval_at.points": "count",
              "modforms.eval_at.self_s": "s", "modforms.build.calls": "count",
              "modforms.build_s": "s", "contour.lerch_sum.calls": "count",
              "contour.lerch_sum.points": "count", "contour.lerch_sum.self_s": "s"})
    for entry in tracing.CONTOUR_ENTRIES:
        u[f"contour.{entry}.s"] = "s"
    u.update({"ltest.l_value.calls": "count", "ltest.l_value.s": "s",
              "ltest.series_terms": "count", "ltest.l_star.s": "s",
              "ltest.l_value_limit.s": "s", "ltest.l_value_by_vertical_integral.s": "s",
              "verify.contour_side_s": "s", "verify.series_side_s": "s"})
    for th in tracing.THEOREMS:
        u[f"verify.{th}.s"] = "s"
        u[f"verify.{th}.max_abs_err"] = "gap"
    for layer in tracing.LAYERS:
        u[f"layer.{layer}.self_share"] = "ratio"
    u.update({"import.numpy_s": "s", "import.scipy_special_s": "s", "import.maassl_s": "s",
              "trace.overhead": "ratio", "max_abs_err": "gap", "failed_frac": "ratio"})
    return u


# -- helpers -----------------------------------------------------------------

def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% of values at or below."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(items_per_pass: int) -> int:
    """Highest whole percentile with at least 10 of one pass's items beyond it."""
    return max(0, math.floor(100.0 * (items_per_pass - 10) / items_per_pass))


def probe(*args: str) -> dict:
    """Run probe.py in a fresh interpreter and return its JSON line."""
    proc = subprocess.run([sys.executable, str(common.BENCH_DIR / "probe.py"), *args],
                          cwd=common.ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"probe {' '.join(args)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probes(n: int, key: str, *args: str) -> list[float]:
    return [probe(*args)[key] for _ in range(n)]


def setup_probes(n: int, *args: str) -> list[float]:
    """Set-up times of n fresh interpreters, each in its own reference seconds."""
    out = []
    for _ in range(n):
        result = probe("setup", *args)
        out.append(result["setup_s"] * speed.REFERENCE_S / result["kernel_s"])
    return out


def repeat_schedule(first_latencies: list[float]) -> list[int]:
    """Slot order of a later pass on a workload that repeats its items.

    Slot i runs n_i = REPEAT_BUDGET_S / (its first latency) times, at least
    once and at most MAX_REPEATS: cheap slots get enough repeats for their
    median to be steady, while expensive slots still run once.  Repeat
    r of slot i is placed (r + i / slots) / n_i of the way through the pass,
    so that a pass cut short at the deadline has still run every slot about
    its share of times, spread over the time the pass ran.
    """
    slots = len(first_latencies)
    reps = [min(MAX_REPEATS, max(1, int(REPEAT_BUDGET_S / max(t, 1e-9))))
            for t in first_latencies]
    placed = [((r + i / slots) / n, i) for i, n in enumerate(reps) for r in range(n)]
    return [i for _, i in sorted(placed)]


def summarize_repeats(latencies_by_slot: list[list[float]]) -> dict:
    """End-to-end timings of a workload whose every pass runs the same items.

    Each repeat of a slot runs the same item, so each slot is timed at the
    median of its repeats: wall_s is the sum of those slot times, and the
    latency percentiles are taken over them.
    """
    best = [statistics.median(samples) for samples in latencies_by_slot]
    p_tail = tail_percentile(len(best))
    return {"wall_s": math.fsum(best),
            "latency_p50_ms": percentile(best, 50) * 1e3,
            "latency_tail_ms": percentile(best, p_tail) * 1e3,
            "tail_percentile": p_tail, "items_per_pass": len(best),
            "samples": sum(len(samples) for samples in latencies_by_slot)}


def summarize_passes(pass_latencies: list[list[float]]) -> dict:
    """End-to-end timings of a workload whose every pass draws new items.

    No item runs twice, so slots have no repeats: wall_s is the median over
    the complete passes of the time their items took, and the latency
    percentiles pool every item of those passes.  The tail percentile is set
    by the items of one pass, so it does not depend on how many passes fit
    in the run.
    """
    pooled = [t for latencies in pass_latencies for t in latencies]
    p_tail = tail_percentile(len(pass_latencies[0]))
    return {"wall_s": statistics.median(math.fsum(p) for p in pass_latencies),
            "latency_p50_ms": percentile(pooled, 50) * 1e3,
            "latency_tail_ms": percentile(pooled, p_tail) * 1e3,
            "tail_percentile": p_tail, "items_per_pass": len(pass_latencies[0]),
            "samples": len(pooled)}


class Checker:
    """Collects each item's status and abs_err; decides correctness."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.abs_err: dict[str, float] = {}
        self.theorem_err: dict[str, float] = {}
        self.messages: dict[str, str] = {}

    def record(self, item, outcome, reference_bits=None) -> None:
        self.attempted += 1
        bad = outcome.status != "pass"
        if reference_bits is not None and workload.bits(outcome.values) != reference_bits:
            bad = True
            self.messages[item.id] = "outputs differ from the reference run"
        elif bad:
            self.messages[item.id] = f"{outcome.status}: {outcome.message}"
        self.failed += bad
        if outcome.abs_err is not None:
            self.note_err(item, outcome.abs_err)

    def note_err(self, item, err: float) -> None:
        self.abs_err[item.id] = max(err, self.abs_err.get(item.id, 0.0))
        if item.theorem:
            self.theorem_err[item.theorem] = max(err, self.theorem_err.get(item.theorem, 0.0))

    def oracle(self, workload_name: str, seed: int, items, outcomes, forms) -> None:
        """Check the seeded lseries sample against the mpmath oracle."""
        import oracle  # mpmath loads only after peak_rss_mb is read

        by_id = dict(zip((i.id for i in items), outcomes))
        for item in workload.oracle_sample(workload_name, seed, items):
            values = by_id[item.id].values
            if not values:
                continue  # already counted as failed
            ok, err = oracle.check(item, values, forms[item.form].holo)
            self.note_err(item, err)
            if not ok:
                self.failed += 1
                self.messages[item.id] = f"oracle gap {err:.3g}"

    @property
    def max_abs_err(self) -> float:
        return max(self.abs_err.values(), default=0.0)


# -- the two kinds of run ------------------------------------------------------

def run_untraced(workload_name: str, seed: int, seconds: float):
    # half the set-up probes run before the timed phase and half after it,
    # so that one slow spell of the shared machine cannot set the median
    setup_args = (workload_name, str(seed))
    setup_times = setup_probes(SETUP_PROBES // 2, *setup_args)
    items = workload.make_items(workload_name, seed)
    repeats = workload.repeats_items(workload_name)
    forms = workload.setup(items, build_forms=repeats)

    checker = Checker()
    first_bits: list = []
    pass_walls = []
    latencies_by_slot: list[list[float]] = [[] for _ in items]
    # index of the kernel sample before each latency, slot by slot
    samples_by_slot: list[list[int]] = [[] for _ in items]
    order = range(len(items))
    clock = time.perf_counter
    speedometer = speed.Speedometer()
    # passes alternate between the CPUs this process may use; see README.md
    cpus = sorted(os.sched_getaffinity(0))
    deadline = clock() + seconds
    pass_index = 0
    while True:
        os.sched_setaffinity(0, {cpus[pass_index % len(cpus)]})
        speedometer.sample()
        if pass_index and not repeats:
            items = workload.make_items(workload_name, seed, pass_index)
        outcomes = []  # kept for the first pass only
        done = 0
        t_pass = clock()
        for i in order:
            samples_by_slot[i].append(speedometer.before_item())
            t = clock()
            outcome = workload.run_item(items[i], forms)
            latencies_by_slot[i].append(clock() - t)
            checker.record(items[i], outcome, first_bits[i] if pass_index else None)
            done += 1
            if pass_index == 0:
                outcomes.append(outcome)
            elif clock() >= deadline:
                break  # only the first pass always runs to its end
        speedometer.sample()
        if done == len(order):
            pass_walls.append(clock() - t_pass)
        if pass_index == 0:
            first_items, first_outcomes = items, outcomes
            if repeats:
                first_bits = [workload.bits(o.values) for o in outcomes]
                order = repeat_schedule([samples[0] for samples in latencies_by_slot])
            else:
                first_bits = [None] * len(items)
        pass_index += 1
        if clock() >= deadline:
            break
    os.sched_setaffinity(0, cpus)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checker.oracle(workload_name, seed, first_items, first_outcomes, forms)
    setup_times += setup_probes(SETUP_PROBES - SETUP_PROBES // 2, *setup_args)
    scaled_by_slot = [[t * speedometer.scale(k) for t, k in zip(times, indices)]
                      for times, indices in zip(latencies_by_slot, samples_by_slot)]

    def summarize(by_slot):
        if repeats:
            return summarize_repeats(by_slot)
        # slot i of complete pass p is by_slot[i][p]
        return summarize_passes([[samples[p] for samples in by_slot]
                                 for p in range(len(pass_walls))])

    stats = summarize(scaled_by_slot)
    metrics = {"setup_s": statistics.median(setup_times), "peak_rss_mb": peak_rss_mb,
               **{k: stats[k] for k in ("wall_s", "latency_p50_ms", "latency_tail_ms")}}
    kernel_s = speedometer.samples
    details = {**stats, "unscaled": summarize(latencies_by_slot),
               "first_pass_wall_s": pass_walls[0], "pass_wall_s": pass_walls,
               "setup_probe_s": setup_times,
               "kernel_s": {"median": statistics.median(kernel_s), "min": min(kernel_s),
                            "max": max(kernel_s), "samples": len(kernel_s)},
               "failed_frac": checker.failed / checker.attempted,
               "max_abs_err": checker.max_abs_err}
    return metrics, END_TO_END_UNITS, checker, details


def run_traced(workload_name: str, seed: int):
    imports = {f"import.{key}": statistics.median(probes(IMPORT_PROBES, "import_s", "import", module))
               for key, module in (("numpy_s", "numpy"), ("scipy_special_s", "scipy.special"),
                                   ("maassl_s", "maassl"))}
    reference = probe("pass", workload_name, str(seed))

    items = workload.make_items(workload_name, seed)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        forms = workload.setup(items, build_forms=workload.repeats_items(workload_name))
        tracer.counts.clear()  # counters cover the pass; set-up keeps its spans
        outcomes = []
        t_pass = time.perf_counter()
        for i, item in enumerate(items):
            tracer.item = i
            outcomes.append(workload.run_item(item, forms))
        wall = time.perf_counter() - t_pass
        tracer.item = -1
    finally:
        tracer.uninstall()

    checker = Checker()
    for item, outcome in zip(items, outcomes):
        checker.record(item, outcome, reference["bits"][item.id])
    checker.oracle(workload_name, seed, items, outcomes, forms)

    metrics = tracing.layer_metrics(tracer, [i.theorem for i in items], wall)
    for th in tracing.THEOREMS:
        metrics[f"verify.{th}.max_abs_err"] = checker.theorem_err.get(th, 0.0)
    metrics.update(imports)
    metrics["trace.overhead"] = wall / reference["wall_s"]
    metrics["max_abs_err"] = checker.max_abs_err
    metrics["failed_frac"] = checker.failed / checker.attempted

    common.OUT_DIR.mkdir(exist_ok=True)
    tracer.save(common.OUT_DIR / f"spans-{workload_name}.npz")
    details = {"traced_wall_s": wall, "untraced_wall_s": reference["wall_s"],
               "spans": len(tracer.span_start)}
    return metrics, per_layer_units(), checker, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workload.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        common.import_maassl()
    except (common.BenchSetupError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        metrics, units, checker, details = run_traced(args.workload, args.seed)
    else:
        metrics, units, checker, details = run_untraced(args.workload, args.seed, args.seconds)

    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": common.environment(),
              "metrics": metrics, "details": details, "attempted": checker.attempted,
              "failed": checker.failed, "failures": checker.messages,
              "abs_err": checker.abs_err}
    common.OUT_DIR.mkdir(exist_ok=True)
    out = common.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True))

    shown = {k: v for k, v in details.items() if k not in ("pass_wall_s", "setup_probe_s")}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{checker.attempted} attempted, {checker.failed} failed; "
          f"{json.dumps(shown)}; details in {out.relative_to(common.ROOT)}")
    for name, message in sorted(checker.messages.items())[:20]:
        print(f"  {name}: {message}")
    result = {"correct": checker.failed == 0, "attempted": checker.attempted,
              "failed": checker.failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
