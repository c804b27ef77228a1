"""Tests of the benchmark itself.  Run from the checkout root with

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import common

common.pin_threads()
common.import_maassl()

import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workload  # noqa: E402

RUN = [sys.executable, str(common.BENCH_DIR / "run.py")]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _traced_run(items, forms):
    t = tracing.Tracer()
    t.install()
    try:
        t.counts.clear()
        outcomes = []
        for i, item in enumerate(items):
            t.item = i
            outcomes.append(workload.run_item(item, forms))
    finally:
        t.uninstall()
    return t, outcomes


def _pass_names(t: tracing.Tracer) -> set:
    a = t.arrays()
    return {t.names[n] for n in np.unique(a["name"][a["item"] >= 0])}


@pytest.mark.parametrize("name", workload.WORKLOADS)
def test_items_are_deterministic_per_seed(name):
    first = workload.make_items(name, 11)
    assert first == workload.make_items(name, 11)
    other = workload.make_items(name, 12)
    assert first != other
    if name == "suite":  # the seed only shuffles the bundled checks
        assert sorted(i.id for i in first) == sorted(i.id for i in other)


def test_only_fresh_forms_changes_between_passes():
    assert workload.make_items("lseries", 4, 0) == workload.make_items("lseries", 4, 3)
    assert workload.make_items("fresh-forms", 4, 0) != workload.make_items("fresh-forms", 4, 1)


def test_fresh_forms_never_repeat_a_form_or_point():
    forms, points = [], []
    for seed in (1, 2, 3):
        for p in range(5):
            for item in workload.make_items("fresh-forms", seed, p):
                forms.append(item.form)
                if "s" in item.params:
                    points.append((item.theorem, item.params["s"], tuple(item.params.get("w", ()))))
                data = json.loads(item.form[len("synth:"):])
                assert data["k"] in (0, -2)
                assert len(data["holo"]) + len(data.get("nonholo", {})) <= 4
    assert len(set(forms)) == len(forms)
    assert len(set(points)) == len(points)


def test_traced_lseries_never_reaches_contour_quadrature_or_eval_at():
    items = workload.make_items("lseries", 3)[:300]
    forms = workload.setup(items, build_forms=True)
    t, outcomes = _traced_run(items, forms)
    assert all(o.status == "pass" for o in outcomes)
    names = _pass_names(t)
    assert not [n for n in names if n.startswith(("contour.", "quadrature."))]
    assert "modforms.eval_at" not in names
    m = tracing.layer_metrics(t, ["" for _ in items], 1.0)
    assert m["quadrature.nodes"] == m["quadrature.integrand_calls"] == 0
    assert m["modforms.eval_at.calls"] == m["contour.lerch_sum.calls"] == 0
    assert m["specfun.exp_int_E.calls"] == m["specfun.exp_int_E.elements"] > 0
    assert m["ltest.series_terms"] >= m["specfun.exp_int_E.calls"]


@pytest.mark.parametrize("name", ["suite", "fresh-forms"])
def test_traced_outputs_are_bitwise_identical_and_tracing_is_removed(name):
    from maassl import contour, modforms, verify

    items = workload.make_items(name, 5)
    # the cheaper half keeps the test short
    items = [i for i in items if i.theorem not in ("thm_maincor", "sect6_compact",
                                                   "thm_main", "r_form_equality")][:20]
    forms = workload.setup(items, build_forms=workload.repeats_items(name))
    plain = [workload.bits(workload.run_item(i, forms).values) for i in items]
    originals = (verify.run_check, contour.lerch_sum, modforms.FourierExpansion.eval_at)
    t, outcomes = _traced_run(items, forms)
    assert [workload.bits(o.values) for o in outcomes] == plain
    assert (verify.run_check, contour.lerch_sum, modforms.FourierExpansion.eval_at) == originals
    assert "verify.run_check" in _pass_names(t)


def test_install_fails_when_a_traced_function_is_missing(monkeypatch):
    from maassl import contour

    monkeypatch.setitem(tracing.TRACED, "contour", tracing.TRACED["contour"] + ("no_such_fn",))
    original = contour.lerch_sum
    t = tracing.Tracer()
    with pytest.raises(AttributeError):
        t.install()
    t.uninstall()
    assert contour.lerch_sum is original


def test_quadrature_counters_agree_with_spans():
    items = [i for i in workload.make_items("suite", 1) if i.id.startswith("hurw_J")]
    forms = workload.setup(items, build_forms=True)
    t, _ = _traced_run(items, forms)
    m = tracing.layer_metrics(t, [i.theorem for i in items], 1.0)
    assert m["quadrature.segment_calls"] == len(items)
    assert m["quadrature.nodes"] >= m["quadrature.integrand_calls"] * 16 > 0
    assert 0 < m["quadrature.node_efficiency"] <= 1
    assert m["specfun.hurwitz_zeta.calls"] == m["quadrature.nodes"]
    assert m["verify.cor_hurw.s"] > m["contour.rhs_negative_s.s"] > 0


def test_percentiles_leave_ten_items_beyond_the_tail():
    assert run.tail_percentile(68) == 85
    assert run.tail_percentile(42) == 76
    values = list(range(1, 69))
    tail = run.percentile(values, run.tail_percentile(68))
    assert sum(v > tail for v in values) == 10
    assert run.percentile(values, 50) == 34


def test_repeats_are_spread_over_the_pass():
    order = run.repeat_schedule([0.001, 0.001, 0.001, 2.0, 2.0])
    assert [order.count(i) for i in range(5)] == [8, 8, 8, 1, 1]
    # half of the cheap slots' repeats come before the first expensive slot
    assert order[:12] == [0, 1, 2] * 4 and 12 < order.index(3) < order.index(4)


def test_fresh_passes_are_timed_whole_not_at_each_slots_fastest():
    passes = [[1.0, 4.0], [3.0, 2.0], [2.0, 2.5]]
    stats = run.summarize_passes(passes)
    assert stats["wall_s"] == 5.0  # median of 5.0, 5.0, 4.5; the slot minima sum to 3.0
    assert stats["samples"] == 6
    # a slot whose repeats run the same item is timed at their median
    assert run.summarize_repeats([[1.0, 3.0, 2.0], [4.0, 2.0, 9.0]])["wall_s"] == 6.0


def test_items_are_scaled_by_the_kernel_samples_around_them():
    meter = speed.Speedometer()
    meter.samples = [speed.REFERENCE_S, 3 * speed.REFERENCE_S, 2 * speed.REFERENCE_S]
    assert meter.scale(0) == pytest.approx(0.5) and meter.scale(1) == pytest.approx(0.4)


def test_benchmark_json_lists_every_metric_the_runs_emit():
    bench = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(workload.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted(trace):
    proc = subprocess.run(RUN + ["--workload", "lseries", "--seed", "5", "--seconds", "0",
                                 "--trace", str(trace)],
                          cwd=common.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = run.per_layer_units() if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(common.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "suite",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
