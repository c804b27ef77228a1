"""The names perfbench/tracer.py looks up in maassl, so that none of them is
deleted or renamed by accident.  The tracer is loaded from its file as it
is; the test changes nothing in it."""

import importlib
import importlib.util
from pathlib import Path

from maassl import contour, quadrature, verify

ROOT = Path(__file__).resolve().parents[1]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def test_traced_names_resolve():
    for layer, names in tracer.TRACED.items():
        module = importlib.import_module(f"maassl.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"maassl.{layer}.{name}"
    assert quadrature.DEFAULT_QUAD.base_nodes > 0


def test_tracer_installs_runs_and_uninstalls():
    rhs_star = contour.rhs_star
    t = tracer.Tracer()
    t.install()
    try:
        assert contour.rhs_star is not rhs_star
        report = verify.run_check(verify.CheckSpec("hurw", "cor_hurw", "J", {"s": -0.5}))
    finally:
        t.uninstall()
    assert contour.rhs_star is rhs_star
    assert report.status == "pass", report.message
    spans = {t.names[i] for i in t.span_name}
    assert {"verify.run_check", "contour.rhs_negative_s",
            "quadrature.integrate_segment"} <= spans
    assert t.counts["quadrature.panels"] > 0
