"""Span tracing of maassl's layers, installed from outside the package.

``Tracer.install`` replaces each traced public function at every binding
site where maassl looks it up: the defining module's attribute, the names
other maassl modules imported with ``from ... import``, and the package
re-exports.  ``FourierExpansion.eval_at`` is replaced on the class, and every
integrand handed to the quadrature layer is wrapped so its calls and nodes
are counted.  Each traced call records one span (name, parent span, item id,
start, end) in flat arrays kept in memory; ``layer_metrics`` derives the
per-layer numbers and ``save`` writes the spans when the run ends.

Tracing only observes: wrapped functions return exactly what the originals
return, in the same order of calls.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("specfun", "quadrature", "modforms", "contour", "ltest", "verify")
SPECFUN_KERNELS = ("exp_int_E", "inc_gamma_upper", "upper_gamma_int", "hurwitz_zeta",
                   "digamma", "polygamma", "lerch_zeta", "cal_EI")
BUILDERS = ("build_J", "build_J_squared", "synth_harmonic", "xi_image")
CONTOUR_ENTRIES = ("rhs_main_theorem", "r_remainder", "rhs_integer_value",
                   "rhs_negative_s", "compact_support_value", "ray_integral_bend")
LTEST_ENTRIES = ("l_value", "l_star", "l_tilde", "l_value_limit",
                 "l_value_by_vertical_integral")
THEOREMS = ("thm_maincor", "thm_main", "prop_zag", "cor_bernWHF", "thm_bern",
            "cor_polyl", "cor_hurw", "prop_fe", "lemma_bend", "lemma_integral_form",
            "sect6_compact", "r_form_equality", "bfi_consistency")

# Public functions traced per module.  Helpers that kernels call millions of
# times (principal_power, bernoulli_number, i_power, ...) are not wrapped;
# their cost is part of the calling kernel's self time.
TRACED = {
    "specfun": SPECFUN_KERNELS,
    "quadrature": ("integrate_segment", "integrate_decaying"),
    "modforms": BUILDERS,
    "contour": ("lerch_sum",) + CONTOUR_ENTRIES,
    "ltest": LTEST_ENTRIES,
    "verify": ("run_check",),
}


def _size(x) -> int:
    return int(np.size(x))


# Elements per call for entry points that accept arrays; scalar entry points
# count one element per call.
ELEMENTS = {
    "specfun.upper_gamma_int": lambda args, kwargs: _size(args[1] if len(args) > 1 else kwargs["x"]),
    "contour.lerch_sum": lambda args, kwargs: _size(args[2] if len(args) > 2 else kwargs["z"]),
    "modforms.eval_at": lambda args, kwargs: _size(args[1] if len(args) > 1 else kwargs["z"]),
}


def _maassl_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "maassl" or name.startswith("maassl."))]


class Tracer:
    """Records spans of traced calls; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_item = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.item = -1  # id of the item being run; -1 during set-up
        self.counts: dict[str, int] = defaultdict(int)
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def traced(self, name: str, fn, before=None, after=None):
        """fn wrapped to record one span per call.

        before(args, kwargs) may return replacement (args, kwargs);
        after(args, kwargs, result) sees the result.
        """
        nid = self._name_id(name)
        names, parents, items = self.span_name, self.span_parent, self.span_item
        starts, ends, stack = self.span_start, self.span_end, self._stack
        elements = ELEMENTS.get(name)
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            counts[name + ".elements"] += elements(args, kwargs) if elements else 1
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            items.append(self.item)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _integrand(self, g):
        if getattr(g, "_perfbench_integrand", False):
            return g  # already counted by an enclosing quadrature call
        layer = getattr(g, "__module__", "") or ""
        layer = layer.rsplit(".", 1)[-1] if layer.startswith("maassl.") else "other"
        counts = self.counts

        def count_nodes(args, kwargs):
            counts["quadrature.nodes"] += _size(args[0])
            return args, kwargs

        wrapper = self.traced(f"{layer}.integrand", g, before=count_nodes)
        wrapper._perfbench_integrand = True
        return wrapper

    def _quadrature(self, name: str, fn, default_cfg):
        counts = self.counts

        def wrap_integrand(args, kwargs):
            if args:
                return (self._integrand(args[0]),) + tuple(args[1:]), kwargs
            return args, dict(kwargs, g=self._integrand(kwargs["g"]))

        def count_panels(args, kwargs, result):
            if name != "integrate_segment":
                return  # decaying integrals are sums of counted segments
            cfg = args[3] if len(args) > 3 else kwargs.get("cfg", default_cfg)
            counts["quadrature.panels"] += result.panels_used
            counts["quadrature.accepted_nodes"] += result.panels_used * cfg.base_nodes

        inner = self.traced(f"quadrature.{name}", fn, wrap_integrand, count_panels)

        @functools.wraps(fn)
        def with_errors(*args, **kwargs):
            try:
                return inner(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "QuadratureError" and \
                        not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    counts["quadrature.errors"] += 1
                raise

        return with_errors

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at each place maassl binds it."""
        import maassl  # noqa: F401  (the package must be importable)
        from maassl import contour, ltest, modforms, quadrature, specfun, verify

        modules = {"specfun": specfun, "quadrature": quadrature, "modforms": modforms,
                   "contour": contour, "ltest": ltest, "verify": verify}
        everywhere = _maassl_modules()
        for layer, fn_names in TRACED.items():
            for fn_name in fn_names:
                orig = getattr(modules[layer], fn_name)  # a missing name fails the run
                if layer == "quadrature":
                    wrapper = self._quadrature(fn_name, orig, quadrature.DEFAULT_QUAD)
                elif layer == "ltest" and fn_name == "l_value":
                    wrapper = self.traced("ltest.l_value", orig, after=self._count_terms)
                else:
                    wrapper = self.traced(f"{layer}.{fn_name}", orig)
                for mod in everywhere:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._restore.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
        cls = modforms.FourierExpansion
        self._restore.append((cls, "eval_at", cls.eval_at))
        cls.eval_at = self.traced("modforms.eval_at", cls.eval_at)

    def _count_terms(self, args, kwargs, result):
        f = args[0] if args else kwargs["f"]
        self.counts["ltest.series_terms"] += len(f.holo)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int64).copy(),
            "item": np.frombuffer(self.span_item, dtype=np.int64).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write all spans as compressed arrays plus the name table."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(a: dict) -> np.ndarray:
    """Each span's duration minus the time its direct children cover."""
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    return dur - covered


def outermost(a: dict, layer_of: np.ndarray, layer: int) -> np.ndarray:
    """Mask of spans of ``layer`` with no ancestor span of the same layer."""
    in_layer = np.zeros(a["name"].size, dtype=bool)
    outer = np.zeros_like(in_layer)
    own = layer_of[a["name"]] == layer
    for i, p in enumerate(a["parent"].tolist()):
        inside = p >= 0 and in_layer[p]
        outer[i] = own[i] and not inside
        in_layer[i] = inside or own[i]
    return outer


def layer_metrics(tracer: Tracer, item_theorems: list[str], pass_wall_s: float) -> dict:
    """Per-layer numbers of a traced pass, keyed by metric name.

    item_theorems[i] is the theorem of item i ("" for series-side items).
    Spans recorded during set-up (item -1) count towards modforms.build
    only; everything else is taken over the pass.
    """
    a = tracer.arrays()
    names = tracer.names
    counts = tracer.counts
    self_s = self_times(a)
    dur = a["end"] - a["start"]
    in_pass = a["item"] >= 0
    n_names = len(names)
    calls = np.bincount(a["name"][in_pass], minlength=n_names)
    self_by_name = np.bincount(a["name"][in_pass], weights=self_s[in_pass], minlength=n_names)
    dur_by_name = np.bincount(a["name"][in_pass], weights=dur[in_pass], minlength=n_names)
    idx = {n: i for i, n in enumerate(names)}

    def n_calls(name):
        return int(calls[idx[name]]) if name in idx else 0

    def self_of(name):
        return float(self_by_name[idx[name]]) if name in idx else 0.0

    def total_of(name):
        return float(dur_by_name[idx[name]]) if name in idx else 0.0

    m = {}
    for fn in SPECFUN_KERNELS:
        key = f"specfun.{fn}"
        m[f"{key}.calls"] = n_calls(key)
        m[f"{key}.elements"] = int(counts[f"{key}.elements"]) if n_calls(key) else 0
        m[f"{key}.self_s"] = self_of(key)

    integrands = [n for n in names if n.endswith(".integrand")]
    nodes = int(counts["quadrature.nodes"])
    m["quadrature.segment_calls"] = n_calls("quadrature.integrate_segment")
    m["quadrature.decaying_calls"] = n_calls("quadrature.integrate_decaying")
    m["quadrature.integrand_calls"] = sum(n_calls(n) for n in integrands)
    m["quadrature.nodes"] = nodes
    m["quadrature.panels"] = int(counts["quadrature.panels"])
    m["quadrature.errors"] = int(counts["quadrature.errors"])
    m["quadrature.self_s"] = (self_of("quadrature.integrate_segment")
                              + self_of("quadrature.integrate_decaying"))
    m["quadrature.node_efficiency"] = (counts["quadrature.accepted_nodes"] / nodes
                                       if nodes else 0.0)

    m["modforms.eval_at.calls"] = n_calls("modforms.eval_at")
    m["modforms.eval_at.points"] = int(counts["modforms.eval_at.elements"])
    m["modforms.eval_at.self_s"] = self_of("modforms.eval_at")
    # builders never nest, so their inclusive times add up without overlap
    build = np.isin(a["name"], [idx[f"modforms.{b}"] for b in BUILDERS
                                if f"modforms.{b}" in idx])
    m["modforms.build.calls"] = int(build.sum())
    m["modforms.build_s"] = float(dur[build].sum())

    m["contour.lerch_sum.calls"] = n_calls("contour.lerch_sum")
    m["contour.lerch_sum.points"] = int(counts["contour.lerch_sum.elements"])
    m["contour.lerch_sum.self_s"] = self_of("contour.lerch_sum")
    for entry in CONTOUR_ENTRIES:
        m[f"contour.{entry}.s"] = total_of(f"contour.{entry}")

    m["ltest.l_value.calls"] = n_calls("ltest.l_value")
    m["ltest.l_value.s"] = total_of("ltest.l_value")
    m["ltest.series_terms"] = int(counts["ltest.series_terms"])
    for entry in ("l_star", "l_value_limit", "l_value_by_vertical_integral"):
        m[f"ltest.{entry}.s"] = total_of(f"ltest.{entry}")

    layer_of = np.array([LAYERS.index(n.split(".")[0]) if n.split(".")[0] in LAYERS
                         else len(LAYERS) for n in names] or [0], dtype=np.int64)
    for layer, key in (("contour", "verify.contour_side_s"), ("ltest", "verify.series_side_s")):
        mask = outermost(a, layer_of, LAYERS.index(layer)) & in_pass
        m[key] = float(dur[mask].sum())

    run_check = in_pass & (a["name"] == idx.get("verify.run_check", -1))
    check_items = a["item"][run_check]
    check_dur = dur[run_check]
    for th in THEOREMS:
        sel = np.array([item_theorems[i] == th for i in check_items.tolist()], dtype=bool)
        m[f"verify.{th}.s"] = float(check_dur[sel].sum()) if sel.size else 0.0

    for layer in LAYERS:
        sel = in_pass & (layer_of[a["name"]] == LAYERS.index(layer))
        m[f"layer.{layer}.self_share"] = float(self_s[sel].sum()) / pass_wall_s
    return m
