"""Batch verification of the closed-form L-value identities.

Each check evaluates the same quantity through two independent pipelines
(coefficient series vs contour quadrature) and passes iff rel_err =
|lhs - rhs| / max(|lhs|, |rhs|) <= the check's tolerance, REL_TOL = 1e-12
unless it sets its own.  Equal sides read 0, so a tolerance of 0 passes
only them; a NaN or infinite side reads NaN and fails.  The sides' error
estimates are reported but never pass a check.
IDENTITIES maps each theorem name to the parameters it accepts and to the
evaluator of its two sides; lemma_integral_form accepts only the
parameters of the test-function kind it names.

Configs are JSON: an object whose "checks" array holds objects with "id",
"theorem", "form" and optional "params" (an object; complex values are
[re, im] pairs) and "tolerance".  CheckSpec raises ValueError for a
parameter its theorem does not accept and for a tolerance that is a bool,
not a number, negative, infinite or NaN; load_suite raises it, naming the
check, for those and for any other shape.  A missing parameter fails its
check instead.  run_suite accepts an empty list, but `maassl verify`
refuses to run no check.
Reports are deterministic apart from runtime_ms, the wall time of a check
in milliseconds as a float.
"""

from __future__ import annotations

import fnmatch
import functools
import json
import math
import time
from dataclasses import asdict, dataclass, field

from . import contour, ltest, modforms, specfun

REL_TOL = 1e-12
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CheckSpec:
    """One check; tolerance is relative to max(|lhs|, |rhs|)."""

    id: str
    theorem: str
    form: str
    params: dict = field(default_factory=dict)
    tolerance: float = REL_TOL

    def __post_init__(self):
        if self.theorem not in IDENTITIES:
            raise ValueError(f"unknown theorem {self.theorem!r}")
        if not isinstance(self.params, dict):
            raise ValueError(f"params must be an object, got {self.params!r}")
        accepted = IDENTITIES[self.theorem][0]
        if callable(accepted):
            accepted = accepted(self.params)
        unknown = sorted(set(self.params) - set(accepted))
        if unknown:
            raise ValueError(f"unknown parameter(s) {unknown} for {self.theorem}, "
                             f"which takes {list(accepted)}")
        tol = self.tolerance
        if isinstance(tol, bool) or not isinstance(tol, (int, float)):
            raise ValueError(f"tolerance of check {self.id!r} must be a number, got {tol!r}")
        if not 0 <= tol < math.inf:  # also rejects nan
            raise ValueError(f"tolerance must be finite and >= 0, got {tol!r}")


@dataclass
class CheckReport:
    id: str
    theorem: str
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    lhs_err_est: float
    rhs_err_est: float
    status: str
    runtime_ms: float
    message: str = ""

    def to_json_dict(self) -> dict:
        d = asdict(self)
        for key in ("lhs", "rhs"):
            z = complex(d[key])
            d[key] = [z.real, z.imag]
        return d


# named forms, each built to a requested number of coefficients
NAMED_FORMS = {"J": modforms.build_J, "Jsq": modforms.build_J_squared}


@functools.lru_cache(maxsize=32)
def resolve_form(desc: str) -> modforms.FourierExpansion:
    """Resolve a form descriptor: a NAMED_FORMS key (built to 40
    coefficients) or 'synth:<inline-json>'.  A synthetic descriptor reads
    the keys "k" (an integer weight), "holo", "nonholo" and "label" (the
    form's label, "synth" if absent); any other key raises ValueError.

    The 32 most recently used forms are kept, so a stream of one-off
    synthetic descriptors does not grow memory without bound.
    """
    if desc in NAMED_FORMS:
        return NAMED_FORMS[desc](40)
    if desc.startswith("synth:"):
        data = json.loads(desc[len("synth:"):])
        if unknown := set(data) - {"k", "holo", "nonholo", "label"}:
            raise ValueError(f"form descriptor {desc!r} has unknown keys {sorted(unknown)}")
        k = data["k"]
        if type(k) is not int:  # not a float, a bool or a string: int() would take them
            raise ValueError(f"form descriptor {desc!r} needs an integer weight k, got {k!r}")

        def cmap(raw):
            return {int(n): _to_complex(c) for n, c in raw.items()}

        form = modforms.synth_harmonic(k, cmap(data.get("holo", {})), cmap(data.get("nonholo", {})))
        form.label = data.get("label", form.label)
        return form
    raise ValueError(f"unknown form descriptor {desc!r}")


_SEEDS = {"z^-2": ltest.InversePowerSeed(2.0), "z^-3": ltest.InversePowerSeed(3.0),
          "lorentzian": ltest.LorentzianSeed(), "zero": ltest.ZeroSeed()}


def _to_complex(v) -> complex:
    if isinstance(v, (list, tuple)):
        return complex(float(v[0]), float(v[1]))
    return complex(v)


def _main(f, p):
    """Series L_f(phi_s^w) = i^{-s} int_i^{i+1} f(z) e^{iwz} zeta(1-s, w/2pi, z) dz + R(w, s)."""
    s, w = float(p["s"]), _to_complex(p["w"])
    lv = ltest.l_value(f, ltest.PhiSW(s, w))
    return lv.value, contour.rhs_main_theorem(f, s, w), lv.error_estimate, 0.0


def _integer_value(f, p):
    """Series L*(f, m) = the integer-point closed form; m = 0 is the central value."""
    m = int(p["m"])
    return ltest.l_star(f, m), contour.rhs_integer_value(f, m), 0.0, 0.0


def _bernoulli_limit(f, p):
    """Richardson lim_{x->0+} L_f(phi_m^{ix}) = the Bernoulli closed form at m."""
    m = int(p["m"])
    lhs, lhs_err = ltest.l_value_limit(f, m)
    return lhs, contour.rhs_integer_value(f, m), lhs_err, 0.0


def _hurwitz(f, p):
    """Series L*(f, s) = i^{-s} int_i^{i+1} f(z) zeta*(1-s, z) dz + R(0, s), every real s."""
    s = float(p["s"])
    return ltest.l_star(f, s), contour.rhs_star(f, s), 0.0, 0.0


def _functional_equation(f, p):
    """L_f(phi_s^w) = i^k N^{1-k/2} L_g(phi_s^w |_{2-k} W_N), g = params["g"] or f."""
    g = resolve_form(p["g"]) if "g" in p else f
    if not (f.modular and g.modular):
        raise contour.RegimeError("prop_fe needs modular forms f and g, not a synthetic expansion")
    phi = ltest.PhiSW(float(p["s"]), _to_complex(p["w"]))
    N, k = int(p.get("N", f.level)), f.weight
    lhs = ltest.l_value(f, phi).value
    rhs = ltest.l_value(g, ltest.fricke_transform_testfn(phi, 2 - k, N)).value
    return lhs, (1j ** (k % 4)) * N ** (1 - k / 2) * rhs, 0.0, 0.0


def _bend(f, p):
    """int_i^{i+inf} e^{iwz} z^{a-1} dz = i^a E_{1-a}(w); f is unused."""
    a, w = float(p["a"]), _to_complex(p["w"])
    lhs = contour.ray_integral_bend(a, w)
    return lhs, contour.i_power(a) * specfun.exp_int_E(1 - a, w), 0.0, 0.0


# lemma_integral_form's test functions: kind -> (the parameters it uses, builder)
_TEST_FUNCTIONS = {
    "phi_sw": (("s", "w"), lambda p: ltest.PhiSW(float(p["s"]), _to_complex(p["w"]))),
    "compact_analytic": (("phi", "a", "b"), lambda p: ltest.CompactAnalytic(
        _SEEDS[p["phi"]], float(p["a"]), float(p["b"]))),
    "fricke_of_phi_sw": (("s", "w", "a_slash", "M"), lambda p: ltest.FrickePhiSW(
        float(p["s"]), _to_complex(p["w"]), int(p["a_slash"]), int(p["M"]))),
}


def _integral_form_params(params) -> tuple:
    kind = params.get("kind", "phi_sw")
    if kind not in _TEST_FUNCTIONS:
        raise ValueError(f"unknown test-function kind {kind!r}, "
                         f"expected one of {list(_TEST_FUNCTIONS)}")
    return ("kind",) + _TEST_FUNCTIONS[kind][0]


def _integral_form(f, p):
    """Series L_f(phi) = int_0^infty f(iy) phi(y) dy, with phi chosen by params["kind"]."""
    phi = _TEST_FUNCTIONS[p.get("kind", "phi_sw")][1](p)
    lv = ltest.l_value(f, phi)
    return lv.value, ltest.l_value_by_vertical_integral(f, phi), lv.error_estimate, 0.0


def _compact(f, p):
    """-i (int_{ia}^{ia+1} - int_{ib}^{ib+1}) f(z) Phi~(z) dz = int_a^b f(iy) seed(iy) dy."""
    seed, a, b = _SEEDS[p["phi"]], float(p["a"]), float(p["b"])
    lhs = contour.compact_support_value(f, seed, a, b)
    rhs = ltest.l_value_by_vertical_integral(f, ltest.CompactAnalytic(seed, a, b))
    return lhs, rhs, 0.0, 0.0


def _remainder_shapes(f, p):
    """The remainder R(w, s) in its one-dimensional shape = its double integral."""
    s, w = float(p["s"]), _to_complex(p["w"])
    lhs = contour.r_remainder(f, s, w, "one_dim")
    return lhs, contour.r_remainder(f, s, w, "double_integral"), 0.0, 0.0


def _bfi(f, p):
    """2 Re sum_n a(n) EI(2 pi n) = 2 Re int_i^{i+1} f(z) zeta*(1, z) dz (BFI),
    weakly holomorphic f, real at n < 0, as EI(2 pi n) = Re E_1(2 pi n + i0)
    drops 2 pi Im a(n): the series side has no non-holomorphic part."""
    if f.nonholo:
        raise contour.RegimeError("bfi_consistency needs a weakly holomorphic form")
    if any(a.imag for n, a in f.holo.items() if n < 0):
        raise contour.RegimeError("bfi_consistency needs a real principal part")
    # the contour side shares no kernel with cal_EI
    series = 2 * sum(a * specfun.cal_EI(TWO_PI * n) for n, a in f.holo.items())
    rhs = complex(2 * contour.rhs_integer_value(f, 0).real, 0.0)
    return complex(series.real, 0.0), rhs, 0.0, 0.0


# theorem name -> (the parameter names it accepts, or a function of the params
# giving them, and its evaluator); an evaluator maps the form and the params
# to (lhs, rhs, lhs_err, rhs_err)
IDENTITIES = {
    "thm_maincor": (("s", "w"), _main),
    "thm_main": (("s", "w"), _main),
    "prop_zag": ((), lambda f, p: _integer_value(f, {"m": 0})),
    "cor_bernWHF": (("m",), _integer_value),
    "thm_bern": (("m",), _bernoulli_limit),
    "cor_polyl": (("m",), _integer_value),
    "cor_hurw": (("s",), _hurwitz),
    "prop_fe": (("s", "w", "N", "g"), _functional_equation),
    "lemma_bend": (("a", "w"), _bend),
    "lemma_integral_form": (_integral_form_params, _integral_form),
    "sect6_compact": (("phi", "a", "b"), _compact),
    "r_form_equality": (("s", "w"), _remainder_shapes),
    "bfi_consistency": ((), _bfi),
}


def run_check(spec: CheckSpec) -> CheckReport:
    start = time.perf_counter()
    try:
        lhs, rhs, lhs_err, rhs_err = IDENTITIES[spec.theorem][1](
            resolve_form(spec.form), spec.params)
    except (ltest.AdmissibilityError, contour.RegimeError) as exc:
        ms = (time.perf_counter() - start) * 1000
        return CheckReport(spec.id, spec.theorem, 0j, 0j, 0.0, 0.0, 0.0, 0.0,
                           "skipped", ms, f"precondition: {exc}")
    except Exception as exc:  # evaluator failure counts as check failure
        ms = (time.perf_counter() - start) * 1000
        return CheckReport(spec.id, spec.theorem, 0j, 0j, math.inf, math.inf,
                           0.0, 0.0, "fail", ms,
                           f"{type(exc).__name__}: {exc}")
    ms = (time.perf_counter() - start) * 1000
    lhs, rhs = complex(lhs), complex(rhs)
    abs_err = abs(lhs - rhs)
    # 0 for equal sides; NaN, which fails, for a NaN or infinite side
    rel_err = abs_err / max(abs(lhs), abs(rhs)) if abs_err else 0.0
    ok = rel_err <= spec.tolerance
    return CheckReport(spec.id, spec.theorem, lhs, rhs, abs_err, rel_err,
                       float(lhs_err), float(rhs_err),
                       "pass" if ok else "fail", ms)


def default_suite() -> list[CheckSpec]:
    """The bundled check suite covering every identity."""
    synth_whf = 'synth:{"k": 0, "holo": {"-1": 1, "1": 2, "3": -1}}'
    harm_a = 'synth:{"k": 0, "holo": {"1": 0.5}, "nonholo": {"-1": 1}}'
    harm_b = 'synth:{"k": -2, "holo": {"1": 1}, "nonholo": {"-1": [2, -1]}}'
    harm_c = 'synth:{"k": 0, "nonholo": {"-1": 1, "-2": 0.3}}'
    harm_d = 'synth:{"k": -2, "nonholo": {"-2": [0, 1]}}'
    checks: list[CheckSpec] = []

    def add(id_, theorem, form, **params):
        checks.append(CheckSpec(id_, theorem, form, params))

    for a, w in ((0.5, [0, 1]), (-1.0, [0, 2]), (2.0, [1, 1]), (-1.0, [1, 0])):
        add(f"bend_a{a}_w{w[0]}+{w[1]}i", "lemma_bend", "J", a=a, w=w)
    grid_forms = {"J": "J", "Jsq": "Jsq", "synth": synth_whf}
    for name, form in grid_forms.items():
        for s in (-1.5, 0.0, 0.5, 2.0):
            for w in ([0, 1], [0.3, 0.7]):
                add(f"maincor_{name}_s{s}_w{w[0]}+{w[1]}i", "thm_maincor", form, s=s, w=w)
    for name, form in (("hA", harm_a), ("hB", harm_b), ("hC", harm_c)):
        for s in (0.5, 1.0, 2.0):
            add(f"main_harm_{name}_s{s}", "thm_main", form, s=s, w=[0.5, 1])
            add(f"rform_{name}_s{s}", "r_form_equality", form, s=s, w=[0.5, 1])
    add("zag_J", "prop_zag", "J")
    for m in (2, 3):
        add(f"bernWHF_J_m{m}", "cor_bernWHF", "J", m=m)
    for name, form in (("hA", harm_a), ("hB", harm_b), ("hD", harm_d)):
        add(f"polyl_{name}", "cor_polyl", form, m=1)
        add(f"bern_{name}_m2", "thm_bern", form, m=2)
    for s in (-0.5, -1.0, -2.5):
        add(f"hurw_J_s{s}", "cor_hurw", "J", s=s)
    for s in (0.0, 1.0, -0.5):
        add(f"fe_J_s{s}", "prop_fe", "J", s=s, w=[30, 5], N=1)
    add("intform_J_w30", "lemma_integral_form", "J", kind="phi_sw", s=0.0, w=[30, 0])
    add("intform_J_w30_5i", "lemma_integral_form", "J", kind="phi_sw", s=1.0, w=[30, 5])
    add("intform_J_compact", "lemma_integral_form", "J",
        kind="compact_analytic", phi="z^-2", a=1.0, b=2.0)
    for phi, (a, b) in (("z^-2", (1.0, 2.0)), ("z^-3", (1.0, 1.5)),
                        ("lorentzian", (1.0, 2.0))):
        add(f"compact_J_{phi}_{a}_{b}", "sect6_compact", "J", phi=phi, a=a, b=b)
    add("bfi_J", "bfi_consistency", "J")
    return checks


def load_suite(config_path: str) -> list[CheckSpec]:
    with open(config_path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{config_path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    entries = data.get("checks", []) if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise ValueError(f'{config_path}: expected an object with a "checks" array')
    checks = []
    for i, raw in enumerate(entries):
        try:
            if not isinstance(raw, dict):
                raise ValueError(f"a check must be an object, got {raw!r}")
            checks.append(CheckSpec(raw["id"], raw["theorem"], raw["form"],
                                    raw.get("params", {}),
                                    raw.get("tolerance", REL_TOL)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{config_path}: checks[{i}]: {exc}") from exc
    return checks


def run_suite(checks: list[CheckSpec], id_filter: str | None = None):
    """Run checks in order; returns (reports, summary dict)."""
    if id_filter:
        checks = [c for c in checks
                  if fnmatch.fnmatch(c.id, id_filter)
                  or fnmatch.fnmatch(c.theorem, id_filter)]
    reports = [run_check(c) for c in checks]
    summary = {
        "pass": sum(r.status == "pass" for r in reports),
        "fail": sum(r.status == "fail" for r in reports),
        "skipped": sum(r.status == "skipped" for r in reports),
    }
    return reports, summary


def report_json(reports, summary) -> dict:
    return {"summary": summary,
            "checks": [r.to_json_dict() for r in reports]}
