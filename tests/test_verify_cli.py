"""Tests for the verification harness and command-line interface."""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from maassl import cli, contour, ltest, modforms, quadrature, specfun, verify
from maassl.modforms import build_j_series
from maassl.verify import (CheckReport, CheckSpec, default_suite, load_suite,
                           report_json, resolve_form, run_check, run_suite)


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "maassl.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


# ---------------------------------------------------------------------------
# form resolution
# ---------------------------------------------------------------------------

def test_resolve_builtin_forms():
    J = resolve_form("J")
    assert J.holo[1] == pytest.approx(196884)
    Jsq = resolve_form("Jsq")
    assert Jsq.holo[-2] == pytest.approx(1)


def test_resolve_synth_form():
    f = resolve_form('synth:{"k": -2, "holo": {"1": [2, -1]}, "nonholo": {"-1": 1}}')
    assert f.weight == -2
    assert f.holo[1] == 2 - 1j
    assert f.nonholo[-1] == 1


def test_resolve_form_cache_is_bounded():
    J = resolve_form("J")
    assert resolve_form("J") is J
    for n in range(1000):
        resolve_form(f'synth:{{"k": 0, "holo": {{"1": {n}}}}}')
        assert resolve_form.cache_info().currsize <= resolve_form.cache_info().maxsize
    assert resolve_form("J") is resolve_form("J")


def test_resolve_unknown_form():
    with pytest.raises(ValueError):
        resolve_form("nope")


# ---------------------------------------------------------------------------
# run_check
# ---------------------------------------------------------------------------

def test_run_check_pass():
    rep = run_check(CheckSpec("zag", "prop_zag", "J", {}, 1e-7))
    assert rep.status == "pass"
    assert rep.abs_err < 1e-7
    assert isinstance(rep.runtime_ms, float) and rep.runtime_ms > 0


def test_run_check_tolerance_gate():
    rep = run_check(CheckSpec("too-tight", "prop_zag", "J", {}, 1e-20))
    assert rep.status == "fail"


@pytest.mark.parametrize("lhs, rhs, status", [
    (math.inf, 1.0, "fail"), (1.0, math.inf, "fail"), (math.inf, math.inf, "fail"),
    (math.nan, 1.0, "fail"), (1.0, math.nan, "fail"), (0.0, 0.0, "pass"),
])
def test_run_check_non_finite_sides(monkeypatch, lhs, rhs, status):
    """An infinite or NaN side reads rel_err = nan and fails at any
    tolerance; two zero sides read rel_err = 0 and pass."""
    monkeypatch.setitem(verify.IDENTITIES, "fixed", ((), lambda f, p: (lhs, rhs, 0.0, 0.0)))
    rep = run_check(CheckSpec("fixed", "fixed", "J", {}, 1e-6))
    assert rep.status == status
    assert (rep.rel_err == 0.0) if status == "pass" else math.isnan(rep.rel_err)


def test_run_check_skips_on_precondition():
    # Fricke side with Re w = 1 is below the admissibility threshold
    rep = run_check(CheckSpec("fe-bad", "prop_fe", "J",
                              {"s": 0, "w": [1, 5], "N": 1}, 1e-6))
    assert rep.status == "skipped"
    assert "precondition" in rep.message


def test_run_check_evaluator_failure():
    rep = run_check(CheckSpec("bad", "thm_maincor", "nope", {"s": 0, "w": [0, 1]}, 1e-7))
    assert rep.status == "fail"
    assert rep.abs_err == math.inf
    assert rep.message == "ValueError: unknown form descriptor 'nope'"


def test_run_check_fricke_integral_form():
    # lemma_integral_form with the Fricke-transformed test function; the
    # values are about 3e-12, which the relative rule scales with
    rep = run_check(CheckSpec("fricke", "lemma_integral_form", "J",
                              {"kind": "fricke_of_phi_sw", "s": 1, "w": [30, 5],
                               "a_slash": 2, "M": 1}, 1e-12))
    assert rep.status == "pass"
    assert rep.rel_err < 1e-9


def test_run_check_invalid_theorem():
    with pytest.raises(ValueError):
        CheckSpec("x", "not_a_theorem", "J")


def test_identity_table_matches_default_suite():
    """Every identity is exercised by the bundled suite, and no bundled check
    names an identity outside the table."""
    assert set(verify.IDENTITIES) == {c.theorem for c in default_suite()}


BASELINE = Path(__file__).parent / "data" / "verify_baseline.json"


def test_default_suite_no_worse_than_baseline():
    """Baseline gate: the bundled suite keeps its check ids, passes every
    check, and no check's rel_err grows past max(2 * baseline, 1e-15).  The
    baseline is a `maassl verify --report` reduced to {id: rel_err}; it may
    only ever be tightened."""
    baseline = json.loads(BASELINE.read_text())
    reports, summary = run_suite(default_suite())
    assert {r.id for r in reports} == set(baseline)
    assert summary["fail"] == summary["skipped"] == 0
    worse = {r.id: (r.rel_err, baseline[r.id]) for r in reports
             if r.rel_err > max(2 * baseline[r.id], 1e-15)}
    assert not worse, worse


# each corrupts an evaluator's rhs; the pass rule must catch every one
RHS_MUTANTS = {
    "rel_1e-10": lambda rhs: rhs * (1 + 1e-10),
    "rel_1e-6": lambda rhs: rhs * (1 + 1e-6),
    "negated": lambda rhs: -rhs,
    "zero": lambda rhs: 0j,
}


@pytest.mark.parametrize("mutant", RHS_MUTANTS)
def test_default_suite_fails_every_mutated_rhs(monkeypatch, mutant):
    """Mutation gate: with every identity's rhs corrupted, no default check
    passes, whatever the sides' own error estimates say."""
    _mutate_rhs(monkeypatch, RHS_MUTANTS[mutant])
    reports, summary = run_suite(default_suite())
    assert len(reports) == 68
    assert summary["fail"] == 68, [r.id for r in reports if r.status != "fail"]


def _mutate_rhs(monkeypatch, corrupt):
    """Wrap every evaluator of verify.IDENTITIES so that it corrupts its rhs."""
    def mutated(evaluate):
        def evaluator(f, p):
            lhs, rhs, lhs_err, rhs_err = evaluate(f, p)
            return lhs, corrupt(rhs), lhs_err, rhs_err
        return evaluator

    for name, (accepted, evaluate) in list(verify.IDENTITIES.items()):
        monkeypatch.setitem(verify.IDENTITIES, name, (accepted, mutated(evaluate)))


HARM = {"hA": 'synth:{"k": 0, "holo": {"1": 0.5}, "nonholo": {"-1": 1}}',
        "hB": 'synth:{"k": -2, "holo": {"1": 1}, "nonholo": {"-1": [2, -1]}}',
        "hC": 'synth:{"k": 0, "nonholo": {"-1": 1, "-2": 0.3}}',
        "hD": 'synth:{"k": -2, "nonholo": {"-2": [0, 1]}}'}

# harmonic checks of the w = 0 contour side, rhs_star
HARMONIC_W0_CHECKS = (
    [CheckSpec(f"hurw_{name}_s{s}", "cor_hurw", form, {"s": s}, verify.REL_TOL)
     for name, form in HARM.items() for s in (-1.5, 0.5, 2.5)]
    + [CheckSpec("zag_hA", "prop_zag", HARM["hA"], {}, verify.REL_TOL),
       CheckSpec("bernWHF_hA_m-1", "cor_bernWHF", HARM["hA"], {"m": -1}, verify.REL_TOL)])


def test_harmonic_w0_checks_pass():
    for spec in HARMONIC_W0_CHECKS:
        rep = run_check(spec)
        assert rep.status == "pass", (spec.id, rep.rel_err, rep.message)


@pytest.mark.parametrize("mutant", RHS_MUTANTS)
def test_harmonic_w0_checks_fail_every_mutated_rhs(monkeypatch, mutant):
    """Mutation gate over the harmonic w = 0 checks, which the default suite
    does not run: every corrupted rhs fails."""
    _mutate_rhs(monkeypatch, RHS_MUTANTS[mutant])
    for spec in HARMONIC_W0_CHECKS:
        rep = run_check(spec)
        assert rep.status == "fail", (spec.id, rep.rel_err)


def test_bfi_skips_harmonic_form():
    """bfi_consistency's series side sums the holomorphic coefficients only,
    so a form with a non-holomorphic part is outside its regime."""
    rep = run_check(CheckSpec("bfi_hA", "bfi_consistency", HARM["hA"]))
    assert rep.status == "skipped"
    assert "precondition" in rep.message


def test_bfi_skips_complex_principal_part():
    """At n < 0 the series side's real EI(2 pi n) = Re E_1(2 pi n + i0) drops
    2 pi Im a(n): with a(-1) = 1 + 0.5i the sides differ by 1.5e-2 relative.
    A complex coefficient at n > 0 stays inside the regime."""
    rep = run_check(CheckSpec("bfi_c", "bfi_consistency",
                              'synth:{"k": 0, "holo": {"-1": [1, 0.5], "1": 2}}'))
    assert rep.status == "skipped"
    assert "real principal part" in rep.message
    rep = run_check(CheckSpec("bfi_r", "bfi_consistency",
                              'synth:{"k": 0, "holo": {"-1": 1, "1": [2, 0.5]}}'))
    assert rep.status == "pass", rep.rel_err


SYNTH_WHF = 'synth:{"k": 0, "holo": {"-1": 1, "1": 2}}'


@pytest.mark.parametrize("form, g", [(SYNTH_WHF, None), ("J", SYNTH_WHF), (SYNTH_WHF, "J")])
def test_functional_equation_skips_non_modular_forms(form, g):
    """A synthetic expansion has no functional equation (the sides differ by
    0.33 relative on this one), whether it is f or g."""
    params = {"s": 0.5, "w": [30, 5]} | ({"g": g} if g else {})
    rep = run_check(CheckSpec("fe_synth", "prop_fe", form, params))
    assert rep.status == "skipped"
    assert "modular" in rep.message


# checks whose windows the power growth t^{s-1} (or z^{a-1}) lengthens: a
# window set by the decay rate alone leaves rel_err 7.8e-12, 5.3e-10,
# 1.3e-12, 4.6e-11 and 2.2e-12
WINDOW_CHECKS = {
    "intform_s12": ("lemma_integral_form", {"kind": "phi_sw", "s": 12.0, "w": [8, 0]}),
    "intform_s15": ("lemma_integral_form", {"kind": "phi_sw", "s": 15.0, "w": [8, 0]}),
    "bend_a10": ("lemma_bend", {"a": 10.0, "w": [0, 1]}),
    "bend_a15": ("lemma_bend", {"a": 15.0, "w": [0, 2]}),
    "fe_s12": ("prop_fe", {"s": 12.0, "w": [30, 5], "N": 1}),
}


@pytest.mark.parametrize("name", WINDOW_CHECKS)
def test_windows_cover_the_power_growth(name):
    theorem, params = WINDOW_CHECKS[name]
    rep = run_check(CheckSpec(name, theorem, "J", params))
    assert rep.status == "pass" and rep.rel_err <= 1e-14, rep.rel_err


def test_false_functional_equation_fails():
    """J's lhs against J^2's Fricke side is a false identity: a relative
    error near 1 fails at the default tolerance.  J^2's Fricke side needs
    Re w > (4 pi sqrt 2)^2 / (2 pi) = 16 pi, from its growth constant."""
    rep = run_check(CheckSpec("fe_J_vs_Jsq", "prop_fe", "J",
                              {"s": 0, "w": [60, 5], "N": 1, "g": "Jsq"}))
    assert rep.status == "fail"
    assert rep.rel_err > 0.9


def test_functional_equation_refuses_a_fast_growing_fricke_side():
    """At Re w = 30 < 16 pi J^2's Fricke-side series is outside its regime."""
    rep = run_check(CheckSpec("fe_J_vs_Jsq", "prop_fe", "J",
                              {"s": 0, "w": [30, 5], "N": 1, "g": "Jsq"}))
    assert rep.status == "skipped"
    assert "Re(w) > 50.27" in rep.message


# integrand calls and nodes of one default-suite pass: levels 0 and 1 share a
# call, each non-phi_s^w test function pairs with all its kernels in one
# quadrature (621 calls and 24,912 nodes without either), and the phi_s^w
# non-holomorphic integrals of both pipelines are closed forms (174 calls
# and 17,424 nodes by quadrature)
SUITE_INTEGRAND_CALLS = 129
SUITE_NODES = 9_840


def test_default_suite_integrand_budget(monkeypatch):
    """The counts are deterministic: a change that splits the fused first
    call, or goes back to one quadrature per kernel, fails here."""
    counts = {"calls": 0, "nodes": 0}
    doubling = quadrature._doubling

    def counting(g, edges):
        def wrapped(z):
            counts["calls"] += 1
            counts["nodes"] += z.size
            return g(z)

        return doubling(wrapped, edges)

    monkeypatch.setattr(quadrature, "_doubling", counting)
    _, summary = run_suite(default_suite())
    assert summary["pass"] == len(default_suite())
    assert counts["calls"] <= SUITE_INTEGRAND_CALLS
    assert counts["nodes"] <= SUITE_NODES


# FourierExpansion.eval_at calls and points of one cold default-suite pass,
# what one `maassl verify` pays: 58 segment pairings evaluate each form once
# per level and height, kept in 12 entries of contour.KERNEL_TABLE, where a
# rebuilt xi-image finds the values of an equal one (27 calls and 1,552
# points when each built form kept its own values, 100 calls and 5,984
# points when every pairing evaluated its form); a warm pass evaluates only
# l_value_by_vertical_integral's forms, which keep nothing
SUITE_EVAL_AT_CALLS = 24
SUITE_EVAL_AT_POINTS = 1_408
WARM_EVAL_AT_CALLS = 8
WARM_EVAL_AT_POINTS = 512

# kernel evaluations of one cold default-suite pass, each kernel computed
# once per node table in contour.KERNEL_TABLE: the Lerch kernel of
# rhs_main_theorem (lerch_sum calls), the double-integral remainder's
# per-frequency sums (exp_int_E_scaled calls on a grid), the w = 0 kernels
# (hurwitz_zeta and hurwitz_zeta_star calls, among them those of the seeds
# and of the first Bernoulli kernel, -B_m(z)/m = zeta(1-m, z), and
# bernoulli_poly calls, among them hurwitz_zeta's at integer order) and the
# compact seeds' translated sums (57, 24, 27, 26 and 11 when every check
# computed its own); a warm pass makes none
SUITE_KERNEL_CALLS = {"lerch_sum": 27, "grids": 9, "zeta": 26, "bernoulli_poly": 15,
                      "seed": 11}


def _cold_suite(monkeypatch):
    """A default-suite pass on freshly built forms and an empty kernel
    table, counting eval_at."""
    counts = {"calls": 0, "points": 0}
    eval_at = modforms.FourierExpansion.eval_at

    def counting(self, z):
        counts["calls"] += 1
        counts["points"] += np.size(z)
        return eval_at(self, z)

    resolve_form.cache_clear()
    contour.KERNEL_TABLE.clear()
    monkeypatch.setattr(modforms.FourierExpansion, "eval_at", counting)
    return run_suite(default_suite()), counts


def test_default_suite_eval_at_budget(monkeypatch):
    """The counts are deterministic: a change that stops keeping a form's
    segment values, or keys them too finely, fails here, on the cold pass
    or on a warm second one."""
    (_, summary), counts = _cold_suite(monkeypatch)
    assert summary["pass"] == len(default_suite())
    assert counts == {"calls": SUITE_EVAL_AT_CALLS, "points": SUITE_EVAL_AT_POINTS}
    counts.update(calls=0, points=0)
    run_suite(default_suite())
    assert counts == {"calls": WARM_EVAL_AT_CALLS, "points": WARM_EVAL_AT_POINTS}


def test_default_suite_kernel_budget(monkeypatch):
    """A change that stops sharing the kernels between checks, keys them
    too finely, or pairs a kernel without keeping it, fails here."""
    counts = dict.fromkeys(SUITE_KERNEL_CALLS, 0)

    def counting(module, name, label, counted=lambda *args: True):
        original = getattr(module, name)

        def wrapped(*args):
            counts[label] += counted(*args)
            return original(*args)

        monkeypatch.setattr(module, name, wrapped)

    counting(contour, "lerch_sum", "lerch_sum")
    counting(specfun, "exp_int_E_scaled", "grids", lambda s, z: getattr(z, "ndim", 0) == 2)
    counting(specfun, "hurwitz_zeta", "zeta")
    counting(specfun, "hurwitz_zeta_star", "zeta")
    counting(specfun, "bernoulli_poly", "bernoulli_poly")
    for seed in (ltest.InversePowerSeed, ltest.LorentzianSeed, ltest.ZeroSeed):
        counting(seed, "translated_sum", "seed")
    (_, summary), _ = _cold_suite(monkeypatch)
    assert summary["pass"] == len(default_suite())
    assert all(0 < counts[k] <= bound for k, bound in SUITE_KERNEL_CALLS.items()), counts
    counts.update(dict.fromkeys(counts, 0))
    run_suite(default_suite())
    assert counts == dict.fromkeys(SUITE_KERNEL_CALLS, 0)


def test_warm_suite_repeats_the_cold_one_bit_for_bit(monkeypatch):
    (cold, _), counts = _cold_suite(monkeypatch)
    cold_calls = counts["calls"]
    warm, _ = run_suite(default_suite())
    assert counts["calls"] - cold_calls < cold_calls  # the warm pass reused values

    def bits(report):  # repr keeps every bit of a float, and the sign of a zero
        return {k: repr(v) for k, v in vars(report).items() if k != "runtime_ms"}

    assert [bits(r) for r in cold] == [bits(r) for r in warm]


def test_unknown_parameter_rejected(tmp_path, capsys):
    # a misspelt "g" would otherwise be ignored, comparing J with J
    params = {"s": 0, "w": [30, 5], "G": "Jsq"}
    with pytest.raises(ValueError, match=r"\['G'\] for prop_fe"):
        CheckSpec("fe", "prop_fe", "J", params)
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({"checks": [
        {"id": "fe", "theorem": "prop_fe", "form": "J", "params": params}]}))
    assert cli.main(["verify", "--config", str(cfg)]) == 2
    assert "checks[0]: unknown parameter(s) ['G']" in capsys.readouterr().err


@pytest.mark.parametrize("params, extra", [
    ({"kind": "phi_sw", "s": 0, "w": [30, 0], "phi": "z^-2", "a_slash": 3},
     ["a_slash", "phi"]),
    ({"kind": "compact_analytic", "phi": "z^-2", "a": 1, "b": 2, "s": 0}, ["s"]),
    ({"kind": "fricke_of_phi_sw", "s": 1, "w": [30, 5], "a_slash": 2, "M": 1, "b": 2},
     ["b"]),
])
def test_integral_form_refuses_other_kinds_parameters(tmp_path, capsys, params, extra):
    # a parameter of another kind would be ignored, not used
    with pytest.raises(ValueError, match=re.escape(f"{extra} for lemma_integral_form")):
        CheckSpec("i", "lemma_integral_form", "J", params)
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({"checks": [
        {"id": "i", "theorem": "lemma_integral_form", "form": "J", "params": params}]}))
    assert cli.main(["verify", "--config", str(cfg)]) == 2
    assert f"checks[0]: unknown parameter(s) {extra}" in capsys.readouterr().err
    # without them the kind's own parameters are accepted
    CheckSpec("i", "lemma_integral_form", "J",
              {k: v for k, v in params.items() if k not in extra})


def test_integral_form_refuses_unknown_kind():
    with pytest.raises(ValueError, match="unknown test-function kind 'phi'"):
        CheckSpec("i", "lemma_integral_form", "J", {"kind": "phi", "s": 0})


def test_missing_parameter_fails_check(tmp_path, capsys):
    rep = run_check(CheckSpec("fe", "prop_fe", "J", {"w": [30, 5]}, 1e-6))
    assert rep.status == "fail"
    assert rep.message == "KeyError: 's'"
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({"checks": [
        {"id": "fe", "theorem": "prop_fe", "form": "J", "params": {"w": [30, 5]}}]}))
    assert cli.main(["verify", "--config", str(cfg)]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0])
def test_check_tolerance_must_be_finite(tol):
    with pytest.raises(ValueError, match="tolerance must be finite"):
        CheckSpec("zag", "prop_zag", "J", {}, tol)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def test_default_suite_ids_unique():
    suite = default_suite()
    assert 30 <= len(suite) <= 80
    ids = [c.id for c in suite]
    assert len(set(ids)) == len(ids)


def test_run_suite_filter():
    reports, summary = run_suite(default_suite(), "prop_zag")
    assert len(reports) == 1
    assert summary["pass"] == 1


def test_empty_config(tmp_path):
    cfg = tmp_path / "empty.json"
    cfg.write_text('{"checks": []}')
    reports, summary = run_suite(load_suite(str(cfg)))
    assert reports == []
    assert summary == {"pass": 0, "fail": 0, "skipped": 0}


def test_config_parse_error_context(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"checks": [\n  {"oops"\n]}')
    with pytest.raises(ValueError, match=r"bad\.json:\d+"):
        load_suite(str(cfg))


def test_report_schema_and_determinism(tmp_path):
    checks = [CheckSpec("bend", "lemma_bend", "J",
                        {"a": 0.5, "w": [0, 1]}, 1e-6),
              CheckSpec("fe-skip", "prop_fe", "J",
                        {"s": 0, "w": [1, 0]}, 1e-6)]
    dicts = []
    for _ in range(2):
        reports, summary = run_suite(checks)
        d = report_json(reports, summary)
        for entry in d["checks"]:
            entry.pop("runtime_ms")
        dicts.append(json.dumps(d, sort_keys=True))
    assert dicts[0] == dicts[1]
    d = json.loads(dicts[0])
    required = {"id", "theorem", "lhs", "rhs", "abs_err", "rel_err",
                "lhs_err_est", "rhs_err_est", "status", "message"}
    for entry in d["checks"]:
        assert required <= set(entry)
        assert isinstance(entry["lhs"], list) and len(entry["lhs"]) == 2


def test_unset_tolerance_is_rel_tol(tmp_path):
    """A check that sets no tolerance, in code or in a config, gets REL_TOL."""
    assert CheckSpec("zag", "prop_zag", "J").tolerance == verify.REL_TOL
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps(
        {"checks": [{"id": "zag", "theorem": "prop_zag", "form": "J"}]}))
    assert [c.tolerance for c in load_suite(str(cfg))] == [verify.REL_TOL]


@pytest.mark.parametrize("lhs, rhs, status", [
    (2.0, 2.0, "pass"), (0.0, 0.0, "pass"), (1.0, math.nextafter(1.0, 2.0), "fail"),
])
def test_zero_tolerance_passes_only_equal_sides(monkeypatch, lhs, rhs, status):
    """0 is an ordinary tolerance, not a stand-in for the default."""
    monkeypatch.setitem(verify.IDENTITIES, "fixed", ((), lambda f, p: (lhs, rhs, 0.0, 0.0)))
    assert run_check(CheckSpec("fixed", "fixed", "J", {}, 0.0)).status == status


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_specfun_E():
    code, out, _ = run_cli("specfun", "E", "1", "--", "-6.2831853071795865")
    assert code == 0
    re_part, im_part = map(float, out.split())
    assert im_part == pytest.approx(-math.pi, abs=1e-10)


def test_cli_specfun_usage_error():
    code, _, err = run_cli("specfun", "E", "1")
    assert code == 2


@pytest.mark.parametrize("args", [("E", "0", "0"), ("lerch", "2", "0.25", "1"),
                                  ("polygamma", "1.5", "2"), ("bernoulli", "2.7", "0.5"),
                                  ("EI", "2+3j")])
def test_cli_specfun_domain_error(args, capsys):
    """A special-function failure is a usage error (exit 2), not a failed check."""
    assert cli.main(["specfun", *args]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_unknown_subcommand():
    code, _, _ = run_cli("frobnicate")
    assert code == 2


def test_cli_coeffs_csv():
    code, out, _ = run_cli("coeffs", "J", "--prec", "5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,re,im"
    rows = {int(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
    assert rows[-1] == 1.0
    assert rows[1] == 196884.0
    assert rows[4] == 20245856256.0
    assert out == ("n,re,im\n-1,1.0,0.0\n1,196884.0,0.0\n2,21493760.0,0.0\n"
                   "3,864299970.0,0.0\n4,20245856256.0,0.0\n")
    assert run_cli("coeffs", "Jsq", "--prec", "3")[1] == (
        "n,re,im\n-2,1.0,0.0\n1,42987520.0,0.0\n2,40491909396.0,0.0\n")


def test_cli_coeffs_json():
    code, out, _ = run_cli("coeffs", "J", "--prec", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["form"] == "J"
    assert [1, 196884.0, 0.0] in data["coefficients"]


def test_cli_coeffs_prec_builds_to_request():
    code, out, _ = run_cli("coeffs", "J", "--prec", "120")
    assert code == 0
    n, re_part, im_part = out.strip().splitlines()[-1].split(",")
    assert int(n) == 119
    assert float(re_part) == float(build_j_series(120)[119])


@pytest.mark.parametrize("prec", ["0", "-3"])
def test_cli_coeffs_prec_must_be_positive(prec):
    code, out, err = run_cli("coeffs", "J", "--prec", prec)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_cli_lvalue_default_w_is_l_star():
    """The default w = 0 gives L*(f, s); there is no --star option."""
    code, out, _ = run_cli("lvalue", "J", "--s", "0")
    assert code == 0
    star = ltest.l_star(resolve_form("J"), 0.0)
    assert out == f"{star.real:.15g} {star.imag:.15g}\n"
    assert float(out.split()[1]) == pytest.approx(-math.pi, abs=1e-9)
    code, _, err = run_cli("lvalue", "J", "--s", "0", "--star")
    assert code == 2 and "--star" in err


def test_cli_verify_filter_and_report(tmp_path):
    report = tmp_path / "report.json"
    code, out, _ = run_cli("verify", "--filter", "prop_zag",
                           "--report", str(report))
    assert code == 0
    assert re.search(r"^PASS +zag_J +abs_err=\S+ rel_err=\S+$", out, re.M)
    data = json.loads(report.read_text())
    assert data["summary"]["fail"] == 0
    assert data["checks"][0]["id"] == "zag_J"


def test_cli_verify_failing_config_exit_code(tmp_path):
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({"checks": [
        {"id": "impossible", "theorem": "prop_zag", "form": "J",
         "tolerance": 1e-20}]}))
    code, out, _ = run_cli("verify", "--config", str(cfg))
    assert code == 1
    assert "FAIL" in out


ZAG = '{"id": "zag", "theorem": "prop_zag", "form": "J"'


@pytest.mark.parametrize("text, message", [
    ('[1, 2]', 'expected an object with a "checks" array'),
    ('{"checks": ["x"]}', "checks[0]: a check must be an object, got 'x'"),
    ('{"checks": [' + ZAG + ', "tolerance": null}]}',
     "checks[0]: tolerance of check 'zag' must be a number, got None"),
    ('{"checks": [' + ZAG + ', "tolerance": true}]}',
     "checks[0]: tolerance of check 'zag' must be a number, got True"),
    ('{"checks": [' + ZAG + ', "tolerance": "1e-3"}]}',
     "checks[0]: tolerance of check 'zag' must be a number, got '1e-3'"),
    ('{"checks": [' + ZAG + ', "tolerance": 1e999}]}', "checks[0]: tolerance must be finite"),
    ('{"checks": [' + ZAG + ', "tolerance": NaN}]}', "checks[0]: tolerance must be finite"),
    ('{"checks": [' + ZAG + ', "params": [1]}]}', "checks[0]: params must be an object"),
], ids=["top-level-list", "check-string", "tolerance-null", "tolerance-bool",
        "tolerance-string", "tolerance-inf", "tolerance-nan", "params-list"])
def test_cli_malformed_config_is_usage_error(text, message, tmp_path, capsys):
    """A malformed config is a usage error (exit 2), not a failed check (exit 1)."""
    cfg = tmp_path / "suite.json"
    cfg.write_text(text)
    assert cli.main(["verify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}: {message}")


@pytest.mark.parametrize("selector", ["filter", "config"])
def test_cli_verify_nothing_selected(selector, tmp_path, capsys):
    """A run of no check certifies nothing: exit 2, not a pass."""
    cfg = tmp_path / "empty.json"
    cfg.write_text('{"checks": []}')
    args = ["--filter", "thm_mian"] if selector == "filter" else ["--config", str(cfg)]
    assert cli.main(["verify", *args]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: no check selected\n"


def test_main_callable_directly(capsys):
    assert cli.main(["specfun", "digamma", "1"]) == 0
    out = capsys.readouterr().out
    assert float(out.split()[0]) == pytest.approx(-0.5772156649015329, abs=1e-12)


def test_import_does_not_load_scipy():
    code = "import sys, maassl; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
