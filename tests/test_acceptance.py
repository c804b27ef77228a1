"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Every identity is checked through two independent pipelines (coefficient
series vs contour quadrature) at the stated tolerances.
"""

import cmath
import json
import math
import time

from maassl import (CompactAnalytic, InversePowerSeed, PhiSW,
                    compact_support_value, fricke_transform_testfn, l_star,
                    l_value, l_value_by_vertical_integral, l_value_limit,
                    r_remainder, ray_integral_bend, rhs_integer_value,
                    rhs_main_theorem, synth_harmonic)
from maassl.contour import i_power
from maassl.specfun import (_hurwitz_em, cal_EI, exp_int_E, hurwitz_zeta,
                            inc_gamma_upper, lerch_zeta, polygamma,
                            principal_power)
from maassl.verify import default_suite, report_json, run_suite

TWO_PI = 2 * math.pi


def _report(num, name, ok, detail=""):
    line = f"CRITERION {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


def test_criterion_1_specfun_grid():
    """>= 500 kernel assertions at abs tol 1e-9, under 5 s."""
    tol = 1e-9
    start = time.perf_counter()
    checked = 0
    worst = 0.0

    def close(a, b, scale=1.0):
        nonlocal checked, worst
        err = abs(a - b) / max(1.0, scale)
        worst = max(worst, err)
        checked += 1
        assert err <= tol, (a, b, err)

    zs = [r * cmath.exp(1j * t)
          for r in (0.3, 1.0, 2.5, 6.0, 15.0, 45.0)
          for t in (0.1, 0.7, 1.4, 2.2, 2.9)]
    # Gamma recurrence: Gamma(r+1,z) = r Gamma(r,z) + z^r e^{-z}
    for r in (-1.5, -0.5, 0.5, 1.0, 2.5):
        for z in zs:
            lhs = inc_gamma_upper(r + 1, z)
            rhs = r * inc_gamma_upper(r, z) + principal_power(z, r) * cmath.exp(-z)
            close(lhs, rhs, abs(lhs))
    # E_s / Gamma consistency
    for s in (-2.0, -0.5, 0.0, 0.5, 2.0):
        for z in zs:
            lhs = exp_int_E(s, z)
            rhs = principal_power(z, s - 1) * inc_gamma_upper(1 - s, z)
            close(lhs, rhs, abs(lhs))
    # EI - E_1 = i pi on the negative axis
    for i in range(60):
        w = -15.0 + i * (15.0 - 0.05) / 59
        close(cal_EI(w) - exp_int_E(1, w), 1j * math.pi)
    # zeta(-m, a) = -B_{m+1}(a)/(m+1), which hurwitz_zeta returns, against
    # the Euler-Maclaurin route it takes at non-integer s
    for m in range(7):
        for a in (0.3, 0.8, 1.0, 1.7, 2.7, 4.0, 0.5 + 1j, 1.2 - 0.4j,
                  2.0 + 2j, 3.3 + 0.1j):
            close(hurwitz_zeta(-m, a), _hurwitz_em(complex(-m), a))
    # Lerch reduces to Hurwitz at a = 0
    for s in (1.5, 2.0, 3.0):
        for z in (0.5, 0.8, 1.0, 1.6, 2.5, 4.0, 1 + 1j, 2 - 0.5j, 3 + 2j, 6.0):
            close(lerch_zeta(s, 0, z), hurwitz_zeta(s, z))
    # polygamma-Hurwitz identity
    for m in (1, 2, 3, 4):
        for z in (0.4, 0.7, 1.0, 1.3, 2.2, 3.5, 5.0, 0.8 + 1j, 2 + 2j,
                  1.5 - 0.7j, 4 - 1j, 7.0, 9.5, 0.25, 12.0):
            lhs = polygamma(m, z)
            rhs = (-1) ** (m + 1) * math.factorial(m) * hurwitz_zeta(m + 1, z)
            close(lhs, rhs, abs(lhs))
    elapsed = time.perf_counter() - start
    _report(1, "specfun kernel grid",
            checked >= 500 and elapsed < 5.0,
            f"{checked} assertions, worst {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_ray_bending():
    """The ray integral equals i^a E_{1-a}(w); error < 1e-6."""
    worst = 0.0
    cases = [(a, w) for a in (-1.0, 0.5, 2.0) for w in (1j, 2j, 1 + 1j)]
    cases.append((-1.0, 1.0))  # the real-w regime needs a < 0
    for a, w in cases:
        err = abs(ray_integral_bend(a, w)
                  - i_power(a) * exp_int_E(1 - a, w))
        worst = max(worst, err)
    _report(2, "ray bending lemma", worst < 1e-6, f"worst {worst:.2e}")


def test_criterion_3_main_identity_whf(J, Jsq):
    """Series vs contour for weakly holomorphic forms, <= 1e-7, under 30 s."""
    start = time.perf_counter()
    synth = synth_harmonic(0, {-1: 1, 1: 2, 3: -1}, {})
    worst = 0.0
    for f in (J, Jsq, synth):
        for s in (-1.5, 0.0, 0.5, 2.0):
            for w in (1j, 0.3 + 0.7j):
                lhs = l_value(f, PhiSW(s, w)).value
                rhs = rhs_main_theorem(f, s, w)
                worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - start
    _report(3, "main identity, weakly holomorphic",
            worst <= 1e-7 and elapsed < 30.0,
            f"worst {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_main_identity_harmonic():
    """Harmonic case at w = 0.5+i, <= 1e-6, plus remainder-form equality."""
    w = 0.5 + 1j
    worst_main = worst_r = 0.0
    forms = [synth_harmonic(0, {1: 1}, {-1: 1}),
             synth_harmonic(0, {}, {-1: 1, -2: 0.3}),
             synth_harmonic(-2, {1: 1}, {-1: 2 - 1j}),
             synth_harmonic(-2, {}, {-2: 1j})]
    for f in forms:
        for s in (0.5, 1.0, 2.0):
            lhs = l_value(f, PhiSW(s, w)).value
            rhs = rhs_main_theorem(f, s, w)
            worst_main = max(worst_main, abs(lhs - rhs))
            rdiff = abs(r_remainder(f, s, w, "one_dim")
                        - r_remainder(f, s, w, "double_integral"))
            worst_r = max(worst_r, rdiff)
    _report(4, "main identity, harmonic",
            worst_main <= 1e-6 and worst_r <= 1e-6,
            f"worst main {worst_main:.2e}, worst R-form {worst_r:.2e}")


def test_criterion_5_integer_values(J):
    """L*(J, m) vs the contour closed form for m in [-3, 3]; BFI check at 0."""
    worst = 0.0
    for m in range(-3, 4):
        worst = max(worst, abs(l_star(J, m) - rhs_integer_value(J, m)))
    series = 2 * sum(a * cal_EI(TWO_PI * n) for n, a in J.holo.items())
    bfi_err = abs(series.real - 2 * l_star(J, 0).real)
    _report(5, "integer values + BFI", worst <= 1e-7 and bfi_err <= 1e-7,
            f"worst {worst:.2e}, BFI {bfi_err:.2e}")


def test_criterion_6_harmonic_bernoulli():
    """Harmonic closed form vs the x->0+ extrapolation oracle, <= 1e-5.

    The oracle adjudicates the printed constants: the phase-free variant
    (printed_constants=True) disagrees with the limit and is reported as a
    documented discrepancy, not silently corrected.
    """
    worst = 0.0
    printed_gap = math.inf
    for f in (synth_harmonic(0, {1: 0.5}, {-1: 1}),
              synth_harmonic(-2, {1: 1}, {-1: 2 - 1j})):
        for m in (1, 2):
            lim, lim_err = l_value_limit(f, m)
            worst = max(worst, abs(rhs_integer_value(f, m) - lim))
            if m == 2:
                printed_gap = min(printed_gap, abs(
                    rhs_integer_value(f, m, printed_constants=True) - lim))
    _report(6, "harmonic Bernoulli formula", worst <= 1e-5,
            f"worst vs limit oracle {worst:.2e}; "
            f"phase-free printed variant off by >= {printed_gap:.2e} (documented)")


def test_criterion_7_functional_equation(J):
    """L_J(phi_s^w) against the Fricke-transformed side at w = 30+5i.

    The values are ~1e-12, so the 1e-6 absolute gate alone would be vacuous;
    relative agreement at 1e-6 is asserted as well.
    """
    worst_abs = worst_rel = 0.0
    for s in (0.0, 1.0, -0.5):
        phi = PhiSW(s, 30 + 5j)
        lhs = l_value(J, phi).value
        rhs = l_value(J, fricke_transform_testfn(phi, 2, 1)).value
        worst_abs = max(worst_abs, abs(lhs - rhs))
        worst_rel = max(worst_rel, abs(lhs - rhs) / abs(lhs))
    _report(7, "functional equation",
            worst_abs <= 1e-6 and worst_rel <= 1e-6,
            f"worst abs {worst_abs:.2e}, worst rel {worst_rel:.2e}")


def test_criterion_8_compact_support(J):
    """Telescoped two-segment formula vs direct vertical quadrature, 1e-8."""
    worst = 0.0
    for p, (a, b) in ((2.0, (1.0, 2.0)), (3.0, (1.0, 1.5)),
                      (2.0, (1.0, 1.5)), (3.0, (1.0, 2.0))):
        seed = InversePowerSeed(p)
        lhs = compact_support_value(J, seed, a, b)
        rhs = l_value_by_vertical_integral(J, CompactAnalytic(seed, a, b))
        worst = max(worst, abs(lhs - rhs))
    _report(8, "compact support", worst <= 1e-8, f"worst {worst:.2e}")


def test_criterion_9_vertical_integral_corpus(J, Jsq):
    """Series pairing vs the vertical-line integral across the corpus."""
    corpus = [
        (J, PhiSW(0.0, 30.0)),
        (J, PhiSW(1.0, 30 + 5j)),
        (J, CompactAnalytic(InversePowerSeed(2), 1.0, 2.0)),
        (Jsq, PhiSW(0.5, 30.0)),
        (synth_harmonic(0, {1: 1}, {-1: 1}), PhiSW(1.0, 30.0)),
        (synth_harmonic(-2, {}, {-1: 2 - 1j}), PhiSW(0.5, 30 + 2j)),
    ]
    worst = 0.0
    ok = True
    for f, phi in corpus:
        lv = l_value(f, phi)
        vert = l_value_by_vertical_integral(f, phi)
        err = abs(lv.value - vert)
        worst = max(worst, err)
        ok = ok and err <= max(lv.error_estimate, 1e-9)
    _report(9, "vertical-integral cross-pipeline", ok, f"worst {worst:.2e}")


def test_criterion_10_verify_suite_end_to_end():
    """Default verify suite: no failures, < 2 minutes, deterministic report."""
    suite = default_suite()
    start = time.perf_counter()
    reports, summary = run_suite(suite)
    elapsed = time.perf_counter() - start
    reports2, summary2 = run_suite(suite)

    def strip(reps, summ):
        d = report_json(reps, summ)
        for entry in d["checks"]:
            entry.pop("runtime_ms")
        return json.dumps(d, sort_keys=True)

    deterministic = strip(reports, summary) == strip(reports2, summary2)
    ok = (summary["fail"] == 0 and summary["pass"] >= 30
          and elapsed < 120.0 and deterministic)
    _report(10, "verify suite end-to-end", ok,
            f"{summary}, {elapsed:.1f}s, deterministic={deterministic}")
