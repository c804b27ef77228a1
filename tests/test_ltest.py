"""Tests for test functions, Laplace/Fricke transforms, and L-values."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maassl import (CompactAnalytic, FourierExpansion, FrickePhiSW,
                    InversePowerSeed, LorentzianSeed, PhiSW, fricke_transform_testfn, l_star,
                    l_tilde, l_value, l_value_by_vertical_integral,
                    l_value_limit, specfun, synth_harmonic)
from maassl import ltest
from maassl.ltest import AdmissibilityError
from maassl.specfun import exp_int_E, tail_extent

try:
    import mpmath
except ImportError:  # the oracle is optional
    mpmath = None

TWO_PI = 2 * math.pi
EPS = np.finfo(float).eps

# J, Jsq and this form store coefficients past the point where the phi_s^w
# series terms drop below the sum's rounding
CUT_SYNTH = synth_harmonic(0, {-1: 1, **{n: (1.5 - 0.5j) * (-3.0) ** n
                                         for n in range(1, 25)}}, {})
CUT_FORMS = ("J", "Jsq", "synth")


def _cut_form(name, J, Jsq):
    return {"J": J, "Jsq": Jsq, "synth": CUT_SYNTH}[name]


def test_laplace_phi_sw_closed_forms():
    # s=1, w=0: L phi(u) = int_1^inf e^{-ut} dt = e^{-u}/u = E_0(u)
    assert PhiSW(1, 0).laplace(1.0) == pytest.approx(math.exp(-1), rel=1e-13)
    assert PhiSW(0, 0).laplace(TWO_PI) == pytest.approx(
        exp_int_E(1, TWO_PI), rel=1e-13)
    # continuous extension on the negative axis
    v = PhiSW(0, 0).laplace(-TWO_PI)
    assert v.imag == pytest.approx(-math.pi, abs=1e-12)


def test_phi_sw_values():
    phi = PhiSW(0.5, 1 + 1j)
    t = np.array([0.5, 1.0, 2.0])
    vals = phi.value(t)
    assert vals[0] == 0
    assert vals[1] == pytest.approx(cmath.exp(-(1 + 1j)))
    assert vals[2] == pytest.approx(cmath.exp(-2 * (1 + 1j)) * 2 ** -0.5)


def test_fricke_transform_values():
    phi = PhiSW(1.2, 0.7)
    psi = fricke_transform_testfn(phi, 2, 4)
    # (phi|_2 W_4)(1/8) = (1/2)^{-2} phi(2) = 4 e^{-2w} 2^{s-1}
    expected = 4 * cmath.exp(-2 * 0.7) * 2 ** (1.2 - 1)
    assert psi.value(np.array([1 / 8]))[0] == pytest.approx(expected, rel=1e-12)
    # supported in (0, 1/M]
    assert psi.value(np.array([0.3]))[0] == 0


def test_fricke_involution():
    phi = PhiSW(0.5, 2.0)
    back = fricke_transform_testfn(fricke_transform_testfn(phi, 2, 3), 2, 3)
    t = np.array([1.0, 1.7, 4.0])
    assert np.allclose(back.value(t), phi.value(t))


def test_fricke_unsupported_kind():
    seed = InversePowerSeed(2)
    with pytest.raises(TypeError):
        fricke_transform_testfn(CompactAnalytic(seed, 1, 2), 2, 1)


def test_l_value_single_term():
    f = synth_harmonic(0, {1: 1}, {})
    lv = l_value(f, PhiSW(1, 0))
    assert lv.value == pytest.approx(exp_int_E(0, TWO_PI), rel=1e-12)
    assert lv.nonholo_part == 0


def test_l_value_nonholo_closed_form():
    # f = nonholo at n=-1, k=0, phi = phi_1^0:
    # int_1^inf Gamma(1, 4 pi t) e^{2 pi t} dt = int_1^inf e^{-2 pi t} dt
    f = synth_harmonic(0, {}, {-1: 1})
    lv = l_value(f, PhiSW(1, 0))
    assert lv.holo_part == 0
    assert lv.nonholo_part == pytest.approx(math.exp(-TWO_PI) / TWO_PI, rel=1e-10)


def test_l_value_linearity(J):
    f = synth_harmonic(0, {1: 1, 2: -1j}, {-1: 0.5})
    g = synth_harmonic(0, {1: 2}, {-2: 1})
    phi = PhiSW(0.5, 1j)
    # (2 - i) f + 3 g, coefficient by coefficient
    combo = synth_harmonic(0, {1: (2 - 1j) * 1 + 3 * 2, 2: (2 - 1j) * -1j},
                           {-1: (2 - 1j) * 0.5, -2: 3 * 1})
    lhs = l_value(combo, phi).value
    rhs = (2 - 1j) * l_value(f, phi).value + 3 * l_value(g, phi).value
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_l_star_single_term():
    f = synth_harmonic(0, {1: 1}, {})
    assert l_star(f, 0) == pytest.approx(exp_int_E(1, TWO_PI), rel=1e-12)


def test_l_star_J_imaginary_part(J):
    # the only imaginary contribution comes from E_1(-2 pi) via n = -1
    assert l_star(J, 0).imag == pytest.approx(-math.pi, abs=1e-10)


def test_l_tilde_symmetry(J):
    # k = 0: l_tilde(f, s) = l_tilde(f, -s) by construction
    assert l_tilde(J, 0.7) == pytest.approx(l_tilde(J, -0.7), rel=1e-10)
    assert l_tilde(J, 0) == pytest.approx(2 * l_star(J, 0), rel=1e-12)


def test_l_tilde_single_term():
    f = synth_harmonic(0, {1: 1}, {})
    expected = exp_int_E(0, TWO_PI) + exp_int_E(2, TWO_PI)
    assert l_tilde(f, 1) == pytest.approx(expected, rel=1e-12)


def test_vertical_integral_phi_sw(J):
    phi = PhiSW(0, 30.0)
    assert l_value_by_vertical_integral(J, phi) == pytest.approx(
        l_value(J, phi).value, abs=1e-20, rel=1e-10)


def test_vertical_integral_compact(J):
    phi = CompactAnalytic(InversePowerSeed(2), 1.0, 2.0)
    assert l_value_by_vertical_integral(J, phi) == pytest.approx(
        l_value(J, phi).value, rel=1e-9)


def test_vertical_integral_empty_form():
    f = synth_harmonic(0, {1: 0}, {})
    phi = CompactAnalytic(InversePowerSeed(2), 1.0, 2.0)
    assert l_value_by_vertical_integral(f, phi) == 0


def test_vertical_integral_admissibility(J):
    with pytest.raises(AdmissibilityError):
        l_value_by_vertical_integral(J, PhiSW(0, 1.0))  # Re w < 2 pi n0


def test_vertical_integral_overflow_is_inadmissible(J, no_quadrature):
    # phi_0.5^6.4's window ends at 347, but J(iy) ~ e^{2 pi y} overflows
    # past y = log(DBL_MAX) / 2 pi = 112.97: refused before any quadrature,
    # with no overflow warning
    assert PhiSW(0.5, 6.4).window(TWO_PI, TWO_PI)[1] == 347
    assert PhiSW(0.5, 6.6).window(TWO_PI, TWO_PI)[1] == 126
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AdmissibilityError, match="overflows past y = 112.97"):
            l_value_by_vertical_integral(J, PhiSW(0.5, 6.4))
        with pytest.raises(AdmissibilityError, match="window, which ends at 126"):
            l_value_by_vertical_integral(J, PhiSW(0.5, 6.6))


def test_vertical_integral_near_the_overflow_edge(J):
    # the window of phi_0.5^6.64 ends at 112, just inside the domain
    phi = PhiSW(0.5, 6.64)
    assert phi.window(TWO_PI, TWO_PI)[1] == 112
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = l_value_by_vertical_integral(J, phi)
    assert value == pytest.approx(l_value(J, phi).value, rel=1e-14, abs=0)


def test_vertical_integral_reads_the_pole_order_off_the_coefficients():
    # a q^-2 pole: the pairing needs Re w > 4 pi, not the 2 pi of a q^-1
    f = FourierExpansion(0, 1, {-2: 1, 1: 1}, {}, 1.0)
    with pytest.raises(AdmissibilityError):
        l_value_by_vertical_integral(f, PhiSW(0.5, 10))
    phi = PhiSW(0.5, 14)
    assert l_value_by_vertical_integral(f, phi) == pytest.approx(
        l_value(f, phi).value, rel=1e-12)


@pytest.mark.parametrize("name", ["J", "harm0", "harm-2"])
@pytest.mark.parametrize("s", [0, 1])
@pytest.mark.parametrize("w", [30 + 5j, 30, 40 + 2j, 60 + 1j, 80 + 3j])
def test_vertical_integral_fricke(J, name, s, w):
    # the Fricke-transformed phi_s^w on (0, 1/M]; the harmonic forms also
    # reach the non-holomorphic integral over the test function's window.
    # At large Re w the values are tiny, so the window must be relative to
    # phi's own size at t = 1/M, not an absolute cutoff
    f = {"J": J, "harm0": synth_harmonic(0, {1: 1}, {-1: 1}),
         "harm-2": synth_harmonic(-2, {1: 1}, {-1: 2 - 1j})}[name]
    phi = FrickePhiSW(s, w, 2 - f.weight, 1)
    series = l_value(f, phi).value
    assert l_value_by_vertical_integral(f, phi) == pytest.approx(series, rel=1e-12, abs=0)


@pytest.mark.parametrize("w", [-5 + 1j, -3 + 0.5j, 0.5 + 1j])
def test_nonholo_pairing_negative_re_w(w):
    # Gamma(1, 4 pi y) e^{2 pi y} = e^{-2 pi y}, so the pairing with phi_0^w
    # is int_1^inf e^{-(2 pi + w) y} y^{-1} dy = E_1(2 pi + w)
    f = synth_harmonic(0, {}, {-1: 1})
    lv = l_value(f, PhiSW(0, w))
    expected = exp_int_E(1, TWO_PI + w)
    assert abs(lv.value - expected) <= 1e-12 * abs(expected)
    assert abs(lv.value - expected) <= lv.error_estimate + 1e-12 * abs(expected)


def test_nonholo_pairing_divergent_raises():
    # Re(2 pi + w) < 0: the integral diverges
    f = synth_harmonic(0, {}, {-1: 1})
    with pytest.raises(AdmissibilityError):
        l_value(f, PhiSW(0, -7 + 1j))


def test_windows():
    # each window ends where specfun.tail_extent bounds what it drops: the
    # decay rate, and the power growth in u = t - 1 (phi_s^w) or in
    # v = 1/(Mt) with the Jacobian dt = -dv/(M v^2) (Fricke)
    assert PhiSW(0, 2 + 1j).window(-1.0, 0.0) == (1.0, 1.0 + tail_extent(3.0, 0.0)) == (1.0, 14.0)
    assert PhiSW(0.5 + 3j, 3).window(1.0, 0.0) == (1.0, 1.0 + tail_extent(2.0, 0.0))
    assert PhiSW(12, 8).window(TWO_PI, 0.0) == (1.0, 1.0 + tail_extent(8 - TWO_PI, 11.0))
    lo, hi = FrickePhiSW(0, 30, 2, 2).window(0.0, 1.0)
    assert hi == 0.5 and lo == 1 / (2 * (1 + tail_extent(28.0, 0.0))) == 1 / 6
    lo, hi = FrickePhiSW(12, 8, 2, 1).window(0.0, 0.0)
    assert hi == 1 and lo == 1 / (1 + tail_extent(8.0, 11.0)) == 1 / 9
    seed = InversePowerSeed(2)
    assert CompactAnalytic(seed, 1.0, 2.5).window(10.0, 10.0) == (1.0, 2.5)
    with pytest.raises(AdmissibilityError):
        PhiSW(0, 1.0).window(1.0, 0.0)
    with pytest.raises(AdmissibilityError):
        FrickePhiSW(0, 2.0, 2, 2).window(0.0, 1.0)


def test_fricke_level_must_be_positive():
    with pytest.raises(ValueError, match="positive integer"):
        FrickePhiSW(0, 30, 2, 0)


@pytest.mark.skipif(mpmath is None, reason="mpmath oracle not installed")
@pytest.mark.parametrize("phi, c_inf, c_0", [
    (PhiSW(12, 8), TWO_PI, 0.0), (PhiSW(0.5 + 3j, 6.64), TWO_PI, 0.0),
    (PhiSW(20, 2.5), 0.5, 0.0), (FrickePhiSW(12, 8, 2, 1), 0.0, 0.0),
    (FrickePhiSW(0, 30, 2, 2), 0.0, 1.0), (FrickePhiSW(3.5, 10, 4, 3), 0.0, 1.0)])
def test_windows_drop_at_most_the_cut(phi, c_inf, c_0):
    """What a window leaves out of int |phi(t)| e^{c_inf t + c_0/t} dt, by
    mpmath quadrature, is at most TAIL_CUT of the integrand at the window's
    fixed end (t = 1, or t = 1/M times the interval 1/M)."""
    lo, hi = phi.window(c_inf, c_0)
    s, w = mpmath.mpf(complex(phi.s).real), mpmath.mpf(complex(phi.w).real)
    with mpmath.workdps(30):
        if isinstance(phi, PhiSW):
            dropped = mpmath.quad(lambda t: mpmath.exp((c_inf - w) * (t - 1)) * t ** (s - 1),
                                  [hi, mpmath.inf])
        else:
            M, r = phi.M, w - phi.M * c_0
            dropped = mpmath.quad(lambda t: mpmath.exp(r * (1 - 1 / (M * t)))
                                  * (M * t) ** (1 - s - phi.a), [0, lo]) * M
    assert dropped <= specfun.TAIL_CUT, (phi, float(dropped))


def test_fricke_series_admissibility(J):
    # Fricke-side evaluation demands Re(w) above the growth threshold (8 pi)
    with pytest.raises(AdmissibilityError):
        l_value(J, FrickePhiSW(0, 1.0 + 1j, 2, 1))


BATCHED_PHIS = {
    "fricke_s0": FrickePhiSW(0, 30 + 5j, 2, 1),
    "fricke_s1": FrickePhiSW(1, 40 + 2j, 2, 1),
    "compact_z^-2": CompactAnalytic(InversePowerSeed(2), 1.0, 2.0),
    "compact_lorentzian": CompactAnalytic(LorentzianSeed(), 1.0, 2.0),
}


def test_batched_laplace_closed_form(J):
    # -int_1^2 e^{-ut} t^{-2} dt = E_2(2u)/2 - E_2(u) for the z^-2 seed
    u = TWO_PI * J.arrays[0]
    batch = ltest._kernels(J, BATCHED_PHIS["compact_z^-2"]).value
    exact = np.array([exp_int_E(2, 2 * x) / 2 - exp_int_E(2, x) for x in u])
    assert np.max(np.abs(batch - exact)) <= 1e-13 * np.max(np.abs(exact))


@pytest.mark.parametrize("name", sorted(BATCHED_PHIS))
def test_holo_part_is_one_quadrature(J, harm_k0, monkeypatch, name):
    calls = []
    decaying = ltest.integrate_decaying

    def counting(g, t0, t1):
        calls.append((t0, t1))
        return decaying(g, t0, t1)

    monkeypatch.setattr(ltest, "integrate_decaying", counting)
    phi = BATCHED_PHIS[name]
    lv = l_value(J, phi)
    assert len(calls) == 1
    # the vertical integral of f(iy) phi(y) is the same L-value by another
    # quadrature
    vertical = l_value_by_vertical_integral(J, phi)
    assert abs(lv.value - vertical) <= 1e-13 * abs(vertical)
    # the form's non-holomorphic coefficient takes a column of the same
    # quadrature (weight 0, so a Fricke phi's a = 2 - k = 2 is harm_k0's)
    calls.clear()
    lv = l_value(harm_k0, phi)
    assert len(calls) == 1
    vertical = l_value_by_vertical_integral(harm_k0, phi)
    assert lv.nonholo_part and abs(lv.value - vertical) <= 1e-13 * abs(vertical)


@pytest.mark.parametrize("name", sorted(BATCHED_PHIS))
def test_empty_expansion_pairs_to_zero(no_quadrature, name):
    lv = l_value(synth_harmonic(0, {}, {}), BATCHED_PHIS[name])
    assert lv == (0, 0, 0, 0)


@pytest.mark.parametrize("phi", [CompactAnalytic(InversePowerSeed(2), 1.0, 2.0),
                                 FrickePhiSW(0, 30 + 5j, 2, 1)])
def test_batched_kernels_keep_the_divergence_check(phi):
    # coefficients 10^{3n} outgrow both kernels, which the growth constant
    # of a synthetic form does not declare
    f = synth_harmonic(0, {-1: 1, **{n: 10.0 ** (3 * n) for n in range(1, 12)}}, {})
    with pytest.raises(AdmissibilityError, match="stopped decreasing"):
        l_value(f, phi)


def test_functional_equation(J):
    for s in (0, 1, -0.5):
        phi = PhiSW(s, 30 + 5j)
        lhs = l_value(J, phi).value
        rhs = l_value(J, fricke_transform_testfn(phi, 2, 1)).value
        assert abs(lhs - rhs) < 1e-6
        assert abs(lhs - rhs) / abs(lhs) < 1e-6  # values are ~1e-12; check rel


def test_richardson_limit_matches_direct(no_quadrature):
    # every level's non-holomorphic part is a closed form, no quadrature
    f = synth_harmonic(0, {1: 0.5}, {-1: 1})
    lim, err = l_value_limit(f, 1)
    direct = l_star(f, 1)
    assert abs(lim - direct) < 1e-9
    assert err < 1e-9


def test_compact_analytic_validation():
    with pytest.raises(ValueError):
        CompactAnalytic(InversePowerSeed(2), 2.0, 1.0)
    with pytest.raises(ValueError):
        InversePowerSeed(0.5)  # power must exceed 1


def _terms(f, phi):
    """Every stored holomorphic term a(n) (L phi)(2 pi n), in sorted order."""
    return [(n, f.holo[n] * phi.laplace(TWO_PI * n)) for n in sorted(f.holo)]


@given(st.sampled_from(CUT_FORMS), st.floats(-2.5, 3.5),
       st.floats(-1, 1), st.floats(0, 2))
@example(name="J", s=1.0, re_w=0.0, im_w=0.0)
@settings(max_examples=60, deadline=None)
def test_phi_sw_tail_bound_covers_terms(J, Jsq, name, s, re_w, im_w):
    f = _cut_form(name, J, Jsq)
    phi = PhiSW(s, complex(re_w, im_w))
    log_g = f.tail_log_weights
    p = max(0.0, s - 1.0)
    bounds = []
    for n, term in _terms(f, phi):
        if n <= 0:
            bounds.append(0.0)
            continue
        x = TWO_PI * n + re_w
        b = abs(f.holo[n]) * math.exp(-x) / (x - p)
        # the slack covers the kernel's relative accuracy; at s = 1 and real
        # w the bound is E_0(x) = e^{-x}/x itself
        assert abs(term) <= b * (1 + 1e-10)
        bounds.append(b)
    for i, n in enumerate(sorted(f.holo)):
        x = TWO_PI * n + re_w
        if n > 0 and x > p:  # the bound the cut in l_value tests
            tail = math.exp(log_g[i] - x - math.log(x - p))
            assert tail >= sum(bounds[i:]) * (1 - 1e-12)


@pytest.mark.parametrize("name", CUT_FORMS)
@pytest.mark.parametrize("s, w", [(0.5, 0.3 + 0.9j), (-1.5, 0.3 + 0.7j),
                                  (2.0, 1j), (3.5, -1 + 2j), (1.0, 0.0)])
def test_cut_sum_matches_full_sum(J, Jsq, name, s, w):
    f = _cut_form(name, J, Jsq)
    phi = PhiSW(s, w)
    terms = [t for _, t in _terms(f, phi)]
    full = sum(terms, 0j)
    rounding = 4 * EPS * sum(abs(t) for t in terms)
    lv = l_value(f, phi)
    assert abs(lv.holo_part - full) <= rounding
    assert abs(lv.holo_part - full) <= lv.error_estimate + rounding
    # the estimate is the skipped tail's bound, not the last term's size
    assert 0 < lv.error_estimate <= 2.0 ** -55 * abs(lv.holo_part)


def test_divergence_check_survives_the_cut():
    f = synth_harmonic(0, {-1: 1, **{n: 10.0 ** (3 * n) for n in range(1, 9)}}, {})
    with pytest.raises(AdmissibilityError, match="stopped decreasing at n = 6"):
        l_value(f, PhiSW(0.5, 0.3 + 0.5j))


def test_cut_skips_kernel_calls(J, monkeypatch):
    calls = []
    kernel = specfun.exp_int_E

    def counting(s, z, *args, **kwargs):
        calls.append(z)
        return kernel(s, z, *args, **kwargs)

    monkeypatch.setattr(specfun, "exp_int_E", counting)
    l_value(J, PhiSW(0.5, 0.3 + 0.9j))
    assert 0 < len(calls) <= 16  # all 40 stored coefficients without the cut


def test_overflowed_tail_weight_never_cuts():
    # |a(12)| overflows, so every tail weight up to n = 12 reads +inf
    f = synth_harmonic(0, {-1: 1, **{n: 2.0 ** -n for n in range(1, 12)},
                           12: 1.5e308 * (1 + 1j)}, {})
    assert f.tail_log_weights[1] == math.inf
    phi = PhiSW(0.5, 0.3 + 0.9j)
    full = sum((t for _, t in _terms(f, phi)), 0j)
    assert abs(l_value(f, phi).holo_part - full) <= 1e-14 * abs(full)


LADDER = ltest._LIMIT_X0 / 2.0 ** np.arange(ltest._LIMIT_LEVELS)
SYNTH_KM2 = synth_harmonic(-2, {-1: 1, **{n: (0.7 + 0.2j) * (-2.0) ** n
                                          for n in range(1, 16)}}, {})


@pytest.mark.skipif(mpmath is None, reason="mpmath oracle not installed")
@pytest.mark.parametrize("n", [-1, 1])
def test_shifted_exp_int_vs_mpmath(n):
    """The ladder's Taylor-shifted E_{1-m}, from the kernel's value at level 0,
    on a one-term form a(n) = 1 at n = -1 (z0 = -2 pi + 0.4i, near the cut)
    and n = 1; measured at most 8.1e-16 relative."""
    f = synth_harmonic(0, {n: 1}, {})
    with mpmath.workdps(30):
        for m in range(-1, 4):
            xs, shifted = ltest._ladder_holo(f, m, specfun.ExpIntOrder(1 - m))
            for x, v in zip(xs, shifted):
                exact = complex(mpmath.expint(1 - m, mpmath.mpc(TWO_PI * n, x)))
                assert abs(v - exact) <= 1e-14 * abs(exact), (m, x)


@pytest.mark.parametrize("name", ["J", "Jsq", "km2"])
@pytest.mark.parametrize("m", range(-1, 4))
def test_ladder_levels_match_direct_l_value(J, Jsq, name, m):
    f = {"J": J, "Jsq": Jsq, "km2": SYNTH_KM2}[name]
    xs, holo = ltest._ladder_holo(f, m, specfun.ExpIntOrder(1 - m))
    assert np.array_equal(xs, LADDER)
    for x, h in zip(xs, holo):
        direct = l_value(f, PhiSW(m, 1j * x)).holo_part
        assert abs(h - direct) <= 2e-13 * abs(direct), x


@pytest.mark.parametrize("m", range(-1, 4))
def test_limit_makes_one_kernel_call_per_n(J, Jsq, monkeypatch, m):
    calls = []
    kernel = specfun.exp_int_E

    def counting(s, z, *args, **kwargs):
        calls.append(z)
        return kernel(s, z, *args, **kwargs)

    monkeypatch.setattr(specfun, "exp_int_E", counting)
    for f in (J, Jsq, SYNTH_KM2):
        calls.clear()
        l_value(f, PhiSW(m, 1j * ltest._LIMIT_X0))
        direct = len(calls)
        calls.clear()
        l_value_limit(f, m)
        assert 0 < len(calls) == direct, f.label


def test_one_order_object_per_sum(J, monkeypatch):
    """Each phi_s^w L-value prepares its order once: l_value, l_star and the
    limit's whole ladder on J build one ExpIntOrder each, and every kernel
    call is handed that object; on a harmonic form the non-holomorphic sum
    of l_value and of every level of l_value_limit takes the same object."""
    built, handed = [], []

    class Counting(specfun.ExpIntOrder):
        __slots__ = ()

        def __init__(self, s):
            built.append(complex(s))
            super().__init__(s)

    kernel = specfun.exp_int_E

    def counting(s, z):
        handed.append(s)
        return kernel(s, z)

    monkeypatch.setattr(specfun, "ExpIntOrder", Counting)
    monkeypatch.setattr(specfun, "exp_int_E", counting)
    for call in (lambda: l_value(J, PhiSW(0.5, 0.3 + 0.9j)), lambda: l_star(J, 0.7),
                 lambda: l_value_limit(J, 1)):
        built.clear()
        handed.clear()
        call()
        assert len(built) == 1 and len(handed) == 12
        assert all(type(s) is Counting for s in handed) and len(set(map(id, handed))) == 1
    harmonic = synth_harmonic(-2, {1: 1}, {-1: 2 - 1j})
    # one holomorphic term, and one non-holomorphic call per sum or level
    for call, calls in ((lambda: l_value(harmonic, PhiSW(0.5, 1.3 + 0.9j)), 2),
                        (lambda: l_value_limit(harmonic, 0.5), 9)):
        built.clear()
        handed.clear()
        call()
        assert built == [0.5 + 0j] and len(handed) == calls
        assert all(type(s) is Counting for s in handed) and len(set(map(id, handed))) == 1


@pytest.mark.parametrize("name", ["J", "km2"])
def test_weakly_holomorphic_limit_skips_nonholo_part(J, monkeypatch, name):
    f = {"J": J, "km2": SYNTH_KM2}[name]
    calls = []
    part = ltest._nonholo_part

    def counting(*args):
        calls.append(args)
        return part(*args)

    monkeypatch.setattr(ltest, "_nonholo_part", counting)
    value, _ = l_value_limit(f, 2)
    assert math.isfinite(abs(value)) and calls == []
    l_value_limit(synth_harmonic(-2, {1: 1}, {-1: 2 - 1j}), 2)
    assert len(calls) == ltest._LIMIT_LEVELS


def test_limit_divergence_check_survives_the_shift():
    f = synth_harmonic(0, {-1: 1, **{n: 10.0 ** (3 * n) for n in range(1, 9)}}, {})
    with pytest.raises(AdmissibilityError, match="stopped decreasing"):
        l_value_limit(f, 1)


# hA to hD of the default suite, and its synthetic weakly holomorphic form
_SUITE_FORMS = {"hA": ({1: 0.5}, {-1: 1}, 0), "hB": ({1: 1}, {-1: 2 - 1j}, -2),
                "hC": ({}, {-1: 1, -2: 0.3}, 0), "hD": ({}, {-2: 1j}, -2),
                "synth": ({-1: 1, 1: 2, 3: -1}, {}, 0)}


@pytest.mark.skipif(mpmath is None, reason="mpmath oracle not installed")
@pytest.mark.parametrize("name, s, w", [
    (name, s, 0.5 + 1j) for name in ("hA", "hB") for s in (0.5, 1.0, 2.0)] + [
    ("synth", s, w) for s in (-1.5, 0.0, 0.5, 2.0) for w in (1j, 0.3 + 0.7j)])
def test_full_sum_estimate_is_the_kernel_accuracy(name, s, w):
    """A phi_s^w sum that uses every stored term reports the kernels'
    accuracy 2e-12 sum |a(n) E_{1-s}(2 pi n + w)|, not the last term's size
    (a third of hA's value); it still bounds the gap to the same terms
    summed by mpmath."""
    holo, nonholo, k = _SUITE_FORMS[name]
    f = synth_harmonic(k, holo, nonholo)
    kernels, value, err = ltest._holo_terms(f, PhiSW(s, w), specfun.ExpIntOrder(1 - s))
    assert len(kernels) == len(holo)
    with mpmath.workdps(30):
        exact = complex(mpmath.fsum(
            mpmath.mpc(a) * mpmath.expint(1 - s, mpmath.mpc(TWO_PI * n + w))
            for n, a in holo.items()))
    assert abs(value - exact) <= err <= 1e-10 * abs(value)


# the closed-form oracle tests' grid, at the weights k = 0, -2, -4 and -10
NONHOLO_S = (-1.5, 0.5, 2.5)
NONHOLO_W = (0, 0.0125j, 0.4j, 0.5 + 1j, 2 + 0.2j)
NONHOLO_FORM = {-1: 1, -2: 0.3 - 0.2j}


def _nonholo_by_mpmath(f, s, w) -> complex:
    """sum_n b(n) sum_{j<=m} (m!/j!) (4 pi |n|)^j E_{1-s-j}(2 pi |n| + w),
    m = -k, with mpmath's E_s."""
    m, pi = -f.weight, mpmath.pi
    return complex(mpmath.fsum(
        mpmath.mpc(b) * mpmath.factorial(m) / mpmath.factorial(j) * (-4 * pi * n) ** j
        * mpmath.expint(1 - s - j, -2 * pi * n + mpmath.mpc(w))
        for n, b in f.nonholo.items() for j in range(m + 1)))


@pytest.mark.skipif(mpmath is None, reason="mpmath oracle not installed")
@pytest.mark.parametrize("k, s, w", [(0, 0.5, 0.0125j), (-2, 2.5, 0.5 + 1j),
                                     (-4, -1.5, 0), (-10, 0.5, 2 + 0.2j)])
def test_nonholo_sum_is_the_integral(k, s, w):
    """The finite sum of E_s values equals the defining integral
    sum_n b(n) int_1^inf Gamma(1-k, 4 pi |n| y) e^{2 pi |n| y} phi_s^w(y) dy,
    both by mpmath."""
    f = synth_harmonic(k, {}, NONHOLO_FORM)
    pi = mpmath.pi

    def g(y):
        return y ** (s - 1) * mpmath.fsum(
            mpmath.mpc(b) * mpmath.gammainc(1 - k, -4 * pi * n * y)
            * mpmath.exp((-2 * pi * n - mpmath.mpc(w)) * y) for n, b in f.nonholo.items())

    with mpmath.workdps(20):
        integral = complex(mpmath.quad(g, [1, 2, 4, 8, 16, mpmath.inf]))
        assert abs(_nonholo_by_mpmath(f, s, w) - integral) <= 1e-15 * abs(integral)


@pytest.mark.skipif(mpmath is None, reason="mpmath oracle not installed")
@pytest.mark.parametrize("k", [0, -2, -4, -10])
def test_nonholo_closed_form_vs_mpmath(k, no_quadrature):
    """The phi_s^w non-holomorphic part, with its orders from one kernel call
    and the recurrence, against the same sum by mpmath: within 1e-13
    relative (worst measured 7.2e-16), and within its estimate, the kernel
    accuracy of the terms."""
    f = synth_harmonic(k, {1: 0.5}, NONHOLO_FORM)
    with mpmath.workdps(30):
        for s in NONHOLO_S:
            for w in NONHOLO_W:
                value, err = ltest._nonholo_part(f, PhiSW(s, w), specfun.ExpIntOrder(1 - s))
                exact = _nonholo_by_mpmath(f, s, w)
                gap = abs(value - exact)
                assert gap <= 1e-13 * abs(exact), (s, w, gap / abs(exact))
                assert gap <= err <= 1e-10 * abs(value), (s, w)


@given(st.sampled_from(("J", "Jsq", "hA", "hB", "hC", "hD", "drawn")), st.sampled_from((0, -2)),
       st.dictionaries(st.integers(-2, 30).filter(bool),
                       st.complex_numbers(min_magnitude=1e-3, max_magnitude=100),
                       max_size=24),
       st.floats(-2.5, 3.5), st.floats(-1, 2), st.floats(0, 2))
@settings(max_examples=80, deadline=None)
def test_holo_terms_keep_the_direct_bits(J, Jsq, name, k, coeffs, s, re_w, im_w):
    """``_holo_terms`` reads n, a(n), 2 pi n and |a(n)| from ``f.terms``; every
    float it forms is the one computed directly, here in the same process:
    each kernel is exp_int_E(1 - s, 2 pi n + w) over the first len(kernels)
    sorted n, and the sum is a(n) times them, left to right.  A drawn form has
    its coefficients in any insertion order."""
    if name == "drawn":
        f = synth_harmonic(k, coeffs, {})
    elif name in _SUITE_FORMS:
        holo, nonholo, weight = _SUITE_FORMS[name]
        f = synth_harmonic(weight, holo, nonholo)
    else:
        f = {"J": J, "Jsq": Jsq}[name]
    assert [n for _, n, _, _, _ in f.terms] == sorted(f.holo)
    for i, (index, n, a, u, a_abs) in enumerate(f.terms):
        assert (index, a, u, a_abs) == (i, f.holo[n], TWO_PI * n, math.hypot(a.real, a.imag))
    w = complex(re_w, im_w)
    kernels, value, _ = ltest._holo_terms(f, PhiSW(s, w), specfun.ExpIntOrder(1 - complex(s)))
    total = 0j
    for n, e in zip(sorted(f.holo), kernels):
        assert e == specfun.exp_int_E(1 - s, TWO_PI * n + w)
        total += f.holo[n] * e
    assert value == total


def test_series_side_at_the_gate_edge(J):
    """l_value(J, phi_2^{0.3+0.7i}), the series side of the default check
    maincor_J_s2.0_w0.3+0.7i, is within 5e-15 relative of
    sum a(n) E_{-1}(2 pi n + w) over J's stored coefficients at 40 digits
    (measured 2.24e-15).  The contour side is 8.45e-15 off the same sum, and
    that error is why the check's rel_err sits at 99.9 % of its baseline
    gate; a change to the series side that moves its bits gets a reading
    here that does not depend on the contour side."""
    mp = pytest.importorskip("mpmath")
    w = 0.3 + 0.7j
    with mp.workdps(40):
        exact = complex(mp.fsum(mp.mpc(a) * mp.expint(-1, 2 * mp.pi * n + mp.mpc(w))
                                for n, a in J.holo.items()))
    value = l_value(J, PhiSW(2.0, w)).value
    assert abs(value - exact) <= 5e-15 * abs(exact)
