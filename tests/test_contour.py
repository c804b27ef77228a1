"""Tests for the contour-side evaluators and the quadrature engine."""

import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maassl import (InversePowerSeed, PhiSW, build_J, compact_support_value, l_star,
                    l_value, l_value_limit, r_remainder, ray_integral_bend,
                    rhs_integer_value, rhs_main_theorem, rhs_star,
                    synth_harmonic)
from maassl.contour import RegimeError, i_power, lerch_sum
from maassl.ltest import LorentzianSeed, ZeroSeed
from maassl.modforms import xi_image
from maassl import contour, ltest, modforms, quadrature
from maassl.quadrature import (QuadratureError, integrate_decaying,
                               integrate_segment)
from maassl.specfun import DomainError, exp_int_E, upper_gamma_int
from maassl.verify import (CheckSpec, default_suite, resolve_form, run_check,
                           run_suite)

try:
    import mpmath
except ImportError:  # the oracle is optional
    mpmath = None

TWO_PI = 2 * math.pi


# ---------------------------------------------------------------------------
# quadrature engine
# ---------------------------------------------------------------------------

def test_segment_constant():
    seg = integrate_segment(lambda z: np.ones_like(z), 1j, 1j + 1)
    assert seg.value == pytest.approx(1.0, abs=1e-13)


def test_segment_linear():
    seg = integrate_segment(lambda z: z, 1j, 1j + 1)
    assert seg.value == pytest.approx(0.5 + 1j, abs=1e-13)


def test_segment_full_period():
    seg = integrate_segment(lambda z: np.exp(2j * math.pi * z), 1j, 1j + 1)
    assert abs(seg.value) < 1e-13


def test_segment_error_estimate_nonnegative():
    seg = integrate_segment(lambda z: np.exp(z ** 2), 0, 1 + 1j)
    assert seg.est_error >= 0
    assert seg.panels_used >= 2


def test_segment_stall_raises():
    # a kink defeats uniform panel doubling; the doubling cap must raise
    with pytest.raises(QuadratureError, match="max_depth 14"):
        integrate_segment(lambda z: np.abs(np.real(z) - 1 / 3) ** 0.1, 0, 1)


def test_non_finite_level_raises_at_once(monkeypatch, J):
    """J(iy) overflows past y ~ 113 while phi_s^w underflows, so the first
    call's level sums are NaN; doubling further cannot repair that.  The
    vertical integral refuses such a window before any quadrature, so the
    pairing is run here without that check."""
    calls = []
    doubling = quadrature._doubling

    def counting(g, edges):
        def wrapped(z):
            calls.append(z.size)
            return g(z)

        return doubling(wrapped, edges)

    monkeypatch.setattr(quadrature, "_doubling", counting)
    growth = 2 * math.pi * J.n0
    with np.errstate(all="ignore"), pytest.raises(QuadratureError, match="not finite"):
        ltest._pair(PhiSW(0.5, 6.4), lambda y: J.eval_at(1j * y), growth, growth)
    assert len(calls) <= 2


def test_vector_valued_integrand_matches_columns():
    ks = np.array([0.5, 1.0, 3.0, 7.0])

    def g(z):
        return np.exp(1j * np.outer(z, ks)) / (3 + z[:, None] ** 2)

    vec = integrate_segment(g, 1j, 1j + 1)
    assert vec.value.shape == ks.shape
    for j, kj in enumerate(ks):
        col = integrate_segment(lambda z: np.exp(1j * kj * z) / (3 + z ** 2), 1j, 1j + 1)
        assert abs(vec.value[j] - col.value) < 1e-13
    dec = integrate_decaying(lambda t: np.exp(-np.outer(np.real(t), ks)), 0.0, 30.0)
    assert np.allclose(dec.value, (1 - np.exp(-30 * ks)) / ks, rtol=1e-12, atol=0)


def _counted(g):
    """g, and the sizes of the node arrays it was called with."""
    sizes = []

    def wrapped(z):
        sizes.append(z.size)
        return g(z)

    return wrapped, sizes


def _level_by_hand(g, edges, level):
    """Level `level` of the composite rule over `edges`, in its own integrand
    call: (value, rounding floor), with _doubling's arithmetic."""
    u, w = quadrature._level_rule(quadrature.DEFAULT_QUAD.base_nodes, level)
    lo, width = edges[:-1, None], np.diff(edges)[:, None]
    vals = np.asarray(g((lo + width * u).ravel()))
    terms = (width * w).reshape((-1,) + (1,) * (vals.ndim - 1)) * vals
    return (terms.sum(axis=0),
            quadrature._ROUNDING * float(np.max(np.abs(terms).sum(axis=0))))


# integrate_decaying(g, 0, 5) runs on the base panels [0, 1], [1, 3], [3, 5]
DECAY_EDGES = np.array([0, 1, 3, 5], dtype=complex)


def test_levels_0_and_1_share_one_call():
    def g(t):
        return np.exp(-(1 + 0.5j) * t)

    wrapped, sizes = _counted(g)
    seg = integrate_decaying(wrapped, 0.0, 5.0)
    base = quadrature.DEFAULT_QUAD.base_nodes
    assert sizes == [3 * base * 3]  # 16 P level-0 plus 32 P level-1 nodes, P = 3
    assert seg.panels_used == 6
    q0, _ = _level_by_hand(g, DECAY_EDGES, 0)
    q1, floor = _level_by_hand(g, DECAY_EDGES, 1)
    # bitwise: the fused call changes nothing but the number of calls
    assert seg.value == complex(q1)
    assert seg.est_error == abs(q1 - q0) + floor


def test_fused_call_splits_vector_integrands_by_rows():
    ks = np.array([0.5, 1.0, 2.0])

    def g(t):
        return np.exp(-np.outer(np.real(t), ks)) * (1 + np.real(t)[:, None])

    wrapped, sizes = _counted(g)
    seg = integrate_decaying(wrapped, 0.0, 5.0)
    assert len(sizes) == 1 and seg.value.shape == ks.shape
    q0, _ = _level_by_hand(g, DECAY_EDGES, 0)
    q1, floor = _level_by_hand(g, DECAY_EDGES, 1)
    assert np.array_equal(seg.value, q1)
    assert seg.est_error == float(np.max(np.abs(q1 - q0))) + floor
    exact = (1 + 1 / ks - (6 + 1 / ks) * np.exp(-5 * ks)) / ks
    assert np.allclose(seg.value, exact, rtol=1e-13, atol=0)


def test_each_level_after_the_first_is_one_call():
    # a pole 0.1 off the segment: levels 1 and 2 disagree, 2 and 3 agree
    wrapped, sizes = _counted(lambda z: 1 / (z - 0.5 - 0.1j))
    seg = integrate_segment(wrapped, 0, 1)
    base = quadrature.DEFAULT_QUAD.base_nodes
    assert sizes == [3 * base, 4 * base, 8 * base]
    assert seg.panels_used == 8
    exact = cmath.log((0.5 - 0.1j) / (-0.5 - 0.1j))
    assert abs(seg.value - exact) < 1e-13


def test_integrand_cannot_write_its_nodes():
    """The node arrays are shared tables: an integrand that scales its nodes
    in place must fail, not corrupt every later integral on the path."""
    def scaling(z):
        z *= 2
        return z

    with pytest.raises(ValueError, match="read-only"):
        integrate_segment(scaling, 1j, 1j + 1)
    with pytest.raises(ValueError, match="read-only"):
        integrate_decaying(scaling, 0.0, 5.0)

    def late_scaling(z):  # a pole 1e-3 off the segment: past the cached levels
        if z.size > 128:
            z *= 2
        return 1 / (z - 0.5 - 1e-3j)

    with pytest.raises(ValueError, match="read-only"):
        integrate_segment(late_scaling, 0, 1)
    assert integrate_segment(lambda z: z, 1j, 1j + 1).value == pytest.approx(0.5 + 1j)


def test_max_depth_failure_caches_no_deep_level():
    """An integral that fails at max_depth leaves in quadrature's caches the
    rules and its path's tables of the levels up to CACHED_LEVELS and the
    order's Gauss-Legendre rule, nothing deeper: 8 MB stayed when every
    level's rule was cached."""
    caches = [c for c in vars(quadrature).values() if hasattr(c, "cache_info")]
    for cache in caches:
        cache.cache_clear()
    rng = np.random.default_rng(0)
    failure = ""
    tracemalloc.start()
    try:
        integrate_segment(lambda z: rng.standard_normal(z.size), 1j, 1j + 1)
    except QuadratureError as exc:
        failure = str(exc)
    retained = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    assert "max_depth" in failure
    assert all(c.cache_info().currsize <= quadrature.CACHED_LEVELS + 1 for c in caches)
    assert retained < 64_000


def test_decaying_exponential():
    seg = integrate_decaying(lambda t: np.exp(-np.real(t)), 0.0, 40.0)
    assert seg.value == pytest.approx(1 - math.exp(-40), rel=1e-11)


# ---------------------------------------------------------------------------
# ray bending lemma
# ---------------------------------------------------------------------------

def test_bend_matches_exp_int():
    for a, w in ((0.5, 1j), (-1.0, 2j), (2.0, 1 + 1j)):
        lhs = ray_integral_bend(a, w, 200.0)
        rhs = i_power(a) * exp_int_E(1 - a, w)
        assert abs(lhs - rhs) < 1e-8


def test_bend_real_w_regime():
    # Im(w) = 0 with a < 0 is inside the lemma's hypotheses
    lhs = ray_integral_bend(-1.0, 1.0, 400.0)
    rhs = i_power(-1) * exp_int_E(2, 1.0)
    assert abs(lhs - rhs) < 1e-6


def test_bend_closed_form():
    # a=1, w=2i: integral of e^{iwz} is e^{-2i}/2... i E_0(2i) = e^{-2i}/2
    lhs = ray_integral_bend(1.0, 2j, 100.0)
    assert lhs == pytest.approx(cmath.exp(-2j) / 2, abs=1e-10)


def test_bend_regime_errors():
    with pytest.raises(RegimeError):
        ray_integral_bend(0.5, 1.0, 100.0)  # real w needs a < 0
    with pytest.raises(RegimeError):
        ray_integral_bend(0.5, 1 - 1j, 100.0)
    with pytest.raises(ValueError):
        ray_integral_bend(0.5, 1j, -1.0)


def test_bend_tail_convergence():
    """With its tail the ray integral's error falls strictly in T (1.0e-5,
    3.3e-10 and 2.5e-16 relative at T = 50, 100 and 200)."""
    a, w = 0.5, 0.1j
    target = i_power(a) * exp_int_E(1 - a, w)
    errs = [_rel_err(ray_integral_bend(a, w, T), target) for T in (50.0, 100.0, 200.0)]
    assert all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))
    assert errs[-1] <= 1e-15


# ---------------------------------------------------------------------------
# Lerch sum and the unfolding identity
# ---------------------------------------------------------------------------

def test_lerch_sum_row_chunks_bitwise():
    """Row chunking bounds the working set without changing any row's bits."""
    z = 1j + np.linspace(0.0, 1.0, 4096)
    for s_exp, w in ((-0.5, 0.3 + 0.7j), (1.0, 0.01j)):  # 94 and 5,388 terms
        whole = lerch_sum(s_exp, w, z)
        parts = np.concatenate([lerch_sum(s_exp, w, z[i:i + 100])
                                for i in range(0, z.size, 100)])
        assert np.array_equal(whole, parts)


def test_lerch_sum_batch_equals_single_rows():
    """Rows from two unit cells at two heights, shuffled, have four centres;
    each row's bits do not depend on the rest of its batch."""
    u = np.linspace(0.02, 0.98, 9)
    z = np.concatenate([1j * h + cell + u for h in (1.0, 1.3) for cell in (0, 1)])
    z = z[np.random.default_rng(3).permutation(z.size)]
    for s_exp, w in ((-2.5, 0.3 + 0.7j), (0.5 + 2j, 1j), (1.0, -0.7 + 0.05j)):
        batch = lerch_sum(s_exp, w, z)
        single = np.concatenate([lerch_sum(s_exp, w, z[i:i + 1]) for i in range(z.size)])
        assert np.array_equal(batch, single)


def test_lerch_unfolding_identity(J):
    """Integral over K unit translates equals one segment against the
    partial Lerch sum."""
    K = 20
    s, w = 0.7, 0.4 + 0.9j

    def lhs_integrand(z):
        return J.eval_at(z) * np.exp(1j * w * z) * z ** (s - 1.0)

    lhs = integrate_segment(lhs_integrand, 1j, 1j + K).value

    def rhs_integrand(z):
        z = np.asarray(z, dtype=complex)
        partial = np.zeros_like(z)
        for m in range(K):
            partial += np.exp(1j * w * m) * (z + m) ** (s - 1.0)
        return J.eval_at(z) * np.exp(1j * w * z) * partial

    rhs = integrate_segment(rhs_integrand, 1j, 1j + 1).value
    assert abs(lhs - rhs) < 1e-8


def test_lerch_sum_needs_decay():
    with pytest.raises(DomainError):
        lerch_sum(0.5, 1.0, np.array([1j]))


@pytest.mark.parametrize("bad", [complex(math.nan, 1), complex(math.inf, 1),
                                 complex(0.3, math.inf)])
def test_lerch_sum_rejects_non_finite_z(bad):
    # a non-finite node has no centre; it must not leave its row unset
    with pytest.raises(DomainError, match="finite z"):
        lerch_sum(0.5, 0.3 + 0.7j, np.array([bad, 0.3 + 1j]))


# ---------------------------------------------------------------------------
# main-theorem right-hand side
# ---------------------------------------------------------------------------

def test_main_theorem_weakly_holomorphic(J):
    for s, w in ((0.5, 0.3 + 0.7j), (2.0, 1j)):
        lhs = l_value(J, PhiSW(s, w)).value
        assert abs(rhs_main_theorem(J, s, w) - lhs) < 1e-8


def test_main_theorem_synth():
    f = synth_harmonic(0, {-1: 1, 1: 2, 2: -1}, {})
    lhs = l_value(f, PhiSW(2, 1j)).value
    assert abs(rhs_main_theorem(f, 2, 1j) - lhs) < 1e-8


def test_main_theorem_harmonic():
    f = synth_harmonic(0, {1: 1}, {-1: 1})
    lhs = l_value(f, PhiSW(1, 0.5 + 1j)).value
    assert abs(rhs_main_theorem(f, 1, 0.5 + 1j) - lhs) < 1e-6


def test_main_theorem_jsq_within_rounding(Jsq, monkeypatch):
    """J^2 is ~e^{4 pi} on the segment: the rounding floor, not an absolute
    1e-11 below double precision, must end the doubling."""
    from maassl import contour
    seen = []

    def spy(*args, **kwargs):
        seen.append(integrate_segment(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(contour, "integrate_segment", spy)
    value = rhs_main_theorem(Jsq, 0.5, 1j)
    assert abs(value - l_value(Jsq, PhiSW(0.5, 1j)).value) < 1e-9
    assert len(seen) == 1 and seen[0].panels_used <= 16


def _lerch_kernel(s, w):
    return lambda zs: np.exp(1j * w * zs) * lerch_sum(s - 1.0, w, zs)


def _counting_eval_at(monkeypatch):
    """Patch FourierExpansion.eval_at to record the node count of each call."""
    sizes = []
    eval_at = modforms.FourierExpansion.eval_at

    def counting(self, z):
        sizes.append(np.size(z))
        return eval_at(self, z)

    monkeypatch.setattr(modforms.FourierExpansion, "eval_at", counting)
    return sizes


def _pole(zs):
    """A kernel with a pole 0.1 off [i, i+1]: J's pairing with it reaches
    quadrature level 4 (256 nodes)."""
    return 1 / (zs - 0.5 - 0.9j)


def test_segment_pairing_reuses_form_values(monkeypatch):
    """A second pairing of one form on one segment evaluates the form at no
    cached level it has seen, and its value keeps every bit of a cold
    pairing.  Levels past quadrature.CACHED_LEVELS are not kept."""
    sizes = _counting_eval_at(monkeypatch)
    f = build_J()
    lerch, key = _lerch_kernel(0.5, 0.3 + 0.7j), ("lerch", 0.5, 0.3 + 0.7j)
    contour.KERNEL_TABLE.clear()
    first = contour._segment_pairing(f, lerch, key=key)
    assert sizes == [48, 64]
    sharp = contour._segment_pairing(f, _pole, key=("pole",))
    assert sizes == [48, 64, 128, 256]
    again = contour._segment_pairing(f, lerch, key=key)
    assert sizes == [48, 64, 128, 256]
    sharp_again = contour._segment_pairing(f, _pole, key=("pole",))
    assert sizes == [48, 64, 128, 256, 256]
    assert sorted(contour.KERNEL_TABLE["form", 1.0, *f.key]) == [48, 64, 128]
    contour.KERNEL_TABLE.clear()
    cold = contour._segment_pairing(build_J(), lerch, key=key)
    cold_sharp = contour._segment_pairing(build_J(), _pole, key=("pole",))
    assert first == again == cold
    assert sharp == sharp_again == cold_sharp


def test_segment_pairing_keeps_heights_apart(monkeypatch):
    """A form and a kernel paired at two heights keep one entry per height
    each, and the value at each height has the bits of a cold pairing."""
    sizes = _counting_eval_at(monkeypatch)
    f = build_J()
    kernel, key = _lerch_kernel(1.5, 0.2 + 1j), ("lerch", 1.5, 0.2 + 1j)
    contour.KERNEL_TABLE.clear()
    low = contour._segment_pairing(f, kernel, 1.0, key=key)
    high = contour._segment_pairing(f, kernel, 1.5, key=key)
    assert sizes == [48, 64, 48, 64]
    assert {k: sorted(v) for k, v in contour.KERNEL_TABLE.items()} == {
        ("form", h, *f.key): [48, 64] for h in (1.0, 1.5)} | {
        key + (h,): [48, 64] for h in (1.0, 1.5)}
    assert low != high
    assert low == contour._segment_pairing(f, kernel, 1.0, key=key)
    assert len(sizes) == 4
    assert repr(high) == _cold(contour._segment_pairing, build_J(), kernel, 1.5, key=key)
    assert len(sizes) == 6  # the cold copy's two calls


def test_main_theorem_regime(J):
    with pytest.raises(RegimeError):
        rhs_main_theorem(J, 0.5, 1.0)


# ---------------------------------------------------------------------------
# remainder term
# ---------------------------------------------------------------------------

def test_r_remainder_empty(J):
    assert r_remainder(J, 1, 1j, "one_dim") == 0
    assert r_remainder(J, 1, 1j, "double_integral") == 0


# the default suite's harmonic forms harm_a .. harm_d
HARMONIC_FORMS = {"hA": synth_harmonic(0, {1: 0.5}, {-1: 1}),
                  "hB": synth_harmonic(-2, {1: 1}, {-1: 2 - 1j}),
                  "hC": synth_harmonic(0, {}, {-1: 1, -2: 0.3}),
                  "hD": synth_harmonic(-2, {}, {-2: 1j})}

# each at the suite's s and w
SUITE_HARMONIC_CASES = [(f, s, 0.5 + 1j) for f in HARMONIC_FORMS.values()
                        for s in (0.5, 1.0, 2.0)]


def test_r_remainder_forms_agree():
    cases = [(synth_harmonic(0, {}, {-1: 1}), 1, 0.5 + 1j),
             (synth_harmonic(-2, {}, {-1: 2 - 1j}), 2, 1j)] + SUITE_HARMONIC_CASES
    for f, s, w in cases:
        one = r_remainder(f, s, w, "one_dim")
        two = r_remainder(f, s, w, "double_integral")
        assert abs(one - two) < 1e-12


def _double_integral_by_quadrature(f, s, w):
    """Reference for r_remainder(form="double_integral"): the t-integral of
    e^{itzw} t^{s-k} R_t(z, w) taken by quadrature at every outer node z, over
    [1, t_hi] with e^{-(2 pi min|n| + Re w)(t_hi - 1)} = e^{-46}, one
    (T, M) @ (M, Z) product per xi-coefficient p."""
    w = complex(w)
    k = f.weight
    xi_f = xi_image(f, conjugate_first=True)
    t_hi = 1.0 + 46.0 / (TWO_PI * min(-n for n in f.nonholo) + w.real)
    m = np.arange(int(45.0 / w.imag) + 10)

    def integrand(zs):
        zm = (zs[:, None] + m) ** (complex(s) - 1.0)

        def inner(t):
            tr = np.real(t)[:, None]
            return sum(c * np.exp(tr * (1j * w * zs + 2j * math.pi * p * (2j - zs)))
                       * ((tr ** (s - k) * np.exp(1j * tr * m * (w - TWO_PI * p))) @ zm.T)
                       for p, c in xi_f.holo.items())

        return integrate_decaying(inner, 1.0, t_hi).value

    return i_power(-s) * integrate_segment(integrand, 1j, 1j + 1).value


def test_r_remainder_closed_form_vs_quadrature():
    cases = SUITE_HARMONIC_CASES + [(synth_harmonic(0, {}, {-1: 1}), 1.0, -3 + 1j)]
    for f, s, w in cases:
        reference = _double_integral_by_quadrature(f, s, w)
        closed = r_remainder(f, s, w, "double_integral")
        assert abs(closed - reference) <= 1e-13 * abs(reference), (f.label, s, w)


def test_r_remainder_negative_re_w():
    """The t-integrands decay like e^{-(2 pi |n| + Re w) t}: at Re w < 0 the
    main theorem closes and the two remainder shapes agree to rounding."""
    f = synth_harmonic(0, {}, {-1: 1})
    form = 'synth:{"k": 0, "nonholo": {"-1": 1}}'
    for w in (-3 + 1j, -5 + 1j):
        rep = run_check(CheckSpec("main_neg_re_w", "thm_main", form,
                                  {"s": 1.0, "w": [w.real, w.imag]}, 1e-6))
        assert rep.status == "pass"
        assert rep.abs_err <= 1e-13 * abs(rep.rhs), w
        one = r_remainder(f, 1.0, w, "one_dim")
        two = r_remainder(f, 1.0, w, "double_integral")
        assert abs(one - two) <= 1e-13 * abs(two), w


def test_r_remainder_divergent_regime_raises():
    f = synth_harmonic(0, {1: 0.5}, {-1: 1, -2: 0.3})
    for w in (-TWO_PI + 1j, -9 + 1j):
        for shape in ("one_dim", "double_integral"):
            with pytest.raises(RegimeError):
                r_remainder(f, 1.0, w, shape)


def test_r_remainder_unknown_form():
    f = synth_harmonic(0, {}, {-1: 1})
    with pytest.raises(ValueError):
        r_remainder(f, 1, 1j, "nope")


# the closed-form oracle tests' grid, at the weights k = 0, -2, -4 and -10
ONE_DIM_S = (-1.5, 0.5, 2.5)
ONE_DIM_W = (0, 0.0125j, 0.4j, 0.5 + 1j, 2 + 0.2j)
ONE_DIM_FORM = {-1: 1, -2: 0.3 - 0.2j}


def _one_dim_by_mpmath(f, s, w) -> complex:
    """-sum_n b(n) sum_{j<=m} (m!/j!) beta^j (e^{-beta} E_{1-s}(alpha)
    - E_{1-s-j}(alpha + beta)), m = -k, beta = 4 pi |n|, alpha = 2 pi n + w,
    with mpmath's E_s."""
    m, pi, w = -f.weight, mpmath.pi, mpmath.mpc(w)
    total = 0
    for n, b in f.nonholo.items():
        beta, alpha = -4 * pi * n, 2 * pi * n + w
        head = mpmath.exp(-beta) * mpmath.expint(1 - s, alpha)
        total += mpmath.mpc(b) * mpmath.fsum(
            mpmath.factorial(m) / mpmath.factorial(j) * beta ** j
            * (head - mpmath.expint(1 - s - j, alpha + beta)) for j in range(m + 1))
    return -complex(total)


@pytest.mark.skipif(mpmath is None, reason="mpmath oracle not installed")
@pytest.mark.parametrize("k, s, w", [(0, 0.5, 0.4j), (-4, 2.5, 2 + 0.2j)])
def test_one_dim_sum_is_the_integral(k, s, w):
    """The finite sum equals the one-dimensional shape it replaces,
    -sum_n b(n) beta^{1-k} int_1^inf e^{-beta t} t^{s-k} E_{1-s}(alpha t) dt,
    both by mpmath."""
    f = synth_harmonic(k, {}, {-1: 1})
    pi, w = mpmath.pi, mpmath.mpc(w)
    beta, alpha = 4 * pi, -2 * pi + w

    def g(t):
        return mpmath.exp(-beta * t) * t ** (s - k) * mpmath.expint(1 - s, alpha * t)

    with mpmath.workdps(20):
        integral = -complex(beta ** (1 - k) * mpmath.quad(g, [1, 2, 4, 8, 16, mpmath.inf]))
        assert abs(_one_dim_by_mpmath(f, s, w) - integral) <= 1e-15 * abs(integral)


@pytest.mark.skipif(mpmath is None, reason="mpmath oracle not installed")
@pytest.mark.parametrize("k", [0, -2, -4, -10])
def test_one_dim_remainder_vs_mpmath(k, no_quadrature):
    """r_remainder(form="one_dim") against the same finite sum by mpmath,
    within 1e-13 relative (worst measured 5.9e-16), and against the series
    side: it is the series' non-holomorphic part less
    sum_n b(n) Gamma(1-k, 4 pi |n|) E_{1-s}(2 pi n + w) (measured 4.3e-16)."""
    f = synth_harmonic(k, {1: 0.5}, ONE_DIM_FORM)
    with mpmath.workdps(30):
        for s in ONE_DIM_S:
            for w in ONE_DIM_W:
                value = r_remainder(f, s, w, "one_dim")
                exact = _one_dim_by_mpmath(f, s, w)
                assert abs(value - exact) <= 1e-13 * abs(exact), (s, w)
                series = l_value(f, PhiSW(s, w)).nonholo_part
                head = sum(b * upper_gamma_int(1 - k, -4 * math.pi * n)
                           * exp_int_E(1 - s, TWO_PI * n + w) for n, b in f.nonholo.items())
                assert abs(value - (series - head)) <= 1e-14 * abs(value), (s, w)


@pytest.mark.skipif(mpmath is None, reason="mpmath oracle not installed")
@pytest.mark.parametrize("n", [-80, -110])
def test_one_dim_remainder_far_coefficient(n):
    """e^{-4 pi |n|} underflows a double from |n| = 57 while
    e^{-4 pi |n|} E_{1-s}(2 pi n + w) does not: measured 2e-14 relative."""
    f = synth_harmonic(-2, {}, {n: 1})
    with mpmath.workdps(30):
        for w in (0.5 + 1j, 3 + 0.1j):
            exact = _one_dim_by_mpmath(f, 1.3, w)
            assert abs(r_remainder(f, 1.3, w, "one_dim") - exact) <= 1e-13 * abs(exact), w


def test_one_dim_remainder_far_coefficient_reads_as_zero():
    """At n = -120, Re(2 pi n + w) < -700, where E_{1-s}(2 pi n + w) alone
    overflows a double; e^{-4 pi |n|} times it does not, and the term is
    below a double's range, so the sum reads as the n = -1 term alone."""
    near = synth_harmonic(-2, {}, {-1: 1})
    both = synth_harmonic(-2, {}, {-1: 1, -120: 1})
    for s, w in ((1.0, 0.5 + 1j), (0.5, 3 + 0.1j), (2.5, 0j)):
        value = r_remainder(near, s, w, "one_dim")
        assert abs(r_remainder(both, s, w, "one_dim") - value) <= 1e-15 * abs(value), (s, w)


@pytest.mark.parametrize("w", [-5.9 + 1j, -6 + 1j, -6.2 + 1j])
def test_one_dim_remainder_near_the_convergence_edge(w):
    """Re w just above -2 pi, where the integral converges but its
    integrand's factor E_{1-s}((2 pi n + w) t) alone overflows a double at
    large t: the finite sum agrees with the double-integral shape."""
    f = synth_harmonic(0, {}, {-1: 1})
    one = r_remainder(f, 1.0, w, "one_dim")
    two = r_remainder(f, 1.0, w, "double_integral")
    assert abs(one - two) <= 1e-13 * abs(two)
    if w == -6 + 1j:
        assert one == pytest.approx(-0.44307 - 0.59162j, abs=1e-5)


# ---------------------------------------------------------------------------
# the process-wide kernel table
# ---------------------------------------------------------------------------

def _cold(evaluate, *args, **kwargs):
    """evaluate(*args, **kwargs) on an empty kernel table, as repr: every
    bit."""
    contour.KERNEL_TABLE.clear()
    return repr(evaluate(*args, **kwargs))


def test_default_suite_keeps_its_bits_in_reverse_order():
    """A cold default-suite pass and a second pass in reverse order, which
    finds every kernel kept, report the same lhs and rhs bit for bit."""
    resolve_form.cache_clear()
    contour.KERNEL_TABLE.clear()
    cold, _ = run_suite(default_suite())
    warm, _ = run_suite(default_suite()[::-1])

    def sides(reports):
        return {r.id: (repr(r.lhs), repr(r.rhs)) for r in reports}

    assert sides(cold) == sides(warm)


# (s, w), (s', w) and (s, w'), and at a second height
PAIRINGS = [(0.5, 0.3 + 0.7j, 1.0), (2.0, 0.3 + 0.7j, 1.0), (0.5, 0.5 + 1j, 1.0),
            (0.5, 0.3 + 0.7j, 1.5)]
# rhs_star's s, s' and s'' = 0.3 across the zeta*/zeta switch at |s| = 0.5,
# and s = 2, whose kernel rhs_integer_value's first pairing at m = 2 shares
ZETA_POINTS = [0.7, 1.5, 0.3, 2]
# rhs_integer_value's (k, m, printed_constants): m and m', k', and the
# printed constants
BERNOULLI_CALLS = [(0, 2, False), (0, 3, False), (-2, 2, False), (0, 2, True)]
BERNOULLI_FORMS = {0: synth_harmonic(0, {1: 0.5}, {-1: 1}),
                   -2: synth_harmonic(-2, {1: 1}, {-1: 2 - 1j})}
# (seed, a, b): a seed at heights b and b', and two other seeds
SEED_CALLS = [(InversePowerSeed(2.0), 1.0, 2.0), (InversePowerSeed(2.0), 1.0, 1.5),
              (InversePowerSeed(3.0), 1.0, 2.0), (LorentzianSeed(), 1.0, 2.0)]
# (k, p): one coefficient at weights 0 and -2, and at a second frequency
REMAINDER_FORMS = [synth_harmonic(0, {}, {-1: 1}), synth_harmonic(-2, {}, {-1: 1}),
                   synth_harmonic(0, {}, {-2: 1})]
# (s, w), (s', w) and (s, w')
REMAINDER_POINTS = [(1.0, 0.5 + 1j), (2.0, 0.5 + 1j), (1.0, 0.3 + 1j)]


def _keyed_pairing(f, s, w, height):
    """rhs_main_theorem's pairing, at any height."""
    return contour._segment_pairing(f, _lerch_kernel(s, w), height, key=("lerch", s, w))


def test_kept_kernels_serve_only_their_own_parameters():
    """Pairings and remainders whose parameters differ in one place each,
    run interleaved and in reverse, keep the bits of their cold values: a
    key that drops a parameter serves one kernel's values to another."""
    f = build_J()
    calls = ([(rhs_main_theorem, f, s, w) for s, w, h in PAIRINGS if h == 1.0]
             + [(_keyed_pairing, f, s, w, h) for s, w, h in PAIRINGS]
             + [(r_remainder, g, s, w, "double_integral")
                for g in REMAINDER_FORMS for s, w in REMAINDER_POINTS]
             + [(rhs_star, f, s) for s in ZETA_POINTS]
             + [(rhs_integer_value, BERNOULLI_FORMS[k], m, printed)
                for k, m, printed in BERNOULLI_CALLS]
             + [(compact_support_value, f, seed, a, b) for seed, a, b in SEED_CALLS])
    cold = [_cold(*call) for call in calls]
    assert len(set(cold)) == len(cold)
    contour.KERNEL_TABLE.clear()
    for order in (1, -1, 1):
        assert [repr(fn(*args)) for fn, *args in calls[::order]] == cold[::order]
    bernoulli_forms = [*BERNOULLI_FORMS.values()]
    bernoulli_forms += [xi_image(g, conjugate_first=True) for g in bernoulli_forms]
    assert set(contour.KERNEL_TABLE) == (
        {("lerch", s, w, h) for s, w, h in PAIRINGS}
        | {("remainder", g.weight, s, w, -n)
           for g in REMAINDER_FORMS for n in g.nonholo for s, w in REMAINDER_POINTS}
        | {("zeta", s, 1.0) for s in ZETA_POINTS}
        | {("zeta", m, 1.0) for _, m, _ in BERNOULLI_CALLS}
        | {("bern2", k, m - 1, printed, 1.0) for k, m, printed in BERNOULLI_CALLS}
        | {("seed", seed, h) for seed, a, b in SEED_CALLS for h in (a, b)}
        | {("form", h, *f.key) for h in (1.0, 1.5, 2.0)}
        | {("form", 1.0, *g.key) for g in bernoulli_forms})


def test_kernel_table_holds_at_most_its_size():
    """More kernels than the table holds: it keeps the newest and the form's
    entry, which every pairing touches, and a kernel computed again after
    it was dropped has the same bits."""
    f = build_J()
    points = [(0.5, 0.3 + 0.01 * i + 0.7j) for i in range(contour.KERNEL_TABLE_SIZE + 8)]
    cold = [_cold(rhs_main_theorem, f, s, w) for s, w in points]
    contour.KERNEL_TABLE.clear()
    for _ in range(2):
        assert [repr(rhs_main_theorem(f, s, w)) for s, w in points] == cold
        assert len(contour.KERNEL_TABLE) == contour.KERNEL_TABLE_SIZE
    assert ("form", 1.0, *f.key) in contour.KERNEL_TABLE
    assert [key for key in contour.KERNEL_TABLE if key[0] == "lerch"] == [
        ("lerch", s, w, 1.0) for s, w in points[9:]]


def test_seed_heights_stay_within_the_kernel_table():
    """One J and one seed paired at 100 heights: each height is an entry of
    its own for the form and for the seed, which the table bounds, holding
    at most the 3 cached levels' values, and the form keeps none itself."""
    f, seed = build_J(), InversePowerSeed(2.0)
    contour.KERNEL_TABLE.clear()
    for i in range(100):
        compact_support_value(f, seed, 1.0 + i / 100, 2.5)
    assert len(contour.KERNEL_TABLE) <= contour.KERNEL_TABLE_SIZE
    assert all(len(values) <= 3 and max(values) <= quadrature.CACHED_NODES
               for values in contour.KERNEL_TABLE.values())
    assert ("form", 1.99, *f.key) in contour.KERNEL_TABLE
    assert set(vars(f)) == {field.name for field in dataclasses.fields(f)} | {"arrays", "key"}


def test_kept_values_rest_on_quadratures_tables(monkeypatch):
    """``_kept`` names a call's nodes by node count alone, in an entry of
    one segment, whose key holds the height.  That holds because
    quadrature builds one read-only table per (edges, level), equal when
    rebuilt, with a node count of its own at each cached level, and keeps
    no values past CACHED_NODES nodes."""
    edges = np.array([1.5j, 1.5j + 1])
    key = edges.tobytes(), edges.dtype.str
    sizes = []
    for level in range(quadrature.CACHED_LEVELS + 1):
        nodes = quadrature._cached_level_table(*key, level)[0]
        assert nodes is quadrature._cached_level_table(*key, level)[0]
        assert np.array_equal(nodes, quadrature._level_table(*key, level)[0])
        assert not nodes.flags.writeable
        sizes.append(nodes.size)
    assert len(set(sizes)) == len(sizes) and max(sizes) == quadrature.CACHED_NODES
    calls = _counting_eval_at(monkeypatch)
    f = build_J()
    contour.KERNEL_TABLE.clear()
    contour._segment_pairing(f, _pole, key=("pole",))
    assert max(calls) > quadrature.CACHED_NODES
    kept = {n for n in calls if n <= quadrature.CACHED_NODES}
    assert set(contour.KERNEL_TABLE["form", 1.0, *f.key]) == kept
    assert set(contour.KERNEL_TABLE["pole", 1.0]) == kept


def test_equal_expansions_share_one_entry(monkeypatch):
    """Expansions with equal weight and coefficients share one entry, with
    equal bits, whatever their level or label; a different weight, which
    the non-holomorphic part's values read, gives an entry of its own."""
    sizes = _counting_eval_at(monkeypatch)
    holo, nonholo = {1: 0.5, 2: -0.25j}, {-1: 1 - 0.5j}
    f, other = synth_harmonic(0, holo, nonholo), synth_harmonic(-2, holo, nonholo)
    same = [synth_harmonic(0, holo, nonholo, level=2), dataclasses.replace(f, label="other")]
    kernel, key = _lerch_kernel(0.5, 0.3 + 0.7j), ("lerch", 0.5, 0.3 + 0.7j)
    cold = [_cold(contour._segment_pairing, g, kernel, key=key) for g in (f, other)]
    assert cold[0] != cold[1]
    cold_sizes = sizes.copy()  # f's calls, then other's
    contour.KERNEL_TABLE.clear()
    sizes.clear()
    assert [repr(contour._segment_pairing(g, kernel, key=key)) for g in (f, *same)] == [
        cold[0]] * 3
    assert repr(contour._segment_pairing(other, kernel, key=key)) == cold[1]
    assert sizes == cold_sizes
    assert {k for k in contour.KERNEL_TABLE if k[0] == "form"} == {
        ("form", 1.0, *f.key), ("form", 1.0, *other.key)}


def test_rebuilt_xi_image_finds_its_values_kept(monkeypatch):
    """``_bern_second_integral`` pairs a freshly built xi-image on every
    call; a second call finds its values kept and evaluates nothing."""
    sizes = _counting_eval_at(monkeypatch)
    f = BERNOULLI_FORMS[-2]
    cold = _cold(contour._bern_second_integral, f, 2)
    assert sizes
    sizes.clear()
    assert repr(contour._bern_second_integral(f, 2)) == cold
    assert sizes == []


def test_kernel_table_drops_the_least_recently_used():
    """A kernel touched between one-off kernels, more of them than the
    table holds, keeps its entry and its bits; an untouched one is
    dropped."""
    f = build_J()
    touched, untouched = (0.5, 0.3 + 0.7j), (2.0, 0.3 + 0.7j)
    contour.KERNEL_TABLE.clear()
    rhs_main_theorem(f, *untouched)
    value = repr(rhs_main_theorem(f, *touched))
    entry = contour.KERNEL_TABLE["lerch", *touched, 1.0]
    for i in range(contour.KERNEL_TABLE_SIZE + 8):
        rhs_main_theorem(f, 0.5, 0.5 + 0.01 * i + 1j)
        assert repr(rhs_main_theorem(f, *touched)) == value
    assert contour.KERNEL_TABLE["lerch", *touched, 1.0] is entry
    assert ("lerch", *untouched, 1.0) not in contour.KERNEL_TABLE


@dataclasses.dataclass
class _MutableSeed:
    """InversePowerSeed(2) as a non-frozen dataclass, which is unhashable."""

    power: float = 2.0
    decay_epsilon: float = 1.0

    def value(self, z):
        return InversePowerSeed(self.power).value(z)

    def translated_sum(self, z):
        return InversePowerSeed(self.power).translated_sum(z)


def test_compact_support_refuses_an_unhashable_seed(monkeypatch):
    """A seed keys its sums in the kernel table: an unhashable one raises a
    TypeError that names it, before any quadrature."""
    monkeypatch.setattr(contour, "integrate_segment", lambda *args: pytest.fail("quadrature"))
    with pytest.raises(TypeError, match=r"_MutableSeed\(power=2.0"):
        compact_support_value(build_J(), _MutableSeed(), 1.0, 2.0)


# ---------------------------------------------------------------------------
# integer values
# ---------------------------------------------------------------------------

def test_integer_value_central_case(J):
    assert abs(rhs_integer_value(J, 0) - l_star(J, 0)) < 1e-7


def test_integer_value_whf_grid(J):
    for m in range(-3, 4):
        assert abs(rhs_integer_value(J, m) - l_star(J, m)) < 1e-7


def test_integer_value_m1_two_forms(J):
    """At m=1 the zeta* form and i int f z dz agree because int f = 0."""
    rhs = rhs_integer_value(J, 1)

    def g(z):
        return J.eval_at(np.asarray(z, dtype=complex)) * np.asarray(z)

    alt = 1j * integrate_segment(g, 1j, 1j + 1).value
    assert abs(rhs - alt) < 1e-8


def test_integer_value_harmonic_oracle():
    for f in (synth_harmonic(0, {1: 0.5}, {-1: 1}),
              synth_harmonic(-2, {1: 1}, {-1: 2 - 1j})):
        for m in (1, 2):
            lim, lim_err = l_value_limit(f, m)
            assert abs(rhs_integer_value(f, m) - lim) < 1e-5 + lim_err


def test_integer_value_printed_constants_differ():
    """The phase-free printed d-constants disagree with the limit oracle;
    the discrepancy is deliberate and documented."""
    f = synth_harmonic(0, {}, {-1: 1})
    lim, _ = l_value_limit(f, 2)
    assert abs(rhs_integer_value(f, 2) - lim) < 1e-9
    assert abs(rhs_integer_value(f, 2, printed_constants=True) - lim) > 1e-4


def test_real_coefficient_symmetry(J):
    """BFI-convention bookkeeping for real-coefficient forms."""
    from maassl.specfun import cal_EI
    series = 2 * sum(a * cal_EI(TWO_PI * n) for n, a in J.holo.items())
    assert series.real == pytest.approx(2 * rhs_integer_value(J, 0).real,
                                        abs=1e-7)


# ---------------------------------------------------------------------------
# the w = 0 contour side, rhs_star
# ---------------------------------------------------------------------------

def _rel_err(a, b):
    """verify's rel_err: 0 for equal sides, NaN (which fails) for a non-finite one."""
    diff = abs(a - b)
    return diff / max(abs(a), abs(b)) if diff else 0.0


@pytest.mark.parametrize("name, s", [
    (name, s) for name in HARMONIC_FORMS for s in (-1.5, 0.5, 2.5, -2, -1, 0)]
    + [("J", m) for m in range(-3, 5)])
def test_rhs_star_matches_l_star(J, name, s):
    """The w = 0 contour side against the coefficient series: harmonic forms
    at real and integer s, and J at every integer value the Bernoulli and
    Hurwitz branches reach."""
    f = J if name == "J" else HARMONIC_FORMS[name]
    assert _rel_err(rhs_star(f, s), l_star(f, s)) <= 1e-12


@pytest.mark.parametrize("name, m", [("hA", 0), ("hA", -1), ("hD", 0), ("hD", -1)])
def test_rhs_star_richardson_oracle(name, m):
    """rhs_star is the w -> 0+ limit of rhs_main_theorem: Richardson over
    its values at w = i 0.4/2^j, j < 8, an independent route (Lerch kernel
    and double-integral remainder), reaches it."""
    f = HARMONIC_FORMS[name]
    values = [rhs_main_theorem(f, m, 1j * 0.4 / 2 ** j) for j in range(8)]
    limit = ltest.richardson_table(values)[-1][-1]
    assert _rel_err(limit, rhs_star(f, m)) <= 1e-12


# coefficient parts in steps of 1/16: a subnormal coefficient underflows
# in f's values, whatever the formula
part = st.integers(-16, 16).map(lambda n: n / 16)
coefficient = st.builds(complex, part, part)


@given(st.sampled_from([0, -2, -4, -10]),
       st.dictionaries(st.sampled_from([-1, 1, 2, 3]), coefficient, max_size=3),
       st.dictionaries(st.sampled_from([-2, -1]), coefficient, min_size=1, max_size=2),
       st.floats(-3, 3))
@settings(max_examples=25, deadline=None)
def test_rhs_star_random_harmonic_forms(k, holo, nonholo, s):
    """Harmonic forms with a principal part up to q^-1, up to three cusp
    coefficients and non-holomorphic terms at n = -1 and -2.  Above s = 3
    the Hurwitz kernel limits rhs_star (test_rhs_star_above_s3)."""
    f = synth_harmonic(k, holo, nonholo)
    assert _rel_err(rhs_star(f, s), l_star(f, s)) <= 1e-12


@pytest.mark.xfail(strict=True, reason="hurwitz_zeta's Euler-Maclaurin at orders "
                   "in (-3, -2) is about 1e-12 off on [i, i+1]")
def test_rhs_star_above_s3():
    f = synth_harmonic(-4, {-1: 1}, {-1: 1})
    assert _rel_err(rhs_star(f, 3.921875), l_star(f, 3.921875)) <= 1e-12


@pytest.mark.xfail(strict=True, raises=QuadratureError,
                   reason="that kernel error on values near 1e8 is above the "
                   "quadrature's 8 eps stopping floor")
def test_rhs_star_above_s3_large_form():
    f = synth_harmonic(-10, {}, {-2: 1j})
    assert _rel_err(rhs_star(f, 3.96875), l_star(f, 3.96875)) <= 1e-12


def test_rhs_star_near_s0():
    """zeta(1-s, z)'s pole -1/s drops out of the pairing; rhs_star keeps it
    out of the rounding too, so it stays accurate as s -> 0."""
    f = HARMONIC_FORMS["hA"]
    for s in (1e-13, -1e-10, 1e-7, -1e-4, 0.01, -0.49):
        assert _rel_err(rhs_star(f, s), l_star(f, s)) <= 1e-12, s


def test_rhs_star_routes():
    """rhs_negative_s is the same function; rhs_integer_value is rhs_star for
    a weakly holomorphic form and below m = 1, the Bernoulli form above."""
    assert contour.rhs_negative_s is rhs_star
    f = HARMONIC_FORMS["hA"]
    for m in (-1, 0):
        assert rhs_integer_value(f, m) == rhs_star(f, m)
    assert rhs_integer_value(f, 2) != rhs_star(f, 2)


def test_negative_s_zero_form():
    f = synth_harmonic(0, {1: 0}, {})
    assert rhs_star(f, -0.5) == 0


# ---------------------------------------------------------------------------
# compact support
# ---------------------------------------------------------------------------

def test_compact_support_vs_quadrature(J):
    from maassl import CompactAnalytic, l_value_by_vertical_integral
    # b = 2.5: J(z) is ~e^{5 pi} at the top of the support, beyond where an
    # absolute 1e-11 can be met in double precision
    for p, (a, b) in ((2.0, (1.0, 2.0)), (3.0, (1.0, 1.5)), (2.0, (1.0, 2.5))):
        seed = InversePowerSeed(p)
        lhs = compact_support_value(J, seed, a, b)
        rhs = l_value_by_vertical_integral(J, CompactAnalytic(seed, a, b))
        assert abs(lhs - rhs) < 1e-9


def test_compact_support_zero_seed(J):
    assert compact_support_value(J, ZeroSeed(), 1.0, 2.0) == 0


def test_compact_support_validation(J):
    with pytest.raises(ValueError):
        compact_support_value(J, InversePowerSeed(2), 2.0, 1.0)
