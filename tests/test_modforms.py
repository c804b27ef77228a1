"""Tests for q-series arithmetic and Fourier-expansion evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maassl import verify
from maassl.modforms import (ExpansionError, FourierExpansion, build_delta,
                             build_eisenstein, build_j_series, series_inv,
                             series_mul, synth_harmonic, xi_image)

series = st.lists(st.integers(-50, 50), max_size=8)
lengths = st.integers(0, 12)


def _add(a, b):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return [x + y for x, y in zip(a, b)]


@given(series, series, lengths)
@settings(max_examples=60, deadline=None)
def test_series_mul_commutes(a, b, n):
    assert series_mul(a, b, n) == series_mul(b, a, n)


@given(series, series, series, lengths)
@settings(max_examples=60, deadline=None)
def test_series_mul_distributes(a, b, c, n):
    assert series_mul(a, _add(b, c), n) == _add(series_mul(a, b, n),
                                                series_mul(a, c, n))


@given(series, st.integers(1, 14))
@settings(max_examples=60, deadline=None)
def test_series_inv_roundtrip(tail, n):
    a = [1] + tail
    assert series_mul(a, series_inv(a, n), n) == [1] + [0] * (n - 1)


@given(series.filter(lambda a: not a or a[0] != 1), lengths)
@settings(max_examples=40, deadline=None)
def test_series_inv_needs_unit_lead(a, n):
    with pytest.raises(ValueError):
        series_inv(a, n)


def test_eisenstein_series_divisor_oracle():
    # E_4 = 1 + 240 sum sigma_3(n) q^n; E_6 = 1 - 504 sum sigma_5(n) q^n
    e4 = build_eisenstein(4, 6)
    e6 = build_eisenstein(6, 6)
    assert e4[0] == 1 and e4[1] == 240 and e4[2] == 240 * 9
    assert e6[0] == 1 and e6[1] == -504 and e6[2] == -504 * 33


def test_delta_matches_eta_product():
    # Delta = q prod (1-q^n)^24, expanded independently of E4^3 - E6^2
    prec = 12
    eta24 = [1]
    for n in range(1, prec):
        factor = [1] + [0] * (n - 1) + [-1]
        for _ in range(24):
            eta24 = series_mul(eta24, factor, prec - 1)
    assert build_delta(prec) == [0] + eta24


def test_j_series_matches_eta_product_oracle():
    # j = E4^3 / (q prod (1-q^n)^24) to q^199, without E6: the product
    # prod (1-q^n) is Euler's pentagonal series sum (-1)^m q^{m(3m-1)/2}
    n = 201  # exponents -1 .. 199
    euler = [0] * n
    for m in range(-n, n + 1):
        e = m * (3 * m - 1) // 2
        if e < n:
            euler[e] = (-1) ** (m % 2)
    p8 = euler
    for _ in range(3):
        p8 = series_mul(p8, p8, n)
    eta24 = series_mul(p8, series_mul(p8, p8, n), n)
    e4 = build_eisenstein(4, n)
    qj = series_mul(series_mul(e4, series_mul(e4, e4, n), n), series_inv(eta24, n), n)
    j = build_j_series(200)
    assert list(j) == list(range(-1, 200))
    assert list(j.values()) == qj


def test_j_series_classical_coefficients():
    j = build_j_series(5)
    assert j[-1] == 1
    assert j[0] == 744
    assert j[1] == 196884
    assert j[2] == 21493760
    assert j[3] == 864299970


def test_J_expansion_shape(J):
    assert J.weight == 0 and J.level == 1 and J.n0 == 1
    assert 0 not in J.holo
    assert J.holo[1] == pytest.approx(196884)
    assert J.is_weakly_holomorphic


def test_J_squared_constant_derived(Jsq):
    assert Jsq.constant_removed == pytest.approx(393768)
    # J^2 coefficient at q^{-2} is 1 and at q^{-1} is 0
    assert Jsq.holo[-2] == pytest.approx(1)
    assert -1 not in Jsq.holo


# how far below growth_const sqrt(n) each named form's stored log|c(n)| stays
NAMED_GROWTH_MARGINS = {"J": 0.37, "Jsq": 0.19}


@pytest.mark.parametrize("name", sorted(verify.NAMED_FORMS))
def test_growth_constant_bounds_stored_coefficients(name):
    """log|c(n)| < growth_const sqrt(n) at every stored n >= 1.  Jsq, of pole
    order 2, declared 4 pi before, which its log|c(n)| pass by up to 29.6."""
    f = verify.NAMED_FORMS[name](40)
    margin = min(f.growth_const * math.sqrt(n) - math.log(abs(c))
                 for n, c in f.holo.items() if n >= 1)
    assert margin >= NAMED_GROWTH_MARGINS.get(name, 0.0) and margin > 0, margin


def test_J_value_at_i(J):
    # j(i) = 1728, so J(i) = 984
    assert J.eval_at(1j) == pytest.approx(984, abs=1e-6)


def test_J_periodicity(J):
    z = 0.3 + 1.1j
    assert J.eval_at(z) == pytest.approx(J.eval_at(z + 1), rel=1e-12)


def test_synth_validation():
    with pytest.raises(ExpansionError):
        synth_harmonic(0, {0: 1}, {})
    with pytest.raises(ExpansionError):
        synth_harmonic(2, {}, {-1: 1})  # nonholo needs k <= 0
    with pytest.raises(ExpansionError):
        synth_harmonic(0, {}, {1: 1})  # nonholo only at negative n
    with pytest.raises(ExpansionError):
        synth_harmonic(0, {0.5: 1, -1: 1}, {})  # frequencies are integers
    with pytest.raises(ExpansionError):
        synth_harmonic(0, {1: 1}, {-0.5: 1})


def test_xi_image_coefficients():
    f = synth_harmonic(0, {}, {-1: 2 + 1j})
    g = xi_image(f)
    assert g.weight == 2
    assert g.holo[1] == pytest.approx(-(4 * math.pi) * (2 - 1j))
    gc = xi_image(f, conjugate_first=True)
    assert gc.holo[1] == pytest.approx(-(4 * math.pi) * (2 + 1j))


def test_n0_is_the_deepest_stored_pole(J, Jsq):
    delta = FourierExpansion(12, 1, dict(enumerate(build_delta(10))), {}, 1.0)
    xi = xi_image(synth_harmonic(0, {}, {-1: 2 + 1j}))
    # a zero coefficient is dropped, so its q^-2 is no pole
    zero_pole = synth_harmonic(0, {-2: 0, 1: 1}, {})
    assert (J.n0, Jsq.n0, delta.n0, xi.n0, zero_pole.n0) == (1, 2, 1, 1, 1)
    assert synth_harmonic(-2, {-1: 1}, {-3: 1}).n0 == 3
    with pytest.raises(TypeError):
        FourierExpansion(0, 1, {-2: 1, 1: 1}, {}, 1.0, n0=1)


def test_arrays_and_tail_weights_are_cached():
    f = synth_harmonic(0, {-1: 1, 2: 0.5}, {-1: 1})
    assert f.arrays is f.arrays
    assert f.tail_log_weights is f.tail_log_weights
    hn, ha, nn, nb = f.arrays
    assert hn.tolist() == [-1, 2] and ha.tolist() == [1, 0.5]
    assert nn.tolist() == [-1] and nb.tolist() == [1]


def test_expansion_linearity():
    f = synth_harmonic(0, {1: 1}, {-1: 1})
    g = synth_harmonic(0, {2: 1j}, {})
    h = synth_harmonic(0, {1: 2 * 1, 2: 1j}, {-1: 2 * 1})  # 2 f + g
    z = 0.2 + 1j
    assert h.eval_at(z) == pytest.approx(2 * f.eval_at(z) + g.eval_at(z),
                                         rel=1e-12)


def test_nonholo_term_value():
    # single nonholo coefficient: b Gamma(1, 4 pi y) e^{-2 pi i z} at k=0
    f = synth_harmonic(0, {}, {-1: 1})
    z = 0.25 + 1j
    expected = math.exp(-4 * math.pi) * complex(math.e) ** 0  # Gamma(1,4pi)=e^{-4pi}
    import cmath
    expected = math.exp(-4 * math.pi) * cmath.exp(-2j * math.pi * z)
    assert f.eval_at(z) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("name", ["J", "Jsq", "synth"])
def test_eval_at_matches_exponential_form(J, Jsq, name):
    """(q^n) @ a(n) against sum_n a(n) e^{2 pi i n z}, to 1e-13 of the terms'
    magnitudes (near the real axis J's truncated sum cancels, so that is the
    scale both forms round to); non-finite at exactly the same points."""
    f = {"J": J, "Jsq": Jsq,
         "synth": synth_harmonic(0, {-1: 1, 1: 0.5 + 0.25j, 2: -0.3, 3: 0.1j}, {})}[name]
    hn, ha, _, _ = f.arrays
    ys = np.concatenate([np.logspace(-3, 2, 41), [56.3, 56.4, 56.5, 56.6, 59.2, 59.3]])
    z = (np.linspace(0, 1, 11)[:, None] + 1j * ys).ravel()
    with np.errstate(all="ignore"):
        terms = np.exp(2j * math.pi * np.outer(z, hn))
        expected = terms @ ha
        scale = np.abs(terms) @ np.abs(ha)
        got = f.eval_at(z)
    finite = np.isfinite(expected)
    assert np.array_equal(np.isfinite(got), finite)
    assert (np.abs(got - expected)[finite] <= 1e-13 * scale[finite]).all()
