"""Tests for q-series arithmetic and Fourier-expansion evaluation."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maassl import modforms
from maassl.modforms import (ExpansionError, PrecisionError, QSeries,
                             build_delta, build_eisenstein, build_j_series,
                             build_J, build_J_squared, synth_harmonic,
                             xi_image)


def qs(d, prec=10):
    return QSeries.from_dict({n: Fraction(c) for n, c in d.items()}, prec)


coeff_dicts = st.dictionaries(st.integers(-3, 6),
                              st.integers(-50, 50), max_size=6)


@given(coeff_dicts, coeff_dicts)
@settings(max_examples=60, deadline=None)
def test_qseries_add_commutes(d1, d2):
    a, b = qs(d1), qs(d2)
    assert a + b == b + a


@given(coeff_dicts, coeff_dicts, coeff_dicts)
@settings(max_examples=40, deadline=None)
def test_qseries_mul_distributes(d1, d2, d3):
    a, b, c = qs(d1), qs(d2), qs(d3)
    lhs = a * (b + c)
    rhs = a * b + a * c
    prec = min(lhs.precision, rhs.precision)
    for n in range(-8, prec):
        assert lhs[n] == rhs[n]


@given(coeff_dicts.filter(lambda d: any(v != 0 for v in d.values())))
@settings(max_examples=40, deadline=None)
def test_qseries_invert_roundtrip(d):
    a = qs(d, 14)
    inv = a.invert()
    prod = a * inv
    assert prod[0] == 1
    for n in range(1, min(prod.precision, 5)):
        assert prod[n] == 0


def test_qseries_precision_guard():
    a = qs({0: 1, 1: 2}, 5)
    with pytest.raises(PrecisionError):
        a[5]
    assert a[4] == 0


def test_qseries_pow_matches_repeated_mul():
    a = qs({-1: 1, 1: 3, 2: -2}, 12)
    assert a ** 3 == a * a * a


def test_eisenstein_series_divisor_oracle():
    # E_4 = 1 + 240 sum sigma_3(n) q^n; E_6 = 1 - 504 sum sigma_5(n) q^n
    e4 = build_eisenstein(4, 6)
    e6 = build_eisenstein(6, 6)
    assert e4[0] == 1 and e4[1] == 240 and e4[2] == 240 * 9
    assert e6[0] == 1 and e6[1] == -504 and e6[2] == -504 * 33


def test_delta_matches_eta_product():
    # Delta = q prod (1-q^n)^24, expanded independently of E4^3 - E6^2
    prec = 12
    eta24 = QSeries.from_dict({0: 1}, prec)
    for n in range(1, prec + 1):
        eta24 = eta24 * QSeries.from_dict({0: 1, n: -1}, prec) ** 24
    eta24 = eta24.shift(1).truncate(prec)
    delta = build_delta(prec)
    for n in range(prec):
        assert delta[n] == eta24[n]


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


def test_xi_image_coefficients():
    f = synth_harmonic(0, {}, {-1: 2 + 1j})
    g = xi_image(f)
    assert g.weight == 2
    assert g.holo[1] == pytest.approx(-(4 * math.pi) * (2 - 1j))
    gc = xi_image(f, conjugate_first=True)
    assert gc.holo[1] == pytest.approx(-(4 * math.pi) * (2 + 1j))


def test_expansion_linearity():
    f = synth_harmonic(0, {1: 1}, {-1: 1})
    g = synth_harmonic(0, {2: 1j}, {})
    h = f.scaled(2).plus(g)
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
