"""Unit and property tests for the special-function kernel."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maassl import specfun
from maassl.specfun import (DomainError, SpecFunError, bernoulli_number,
                            bernoulli_poly, cal_EI, digamma, exp_int_E,
                            hurwitz_zeta, hurwitz_zeta_star, inc_gamma_upper,
                            lerch_zeta, polygamma, upper_gamma_int)

try:
    import mpmath
except ImportError:  # the oracle tests are optional
    mpmath = None

needs_mpmath = pytest.mark.skipif(mpmath is None, reason="mpmath oracle not installed")
_EXTENDED = np.finfo(np.longdouble).eps < 1e-18

# oracle values computed by direct numerical quadrature / independent series
E1_AT_1 = 0.21938393439552029  # int_1^inf e^-t/t dt
E1_AT_MINUS_1 = -1.8951178163559368 - math.pi * 1j  # Ein series, limit from above


def test_exp_int_quadrature_oracle():
    assert exp_int_E(1, 1.0) == pytest.approx(E1_AT_1, abs=1e-14)


def test_exp_int_negative_axis_branch():
    # the negative real axis carries the continuous extension from Im z > 0,
    # pinning Im E_1(x) = -pi there
    v = exp_int_E(1, -1.0)
    assert v == pytest.approx(E1_AT_MINUS_1, abs=1e-13)


def test_exp_int_closed_forms():
    # E_0(z) = e^{-z}/z; its scaled value, the first step from q = 1 where
    # E_1 has weight 0, is 1/z to the bit, for a scalar and an ndarray
    for z in (0.3, 2.0 + 1j, -3.0 + 0.2j, 5j):
        assert exp_int_E(0, z) == pytest.approx(cmath.exp(-z) / z, rel=1e-12)
        assert specfun.exp_int_E_scaled(0, z) == 1 / complex(z)
        assert specfun.exp_int_E_scaled(0, np.array([z]))[0] == 1 / complex(z)


def test_exp_int_raises_at_zero():
    with pytest.raises(DomainError):
        exp_int_E(1, 0)
    with pytest.raises(DomainError):
        exp_int_E(1, np.array([1.0, 0.0, 2j]))


def test_exp_int_array_shape_and_overflow():
    zs = np.array([[0.5 + 1j, 3.0], [-20.0 + 0j, 50j]])
    values = exp_int_E(0.5, zs)
    assert isinstance(values, np.ndarray) and values.shape == zs.shape
    assert type(exp_int_E(0.5, 3.0)) is complex
    assert type(exp_int_E(0.5, np.complex128(3.0))) is complex
    for z, v in zip(zs.ravel(), values.ravel()):
        assert v == pytest.approx(exp_int_E(0.5, z), rel=1e-13)
    # -0.0 imaginary parts sit on the upper side of the cut, as for scalars
    assert exp_int_E(1, np.array([-1.0 - 0.0j]))[0] == pytest.approx(E1_AT_MINUS_1, abs=1e-13)
    # the continued fraction starting at b_0 = z + s ~ 5.6e-313j, in a batch
    zs = np.array([2.5 + 5.6e-313j, 3.0])
    values = exp_int_E(-2.5, zs)
    assert np.all(np.isfinite(values))
    for z, v in zip(zs, values):
        assert v == pytest.approx(exp_int_E(-2.5, complex(z)), rel=1e-13)
    # each point of a continued-fraction batch runs at its own depth: a
    # shallow point (|z| = 38) beside a deep one (|z| = 2.1, arg 1.5)
    zs = np.array([cmath.rect(38.0, 0.3), cmath.rect(2.1, 1.5), cmath.rect(38.0, -2.0)])
    order = specfun.ExpIntOrder(0.5)
    depths = order.depth(zs)
    assert depths[1] > 4 * depths[0]
    # a point's depth is its own in any batch, and the scalar route's: there
    # a fresh order's numerators reach exactly that depth
    for z, depth in zip(zs.tolist(), depths.tolist()):
        assert order.depth(np.array([z])).tolist() == [depth]
        fresh = specfun.ExpIntOrder(0.5)
        exp_int_E(fresh, z)
        assert len(fresh.numerators(0)) == depth + 1
    for z, v in zip(zs, exp_int_E(0.5, zs)):
        assert v == pytest.approx(exp_int_E(0.5, complex(z)), rel=1e-13)
    with pytest.raises(OverflowError):
        exp_int_E(1, -701.0)
    with pytest.raises(OverflowError):
        exp_int_E(1, np.array([1.0, -701.0 + 1j]))


def test_exp_int_rejects_non_finite():
    nan, inf = math.nan, math.inf
    for s, z in ((nan, 3.0), (complex(1.0, nan), 3.0), (inf, 3.0), (0.5, nan),
                 (0.5, complex(3.0, nan)), (0.5, complex(inf, 1.0)), (0.5, -inf)):
        with pytest.raises(DomainError):
            exp_int_E(s, z)
    for s, z in ((0.5, np.array([3.0, nan])), (nan, np.array([3.0, 4.0])),
                 (0.5, np.array([[3.0, 50.0], [1.0, complex(inf, 0.0)]]))):
        with pytest.raises(DomainError):
            exp_int_E(s, z)


def _bits(kernel, *args):
    """The hex of every element kernel(*args) returns, or the name of the
    exception it raises (large orders overflow the power series' lead)."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.ravel(kernel(*args))
    except (ArithmeticError, SpecFunError) as exc:
        return type(exc).__name__
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


# (order, z) on every branch of exp_int_E: the continued fraction in both
# half-planes, the power series off the cut (Re z > 0 and Re z <= 0) and on
# it, within 1/8 of a positive integer order, the asymptotic series, the
# orders that step down (non-positive integers from E_0, Re s < -2 from an
# order in (-1, 0]), and real z with either signed zero
_BRANCH_ORDERS = (0.5, -1.5, 2.5 + 1j, 3j, 12, 200, 3.0001, 2.95, 2, 1, 0, -2, -5,
                  -6.5, -11.3 + 0.5j)
_BRANCH_POINTS = (3 + 1j, 30 - 2j, 2.1j + 0.05, 900 + 50j, -3 + 7j, -40 + 41j, 1 + 0.5j,
                  0.3 - 1.2j, -2 + 3j, -5 + 1j, -2 * math.pi + 0.4j, -30 - 20j,
                  -45 + 3j, -300 - 1j, 3.0, 0.7, -1.0, complex(-1.0, -0.0), -50.0)


def test_exp_int_order_object_keeps_bits():
    """exp_int_E, exp_int_E_scaled and exp_int_E_orders give the same bits
    for an ExpIntOrder as for the plain order, for a scalar and an ndarray
    z, with one object reused over every point: its numerators, extended
    by the deepest point so far, serve every shallower one."""
    zs = np.array(_BRANCH_POINTS)
    assert math.copysign(1.0, zs[-2].imag) == -1.0
    for s in _BRANCH_ORDERS:
        order = specfun.ExpIntOrder(s)
        assert order.s == complex(s)
        for kernel in (exp_int_E, specfun.exp_int_E_scaled):
            for z in list(_BRANCH_POINTS) + [zs]:
                got = _bits(kernel, order, z)
                assert got == _bits(kernel, s, z), (s, z, kernel.__name__)
                assert got != "DomainError"
        for z in (_BRANCH_POINTS[0], _BRANCH_POINTS[6], zs[:4]):
            got = _bits(lambda *a: np.stack(specfun.exp_int_E_orders(*a)), order, z, 4)
            assert got == _bits(lambda *a: np.stack(specfun.exp_int_E_orders(*a)), s, z, 4), s


def _cf_inline(s: complex, z: complex, depth: int) -> complex:
    """The scalar continued fraction with each numerator i (c - i) computed
    inside the loop, as exp_int_E did before ExpIntOrder kept them."""
    c = 1.0 - s
    b = z + (s + 2 * depth)
    t = 0.0
    for i in range(depth, 0, -1):
        t = i * (c - i) / (b + t)
        b = b - 2.0
    return 1.0 / (b + t)


def test_exp_int_cf_matches_inline_numerators():
    """The continued fraction over an order's kept numerators, exp_int_E's
    scalar route, has the bits of the loop that computes them at the
    order's tabled depth, whichever order the depths come in, at every
    order the fraction takes: Re s >= -2, not a non-positive integer."""
    zs = [complex(z) for z in _BRANCH_POINTS if _in_cf_region(complex(z))]
    assert len(zs) == 7
    # orders with full mantissas, where a regrouped numerator rounds apart
    orders = _BRANCH_ORDERS + (math.pi - 2, complex(1 / 3, -math.e), -2 + 0.5j)
    orders = [s for s in map(complex, orders)
              if s.real >= -2 and not (s.imag == 0 and s.real <= 0 and s.real.is_integer())]
    assert len(orders) == 13
    for s in orders:
        for points in (zs, zs[::-1]):
            order = specfun.ExpIntOrder(s)
            for z, depth in zip(points, order.depth(np.array(points)).tolist()):
                want = _cf_inline(s, z, depth)
                got = specfun.exp_int_E_scaled(order, z)
                assert [got.real.hex(), got.imag.hex()] == [
                    want.real.hex(), want.imag.hex()], (s, z)


def test_exp_int_order_object_errors():
    """A non-finite order, or one below Re s = -5000, whose steps down
    would list -Re s values, fails when its object is built; the object's
    ndarray calls keep exp_int_E's OverflowError on z (the scalar guards
    are test_exp_int_order_object_guards')."""
    for s in (math.nan, math.inf, complex(1.0, math.nan), complex(-math.inf, 1.0),
              -5000.5, complex(-1e300, 1.0)):
        with pytest.raises(DomainError):
            specfun.ExpIntOrder(s)
    assert specfun.ExpIntOrder(-4999.5).steps == 4999
    order = specfun.ExpIntOrder(1)
    with pytest.raises(OverflowError):
        exp_int_E(order, np.array([1.0, -701.0 + 1j]))
    assert cmath.isfinite(specfun.exp_int_E_scaled(order, -800.0 + 900j))


# (z, what exp_int_E and exp_int_E_scaled give at it) for the scalar route's
# guards, each z as a Python float and as a complex with either signed zero
_GUARDS = [(0.0, "DomainError", "DomainError"), (math.nan, "DomainError", "DomainError"),
           (math.inf, "DomainError", "DomainError"), (-math.inf, "DomainError", "DomainError"),
           (-701.0, "OverflowError", "value"), (-1.0, "value", "value")]


@pytest.mark.parametrize("z, plain, scaled", [
    (z, plain, scaled) for x, plain, scaled in _GUARDS
    for z in (x, complex(x, 0.0), complex(x, -0.0))])
def test_exp_int_order_object_guards(z, plain, scaled):
    """A prepared order with a Python float or complex z takes exp_int_E's
    scalar route, whose guards match a plain-number order's: DomainError at
    0, nan and +-inf, OverflowError (exp_int_E only) at Re z = -701, and a
    -0.0 imaginary part read as +0.0, the upper side of the cut; every
    value has the plain order's bits."""
    order = specfun.ExpIntOrder(1)
    for kernel, want in ((exp_int_E, plain), (specfun.exp_int_E_scaled, scaled)):
        got = _bits(kernel, order, z)
        assert got == _bits(kernel, 1, z)
        if want == "value":
            assert got == _bits(kernel, 1, complex(z.real, 0.0))
        else:
            assert got == want
    if z == -1.0:
        assert exp_int_E(order, z) == pytest.approx(E1_AT_MINUS_1, abs=1e-13)


@pytest.mark.parametrize("count", [0, -1])
def test_exp_int_E_orders_needs_one_order(count):
    with pytest.raises(ValueError):
        specfun.exp_int_E_orders(0.5, 3.0, count)
    with pytest.raises(ValueError):
        specfun.exp_int_E_orders(specfun.ExpIntOrder(0.5), np.array([3.0, 4j]), count)


def test_cal_EI_vs_E1():
    # EI(w) - E_1(w) = i pi for w < 0, and EI = E_1 on w > 0
    for w in (-0.5, -2.0, -2 * math.pi, -12.0):
        assert cal_EI(w) - exp_int_E(1, w) == pytest.approx(1j * math.pi, abs=1e-11)
        assert cal_EI(w).imag == 0.0
    for w in (0.5, 1.0, 7.0):
        assert cal_EI(w) == pytest.approx(exp_int_E(1, w), rel=1e-13)


def test_inc_gamma_integer_closed_form():
    # Gamma(1, x) = e^{-x}, Gamma(2, x) = (1+x)e^{-x}
    for x in (0.3, 1.0, 4 * math.pi):
        assert upper_gamma_int(1, x) == pytest.approx(math.exp(-x), rel=1e-13)
        assert upper_gamma_int(2, x) == pytest.approx((1 + x) * math.exp(-x),
                                                      rel=1e-13)
        assert inc_gamma_upper(1, x) == pytest.approx(math.exp(-x), rel=1e-12)


def test_principal_power_at_zero():
    """0^0 = 1, 0^a = 0 for Re a > 0, DomainError for Re a <= 0, a != 0."""
    assert specfun.principal_power(0, 0) == 1
    assert specfun.principal_power(0.0, 0.5 + 2j) == 0
    for a in (-0.5, 1j, -2):
        with pytest.raises(DomainError):
            specfun.principal_power(0, a)


@needs_mpmath
def test_inc_gamma_upper_at_zero():
    """Gamma(r, 0) = Gamma(r) for Re r > 0; it diverges for Re r <= 0."""
    for r in (0.5, 2.5, 1 + 1j, 3.2 - 0.7j):
        exact = complex(mpmath.gamma(r))
        assert abs(inc_gamma_upper(r, 0) - exact) <= 1e-14 * abs(exact)
    for r in (0, -1.5, 2j):
        with pytest.raises(DomainError):
            inc_gamma_upper(r, 0)


def test_negative_index_guards():
    with pytest.raises(DomainError):
        upper_gamma_int(0, 1.0)
    with pytest.raises(DomainError):
        polygamma(-1, 1 + 1j)
    with pytest.raises(DomainError):
        bernoulli_number(-1)
    with pytest.raises(DomainError):
        bernoulli_poly(-1, 0.5)


def test_polygamma_zero_is_digamma():
    z = np.array([0.5 + 1j, 3.0 + 0j, -2.5 + 0.1j])
    assert np.array_equal(polygamma(0, z), digamma(z))
    assert polygamma(0, 1 + 1j) == digamma(1 + 1j)


@given(st.floats(-2.5, 2.5).filter(lambda r: abs(r - round(r)) > 0.05),
       st.floats(0.2, 25), st.floats(-math.pi + 0.2, math.pi - 0.2))
@settings(max_examples=120, deadline=None)
@example(r=2.5, rad=2.5, ang=2.2250738585e-313)  # continued-fraction start b ~ 5.6e-313j
def test_gamma_recurrence_property(r, rad, ang):
    """Gamma(r+1, z) = r Gamma(r, z) + z^r e^{-z}."""
    z = rad * cmath.exp(1j * ang)
    lhs = inc_gamma_upper(r + 1, z)
    rhs = r * inc_gamma_upper(r, z) + z ** r * cmath.exp(-z)
    scale = max(1.0, abs(lhs))
    assert abs(lhs - rhs) <= 1e-9 * scale


@given(st.floats(-3, 3), st.floats(0.2, 30), st.floats(0.05, math.pi - 0.05))
@settings(max_examples=120, deadline=None)
@example(s=2.75, rad=12.0, ang=3.0)  # near the cut, where Gamma(r) - gamma(r, z) cancels
def test_E_gamma_consistency_property(s, rad, ang):
    """E_s(z) = z^{s-1} Gamma(1-s, z) away from the cut."""
    z = rad * cmath.exp(1j * ang)
    lhs = exp_int_E(s, z)
    rhs = specfun.principal_power(z, s - 1) * inc_gamma_upper(1 - s, z)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_bernoulli_numbers_exact():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(3) == 0
    assert bernoulli_number(12) == Fraction(-691, 2730)


@given(st.integers(0, 12), st.floats(-3, 3), st.floats(-2, 2))
@settings(max_examples=80, deadline=None)
def test_bernoulli_translation_property(n, x, y):
    """B_n(z+1) - B_n(z) = n z^{n-1}."""
    z = complex(x, y)
    diff = bernoulli_poly(n, z + 1) - bernoulli_poly(n, z)
    expected = n * z ** (n - 1) if n >= 1 else 0
    assert abs(diff - expected) <= 1e-9 * max(1.0, abs(expected))


@needs_mpmath
def test_hurwitz_zeta_bernoulli_identity():
    """zeta(-m, a), which hurwitz_zeta takes as -B_{m+1}(a)/(m+1), against
    mpmath's zeta: off the segment for m <= 6 (measured 3.8e-16 of
    max(1, |zeta|)), and on 97 points of [i, i+1], where the integer-value
    pairings read it, for m <= 19 (measured 9.9e-16 relative)."""
    with mpmath.workdps(30):
        for m in range(7):
            for a in (0.3, 0.8, 1.0, 1.7, 2.7, 4.0, 0.5 + 1j, 1.2 - 0.4j,
                      2.0 + 2j, 3.3 + 0.1j):
                exact = complex(mpmath.zeta(-m, mpmath.mpc(a)))
                assert abs(hurwitz_zeta(-m, a) - exact) <= 1e-15 * max(1.0, abs(exact)), (m, a)
        zs = 1j + np.linspace(0.0, 1.0, 97)
        for m in range(20):
            for z, v in zip(zs, hurwitz_zeta(-m, zs)):
                exact = complex(mpmath.zeta(-m, mpmath.mpc(z)))
                assert _rel_err(v, exact) <= 1e-15, (m, z)
    with pytest.raises(DomainError):
        hurwitz_zeta(-64, 1j)  # B_65 is past MAX_BERNOULLI


def test_hurwitz_zeta_known_values():
    # zeta(2, 1) = pi^2/6; zeta(2, 1/2) = pi^2/2
    assert hurwitz_zeta(2, 1) == pytest.approx(math.pi ** 2 / 6, rel=1e-13)
    assert hurwitz_zeta(2, 0.5) == pytest.approx(math.pi ** 2 / 2, rel=1e-13)


def test_hurwitz_zeta_star_at_one():
    for z in (0.7, 1.5 + 1j, 3.0):
        assert hurwitz_zeta_star(1, z) == pytest.approx(-digamma(z), rel=1e-12)


def test_lerch_reduces_to_hurwitz():
    for s in (1.5, 2.0, 3.0):
        for z in (0.8, 1.0 + 1j, 2.5):
            assert lerch_zeta(s, 0, z) == pytest.approx(hurwitz_zeta(s, z),
                                                        abs=1e-10)


def test_lerch_geometric_case():
    # s=0 with Im(a) > 0: plain geometric series sum e^{2 pi i m a}
    a = 0.1 + 0.3j
    q = cmath.exp(2j * math.pi * a)
    assert lerch_zeta(0, a, 1.0) == pytest.approx(1 / (1 - q), rel=1e-12)


def test_lerch_dilogarithm_value():
    # sum_m 2^{-m} (1+m)^{-2} = 2 Li_2(1/2); oracle by direct summation
    val = lerch_zeta(2, 0.5j * math.log(2) / math.pi, 1.0)
    direct = sum(2.0 ** -m / (1 + m) ** 2 for m in range(200))
    assert val == pytest.approx(direct, rel=1e-12)
    assert val.real == pytest.approx(1.164481052930025, abs=1e-12)


def test_lerch_domain_errors():
    with pytest.raises(DomainError):
        lerch_zeta(2, 0.25, 1)  # real a != 0: no geometric decay
    with pytest.raises(DomainError):
        lerch_zeta(2, 0.1 + 0.3j, -1)  # Re z <= 0


def test_polygamma_known_values():
    assert digamma(1) == pytest.approx(-specfun.EULER_GAMMA, abs=1e-13)
    assert polygamma(1, 1) == pytest.approx(math.pi ** 2 / 6, rel=1e-13)
    assert polygamma(2, 1) == pytest.approx(-2.404113806319188, rel=1e-12)


def test_polygamma_hurwitz_identity():
    # psi^{(m)}(z) = (-1)^{m+1} m! zeta(m+1, z)
    for m in (1, 2, 3, 4):
        for z in (0.7, 1.3 + 0.5j, 4.2):
            lhs = polygamma(m, z)
            rhs = (-1) ** (m + 1) * math.factorial(m) * hurwitz_zeta(m + 1, z)
            assert lhs == pytest.approx(rhs, rel=1e-11)


def test_digamma_reflection():
    # psi(1-z) - psi(z) = pi cot(pi z)
    for z in (0.3, 0.25 + 0.7j):
        lhs = digamma(1 - z) - digamma(z)
        rhs = math.pi / cmath.tan(math.pi * z)
        assert abs(lhs - rhs) < 1e-11 * max(1, abs(rhs))


def test_pole_errors():
    with pytest.raises(DomainError):
        hurwitz_zeta(1, 2.0)
    with pytest.raises(DomainError):
        hurwitz_zeta(2, -3)
    for s, z in ((-1, 0), (0, -3), (-5, np.array([1j, -2.0]))):  # the Bernoulli branch
        with pytest.raises(DomainError):
            hurwitz_zeta(s, z)
    with pytest.raises(DomainError):
        digamma(0)
    with pytest.raises(DomainError):
        cal_EI(0.0)
    with pytest.raises(DomainError):
        cal_EI(2 + 3j)


# ---------------------------------------------------------------------------
# high-precision oracle (mpmath, tests only)
# ---------------------------------------------------------------------------

def _rel_err(value, exact) -> float:
    return abs(value - exact) / max(1e-300, abs(exact))


@needs_mpmath
def test_complete_gamma_vs_mpmath():
    grid = [complex(x, y) for x in np.linspace(-6.5, 6.5, 53) for y in np.linspace(-3, 3, 13)]
    poles = [z for z in grid if z.imag == 0 and z.real <= 0 and z.real.is_integer()]
    near_poles = [-n + d for n in range(7) for d in (1e-8, -1e-8, 1e-8j, -1e-9 + 1e-9j)]
    with mpmath.workdps(30):
        for z in [z for z in grid if z not in poles] + near_poles:
            assert _rel_err(specfun._gamma(z), complex(mpmath.gamma(z))) <= 1e-14, z
    with pytest.raises(DomainError):
        specfun._gamma(-3 + 0j)


def _gauss_nodes(height: float) -> np.ndarray:
    x = np.polynomial.legendre.leggauss(16)[0]
    return 1j * height + (x + 1) / 2


@needs_mpmath
@pytest.mark.parametrize("height", [1.0, 2.0])
def test_array_kernels_vs_mpmath(height):
    zs = _gauss_nodes(height)
    cases = [(lambda z, s=s: hurwitz_zeta(s, z), lambda z, s=s: mpmath.zeta(s, z))
             for s in (2.0, 3.5, 0.5, -1.5, -3.0, 1.5 + 2j)]
    cases.append((digamma, mpmath.digamma))
    cases += [(lambda z, m=m: polygamma(m, z), lambda z, m=m: mpmath.polygamma(m, z))
              for m in (1, 2, 4)]
    cases += [(lambda z, n=n: bernoulli_poly(n, z), lambda z, n=n: mpmath.bernpoly(n, z))
              for n in (0, 1, 3, 6)]
    with mpmath.workdps(30):
        for kernel, oracle in cases:
            values = kernel(zs)
            assert isinstance(values, np.ndarray) and values.shape == zs.shape
            for z, v in zip(zs, values):
                exact = complex(oracle(mpmath.mpc(z)))
                assert abs(v - exact) <= 1e-12 * max(1.0, abs(exact)), (z, v, exact)
            scalar = kernel(complex(zs[3]))
            assert type(scalar) is complex and scalar == pytest.approx(values[3], rel=1e-14)


def test_array_kernels_reject_poles_elementwise():
    zs = np.array([0.5 + 1j, -2.0 + 0j])
    for call in (lambda: hurwitz_zeta(2, zs), lambda: digamma(zs), lambda: polygamma(1, zs)):
        with pytest.raises(DomainError):
            call()
    # -0.0 imaginary parts sit on the upper side of the cut, as for scalars
    lower = np.array([-0.5 - 0.0j, 0.3 + 1j])
    assert hurwitz_zeta(0.5, lower)[0] == hurwitz_zeta(0.5, complex(-0.5, 0.0))


@needs_mpmath
def test_inc_gamma_upper_sweep_vs_mpmath():
    """A fixed sweep of r in (-2.5, 2.5) and |z| <= 30, cut included."""
    rng = np.random.default_rng(5)
    n = 1000
    rs = rng.uniform(-2.5, 2.5, n)
    zs = 30 * np.sqrt(rng.uniform(0, 1, n)) * np.exp(1j * rng.uniform(-math.pi, math.pi, n))
    with mpmath.workdps(30):
        errs = [_rel_err(inc_gamma_upper(float(r), complex(z)),
                         complex(mpmath.gammainc(float(r), complex(z))))
                for r, z in zip(rs, zs)]
    assert max(errs) <= 1e-10


# points near the cut where an order with |Im s| = 4 or 5 reads above 2e-12:
# the power series at |z| = 39 (2.95e-12) and the asymptotic series at
# |z| = 41 (3.46e-12 at 41 e^{-3i}, 8.28e-12 at s = 3 - 5i, z = -41)
_FAR_ORDER_POINTS = ((-1.5 + 4j, cmath.rect(39.0, 2.36)), (-1.5 - 4j, cmath.rect(39.0, -2.36)),
                     (3 + 5j, cmath.rect(41.0, -3.0)), (3 - 5j, complex(-41.0, 0.0)))


@needs_mpmath
def test_exp_int_E_ladder_vs_mpmath():
    """Both sides of |z| = 2, 6.6, 12 and 40, in both half-planes and on the
    cut, with integer orders >= 1 taking the series' log-lead branch, one
    point at a time and each order's whole grid as one ndarray.  The worst
    measured error is 1.5e-12 (s = 2.5 + i, |z| = 39, arg z = 2.4), for
    scalars and the array alike, where the series cancels most.  The
    continued fraction's depth depends on |s|: s = 3i reaches its |s| <= 3
    row (9.3e-13).  s = -6.5 steps down from -0.5 (worst 1.8e-15), and 0
    and -2 from E_0 (4.9e-16).  This bound does not hold for every order:
    ``_FAR_ORDER_POINTS`` has the points near the cut where |Im s| = 4 or 5
    reads more, held to their own bound; past |s| ~ 5 the asymptotic
    series at z = -41 loses digits (2.1e-11 at s = 5)."""
    orders = (0, 1, 2, 3, -2, 0.5, -1.5, 2.5 + 1j, -6.5, 3j)
    radii = (1.9, 2.1, 6.5, 6.7, 11.9, 12.1, 39.0, 41.0, 60.0)
    args = (0.0, 0.5, -0.5, 1.2, -1.2, math.pi / 2, -math.pi / 2,
            2.0, -2.0, 2.4, -2.4, 3.0, -3.0, math.pi)
    grid = np.array([complex(-r, 0.0) if a == math.pi else cmath.rect(r, a)
                     for r in radii for a in args])
    with mpmath.workdps(30):
        for s in orders:
            for z, v in zip(grid, exp_int_E(s, grid)):
                exact = complex(_mp_expint(s, complex(z)))
                assert _rel_err(exp_int_E(s, complex(z)), exact) <= 2e-12, (s, z)
                assert _rel_err(v, exact) <= 2e-12, (s, z, "array")
        for s, z in _FAR_ORDER_POINTS:
            exact = complex(_mp_expint(s, z))
            assert _rel_err(exp_int_E(s, z), exact) <= 1e-11, (s, z)
            assert _rel_err(exp_int_E(s, np.array([z]))[0], exact) <= 1e-11, (s, z, "array")


# E_s at orders below -2 and |z| >= 2, where the continued fraction lost
# digits to rounding at any depth (3.2e-9, 1.4e-7 and 2.2e-8 off); the steps
# down from E_0 or from an order in (-1, 0] keep them within rounding
_LOW_ORDER_POINTS = ((-11, 2.0), (-12.5, 2.0), (-20, 2 * math.pi))


@needs_mpmath
@pytest.mark.parametrize("s, z", _LOW_ORDER_POINTS)
def test_exp_int_E_low_order_vs_mpmath(s, z):
    with mpmath.workdps(30):
        exact = complex(mpmath.expint(s, z))
    assert _rel_err(exp_int_E(s, complex(z)), exact) <= 1e-13
    assert _rel_err(exp_int_E(s, np.array([complex(z)]))[0], exact) <= 1e-13


# (Re s, largest |Im s|, Re z, bound) for the orders that step down, with
# |Im z| <= 8: each bound is three to four times the worst relative error
# against mpmath of 2,000 random points of its band and 3,000 on its edge
# Re z = +-0.001, 1.5e-13, 1.4e-13 (both on that edge) and 2.9e-9 (the
# continued fraction read 4.0, 3.3e-12 and 2.5 there); in the left
# half-plane E_s(z) = (-s)! e^{-z} z^{s-1} sum_{k<=-s} z^k/k! at integer
# s, whose sum cancels to about e^z, and the steps cancel alike
_STEP_BANDS = {"right": ((-30.0, -8.0), 0.0, (1e-3, 20.0), 5e-13),
               "near": ((-8.0, -1.0), 0.5, (1e-3, 40.0), 5e-13),
               "left": ((-30.0, -2.0), 0.0, (-20.0, -1e-3), 8e-9)}


@needs_mpmath
@pytest.mark.parametrize("band", sorted(_STEP_BANDS))
@given(st.floats(0, 1), st.floats(-1, 1), st.floats(0, 1), st.floats(-8, 8))
@settings(max_examples=150, deadline=None)
def test_exp_int_E_steps_down_vs_mpmath(band, u, v, x, y):
    """Orders below -2, and non-positive integers, step down from an order
    in (-1, 0] or from E_0 (``ExpIntOrder``): within each band's measured
    bound of mpmath, for a scalar and a one-element ndarray."""
    (lo, hi), im_s, (z_lo, z_hi), bound = _STEP_BANDS[band]
    s, z = complex(lo + (hi - lo) * u, im_s * v), complex(z_lo + (z_hi - z_lo) * x, y)
    with mpmath.workdps(40):
        exact = complex(mpmath.expint(mpmath.mpc(s.real, s.imag), mpmath.mpc(z.real, z.imag)))
    assert _rel_err(exp_int_E(s, z), exact) <= bound, (s, z)
    assert _rel_err(exp_int_E(s, np.array([z]))[0], exact) <= bound, (s, z, "array")


@needs_mpmath
def test_inc_gamma_upper_large_r_vs_mpmath():
    """Gamma(r, z) = z^r E_{1-r}(z) at non-integer r from 9 to 21, where
    E_{1-r} steps down from an order in (-1, 0]: within 2e-13 of mpmath
    (measured 5.4e-14 on these and 300 random points with Re z in
    [0.05, 30]; the continued fraction read 3.3 at r = 20.5, z = 2)."""
    rng = np.random.default_rng(9)
    points = [(r, z) for r in (9.3, 10.5, 12.25, 15.7, 18.5, 20.5, 20.9 + 0.3j)
              for z in (2.0, 2 * math.pi, 0.5 + 3j, 10 - 2j, -3 + 4j, 25.0, 0.3 - 0.2j)]
    points += [(rng.uniform(9, 21), complex(rng.uniform(0.05, 30), rng.uniform(-8, 8)))
               for _ in range(40)]
    with mpmath.workdps(40):
        for r, z in points:
            exact = complex(mpmath.gammainc(mpmath.mpmathify(r), mpmath.mpc(z)))
            assert _rel_err(inc_gamma_upper(r, z), exact) <= 2e-13, (r, z)


@needs_mpmath
def test_exp_int_E_near_integer_order_vs_mpmath():
    """Within 1/8 of a positive integer order the power series takes its
    lead and its term k = n - 1 together, whose poles 1/(n - s) cancel.
    Taken apart they read 6.1e-11 at s = 2.999 and 5.7e-10 at s = 3.0001
    (z = 1.981), and up to 8.8e-4 on such random points; together, at most
    7.2e-15 and 3.8e-14 (measured)."""
    rng = np.random.default_rng(5)
    points = [(s, 1.981 + 0j) for s in (2.999, 3.0001, 3 - 1e-9, 1 + 1e-7)]
    for _ in range(120):
        n = int(rng.integers(1, 7))
        s = n - rng.choice([-1, 1]) * 10 ** rng.uniform(-14, math.log10(0.124))
        r = rng.uniform(0.05, 20)
        z = complex(-r, 0.0) if rng.random() < 0.3 else cmath.rect(r, rng.uniform(-math.pi, math.pi))
        points.append((s, z))
    with mpmath.workdps(30):
        for s, z in points:
            exact = complex(_mp_expint(s, z))
            assert _rel_err(exp_int_E(s, z), exact) <= 1e-13, (s, z)
            assert _rel_err(exp_int_E(s, np.array([z]))[0], exact) <= 1e-13, (s, z, "array")


@needs_mpmath
def test_hurwitz_zeta_star_vs_mpmath():
    """zeta*(a, z) = zeta(a, z) - 1/(a-1), -psi(z) at a = 1: near the pole
    the constant is taken out before rounding, so no digit is lost as
    a -> 1 (measured 2.7e-15 of max(1, |zeta*|) on [i, i+1])."""
    zs = 1j + np.linspace(0.0, 1.0, 17)
    with mpmath.workdps(30):
        for a in (1.0, 1 - 1e-14, 1 + 1e-10, 1 - 1e-6, 1 + 0.01, 0.7, 1.49, 0.51,
                  1.3 + 0.2j, 1.5, 2.5):
            for z, v in zip(zs, hurwitz_zeta_star(a, zs)):
                mz = mpmath.mpc(z.real, z.imag)
                exact = complex(-mpmath.digamma(mz) if a == 1 else
                                mpmath.zeta(a, mz) - 1 / (mpmath.mpc(a) - 1))
                assert abs(v - exact) <= 4e-15 * max(1.0, abs(exact)), (a, z)


@needs_mpmath
def test_exp_int_E_orders_vs_mpmath():
    """Ten orders below s by the downward recurrence, at |arg z| < 1.5, the
    arguments the phi_s^w non-holomorphic sums use, for a scalar and for an
    ndarray: within the kernel's 2e-12 (measured at most 3.2e-13)."""
    zs = np.array([0.05 + 0.02j, 0.3 + 1j, 2 + 0.2j, 2 * math.pi + 0.0125j, 6.8 + 1j,
                   13 - 3j, 30 + 2j])
    with mpmath.workdps(30):
        for s in (1.0, 0.5, -1.5, 2.5 + 1j, 3.4):
            rows = specfun.exp_int_E_orders(s, zs, 11)
            for i, z in enumerate(zs):
                scalar = specfun.exp_int_E_orders(s, complex(z), 11)
                for j in range(11):
                    exact = complex(mpmath.expint(s - j, complex(z)))
                    assert _rel_err(scalar[j], exact) <= 2e-12, (s, z, j)
                    assert _rel_err(rows[j][i], exact) <= 2e-12, (s, z, j, "array")


# the orders the moved band is held to, from the asymptotic series' worst
# (at z = 40 e^{2.35i} it read 8.4e-12 at s = 5 and 5.2e-8 at s = 10)
_BAND_ORDERS = (0, 0.5, -1.5, 2, 3, 5, 7.5, 10, -8.5, 2.5 + 1j, 3j, -10 + 10j)


@needs_mpmath
def test_exp_int_E_far_off_cut_vs_mpmath():
    """Off the cut (|Im z| > -Re z) from |z| = 40 to 5,000, where the
    continued fraction took over from the asymptotic series: e^z E_s(z)
    within 2e-12 relative for a scalar and an ndarray (measured 4.0e-16 on
    a finer grid), and E_s(z) too wherever it is a normal double."""
    radii = (40.0, 60.0, 100.0, 400.0, 1000.0, 5000.0)
    args = (0.0, 0.5, -1.5, 2.35, -2.35, 3 * math.pi / 4 - 1e-9)
    grid = np.array([cmath.rect(r, a) for r in radii for a in args])
    normal = abs(grid.real) < 690
    with mpmath.workdps(30):
        for s in _BAND_ORDERS:
            scaled = specfun.exp_int_E_scaled(s, grid)
            plain = exp_int_E(s, grid[normal])
            for z, v in zip(grid, scaled):
                exact = _mp_scaled(s, complex(z))
                assert _rel_err(v, exact) <= 2e-12, (s, z)
                assert _rel_err(specfun.exp_int_E_scaled(s, complex(z)), exact) <= 2e-12, (s, z)
            for z, v in zip(grid[normal], plain):
                exact = complex(_mp_expint(s, complex(z)))
                assert _rel_err(v, exact) <= 2e-12, (s, z, "E_s")


@needs_mpmath
def test_exp_int_E_scaled_vs_mpmath():
    """e^z E_s(z) by every method, near the cut and off it, out to
    Re z = -4,000, where exp_int_E raises OverflowError; and exp_int_E is
    e^{-z} times it wherever it does not raise."""
    radii = (0.5, 3.0, 12.0, 39.0, 41.0, 750.0, 4000.0)
    args = (0.3, -1.4, 2.0, -2.5, 3.0, math.pi)
    grid = np.array([complex(-r, 0.0) if a == math.pi else cmath.rect(r, a)
                     for r in radii for a in args])
    with mpmath.workdps(30):
        for s in (0.5, 2, -1.5, 2.5 + 1j):
            values = specfun.exp_int_E_scaled(s, grid)
            for z, v in zip(grid, values):
                z = complex(z)
                exact = _mp_scaled(s, z)
                assert _rel_err(v, exact) <= 2e-12, (s, z)
                assert _rel_err(specfun.exp_int_E_scaled(s, z), exact) <= 2e-12, (s, z)
                if z.real >= -700:
                    assert _rel_err(exp_int_E(s, z), cmath.exp(-z) * exact) <= 2e-12, (s, z)
                else:
                    with pytest.raises(OverflowError):
                        exp_int_E(s, z)
    assert type(specfun.exp_int_E_scaled(0.5, -800.0 + 900j)) is complex


def test_exp_int_E_batch_independent():
    """A point has the same bits alone as in its batch, by every method:
    the continued fraction runs each point at its own depth, the power,
    near-integer and asymptotic series take one point at a time, and an
    order that steps down steps each point alone.  The points cover |z| in
    [0.05, 60] at every argument, so each method is sampled."""
    rng = np.random.default_rng(11)
    z = np.exp(rng.uniform(math.log(0.05), math.log(60.0), 600)
               + 1j * rng.uniform(-math.pi, math.pi, 600))
    for s in (0.5, -2.5, 3 + 2j, 12, 2.9999, -1.5 + 4j, -6, -11.3, -20.5 + 1j):
        for kernel in (exp_int_E, specfun.exp_int_E_scaled):
            batch = kernel(s, z)
            alone = np.concatenate([kernel(s, z[i:i + 1]) for i in range(z.size)])
            assert np.array_equal(batch, alone), (s, kernel.__name__)


def _lentz_steps(s: complex, z: complex) -> int:
    """Steps of the modified Lentz iteration for exp_int_E's continued fraction
    until a step factor is within 2 eps of 1, with 1e-300 added to each
    divisor: the evaluation exp_int_E used before its depth table."""
    tiny, tol = 1e-300, 2 * np.finfo(float).eps
    b = z + s
    c, d = 1.0 / tiny, 1.0 / (b + tiny)
    for i in range(1, 5000):
        a = -i * (i - 1 + s)
        b = b + 2.0
        d = 1.0 / (a * d + b + tiny)
        c = b + a / c + tiny
        if abs(d * c - 1.0) <= tol:
            return i
    raise AssertionError(f"Lentz did not converge at s = {s}, z = {z}")


def _in_cf_region(z: complex) -> bool:
    """exp_int_E's rule for the points its continued fraction takes: off the
    cut, |z| >= 2 for Re z > 0 and |z| >= 6.6 for Re z <= 0, to any |z|."""
    if z.real > 0:
        return abs(z) >= 2.0
    return abs(z.imag) > -z.real and abs(z) >= 6.6


def test_cf_depth_covers_lentz():
    """The tabled depth is at least Lentz's step count over the continued
    fraction's region: |z| from 2 to 10^4, both edges (|z| = 2 and 2.1 with
    Re z > 0, |z| just above 6.6 with |Im z| just above -Re z), and every
    order the fraction takes in a box: real orders from -1.5 to 30 that are
    not non-positive integers, and complex orders up to |Im s| = 10 with
    Re s >= -2 (every order that steps down starts at one of these, or at
    E_0).  Beyond |z| = 40 the rows' floors carry the depth for
    8 < |s| <= 32.  The 20 points with the least margin match mpmath."""
    tiny = 1e-9
    radii = (2.0, 2.1, 2.5, 3.0, 4.0, 5.0, 6.6 + tiny, 6.7, 8.0, 10.0, 13.0,
             16.0, 20.0, 25.0, 30.0, 35.0, 40.0 - tiny, 40.0, 60.0, 100.0, 400.0,
             2000.0, 1e4)
    args = [0.0] + [sign * a for a in (0.4, 0.8, 1.2, 1.5, math.pi / 2 - tiny,
                                       math.pi / 2 + tiny, 1.8, 2.1, 2.3,
                                       3 * math.pi / 4 - tiny)
                    for sign in (1, -1)]
    zs = [z for z in (cmath.rect(r, a) for r in radii for a in args) if _in_cf_region(z)]
    orders = [-1.5, -0.5, 0.5, 1, 1.5, 2, 3, 5, 7.5, 10, 15, 20.5, 25, 30,
              10j, -10j, 3 + 10j, -0.5 - 10j, 10 + 10j, -2 + 10j, 30 + 10j,
              -0.25 + 10j, 30 - 10j, -2 - 10j, 2 + 5j, -2 + 5j, 1 + 1j, 3j,
              0.5 - 7j, -4j, 15 + 8j]
    margins = []
    for s in map(complex, orders):
        order = specfun.ExpIntOrder(s)
        assert not order.steps, s
        for z, depth in zip(zs, order.depth(np.array(zs)).tolist()):
            margin = depth - _lentz_steps(s, z)
            assert margin >= 0, (s, z, margin)
            margins.append((margin, s, z))
    if mpmath is None:
        pytest.skip("mpmath oracle not installed")
    margins.sort(key=lambda m: m[0])
    with mpmath.workdps(30):
        for _, s, z in margins[:20]:
            assert _rel_err(exp_int_E(s, z), complex(mpmath.expint(s, z))) <= 2e-12, (s, z)


def _mp_expint(s, z):
    """mpmath's E_s(z), an mpc (it may overflow a double); integer s >= 2 by
    E_{n+1} = (e^{-z} - z E_n)/n (DLMF 8.19.12) from E_1, some 50 times
    faster than mpmath's own path, with 4 more digits per step for the
    factor |z|/n each step loses (enough for |z| up to 10^4)."""
    if not (isinstance(s, int) and s >= 2):
        return mpmath.expint(s, z)
    with mpmath.workdps(mpmath.mp.dps + 4 * s):
        z = mpmath.mpc(z)
        e = mpmath.expint(1, z)
        for n in range(1, s):
            e = (mpmath.exp(-z) - z * e) / n
    return +e


def _mp_scaled(s, z) -> complex:
    """e^z E_s(z) by mpmath, at any Re z."""
    return complex(mpmath.exp(z) * _mp_expint(s, z))


@pytest.mark.skipif(not _EXTENDED, reason="needs an extended-precision long double")
@pytest.mark.parametrize("q", [0, 0.5, 1, 2.5, 5, 11, 20])
def test_tail_extent_vs_summed_tail(q):
    """tail_extent(lam, q, c) = M against the dropped terms e^c b_m, b_m =
    e^{-lam m} (1+m)^q, m >= M, summed in extended precision: they sum to
    at most TAIL_CUT, b falls from M on (so the integral from M is below
    that sum too), and the bound e^c b_{M-1}/(1 - rho) at M - 1 is above
    TAIL_CUT."""
    ld = np.longdouble
    for lam in (0.05, 0.1, 0.3, 0.7, 1.0, 8 - 2 * math.pi, 3.0, 8.0, 24.0, 40.0):
        for c in (0.0, 15.7):
            M = specfun.tail_extent(lam, q, c)
            m = np.arange(M - 1, M + int(120 / lam) + 200).astype(ld)
            b = np.exp(ld(c) - ld(lam) * m + ld(q) * np.log1p(m))
            assert b[-1] < 1e-30 * b[1], (lam, q, c)
            assert b[1:].sum() <= specfun.TAIL_CUT, (lam, q, c, M)
            assert q <= lam * (1 + M), (lam, q, c, M)
            rho = b[1] / b[0]
            assert b[0] / (1 - rho) > specfun.TAIL_CUT, (lam, q, c, M)


def test_tail_extent_known_counts_and_domain():
    # lerch_sum's M at a = 0: 39 for Im w = 1 and 56 for Im w = 0.7
    assert specfun.tail_extent(1.0, 0.0) == 39
    assert specfun.tail_extent(0.7, 0.0) == 56
    for lam, q, c in ((0.0, 1.0, 0.0), (-1.0, 0.0, 0.0), (math.inf, 0.0, 0.0),
                      (math.nan, 0.0, 0.0), (1.0, -0.5, 0.0), (1.0, math.inf, 0.0),
                      (1.0, 0.0, -1.0), (1.0, 0.0, math.nan)):
        with pytest.raises(DomainError):
            specfun.tail_extent(lam, q, c)


def _lerch_count(exponent, w) -> int:
    """lerch_sum's term count M for (z+m)^exponent e^{imw}."""
    a = complex(exponent)
    return specfun.tail_extent(complex(w).imag, max(0.0, a.real), abs(a.imag) * math.pi / 2)


def _lerch_rounding(s, a, z):
    """eps sum_m |e^{2 pi i m a} (z+m)^{-s}| over lerch_sum's terms: the
    rounding of the terms, the error left where they cancel; a float for a
    scalar z, an ndarray for an ndarray z.  The phases are exact to eps each
    (lerch_phases), so their rounding grows with no m |2 pi a| factor."""
    w = 2 * math.pi * complex(a)
    m = np.arange(_lerch_count(-complex(s), w))
    terms = np.abs(np.exp(1j * w * m) * (np.asarray(z, dtype=complex)[..., None] + m)
                   ** -complex(s))
    out = np.finfo(float).eps * np.sum(terms, axis=-1)
    return float(out) if out.ndim == 0 else out


@needs_mpmath
def test_lerch_zeta_vs_mpmath():
    """Relative error 1e-13 for Im a > 0, plus the terms' rounding, which
    dominates only where the terms cancel (small Im a with Re a != 0); at
    a = 0 the Hurwitz zeta's own tolerance.  The worst point reaches 0.59 of
    the bound; with np.exp(1j * w * m) phases (s = -1.5, a = 0.25 + 0.001i,
    z = 0.3) the error was 3.5 times it."""
    zs = (0.3, 2.5 + 1j, 0.7 - 0.5j)
    avals = (0.1 + 0.3j, 1e-3j, -0.4 + 0.05j, 0.25 + 1e-3j)
    with mpmath.workdps(30):
        for i, s in enumerate((-1.5, 0, 0.5, 2, 10, 3 + 4j)):
            for j, a in enumerate(avals):
                z = zs[(i + j) % len(zs)]  # each (s, a) at one z, every z used
                exact = complex(mpmath.lerchphi(mpmath.expjpi(2 * mpmath.mpc(a)), s, z))
                err = abs(lerch_zeta(s, a, z) - exact)
                assert err <= 1e-13 * abs(exact) + _lerch_rounding(s, a, z), (s, a, z)
        for s in (1.5 + 2j, 0.5 - 3j, -0.7 - 2j, -1.5 + 1j, 3 + 5j):
            for z in zs:
                exact = complex(mpmath.zeta(s, z))
                assert abs(lerch_zeta(s, 0, z) - exact) <= 1e-12 * max(1.0, abs(exact)), (s, z)


@needs_mpmath
def test_lerch_zeta_complex_exponent_vs_mpmath():
    """A complex exponent -s multiplies term m by e^{Im s (arg(z+m) - arg z)}
    relative to the lead, up to e^{|Im s| pi/2}, which lerch_sum's count
    takes in: without it lerch_zeta(1 - 10i, 0.3i, 0.5 + 2i) is 1.6e-12
    off, against 9.8e-14 with it.  The oracle is the defining sum over
    m < 400."""
    with mpmath.workdps(30):
        for s in (-0.5 - 10j, 1 - 10j, 0.5 + 20j):
            for z in (0.5 + 2j, 1 + 3j):
                q = mpmath.expjpi(2 * mpmath.mpc(0.3j))
                exact = complex(mpmath.fsum(q ** m * (mpmath.mpc(z) + m) ** -mpmath.mpc(s)
                                            for m in range(400)))
                err = abs(lerch_zeta(s, 0.3j, z) - exact)
                assert err <= 1e-13 * abs(exact) + _lerch_rounding(s, 0.3j, z), (s, z)


@needs_mpmath
def test_lerch_zeta_small_z_vs_mpmath():
    """At |z| < 1 with a positive exponent -s the terms m >= 1 outgrow the
    lead |z^-s|, and lerch_sum's count bounds its tail relative to the lead
    only from |z| >= 1, so lerch_zeta takes the term m = 0 apart there: summed
    from z itself, lerch_zeta(-10, 5i, 0.05) is 5.0e-12 off.  The oracle
    is the defining sum over m < 120, past which every term is below 1e-40
    of the first."""
    with mpmath.workdps(30):
        for z in (0.05, 0.3):
            for s in (-0.5, -2.5, -10):
                for a in (0.3j, 1j, 5j, 0.25 + 2j):
                    q = mpmath.expjpi(2 * mpmath.mpc(a))
                    exact = complex(mpmath.fsum(q ** m * (z + m) ** -s for m in range(120)))
                    err = abs(lerch_zeta(s, a, z) - exact)
                    assert err <= 1e-13 * abs(exact) + _lerch_rounding(s, a, z), (z, s, a)


# the 48 nodes of quadrature levels 0 and 1 on [0, 1]: one integrand call
_GL16 = (1 + np.polynomial.legendre.leggauss(16)[0]) / 2
_LEVEL01 = np.concatenate([_GL16, _GL16 / 2, (1 + _GL16) / 2])
_LERCH_A = (-3.5, -2.5, -1, -0.5, 0, 0.5, 1, 2.5, 0.5 + 2j)
_LERCH_W = [complex(re, im) for im in (0.05, 0.7, 1.5) for re in (-0.7, 0, 0.3)]


def _lerch_extended(a, w, z):
    """sum_{m < M} e^{imw} (z+m)^a over lerch_sum's M terms, each in
    extended precision (about 1e-19): the term-by-term oracle for every
    node, itself anchored to mpmath.lerchphi below."""
    m = np.arange(_lerch_count(a, w)).astype(np.longdouble)
    zl = z.astype(np.clongdouble)
    phase = np.exp(np.clongdouble(1j) * np.clongdouble(w) * m)
    return ((zl[:, None] + m) ** np.clongdouble(a) * phase).sum(axis=1).astype(complex)


@pytest.mark.skipif(not _EXTENDED, reason="needs an extended-precision long double")
@pytest.mark.parametrize("h", [0.5, 1.0, 1.3, 2.0])
def test_lerch_sum_vs_extended_sum(h):
    """The head and Taylor tail of lerch_sum against the direct sum of the
    same terms, on the nodes a segment's first integrand call takes:
    1e-13 relative plus the rounding of the terms (measured 0.54 of it)."""
    z = 1j * h + _LEVEL01
    for a in _LERCH_A:
        for w in _LERCH_W:
            exact = _lerch_extended(a, w, z)
            err = np.abs(specfun.lerch_sum(a, w, z) - exact)
            bound = 1e-13 * np.abs(exact) + _lerch_rounding(-a, w / (2 * math.pi), z)
            assert (err <= bound).all(), (h, a, w, float(np.max(err / bound)))


@needs_mpmath
@pytest.mark.skipif(not _EXTENDED, reason="needs an extended-precision long double")
def test_lerch_sum_and_its_oracle_vs_mpmath():
    """One node per a (cycling through heights, w and nodes): lerch_sum and
    the extended-precision oracle against mpmath.lerchphi(e^{iw}, -a, z)."""
    with mpmath.workdps(25):
        for i, a in enumerate(_LERCH_A):
            h, w = (0.5, 1.0, 1.3, 2.0)[i % 4], _LERCH_W[i]
            z = 1j * h + _LEVEL01[5 * i % 48: 5 * i % 48 + 1]
            exact = complex(mpmath.lerchphi(mpmath.expj(mpmath.mpc(w)), -a, mpmath.mpc(z[0])))
            bound = 1e-13 * abs(exact) + _lerch_rounding(-a, w / (2 * math.pi), z[0])
            assert abs(complex(_lerch_extended(a, w, z)[0]) - exact) <= 1e-15 * abs(exact), a
            assert abs(complex(specfun.lerch_sum(a, w, z)[0]) - exact) <= bound, a
