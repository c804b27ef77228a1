"""Test functions and the coefficient-series side of the L-value pairing.

An L-value here is the pairing of a Fourier expansion with a test function:
the holomorphic coefficients hit the Laplace transform of the test function
at 2 pi n, and each non-holomorphic coefficient contributes an incomplete-
gamma-weighted integral, for phi_s^w a finite sum of E_s values.  Three
kinds of test function are provided: the exponential-monomial family
phi_s^w on [1, infinity), its Fricke transform supported in (0, 1/M], and
compactly supported restrictions of holomorphic seeds.

Each pairing done by quadrature integrates phi against a partner growing like
e^{c_inf t} as t -> infinity and e^{c_0/t} as t -> 0, over phi.window(c_inf,
c_0): the finite interval outside which the product integrates to at most
TAIL_CUT of its lead (``specfun.tail_extent``).  The partner may be
vector-valued, giving one integral per column in one quadrature.

For phi_s^w every kernel is a closed form in E_s, and the holomorphic sum
stops where a rigorous bound on all the remaining stored terms falls below
the sum's rounding, and the reported error estimate includes that bound.
The other test functions have no such bound: every kernel of the pairing,
holomorphic and non-holomorphic, comes from one vector integral
(``_kernels``).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import specfun
from .modforms import FourierExpansion
from .quadrature import SegmentIntegral, integrate_decaying
from .specfun import TAIL_CUT

TWO_PI = 2.0 * math.pi

# the largest finite exponential's exponent, log(DBL_MAX)
_LOG_MAX = math.log(sys.float_info.max)

# l_value_limit's dyadic ladder: x0 / 2^j for j < _LIMIT_LEVELS
_LIMIT_X0 = 0.4
_LIMIT_LEVELS = 8
_LIMIT_XS = _LIMIT_X0 / 2.0 ** np.arange(_LIMIT_LEVELS)
_SHIFT_TERMS = 16  # Taylor terms that shift E_s from level 0 to the others
# row j: (-h_j)^k / k! for k < _SHIFT_TERMS, the shift h_j = i (x_j - x_0)
_TAYLOR = np.ones((_LIMIT_LEVELS, _SHIFT_TERMS), dtype=complex)
_TAYLOR[:, 1:] = 1j * (_LIMIT_X0 - _LIMIT_XS)[:, None] / np.arange(1, _SHIFT_TERMS)
_TAYLOR = np.cumprod(_TAYLOR, axis=1)

# exp_int_E's relative accuracy on the orders and arguments the series uses
# (its docstring; test_exp_int_E_ladder_vs_mpmath)
_KERNEL_ACCURACY = 2e-12


class AdmissibilityError(ValueError):
    """The expansion/test-function pair is outside the convergent regime."""


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------

class PhiSW(NamedTuple):
    """phi_s^w(t) = 1_[1,inf)(t) e^{-wt} t^{s-1}, an immutable named tuple
    (s, w)."""

    s: complex
    w: complex

    def value(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t, dtype=complex)
        mask = t >= 1.0
        tm = t[mask]
        out[mask] = np.exp(-complex(self.w) * tm) * tm ** (complex(self.s) - 1.0)
        return out

    def window(self, c_inf: float, c_0: float) -> tuple[float, float]:
        """[1, 1 + tail_extent(rate, max(0, Re s - 1))], rate = Re w - c_inf > 0:
        |phi| e^{c_inf t} is e^{-rate u} (1+u)^{Re s - 1} of its t = 1 value."""
        rate = complex(self.w).real - c_inf
        if rate <= 0:
            raise AdmissibilityError(
                f"phi_s^w pairing needs Re(w) > {c_inf:.4g}, "
                f"got {complex(self.w).real:.4g}")
        return 1.0, 1.0 + specfun.tail_extent(rate, max(0.0, complex(self.s).real - 1.0))

    def laplace(self, u) -> complex:
        """(L phi_s^w)(u) = E_{1-s}(u + w), continuous from above on the cut."""
        return specfun.exp_int_E(1 - complex(self.s), u + complex(self.w))


@dataclass(frozen=True)
class FrickePhiSW:
    """(phi_s^w |_a W_M)(t) = 1_(0,1/M](t) e^{-w/(Mt)} (Mt)^{1-s-a}."""

    s: complex
    w: complex
    a: int
    M: int

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("level M must be a positive integer")

    def window(self, c_inf: float, c_0: float) -> tuple[float, float]:
        """(1/(M(1 + tail_extent(r, q))), 1/M], r = Re w - M c_0 > 0,
        q = max(0, Re s + a - 3): at v = 1/(Mt) = 1 + u, |phi| e^{c_0/t} dt
        = e^{-r v} v^{Re s + a - 3} dv/M."""
        r = complex(self.w).real - self.M * c_0
        if r <= 0:
            raise AdmissibilityError(
                f"Fricke-transformed phi_s^w needs Re(w) > {self.M * c_0:.4g} "
                f"near t = 0, got {complex(self.w).real:.4g}")
        q = max(0.0, complex(self.s).real + self.a - 3.0)
        return 1.0 / (self.M * (1 + specfun.tail_extent(r, q))), 1.0 / self.M

    def value(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t, dtype=complex)
        mask = (t > 0) & (t <= 1.0 / self.M + 1e-15)
        mt = self.M * t[mask]
        expo = 1.0 - complex(self.s) - self.a
        out[mask] = np.exp(-complex(self.w) / mt) * mt ** expo
        return out


@dataclass(frozen=True)
class CompactAnalytic:
    """Restriction y -> seed.value(iy) to [a_lo, a_hi], zero elsewhere.

    Its window is [a_lo, a_hi] whatever the partner's growth.

    The seed is a holomorphic function on the upper half-plane exposing
    value(z), translated_sum(z) = sum_{n>=0} value(z+n), both taking a scalar
    or an ndarray z, and decay_epsilon with |seed(z)| < |z|^{-1-decay_epsilon}
    on the strip.  It must be hashable, and equal seeds must have equal
    translated sums, which ``contour.compact_support_value`` keeps by seed.
    """

    seed: object
    a_lo: float
    a_hi: float

    def __post_init__(self):
        if not (0 < self.a_lo < self.a_hi < math.inf):
            raise ValueError("need 0 < a_lo < a_hi < inf")

    def window(self, c_inf: float, c_0: float) -> tuple[float, float]:
        return self.a_lo, self.a_hi

    def value(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t, dtype=complex)
        mask = (t >= self.a_lo) & (t <= self.a_hi)
        out[mask] = self.seed.value(1j * t[mask])
        return out


def _pair(phi, g, c_inf: float, c_0: float) -> SegmentIntegral:
    """int g(t) phi(t) dt over phi.window(c_inf, c_0), for a real-argument g
    growing like e^{c_inf t} as t -> infinity and like e^{c_0/t} as t -> 0.
    g returns N values or an (N, K) array, which gives K integrals."""
    def integrand(t):
        tr = np.real(t)
        gv = g(tr)
        return gv * phi.value(tr).reshape((-1,) + (1,) * (gv.ndim - 1))

    return integrate_decaying(integrand, *phi.window(c_inf, c_0))


def fricke_transform_testfn(phi, a: int, M: int):
    """(phi |_a W_M)(x) = (Mx)^{-a} phi(1/(Mx)) as a new descriptor."""
    if isinstance(phi, PhiSW):
        return FrickePhiSW(phi.s, phi.w, a, M)
    if isinstance(phi, FrickePhiSW) and phi.a == a and phi.M == M:
        return PhiSW(phi.s, phi.w)  # the involution squares to the identity
    raise TypeError(f"Fricke transform unsupported for {type(phi).__name__}")


# ---------------------------------------------------------------------------
# The L-value pairing
# ---------------------------------------------------------------------------

class LValue(NamedTuple):
    """A series-side L-value and its parts, an immutable named tuple.

    error_estimate adds the non-holomorphic part's estimate to the
    holomorphic part's.  For phi_s^w the holomorphic estimate is the bound
    on the stored terms the sum skipped, once it stopped at that bound, and
    the kernel's accuracy 2e-12 sum |a(n) E_{1-s}(2 pi n + w)| when it
    summed every stored term; the non-holomorphic one is the same kernel
    accuracy of its finite sum of E_s terms (``_nonholo_part``).  For any
    other test function they are the magnitude of the last term summed and
    sum |b(n)| times the estimate of the one quadrature (``_kernels``).
    """

    value: complex
    holo_part: complex
    nonholo_part: complex
    error_estimate: float


def _kernels(f: FourierExpansion, phi) -> SegmentIntegral:
    """Every kernel of f's pairing with phi from one vector quadrature
    (``_pair``), once a Fricke phi passes the series' admissibility check:
    a column int e^{-2 pi n t} phi(t) dt = (L phi)(2 pi n) per a(n), in
    f.terms order, then int Gamma(1-k, -4 pi n t) e^{-2 pi n t} phi(t) dt
    per b(n), in increasing n, none growing faster than e^{2 pi n0 t}.  The
    columns share one absolute stop, so a small kernel may keep few correct
    digits.  An expansion with no coefficients takes no quadrature."""
    if isinstance(phi, FrickePhiSW):
        threshold = max(TWO_PI * f.n0, f.growth_const ** 2 * phi.M / TWO_PI)
        if complex(phi.w).real <= threshold:
            raise AdmissibilityError(f"Fricke-side series needs Re(w) > {threshold:.4g}, "
                                     f"got {complex(phi.w).real:.4g}")
    hn, _, nn, _ = f.arrays
    u = (TWO_PI * hn).astype(complex)
    beta = -2 * TWO_PI * nn  # 4 pi |n| for each b(n)
    if not (u.size or beta.size):
        return SegmentIntegral(np.zeros(0, dtype=complex), 0.0, 0)

    def g(t):
        holo = np.exp(-np.outer(t, u))
        if not beta.size:
            return holo
        x = np.outer(t, beta)
        nonholo = specfun.upper_gamma_int(1 - f.weight, x) * np.exp(x / 2)
        return np.concatenate([holo, nonholo], axis=1)

    return _pair(phi, g, TWO_PI * f.n0, 0.0)


def _holo_terms(f: FourierExpansion, phi, order, batch=None):
    """(kernels, holo, err): the kernel values (L phi)(2 pi n) of the summed
    n, the first len(kernels) rows of f.terms; their sum against a(n), left
    to right; and its error estimate (see LValue).  The rows give n, a(n),
    2 pi n and |a(n)|, so a call sorts nothing and looks nothing up.

    For phi_s^w each kernel is one E_{1-s}(2 pi n + w) call, made only for
    the n summed, with w converted once and order the L-value's prepared
    order 1 - s (``specfun.ExpIntOrder``).  Any other test function passes
    batch, every stored n's kernel in f.terms order (``_kernels``), and
    order None; the same sum and divergence check run over those values.

    For phi_s^w the sum stops at the first n_i > 0 whose tail bound
    e^{-x_i}/(x_i - p) G_i (``FourierExpansion.tail_log_weights``) is at most
    TAIL_CUT of the partial sum, with x = 2 pi n + Re w, p = max(0, Re s - 1):
    |E_{1-s}(z)| <= e^{-x}/(x - p) for x > p, as t^p <= e^{p(t-1)} on
    [1, inf), and every later x_m exceeds x_i.  A sum that uses every
    stored term skipped nothing, so its estimate is the kernels' accuracy.
    """
    can_cut = batch is None
    if can_cut:
        w = complex(phi.w)
        re_w, p = w.real, max(0.0, complex(phi.s).real - 1.0)
    kernels, holo, prev, growing, size = [], 0j, math.inf, 0, 0.0
    for i, n, a, u, a_abs in f.terms:
        if can_cut and n > 0 and holo:
            x = u + re_w
            limit = TAIL_CUT * abs(holo)
            # the weights are read once the term's own bound, part of the
            # tail's, is below the cut
            if x > p and a_abs * math.exp(-x) / (x - p) <= limit:
                log_tail = f.tail_log_weights[i] - x - math.log(x - p)
                if log_tail <= math.log(limit):
                    return kernels, holo, math.exp(log_tail)
        kernels.append(specfun.exp_int_E(order, u + w) if can_cut else batch[i])
        term = a * kernels[-1]
        holo += term
        size += abs(term)
        if n > 0:
            mag = abs(term)
            # coefficient growth may dominate for a few small n; only a
            # sustained increase signals a divergent pairing
            if mag > prev and mag > 1e-13 * max(1.0, abs(holo)):
                growing += 1
                if growing >= 4:
                    raise AdmissibilityError(
                        f"series terms stopped decreasing at n = {n}")
            else:
                growing = 0
            prev = mag
    if can_cut:
        return kernels, holo, _KERNEL_ACCURACY * size
    return kernels, holo, (prev if math.isfinite(prev) else 0.0)


def _nonholo_part(f: FourierExpansion, phi: PhiSW, order) -> tuple[complex, float]:
    """The non-holomorphic sum of the pairing with phi_s^w, a finite sum of
    E_s values, and its error estimate.  At the integer weights k <= 0 that
    a non-holomorphic part needs, m = -k and beta = 4 pi |n|,
    Gamma(1-k, beta y) = m! e^{-beta y} sum_{j<=m} (beta y)^j/j!, so
        int_1^inf Gamma(1-k, beta y) e^{2 pi |n| y} phi_s^w(y) dy
            = sum_{j<=m} (m!/j!) beta^j E_{1-s-j}(2 pi |n| + w),
    the orders from one kernel call each n (``specfun.exp_int_E_orders``),
    every n's call taking the L-value's prepared order 1 - s.  It converges
    for Re w > -2 pi min|n|, and ``PhiSW.window`` raises AdmissibilityError
    elsewhere.  Its estimate is the kernel accuracy,
    2e-12 sum |b(n) (m!/j!) beta^j E_{1-s-j}|.  Against mpmath on 1,600
    random points at k = 0, -2, -4 and -10, s in [-3, 4], Im w in [0, 3]
    and Re w from -2 pi |n| + 0.02 to 4 (|n| <= 2), it is within 4.3e-13
    relative, and 1.4e-12 where the kernel itself is (E_{2.96}(1.98)); the
    estimate bounds every gap."""
    if not f.nonholo:
        return 0j, 0.0
    phi.window(TWO_PI * max(f.nonholo), 0.0)  # the admissibility check
    m = -f.weight
    w = complex(phi.w)
    total, size = 0j, 0.0
    for n, b in f.nonholo.items():
        beta = -2 * TWO_PI * n
        c = float(math.factorial(m))
        for j, e in enumerate(specfun.exp_int_E_orders(order, beta / 2 + w, m + 1)):
            if j:
                c *= beta / j
            term = b * c * e
            total += term
            size += abs(term)
    return total, _KERNEL_ACCURACY * size


def l_value(f: FourierExpansion, phi) -> LValue:
    """Series-side L-value: coefficient sums against the Laplace transform.
    For phi_s^w the holomorphic sum stops at a tail bound (``_holo_terms``),
    and both sums share one prepared E_{1-s} order.  Any other phi takes
    every kernel from one quadrature (``_kernels``), and sums b(n) times its
    kernel left to right, with estimate sum |b(n)| times the quadrature's."""
    if isinstance(phi, PhiSW):
        order = specfun.ExpIntOrder(1 - complex(phi.s))
        _, holo, err = _holo_terms(f, phi, order)
        nonholo, nonholo_err = _nonholo_part(f, phi, order)
    else:
        seg, split, nb = _kernels(f, phi), len(f.terms), f.arrays[3].tolist()
        _, holo, err = _holo_terms(f, phi, None, seg.value[:split])
        nonholo = sum((b * kernel for b, kernel in zip(nb, seg.value[split:].tolist())), 0j)
        nonholo_err = seg.est_error * sum(map(abs, nb))
    return LValue(value=holo + nonholo, holo_part=complex(holo),
                  nonholo_part=complex(nonholo), error_estimate=float(err + nonholo_err))


def l_value_by_vertical_integral(f: FourierExpansion, phi) -> complex:
    """L_f(phi) = int_0^infty f(iy) phi(y) dy over phi's window; f(iy) grows at
    most like e^{2 pi n0 y} as y -> infinity and e^{2 pi n0 / y} as y -> 0.

    Domain: a window [t0, t1] with 2 pi n0 t1 <= log(DBL_MAX) ~ 709.78, so
    that f(iy)'s leading term e^{2 pi n0 y} is finite on it (t1 <= 112.97
    for J).  Past that f(iy) overflows, and AdmissibilityError is raised
    before any quadrature, as it is for a window phi's decay cannot give."""
    growth = TWO_PI * f.n0
    top = phi.window(growth, growth)[1]
    if growth * top > _LOG_MAX:
        raise AdmissibilityError(
            f"f(iy) overflows past y = {_LOG_MAX / growth:.5g} (pole order {f.n0}), "
            f"inside the test function's window, which ends at {top:.5g}")
    return complex(_pair(phi, lambda y: f.eval_at(1j * y), growth, growth).value)


def l_star(f: FourierExpansion, s) -> complex:
    """L*(f, s) = sum a_f(n) E_{1-s}(2 pi n), plus the w = 0 non-holomorphic
    part (``_nonholo_part``) for expansions that have one."""
    return complex(l_value(f, PhiSW(s, 0.0)).value)


def l_tilde(f: FourierExpansion, s) -> complex:
    """Symmetrized value L*(f, s) + i^k L*(f, k-s)."""
    k = f.weight
    return l_star(f, s) + (1j ** (k % 4)) * l_star(f, k - s)


def _ladder_holo(f: FourierExpansion, s, order) -> tuple[np.ndarray, np.ndarray]:
    """The ladder x_j and the holomorphic part of L_f(phi_s^{i x_j}) on it.

    With p = 1 - s and z_n = 2 pi n + i x_0, level j's sum is
    sum_n a(n) E_p(z_n + h_j), h_j = i (x_j - x_0), and
    E_p(z + h) = sum_{k < 16} (-h)^k/k! E_{p-k}(z) (E_p' = -E_{p-1}), the
    k!/|z|^k growth of E_{p-k} cancelled by h^k/k!: |h|/|z_n| <= 0.396875/6.27
    for every n != 0 (FourierExpansion drops n = 0).  One pass over the
    summed rows of f.terms builds v_k = sum_n a(n) E_{p-k}(z_n): E_p(z_n)
    is ``_holo_terms``' kernel value, from the limit's one prepared order
    1 - s, and the lower orders follow by 15 scalar steps of
    E_{q-1} = (e^{-z} - (q-1) E_q)/z (DLMF 8.19.12).  The levels
    are then one (8 x 16) @ 16 product with ``_TAYLOR``.

    Cost per summed n on J at m = 0, besides the kernel term's own 3.3 us:
    one exponential and 15 complex steps, about 3.1 us on a 2-vCPU x86 host
    (Python 3.11).  Against mpmath for m = -1..3 at n = -2, -1, 1, 2, 5 the
    levels are within 8.1e-16 relative, the direct kernel 1.5e-12."""
    w = 1j * _LIMIT_X0
    p = order.s
    kernels, _, _ = _holo_terms(f, PhiSW(s, w), order)
    v = [0j] * _SHIFT_TERMS
    for (_, _, a, u, _), e in zip(f.terms, kernels):
        z = u + w
        # a(n) E_q runs the recurrence as well as E_q does: it is linear.
        # The steps stay fused with the sum over n: specfun's step function
        # lists each n's orders, 4 us more per limit on J's 12 terms
        term, a_exp = a * e, a * cmath.exp(-z)
        v[0] += term
        for k in range(1, _SHIFT_TERMS):
            term = (a_exp - (p - k) * term) / z
            v[k] += term
    return _LIMIT_XS, _TAYLOR @ np.array(v)


def l_value_limit(f: FourierExpansion, s):
    """Richardson-extrapolated lim_{x->0+} L_f(phi_s^{ix}) on the ladder
    x_j = _LIMIT_X0 / 2^j, j < _LIMIT_LEVELS.

    Returns (value, error_estimate); the estimate is the difference between
    the last two diagonal entries of the extrapolation table.

    The holomorphic part calls the E_{1-s} kernel once per summed n, at x_0
    (``_holo_terms``, with its cut and divergence check), and reaches every
    level by one scalar pass of the order recurrence and one matrix-vector
    product (``_ladder_holo``), within 8.1e-16 of mpmath; on J and J^2 the
    limit costs about two l_value calls.
    The cut tests level 0's partial sum, but its tail bound depends on w only
    through Re w = 0: it bounds every level's skipped tail by TAIL_CUT of that
    sum, below rounding as sum_j |c_j| = prod_i (2^i+1)/(2^i-1) = 8.13 < 9 for
    the tableau's weights.  A non-holomorphic part is the closed form of
    ``_nonholo_part`` at each level, one kernel call per n and level; a
    weakly holomorphic form makes no such call.  Every kernel call of the
    limit takes one prepared order 1 - s.
    """
    order = specfun.ExpIntOrder(1 - complex(s))
    xs, vals = _ladder_holo(f, s, order)
    vals = vals.tolist()
    if f.nonholo:
        vals = [h + _nonholo_part(f, PhiSW(s, 1j * x), order)[0] for h, x in zip(vals, xs)]
    diag = [row[-1] for row in richardson_table(vals)]
    return diag[-1], abs(diag[-1] - diag[-2])


def richardson_table(vals) -> list[list]:
    """Richardson tableau of values on a dyadic ladder x0 / 2^j whose error
    expands in integer powers of x; row i eliminates the first i powers."""
    table = [list(vals)]
    for i in range(1, len(vals)):
        prev = table[-1]
        fac = 2.0 ** i
        table.append([(fac * prev[j + 1] - prev[j]) / (fac - 1.0)
                      for j in range(len(prev) - 1)])
    return table


# ---------------------------------------------------------------------------
# Analytic seeds for compactly supported test functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InversePowerSeed:
    """seed(z) = z^{-power}; translated sum is a Hurwitz zeta."""

    power: float

    def __post_init__(self):
        if self.power <= 1:
            raise ValueError("power must exceed 1 for the decay condition")

    @property
    def decay_epsilon(self) -> float:
        return self.power - 1.0

    def value(self, z):
        return np.asarray(z, dtype=complex) ** (-self.power)

    def translated_sum(self, z):
        return specfun.hurwitz_zeta(self.power, np.asarray(z, dtype=complex))


@dataclass(frozen=True)
class LorentzianSeed:
    """seed(z) = amp/(z^2 + c^2); translated sum via a digamma difference.

    These c and amp keep |seed(z)| < |z|^{-2} on strips with Im(z) >= 1
    (|z^2 + c^2| >= |z|^2 - c^2 >= 0.75 |z|^2 there).
    """

    c = 0.5
    amp = 0.2
    decay_epsilon = 1.0

    def value(self, z):
        return self.amp / (np.asarray(z, dtype=complex) ** 2 + self.c ** 2)

    def translated_sum(self, z):
        z = np.asarray(z, dtype=complex)
        psi_plus = specfun.digamma(z + 1j * self.c)
        psi_minus = specfun.digamma(z - 1j * self.c)
        return self.amp * (psi_plus - psi_minus) / (2j * self.c)


@dataclass(frozen=True)
class ZeroSeed:
    decay_epsilon = 1.0

    def value(self, z) -> complex:
        return 0j

    def translated_sum(self, z) -> complex:
        return 0j
