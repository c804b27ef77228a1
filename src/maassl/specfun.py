"""Branch-correct special functions used by the L-series evaluators.

Everything here works in double precision with the principal branch for
non-integer powers and logarithms, arg in (-pi, pi].  Points on the negative
real axis are treated as limits from the upper half-plane, so Log(-x) carries
+i*pi for x > 0.  All functions are pure; the only internal state is a
read-only cache of Bernoulli numbers.  An ExpIntOrder, which a caller
builds for one sum (cal_EI keeps one for E_1), extends its own list of
numerators as it is used.
One truncation rule holds here, in ltest and in contour: every series and
decay window stops where a proven bound on what it drops is at most
TAIL_CUT = 2^-55 of its lead; ``tail_extent`` gives every tail's extent.
"""

from __future__ import annotations

import bisect
import cmath
import math
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

EULER_GAMMA = 0.5772156649015328606

TAIL_CUT = 2.0 ** -55  # a quarter of the unit roundoff

MAX_BERNOULLI = 64


class SpecFunError(Exception):
    """Base class for special-function failures."""


class DomainError(SpecFunError):
    """Argument outside the domain of the requested function."""


class ConvergenceError(SpecFunError):
    """An internal series or continued fraction failed to converge."""


# |z| from which E_s uses its asymptotic series near the cut (Re z <= 0 and
# |Im z| <= -Re z), the |z| up to which it uses its power series for Re z > 0
# and for Re z <= 0 off the cut, and the largest negative real part before
# e^{-z} overflows a double
_ASYMPTOTIC_RADIUS = 40.0
_CF_RADIUS = 2.0
_OFF_CUT_SERIES_RADIUS = 6.6
_SAFE_EXPONENT = 700.0
# orders below this real part step down from one in (-1, 0] (ExpIntOrder),
# one step, and one listed value, per unit of Re s, down to Re s = -5000,
# where _CF_DEPTH's measurements end
_STEP_BELOW = -2.0
# caps _ein's power series
_MAX_TERMS = 500_000


def _clean(z) -> complex:
    """Coerce to complex, mapping a -0.0 imaginary part to +0.0.

    This pins values on the negative real axis to the upper side of the
    branch cut (limit from Im z -> 0+).
    """
    z = complex(z)
    if z.imag == 0.0:
        return complex(z.real, 0.0)
    return z


def principal_power(z, a) -> complex:
    """z**a on the principal branch, negative axis approached from above."""
    z = _clean(z)
    a = complex(a)
    if z == 0:
        if a == 0:
            return 1.0 + 0j
        if a.real > 0:
            return 0j
        raise DomainError("0 raised to a power with non-positive real part")
    if a.imag == 0 and float(a.real).is_integer():
        return z ** int(a.real)
    return cmath.exp(a * cmath.log(z))


def _as_complex(z):
    """(z as complex numpy values with _clean's -0.0 rule, whether z is a scalar)."""
    za = np.asarray(z, dtype=complex)
    return za + 0j, za.ndim == 0


def _reject_poles(z, message: str) -> None:
    """Raise DomainError if any element of z is a non-positive integer."""
    if np.any((z.imag == 0) & (z.real <= 0) & (np.abs(z.real - np.round(z.real)) < 1e-12)):
        raise DomainError(message)


@lru_cache(maxsize=256)
def tail_extent(lam: float, q: float, c: float = 0.0) -> int:
    """The first M with e^c b_M/(1 - rho) <= TAIL_CUT and rho = b_{M+1}/b_M < 1,
    b_u = e^{-lam u} (1+u)^q, finite lam > 0, q, c >= 0 (else DomainError).
    The ratios fall with m, so this bounds e^c sum_{m>=M} b_m; b_u rises only
    up to u = q/lam - 1, and b_M < b_0 = 1, so it falls from M and this also
    bounds e^c int_M^inf b_u du."""
    if not (0 < lam < math.inf and 0 <= q < math.inf and 0 <= c < math.inf):
        raise DomainError(f"tail_extent needs finite lam > 0, q >= 0, c >= 0, got {lam}, {q}, {c}")

    def enough(m: int) -> bool:
        rho = math.exp(q * math.log1p(1 / (1 + m)) - lam)
        return rho < 1 and c + q * math.log1p(m) - lam * m <= math.log(TAIL_CUT * (1 - rho))

    lo, step = int((c - math.log(TAIL_CUT)) / lam), 1  # e^c b_lo >= TAIL_CUT: lo fails
    while not enough(lo + step):
        lo, step = lo + step, 2 * step
    return bisect.bisect_left(range(lo + step + 1), True, lo=lo + 1, key=enough)


# ---------------------------------------------------------------------------
# Bernoulli numbers and polynomials (exact rationals)
# ---------------------------------------------------------------------------

_bernoulli_cache: list[Fraction] = [Fraction(1)]


def bernoulli_number(n: int) -> Fraction:
    """B_n with the B_1 = -1/2 convention, cached up to MAX_BERNOULLI."""
    if n < 0:
        raise DomainError("Bernoulli index must be non-negative")
    if n > MAX_BERNOULLI:
        raise DomainError(f"Bernoulli numbers cached only up to n={MAX_BERNOULLI}")
    while len(_bernoulli_cache) <= n:
        m = len(_bernoulli_cache)
        # sum_{j=0}^{m} C(m+1, j) B_j = 0
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * _bernoulli_cache[j]
        _bernoulli_cache.append(-acc / (m + 1))
    return _bernoulli_cache[n]


def bernoulli_poly_coeffs(n: int) -> list[Fraction]:
    """Coefficients of B_n(z), descending in z (z^n first)."""
    return [math.comb(n, k) * bernoulli_number(n - k) for k in range(n, -1, -1)]


def bernoulli_poly(n: int, z):
    """B_n(z) by Horner's rule on its exact rational coefficients; z is a
    scalar (complex returned) or an ndarray."""
    if n < 0:
        raise DomainError("Bernoulli index must be non-negative")
    z, scalar = _as_complex(z)
    out = np.polyval([float(c) for c in bernoulli_poly_coeffs(n)], z)
    return complex(out) if scalar else out


# B_{2j} as floats for j = 0..12, read by every asymptotic series below
_B2J = [float(bernoulli_number(2 * j)) for j in range(13)]

_STIRLING_SHIFT = 6.0
# B_{2j} / (2j (2j-1)) for j = 12..1, Horner order for the Stirling series
_STIRLING = [_B2J[j] / (2 * j * (2 * j - 1)) for j in range(12, 0, -1)]
_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)


def _gamma(z: complex) -> complex:
    """Complete Gamma(z): the Stirling series (DLMF 5.11.1) after shifting to
    Re z >= 6; for Re z < 1/2 reflection (DLMF 5.5.3) with sin(pi z) reduced
    by n = round(Re z) first, since unreduced it loses accuracy near poles."""
    if z.real < 0.5:
        n = round(z.real)
        sin = cmath.sin(math.pi * (z - n))
        if sin == 0:
            raise DomainError("Gamma has a pole at non-positive integers")
        return (-1) ** n * math.pi / (sin * _gamma(1 - z))
    prod = 1.0
    while z.real < _STIRLING_SHIFT:
        prod *= z
        z += 1
    zinv2 = 1.0 / (z * z)
    series = 0j
    for c in _STIRLING:
        series = series * zinv2 + c
    log_gamma = (z - 0.5) * cmath.log(z) - z + _HALF_LOG_2PI + series / z
    return cmath.exp(log_gamma) / prod


# ---------------------------------------------------------------------------
# Incomplete gamma and the generalized exponential integral
# ---------------------------------------------------------------------------

def _series_terms(r: int) -> int:
    """The first K > r + 4 with r^K/K! (K+1)/(K+1-r) <= TAIL_CUT, a bound on
    sum_{k>=K} |z|^k/k! at |z| <= r, whose ratios are at most r/(K+1)."""
    k, term = 0, 1.0
    while k <= r + 4 or term * (k + 1) / (k + 1 - r) > TAIL_CUT:
        k += 1
        term *= r / k
    return k


# _exp_int_series's term count for each ceil(|z|) it can be given
_SERIES_TERMS = [_series_terms(r) for r in range(int(_ASYMPTOTIC_RADIUS) + 1)]
# terms of log G that _exp_int_series sums within 1/8 of a positive integer
# order: the first k with (1/8)^k <= TAIL_CUT, 19
_NEAR_TERMS = math.ceil(math.log(TAIL_CUT) / math.log(0.125))

# _exp_int_cf's depth max(F, A/u + B), u = (|z| + Re z)/2 = |z| cos^2(arg z / 2),
# with (A, B, F) from the first row whose edge is at least |s|.  Each row is
# an upper envelope of Lentz's step count (to a step factor within 2 eps of
# 1) over the continued fraction's region, |z| >= 2 and |arg z| < 3 pi/4,
# and over every arg s with |s| in the row's band, for |s| <= 5000.  A and B
# were fitted on |z| < 40 (rounded up, B raised by 1; checked on 770k random
# points).  Beyond |z| = 40 B alone falls short for 8 < |s| <= 32, and the
# floor F is one more than the most steps of any point A/u + B misses among
# 2 million random points with |z| in [40, 10^4]; for |s| > 128 the count
# peaks near z = -s, where b_0 = z + s vanishes (770 seen; F = 800).  The
# count falls like 1/u, grows with |Im s| and past |s| ~ 100 falls again.
_CF_DEPTH = ((1.0, 97, 8, 0), (2.0, 111, 8, 0), (3.0, 123, 7, 0), (4.0, 144, 7, 0),
             (6.0, 177, 6, 0), (8.0, 228, 6, 0), (12.0, 319, 4, 8), (16.0, 440, 3, 10),
             (24.0, 725, -1, 13), (32.0, 1089, -4, 16), (48.0, 1585, 38, 0),
             (128.0, 930, 316, 0), (math.inf, 0, 19, 800))


class ExpIntOrder:
    """An order s of E_s(z), prepared once for every z it is evaluated at:
    exp_int_E, exp_int_E_scaled and exp_int_E_orders take it in place of s,
    and a sum over many z builds one and drops it when the sum ends.

    It holds the checked s, its ``_CF_DEPTH`` row (A, B, F), the continued
    fraction's numerators a_i = i (c - i), c = 1 - s, built as far as the
    deepest point asked for needs, and the order rule: ``steps`` down to s
    from q = s + steps, each E_{q-1} = (e^{-z} - (q-1) E_q)/z
    (``_order_steps``) taken on e^z E_q, with 1 for e^{-z}, and the
    ``start`` order that gives E_q.  A non-positive integer order steps
    from q = 1, where E_1 has weight q - 1 = 0, so it needs no start order
    and its first step is E_0(z) = e^{-z}/z.  Any other order with
    Re s < -2 (``_STEP_BELOW``) steps from q = s + floor(-Re s), whose real
    part lies in (-1, 0], and ``start`` is the ExpIntOrder of q.  Every
    other order takes steps = 0 and start None, and its own method.
    Nothing is kept between objects: a plain-number call builds one for
    itself.  On a shared 2-vCPU x86 host (Python 3.11) building one costs
    0.7-1.1 us, and extending its numerators about 0.14 us each: 3.1 us
    for the 22 that z = 2 pi + 0.3 + 0.7i needs at s = 0.5.

    DomainError if s is not finite or Re s < -5000."""

    __slots__ = ("s", "start", "steps", "_rule", "_numerators")

    def __init__(self, s):
        s = complex(s)
        if not cmath.isfinite(s) or s.real < -5000:
            raise DomainError("E_s(z) needs a finite order s with Re s >= -5000")
        self.s = s
        integer = s.imag == 0 and s.real <= 0 and s.real.is_integer()
        # an integer order steps from q = 1, where E_1 has weight q - 1 = 0
        self.steps = 1 - int(s.real) if integer else (
            math.floor(-s.real) if s.real < _STEP_BELOW else 0)
        self.start = ExpIntOrder(s + self.steps) if self.steps and not integer else None
        size = abs(s)
        for edge, a, b, floor in _CF_DEPTH:
            if size <= edge:
                break
        self._rule = (a, b, floor)
        self._numerators = []

    def depth(self, z: np.ndarray) -> np.ndarray:
        """_exp_int_cf's depth for each element of z, an int ndarray of z's
        shape.  A scalar z takes the same depth inside ``_exp_int_scalar``."""
        a, b, floor = self._rule
        return np.maximum((a / (0.5 * (abs(z) + z.real)) + b).astype(int), floor)

    def numerators(self, depth: int) -> list:
        """[a_0, a_1, ..., a_depth] at least, a_i = i (c - i), extended in
        place the first time a depth asks for more."""
        nums = self._numerators
        if len(nums) <= depth:
            c = 1.0 - self.s
            nums.extend([i * (c - i) for i in range(len(nums), depth + 1)])
        return nums


def _exp_int_series(order: ExpIntOrder, z):
    """E_s(z) by the everywhere-convergent continuation formula
    lead - sum_{k != skip} (-z)^k / (k! (1-s+k)) at a Python complex z, by
    Horner's rule over the terms k < K = _SERIES_TERMS[ceil(|z|)]: the
    dropped |z|^k/k! sum to at most TAIL_CUT, each over |1-s+k| >= 1/8.

    Within 1/8 of an integer n >= 1, with e = n - s:
    lead - (-z)^{n-1}/((n-1)! e), the lead and the term k = n-1 taken
    together, as their poles 1/e cancel, and that term is skipped.  With
    Gamma(1-s) = (-1)^{n-1} G(e)/((n-1)! e), G(e) = Gamma(1+e) /
    prod_{j<n}(1 - e/j), the pair is (-z)^{n-1}/(n-1)! (e^{e h} - 1)/e,
    h = log G(e)/e - Log z, log G(e) = sum_k c_k e^k (``_log_g_coeffs``);
    at e = 0 it is (-z)^{n-1}/(n-1)! (psi(n) - Log z), and s stays the int
    n so that 1-s+k is exact.  Elsewhere lead = z^{s-1} Gamma(1-s), and no
    term is skipped.
    """
    s = order.s
    n = round(s.real)
    e = n - s
    if n >= 1 and abs(e) < 0.125:
        # Horner over the c_k whose |e|^k stays above TAIL_CUT (c_1 alone at e = 0)
        k = min(_NEAR_TERMS, math.ceil(math.log(TAIL_CUT) / math.log(abs(e)))) if e else 1
        h = reduce(lambda acc, c: acc * e + c, _log_g_coeffs(n)[-k:], 0j) - cmath.log(z)
        # e^x - 1 = 2 e^{x/2} sinh(x/2), without cancellation at small x
        pair = 2 * cmath.exp(e * h / 2) * cmath.sinh(e * h / 2) / e if e else h
        lead = ((-z) ** (n - 1) / math.factorial(n - 1)) * pair
        skip = n - 1
        s = s if e else n
    else:
        a = s - 1  # principal_power's rule: integer powers exactly
        exact = a.imag == 0 and a.real.is_integer()
        lead = (z ** int(a.real) if exact else cmath.exp(a * cmath.log(z))) * _gamma(1 - s)
        skip = -1
    k = _SERIES_TERMS[math.ceil(abs(z))]
    # acc = d_0 + (-z/1)(d_1 + (-z/2)(d_2 + ...)), d_j = 1/(1-s+j) or 0 at skip
    acc = 0.0
    minus_z = -z
    if skip < 0:
        for j in range(k, 0, -1):
            acc = acc * (minus_z / j) + 1.0 / (j - s)
        return lead - acc
    for j in range(k, 0, -1):
        acc = acc * (minus_z / j)
        if j - 1 != skip:
            acc = acc + 1.0 / (j - s)
    return lead - acc


@lru_cache(maxsize=64)
def _log_g_coeffs(n: int) -> list:
    """c_k of log G(e) = sum_{k >= 1} c_k e^k for _exp_int_series, highest k
    first, k <= _NEAR_TERMS: log Gamma(1+e) = -gamma e + sum_{k>=2} (-1)^k
    zeta(k) e^k/k and -log(1 - e/j) = sum_k (e/j)^k/k, so c_1 = psi(n) and
    c_k = ((-1)^k zeta(k) + sum_{j<n} j^-k)/k.  The series converges for
    |e| < 1; at |e| < 1/8, |e|^k falls below TAIL_CUT by k = _NEAR_TERMS."""
    high = [((-1) ** k * _hurwitz_em(complex(k), 1.0).real + sum(j ** -k for j in range(1, n))) / k
            for k in range(_NEAR_TERMS, 1, -1)]
    return high + [-EULER_GAMMA + sum(1.0 / j for j in range(1, n))]


def _exp_int_cf(order: ExpIntOrder, z):
    """e^z E_s(z) = 1 / (b_0 + a_1/(b_1 + a_2/(b_2 + ...))), b_i = z + s + 2i,
    a_i = -i(i - 1 + s): the continued fraction for Gamma(1-s, z) e^z z^{s-1},
    evaluated bottom-up, t <- a_i/(b_i + t) from t = 0 at i = order.depth(z),
    so no step tests convergence, with the a_i read from the order.  z is
    an ndarray (``_exp_int_scalar`` runs the same steps on a scalar), and
    every element runs at its own depth: sorted deepest first, step i
    updates the prefix whose depth is at least i, so an element's bits do
    not depend on its batch.  It runs at Re s >= -2 only, and never at a
    non-positive integer order (``ExpIntOrder``): below, it lost digits to
    rounding at any depth where |z| is small (about 1e-11 at s = -8.5 and
    1e-7 at s = -12.5 for |z| = 2, no digits left at s = -20.5)."""
    s = order.s
    depth = order.depth(z)
    # one depth for the whole batch (a row's floor) needs no sort
    top = int(depth.max())
    nums = order.numerators(top)
    rank = None if depth.min() == top else np.argsort(-depth, kind="stable")
    if rank is None:
        b = z + (s + 2 * top)
    else:
        depth, z = depth[rank], z[rank]
        b = z + (s + 2.0 * depth)
    t = np.zeros_like(b)
    tmp = np.empty_like(b)
    # step i runs on the n elements of depth >= i, a prefix of the sorted batch
    joining = np.bincount(depth).tolist()
    n = 0
    for i in range(top, 0, -1):
        n += joining[i]
        np.add(b[:n], t[:n], out=tmp[:n])
        np.divide(nums[i], tmp[:n], out=t[:n])
        b[:n] -= 2.0
    if rank is None:
        return 1.0 / (b + t)
    out = np.empty_like(b)
    out[rank] = 1.0 / (b + t)
    return out


def _exp_int_asymptotic(order: ExpIntOrder, z):
    """e^z E_s(z) ~ 1/z sum_k (-1)^k (s)_k / z^k, for a Python complex z of
    large |z|, by Horner's rule over the terms k <= K, K where the terms stop
    falling or drop below TAIL_CUT (no proven bound: the series diverges)."""
    s = order.s
    az = abs(z)
    k, term = 0, 1.0
    while term >= TAIL_CUT and k < 199:
        ratio = abs(s + k) / az
        if ratio > 1.0:
            break
        k, term = k + 1, term * ratio
    # acc = 1 - (s/z)(1 - ((s+1)/z)(1 - ...))
    inv_z = 1.0 / z
    acc = 1.0
    for j in range(k - 1, -1, -1):
        acc = 1.0 - (s + j) * inv_z * acc
    return inv_z * acc


def _order_steps(q, z, ez, e, count: int) -> list:
    """[e, E_{q-1}(z), ..., E_{q-count+1}(z)] from e = E_q(z) and ez = e^{-z}
    by E_{q-1} = (e^{-z} - (q-1) E_q)/z (DLMF 8.19.12), for z a Python
    complex or an ndarray: the one recurrence of ExpIntOrder's steps down
    and of exp_int_E_orders.  The steps are linear in (e, ez), so ez = 1
    steps the scaled values e^z E_q."""
    rows = [e] * count
    for j in range(1, count):
        e = rows[j] = (ez - (q - j) * e) / z
    return rows


# the z types that exp_int_E and exp_int_E_scaled hand straight to
# _exp_int_scalar with a prepared order; any other z goes through _exp_int
_FLAT = (complex, float)


def _exp_int_scalar(order: ExpIntOrder, z, scaled: bool) -> complex:
    """E_s(z), or e^z E_s(z) if scaled, for a prepared order and a Python
    complex or float z: the guards, the -0.0 rule, the method radii, and the
    continued fraction's tabled depth and bottom-up steps, in one frame; an
    order that steps down (``ExpIntOrder``) takes its start order's e^z E_q
    from a second call, or 0 at q = 1, and steps it with e^{-z} = 1."""
    if z.imag == 0:
        z = complex(z.real, 0.0)  # -0.0: the upper side of the cut
    az = abs(z)
    if az == 0 or not cmath.isfinite(z):
        raise DomainError("E_s(z) needs a finite non-zero z")
    if not scaled and z.real < -_SAFE_EXPONENT:
        raise OverflowError("E_s(z) exceeds safe double-precision exponent range")
    if order.steps:
        value = _exp_int_scalar(order.start, z, True) if order.start else 0j
        value = _order_steps(order.s + order.steps, z, 1.0, value, order.steps + 1)[-1]
        return value if scaled else cmath.exp(-z) * value
    # off the cut the continued fraction keeps full relative accuracy at
    # any |z|, and the power series is cheaper below |z| = 2 (Re z > 0,
    # beyond which its terms cancel) or 6.6 (Re z <= 0); near the cut
    # the fraction degrades and the series terms do not alternate, up to
    # |z| = 40, where the asymptotic series takes over
    if z.real > 0 or abs(z.imag) > -z.real:
        if az >= (_CF_RADIUS if z.real > 0 else _OFF_CUT_SERIES_RADIUS):
            # _exp_int_cf's steps at ExpIntOrder.depth's depth; a comparison,
            # not max, which costs a call 0.4 us
            a, b, floor = order._rule
            depth = int(a / (0.5 * (az + z.real)) + b)
            if depth < floor:
                depth = floor
            nums = order._numerators
            if len(nums) <= depth:
                order.numerators(depth)
            b = z + (order.s + 2 * depth)
            t = 0.0
            for a in nums[depth:0:-1]:
                t = a / (b + t)
                b = b - 2.0
            value = 1.0 / (b + t)
            return value if scaled else cmath.exp(-z) * value
    elif az >= _ASYMPTOTIC_RADIUS:
        value = _exp_int_asymptotic(order, z)
        return value if scaled else cmath.exp(-z) * value
    value = _exp_int_series(order, z)
    return cmath.exp(z) * value if scaled else value


def _exp_int(order, z, scaled: bool):
    """E_s(z), or e^z E_s(z) if scaled, for exp_int_E and exp_int_E_scaled,
    with order a number s or z an ndarray (a prepared order with a Python
    scalar takes ``_exp_int_scalar`` from the entry point): z is checked
    once, and an order that steps down (``ExpIntOrder``) steps its start
    order's e^z E_q (``_exp_int_batch``), or 0 at q = 1, with e^{-z} = 1."""
    if not isinstance(order, ExpIntOrder):
        order = ExpIntOrder(order)
    # np.ndim(z) would build an array from a Python scalar, about 1.5 us a
    # call; getattr reads the same number (0 for scalars) in 40 ns
    if not getattr(z, "ndim", 0):
        return _exp_int_scalar(order, complex(z), scaled)
    z = np.asarray(z, dtype=complex) + 0j
    shape = z.shape
    z = z.ravel()
    if not z.size:
        return z.reshape(shape)
    az = abs(z)
    if az.min() == 0 or not np.isfinite(az).all():
        raise DomainError("E_s(z) needs a finite non-zero z")
    if not scaled and z.real.min() < -_SAFE_EXPONENT:
        raise OverflowError("E_s(z) exceeds safe double-precision exponent range")
    if not order.steps:
        return _exp_int_batch(order, z, az, scaled).reshape(shape)
    value = _exp_int_batch(order.start, z, az, True) if order.start else np.zeros_like(z)
    value = _order_steps(order.s + order.steps, z, 1.0, value, order.steps + 1)[-1]
    return (value if scaled else value * np.exp(-z)).reshape(shape)


def _exp_int_batch(order: ExpIntOrder, z: np.ndarray, az: np.ndarray, scaled: bool):
    """_exp_int's values at an order that does not step down, for a checked
    flat ndarray z with az = |z|: the points that ``_exp_int_scalar``'s rule
    gives to the continued fraction run as one ``_exp_int_cf`` batch, and
    every other point runs alone through ``_exp_int_scalar``."""
    # _exp_int_scalar's continued-fraction points: off the cut, past its radius
    cf = (abs(z.imag) > -z.real) & (az >= np.where(z.real > 0, _CF_RADIUS, _OFF_CUT_SERIES_RADIUS))
    # a product, not *=, whose complex loop rounds by the array's size; every
    # point of a contour remainder's ray is in the batch, which then needs no
    # indexing (about 6 us of a 110 us call on a shared 2-vCPU x86 host)
    if cf.all():
        value = _exp_int_cf(order, z)
        return value if scaled else value * np.exp(-z)
    out = np.empty_like(z)
    if cf.any():
        value = _exp_int_cf(order, z[cf])
        out[cf] = value if scaled else value * np.exp(-z[cf])
    out[~cf] = [_exp_int_scalar(order, v, scaled) for v in z[~cf].tolist()]
    return out


def exp_int_E_scaled(s, z):
    """e^z E_s(z), with E_s the generalized exponential integral on the
    principal branch (exp_int_E); s is a number or an ExpIntOrder, z a
    scalar (complex returned) or an ndarray (an ndarray of its shape).  It
    behaves like 1/z for large |z|, and has no OverflowError: the
    one-dimensional remainder's head, its only caller, takes its exponential
    from it separately."""
    if z.__class__ in _FLAT and isinstance(s, ExpIntOrder):
        return _exp_int_scalar(s, z, True)
    return _exp_int(s, z, True)


def exp_int_E(s, z):
    """Generalized exponential integral E_s(z) on the principal branch; z is
    a scalar (complex returned) or an ndarray (an ndarray of its shape):
    e^{-z} exp_int_E_scaled(s, z).  s is a number or an ExpIntOrder: a sum
    that evaluates one order at many z builds the order once and passes it
    to every call, which then skips the order's check, its depth row and
    the continued fraction's numerators; the values are bitwise the same.
    Such a call with a Python complex or float z runs in one frame from
    here (``_exp_int_scalar``), and one more for a start order's value.
    At s = 0.5 on a shared 2-vCPU x86 host
    (Python 3.11, median of 8 processes) a call costs about 5.9 us through
    an order at z = 2 pi + 0.3 + 0.7i (the continued fraction, 22 steps),
    12 us with the plain number, and 19 us through an order at
    z = -2 pi + 0.3 + 0.7i (the power series near the cut, 44 terms).

    The negative real axis is the continuous extension from Im z > 0.  One
    rule picks the method for each order and point.  A non-positive integer
    order steps down from E_0(z) = e^{-z}/z, the first step from q = 1,
    and any other order with Re s < -2 from s + floor(-Re s), whose real
    part lies in (-1, 0], at the same z: each step is E_{q-1} = (e^{-z} -
    (q-1) E_q)/z (DLMF 8.19.12) on e^z E_q, with 1 for e^{-z}
    (``ExpIntOrder``).  Every other
    order, a start order among them, takes a method by point.  Near the
    cut (Re z <= 0 and |Im z| <= -Re z) it is the power series for
    |z| < 40 and the asymptotic series beyond.  Off the cut it is the
    power series for |z| < 2 (Re z > 0) or |z| < 6.6 (Re z <= 0), and the
    continued fraction everywhere else, out to any |z|.  An ndarray runs
    its continued-fraction points as one batch and every other point
    alone, as a scalar, and steps every point elementwise.  The continued
    fraction runs each point at its own tabled depth, max(F, A/u + B) with
    u = (|z| + Re z)/2 and (A, B, F) read by |s| (``_CF_DEPTH``): at least
    Lentz's step count to a step factor within 2 eps of 1.  So no point's
    value depends on the batch it comes in.

    Measured against mpmath's e^z E_s(z) on both sides of each radius, in
    both half-planes and on the cut, out to |z| = 2,000, for s in
    {1, 2, 3, 0.5, -1.5, 2.5 + i, 3i}, and on 400 random points with
    |z| <= 50, Re s in [-3, 3] and |Im s| <= 1 (those below Re s = -2
    step down), the relative error of each method is at most: the power
    series 1.5e-12 for a scalar and an ndarray alike (s = 2.5 + i,
    z = -28.8 + 26.3i), just inside |z| = 40 near the cut, where it
    cancels most (1.1e-12 on the random points); the continued fraction
    1.3e-14 (on 600 random points with Re s in [-2, 3], |Im s| <= 1 and
    |z| in [2, 50]), and 4.0e-16 off the cut from |z| = 40 to 5,000 for
    twelve orders up to |s| = 14 (``test_exp_int_E_far_off_cut_vs_mpmath``
    has them); the asymptotic series 1.6e-13 (s = 3, z = -41).  E_s is
    e^{-z} times that, a few ulps more.  With the steps down, on 2,000
    random points per band and 3,000 on its edge Re z = +-0.001, with
    |Im z| <= 8, E_s reads 1.5e-13 for real s in [-30, -8] and Re z in
    (0, 20] and 1.4e-13 for Re s in [-8, -1], |Im s| <= 0.5 and Re z in
    (0, 40], both on that edge (5.3e-14 and 1.3e-14 inside), and 1.9e-9
    (2.9e-9 at integer s) for real s in [-30, -2] and Re z in [-20, 0),
    where E_s cancels as its closed form at integer s,
    (-s)! e^{-z} z^{s-1} sum_{k<=-s} z^k/k!, does; with the continued
    fraction at every order below -2 it read 4.0, 3.3e-12 and 2.5 on the
    same points.  Near
    a positive integer order n the power series' lead and its term
    k = n - 1 both grow like 1/(s - n), and the series sums them as one
    term within 1/8 of n (``_exp_int_series``): at z = 1.981 it reads
    2.5e-15 at s = 3.0001, where they cost 5.7e-10 apart, and on 200
    random points within 1/8 of n = 1..6 with |z| < 20, on the cut and off
    it, 3.8e-14 (8.8e-4 apart).  Farther from n they cost at most 1.7e-12
    (z = 1.981, s = 2.957) and are kept apart.  The radii suit small |s|
    only: near the cut the power series reads 2.95e-12 at s = -1.5 + 4i,
    z = 39e^{2.36i}, the asymptotic series 3.5e-12 at s = 3 + 5i,
    z = 41e^{-3i}, and at z = -41 8.3e-12 at s = 3 - 5i and 2.1e-11 at
    s = 5.

    DomainError if s or any element is not finite or an element is 0 (for
    an ExpIntOrder, s is checked when it is built), OverflowError if any
    has Re z < -700.
    """
    if z.__class__ in _FLAT and isinstance(s, ExpIntOrder):
        return _exp_int_scalar(s, z, False)
    return _exp_int(s, z, False)


def exp_int_E_orders(s, z, count: int) -> list:
    """[E_s(z), E_{s-1}(z), ..., E_{s-count+1}(z)], count >= 1 entries; s is
    a number or an ExpIntOrder and z a scalar or an ndarray, as for
    exp_int_E, and so is each entry.

    E_s(z) is one exp_int_E call; each lower order comes from the one above
    by the recurrence E_{q-1} = (e^{-z} - (q-1) E_q)/z (DLMF 8.19.12,
    ``_order_steps``).  Against mpmath on 600 random points with
    |arg z| < 1.5, |z| in [0.02, 45], Re s in [-3, 4] and |Im s| <= 2, the
    ten orders below s are within 3.2e-13 relative, twice the worst of E_s
    itself there (1.7e-13).  At small |z| a step from Re q > 1 cancels,
    e^{-z} against (q-1) E_q, both near 1: from s = 3.9 + i at z = 0.03
    the orders from s - 3 down read 1.1e-11.  ValueError if count < 1."""
    if count < 1:
        raise ValueError(f"exp_int_E_orders needs count >= 1, got {count}")
    order = s if isinstance(s, ExpIntOrder) else ExpIntOrder(s)
    if not getattr(z, "ndim", 0):
        z = complex(z)
    ez = cmath.exp(-z) if isinstance(z, complex) else np.exp(-z)
    return _order_steps(order.s, z, ez, exp_int_E(order, z), count)


def inc_gamma_upper(r, z) -> complex:
    """Upper incomplete gamma Gamma(r, z) = int_z^inf e^{-t} t^{r-1} dt,
    computed as z^r E_{1-r}(z) (DLMF 8.19.1) for z != 0."""
    r = complex(r)
    z = _clean(z)
    if z == 0:
        if r.real <= 0:
            raise DomainError("Gamma(r, 0) diverges for Re(r) <= 0")
        return _gamma(r)
    return principal_power(z, r) * exp_int_E(1 - r, z)


def upper_gamma_int(m: int, x):
    """Gamma(m, x) for integer m >= 1 in closed form; scalar or ndarray x."""
    if m < 1:
        raise DomainError("integer order must be >= 1")
    xa = np.asarray(x, dtype=complex)
    term = np.ones_like(xa)
    acc = term.copy()
    for j in range(1, m):
        term = term * xa / j
        acc = acc + term
    out = math.factorial(m - 1) * np.exp(-xa) * acc
    return complex(out) if out.ndim == 0 else out


def _ein(w: float) -> float:
    """Complementary exponential integral Ein(w) for real w, stopped where the
    terms after k > |w| + 4 (ratios <= |w|/(k+1)) sum to <= TAIL_CUT of the sum."""
    term = 1.0
    acc = 0.0
    for k in range(1, _MAX_TERMS):
        term *= -w / k
        contrib = -term / k
        acc += contrib
        if k > abs(w) + 4 and abs(contrib) * abs(w) / (k + 1 - abs(w)) <= abs(acc) * TAIL_CUT:
            return acc
    raise ConvergenceError("Ein series did not converge")


# cal_EI's E_1, prepared once for every call; its numerators grow to the
# fraction's depth at the smallest w >= 2 asked for, at most 56 (w = 2)
_ORDER_ONE = ExpIntOrder(1)


def cal_EI(w: float) -> complex:
    """The principal-value exponential integral EI(w) = int_w^inf e^{-t} dt/t.

    E_1(w) for real w > 0 and -Ei(-w) (purely real) for real w < 0.  Computed
    through the Ein power series on the negative side, independently of
    exp_int_E.
    """
    w = complex(w)
    if w.imag:
        raise DomainError("EI(w) is defined here for real w only")
    w = w.real
    if w == 0:
        raise DomainError("EI(0) diverges")
    if w > 0:
        return exp_int_E(_ORDER_ONE, w)
    return complex(_ein(w) - math.log(-w) - EULER_GAMMA)


# ---------------------------------------------------------------------------
# Hurwitz and Lerch zeta, digamma, polygamma
# ---------------------------------------------------------------------------

def _hurwitz_em(s: complex, z, regular: bool = False):
    """Euler-Maclaurin for zeta(s, z) after one shift N taken from the
    smallest Re z; z is a scalar (complex returned) or an ndarray.  regular
    gives zeta*(s, z) = zeta(s, z) - 1/(s-1) instead: the pole term
    (z+N)^{1-s}/(s-1) is taken as expm1((1-s) Log(z+N))/(s-1), so the
    pole's constant is never rounded, and at s = 1, where only regular
    applies, as -Log(z+N), which gives zeta*(1, z) = -psi(z)."""
    z, scalar = _as_complex(z)
    _reject_poles(z, "Hurwitz zeta and digamma undefined at non-positive integers")
    # For Re(s) < 0 the direct sum grows like shift^{|s|} while the result
    # stays O(1); a short shift with a longer tail expansion avoids the
    # cancellation.
    target, order = (6.0, 12) if s.real < -0.5 else (16.0, 8)
    shift = int(max(0.0, target - np.min(z.real, initial=target))) + 1
    # principal_power's rule: a real integer s gives an int exponent, and
    # numpy takes z ** -1 (digamma's every term) as a reciprocal
    e = -int(s.real) if s.imag == 0 and s.real.is_integer() else -s
    if scalar:
        acc = sum((z + n) ** e for n in range(shift))
    else:
        # one grid power, summed row by row as the scalar loop adds
        acc = ((z + np.arange(shift).reshape((-1,) + (1,) * z.ndim)) ** e).sum(axis=0)
    zM = z + shift
    base = zM ** e
    if regular:
        pole = np.expm1((1 - s) * np.log(zM)) / (s - 1) if s != 1 else -np.log(zM)
    else:
        pole = zM ** (e + 1) / (s - 1)
    acc = acc + pole + base / 2
    poch = s  # rising factorial (s)(s+1)...(s+2j-2)
    zM2 = zM * zM
    fac = base / zM  # zM^{-s-1}
    for j in range(1, order + 1):
        acc = acc + _B2J[j] / math.factorial(2 * j) * poch * fac
        poch *= (s + 2 * j - 1) * (s + 2 * j)
        fac = fac / zM2
    return complex(acc) if scalar else acc


def hurwitz_zeta(s, z):
    """Hurwitz zeta(s, z), s != 1; z is a scalar (complex returned) or an
    ndarray.

    At s = 1 - m for an integer m >= 1 it is the polynomial -B_m(z)/m
    (DLMF 25.11.14); s < -63 raises DomainError, as B_m is kept only up to
    MAX_BERNOULLI = 64.  Measured against mpmath, relative to
    max(1, |zeta|): 1.1e-15 for every m on [i, i+1]; 3.6e-14 for m <= 20 on
    (0, 1] and 5.2e-12 on |Re z|, |Im z| <= 5, where for m > 20 Horner's
    rule cancels among B_m's large coefficients (0.31 on (0, 1], 62 on the
    square, at m <= 40).  ``_hurwitz_em`` is worse on each of these.
    Elsewhere it is ``_hurwitz_em``, whose shifted direct sum and pole term
    cancel at negative s: on [i, i+1] at real s in (-3, -2) it reads up to
    1.5e-12 of max(1, |zeta|) (s = -2.9).  z at a non-positive integer
    raises DomainError at every s."""
    s = complex(s)
    if abs(s - 1) < 1e-13:
        raise DomainError("Hurwitz zeta has a pole at s = 1")
    if s.imag == 0 and s.real < 1 and s.real.is_integer():
        _reject_poles(_as_complex(z)[0], "Hurwitz zeta undefined at non-positive integers")
        m = 1 - int(s.real)
        return -bernoulli_poly(m, z) / m
    return _hurwitz_em(s, z)


# lerch_sum's Taylor tail: |z - c| <= 1/2 and |c + m| >= 4 keep every
# (z - c)/(c + m) within 1/8
_LERCH_RADIUS = 4.0


@lru_cache(maxsize=64)
def _binomials(a: complex) -> np.ndarray:
    """C(a, j) for j < J, J the first j with |C(a, j)| 8^-j / (1 - r/8) <= TAIL_CUT,
    r = max(1, |a-j|/(j+1)), a bound on the rest as every later |C(a, i+1)/C(a, i)|
    is at most r; a + 1 for an integer a >= 0, where C(a, j) ends."""
    out, c, j = [], 1.0 + 0j, 0
    while abs(c) * 8.0 ** -j > TAIL_CUT * (1 - max(1.0, abs(a - j) / (j + 1)) / 8):
        out.append(c)
        c = c * (a - j) / (j + 1)
        j += 1
    out = np.array(out)
    out.flags.writeable = False
    return out


def _powers(x: np.ndarray, n: int) -> np.ndarray:
    """x^j for j < n as the rows of an (n, x.size) array, by doubling: each
    column from its own element alone, in O(log n) array products."""
    out = np.empty((n, x.size), dtype=x.dtype)
    out[0] = 1.0
    k = 1
    while True:
        step = min(k, n - k)
        if step <= 0:
            return out
        np.multiply(out[:step], x, out=out[k:k + step])
        k += step
        x = x * x


def _high_half(x: float) -> float:
    """x rounded to 26 significant bits by Veltkamp's split, so that its
    product with any integer below 2^27 is exact."""
    c = x * 134217729.0  # 2^27 + 1
    return c - (c - x)


@lru_cache(maxsize=8)
def lerch_phases(w: complex, count: int) -> np.ndarray:
    """e^{imw} for m < count, read-only (cached: a segment quadrature calls
    lerch_sum with one w at every level).  w = h + l with h the high halves
    of Re w and Im w (``_high_half``), so m h is exact and the only rounded
    product, m l, errs by about eps 2^-26 m |w|; np.exp(1j * w * m) errs by
    eps m |w| in its argument, a phase error that grows with m."""
    w = complex(w)
    h = complex(_high_half(w.real), _high_half(w.imag))
    m = np.arange(count)
    out = np.exp(1j * h * m) * np.exp(1j * (w - h) * m)
    out.flags.writeable = False
    return out


def lerch_sum(s_exponent: complex, w: complex, z: np.ndarray) -> np.ndarray:
    """sum_{m>=0} e^{imw} (z+m)^{s_exponent}, vectorized over z.

    This is zeta(-s_exponent, w/(2 pi), z) in Lerch normalization; it needs
    Im(w) > 0 and finite z (DomainError otherwise), and sums the terms
    m < M = tail_extent(Im w, max(0, Re a), |Im a| pi/2), a = s_exponent,
    which drop at most TAIL_CUT of the lead |z^a| at Re z >= 0 and |z| >= 1:
    there |z| <= |z+m| <= (1+m)|z|, and arg(z+m) lies between 0 and arg z.

    Each z gets the centre c = floor(Re z) + 1/2 + i Im z, so z - c is real
    with |z - c| <= 1/2, and every node of a segment [ih, ih+1] shares one
    centre.  With a = s_exponent, the rows of one centre sum the head
    m < M0 directly, M0 the first m with Re(c+m) > 0 and |c+m| >= 4, and
    the tail by the binomial re-expansion (DLMF 25.14, 4.6.7)
        (z+m)^a = sum_j C(a, j) (c+m)^{a-j} (z-c)^j,
    whose ratio |z-c|/|c+m| is at most 1/8 there, truncated at the first
    j after which |C(a, j)| 8^-j sums to at most TAIL_CUT (15 to 22 terms
    for a in [-3.5, 2.5]; a+1 for an integer a >= 0).  The tail coefficients
        T_j = C(a, j) sum_{m>=M0} e^{imw} (c+m)^{a-j}
    take one (J, M) table of powers of 1/(c+m) and one matrix-vector
    product per centre, and each row adds sum_j T_j (z-c)^j.  A row's value
    depends only on its z, so splitting a batch leaves its bits unchanged.

    Cost: M + N M0 complex powers for N nodes of one centre (M0 = 4 at
    Im z = 1, none from Im z = 4), against N M for the direct sum.  Both
    truncations are below TAIL_CUT of their leads and the phases e^{imw}
    are exact to eps each (``lerch_phases``), so the error is the rounding
    of the terms: against an extended-precision sum of the same terms on
    the 48 nodes of quadrature levels 0 and 1 on [ih, ih+1],
    h in {0.5, 1, 1.3, 2}, for a in [-3.5, 2.5] and 0.5 + 2i and
    Im w in {0.05, 0.7, 1.5}, it stays within 1e-13 relative plus 54% of
    eps sum_m |term_m|.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if not np.isfinite(z).all():
        raise DomainError("lerch_sum needs finite z")
    w, a = complex(w), complex(s_exponent)
    mmax = tail_extent(w.imag, max(0.0, a.real), abs(a.imag) * math.pi / 2)
    m = np.arange(mmax)
    phase = lerch_phases(w, mmax)
    binom = _binomials(a)
    centres = np.floor(z.real) + 0.5 + 1j * z.imag
    single = bool((centres == centres[:1]).all())
    out = np.empty_like(z)
    for c in centres[:1] if single else np.unique(centres):
        rows = slice(None) if single else centres == c
        zc = z[rows]
        x, y = float(c.real), float(c.imag)
        m0 = min(mmax, max(0, math.ceil(-x),
                           math.ceil(math.sqrt(max(0.0, _LERCH_RADIUS ** 2 - y * y)) - x)))
        acc = ((zc[:, None] + m[:m0]) ** s_exponent * phase[:m0]).sum(axis=1)
        if m0 < mmax:
            cm = c + m[m0:]
            # one table holds the powers of 1/(c+m) and of each row's z - c;
            # a row's sum runs along its own contiguous row, in one order
            # whatever the batch
            table = _powers(np.concatenate([1.0 / cm, zc.real - x]), binom.size)
            taylor = binom * (table[:, :cm.size] @ (cm ** s_exponent * phase[m0:]))
            acc = acc + (np.ascontiguousarray(table[:, cm.size:].T) * taylor).sum(axis=1)
        out[rows] = acc
    return out


def lerch_zeta(s, a, z) -> complex:
    """Lerch zeta(s, a, z) = sum_{m>=0} e^{2 pi i m a} (z+m)^{-s}, Re(z) > 0.

    Needs Im(a) > 0, where the series decays geometrically (lerch_sum), or
    a = 0, where it is the Hurwitz zeta.  Each power is taken on the
    principal branch; at |z| < 1 the term m = 0 is taken apart, so that
    lerch_sum's tail bound holds.  For Im(a) > 0 the error is about 1e-13
    relative plus eps sum_m |term_m|, the rounding of the terms, which
    dominates where the terms cancel (small Im a, Re a != 0): lerch_zeta(-1.5,
    0.25 + 0.001i, 0.7 - 0.5i) is within 6.7e-11 relative of mpmath.
    """
    s = complex(s)
    a = complex(a)
    z = _clean(z)
    if z.real <= 0:
        raise DomainError("lerch_zeta needs Re(z) > 0")
    if a == 0:
        return hurwitz_zeta(s, z)
    if abs(z) < 1:
        return principal_power(z, -s) + cmath.exp(2j * math.pi * a) * lerch_zeta(s, a, z + 1)
    return complex(lerch_sum(-s, 2 * math.pi * a, z)[0])


def hurwitz_zeta_star(a, z):
    """zeta*(a, z) = zeta(a, z) - 1/(a-1), the part of Hurwitz zeta that is
    regular at its pole, entire in a and -psi(z) at a = 1; z is a scalar
    (complex returned) or an ndarray.

    Within 1/2 of the pole it is ``_hurwitz_em`` with the pole's constant
    taken out before rounding, so its absolute error does not grow like
    eps/|a-1| as a -> 1, as zeta(a, z)'s does; elsewhere it is
    hurwitz_zeta(a, z) - 1/(a-1).  On the segment, the constant is all that
    separates it from zeta(a, z): a pairing with a cuspidal expansion over
    [i, i+1] gives the two the same value."""
    a = complex(a)
    return _hurwitz_em(a, z, regular=True) if abs(a - 1) < 0.5 else hurwitz_zeta(a, z) - 1 / (a - 1)


def digamma(z):
    """psi(z) = -zeta*(1, z); z is a scalar (complex returned) or an ndarray."""
    return -hurwitz_zeta_star(1, z)


def polygamma(m: int, z):
    """psi^{(m)}(z) for m >= 0: digamma, or (-1)^{m+1} m! zeta(m+1, z)."""
    if m < 0:
        raise DomainError("polygamma order must be non-negative")
    if m == 0:
        return digamma(z)
    return (-1) ** (m + 1) * math.factorial(m) * hurwitz_zeta(m + 1, z)
