"""Contour-integral right-hand sides of the closed-form L-value identities.

All horizontal contours run along Im z = 1 (the segment from i to i+1, or
from ia to ia+1 in the compactly supported case).  The remainder term that
appears for expansions with a non-holomorphic part is provided in both of
its equivalent shapes: the one-dimensional coefficient form and the double
integral over the segment.  Every pairing of a form with a kernel on a
horizontal segment is ``_segment_pairing``.

One table, ``KERNEL_TABLE``, keeps every value that a pairing computes, once
per process, one entry per segment: a form's values under ("form", height)
+ ``FourierExpansion.key``, shared by every expansion with equal weight and
coefficients; the Lerch kernel e^{iwz} zeta(1-s, w/(2 pi), z) under ("lerch",
s, w, height); zeta*(1-s, z) or zeta(1-s, z) = -B_m(z)/m at s = m under
("zeta", s, height), with the Bernoulli formula's xi-part under ("bern2", k,
m, printed_constants, height); a compact seed's translated sum under
("seed", seed, height).  One rule keeps these entries' values (``_kept``):
an integrand call's, by node count, up to ``quadrature.CACHED_NODES``
nodes; quadrature gives a segment one read-only node table per level, and
the cached levels' counts differ, so the count names the nodes.  The
double-integral remainder keeps one number per xi-frequency p, the value of
its ray integral, under ("remainder", k, s, w, p), in the entry as ``RAY``.
The table holds at most ``KERNEL_TABLE_SIZE`` = 64 entries of
48 + 64 + 128 = 240 nodes, 240 KB of values, and drops the least recently
used entry first.
"""

from __future__ import annotations

import cmath
import math
from collections import OrderedDict

import numpy as np

from . import specfun
from .modforms import FourierExpansion, xi_image
from .quadrature import CACHED_NODES, integrate_decaying, integrate_segment
from .specfun import lerch_sum

TWO_PI = 2.0 * math.pi


class RegimeError(ValueError):
    """Arguments outside the validity regime of the requested formula."""


def i_power(a) -> complex:
    """i^a on the principal branch."""
    a = complex(a)
    if a.imag == 0 and float(a.real).is_integer():
        return 1j ** int(a.real)
    return cmath.exp(a * 1j * math.pi / 2)


KERNEL_TABLE_SIZE = 64
KERNEL_TABLE: OrderedDict = OrderedDict()
# the key of a remainder ray's value in its entry
RAY = "ray"


def _kept(cache: dict, zs, compute):
    """compute(zs), kept in cache under the node count of zs when it is at
    most CACHED_NODES; callers only read the values."""
    values = cache.get(zs.size)
    if values is None:
        values = compute(zs)
        if zs.size <= CACHED_NODES:
            cache[zs.size] = values
    return values


def _table_entry(key: tuple) -> dict:
    """The cache for ``_kept`` of the entry that key names, from
    ``KERNEL_TABLE``, moved to its end; the least recently used entry goes
    once the table holds more than KERNEL_TABLE_SIZE."""
    cache = KERNEL_TABLE.setdefault(key, {})
    KERNEL_TABLE.move_to_end(key)
    if len(KERNEL_TABLE) > KERNEL_TABLE_SIZE:
        KERNEL_TABLE.popitem(last=False)
    return cache


def _segment_pairing(f: FourierExpansion, kernel, height: float = 1.0, *,
                     key: tuple) -> complex:
    """int_{i height}^{i height + 1} f(z) kernel(z) dz; kernel takes an ndarray.

    key, the parameters that fix the kernel, and the height name the
    kernel's entry in ``KERNEL_TABLE``, and f's values have their own, so a
    later pairing of f on the segment pays for the kernel alone, and of any
    form with the kernel for the form alone."""
    values, kept = _table_entry(("form", height) + f.key), _table_entry(key + (height,))

    def integrand(zs):
        return _kept(values, zs, f.eval_at) * _kept(kept, zs, kernel)

    return integrate_segment(integrand, 1j * height, 1j * height + 1).value


# ---------------------------------------------------------------------------
# One ray rule, and the lemma bending the Laplace ray to a horizontal line
# ---------------------------------------------------------------------------

def _ray(g, b: complex, power) -> complex:
    """int_0^inf g(u) du along u = t d, d = e^{-i arg(b)/2}, half the
    steepest-descent angle of e^{-bu}, on [0, tail_extent(Re(b d),
    max(0, Re power))], for g(u) that behaves like e^{-bu} (u+i)^power.

    On the ray |u+i| <= 1+t, and, as Re b > 0 or b = -i|b| keeps
    |arg d| <= pi/4, |u+i| >= cos(pi/4) and the ray stays in Re u >= 0,
    off the branch point u = -i; there g decays like e^{-Re(b d) t}, where
    on the real axis it decays like e^{-Re(b) t}.  g takes an ndarray."""
    # cmath.phase(b) raises OverflowError where atan2 underflows, at a
    # subnormal arg(b); math.atan2 returns the same bits and no error
    d = cmath.exp(-0.5j * math.atan2(b.imag, b.real))
    extent = specfun.tail_extent((b * d).real, max(0.0, complex(power).real))
    return integrate_decaying(lambda t: g(t * d) * d, 0.0, extent).value


def ray_integral_bend(a: float, w) -> complex:
    """int_i^{i+inf} e^{iwz} z^{a-1} dz = i^a E_{1-a}(w).

    Valid for Im(w) > 0 with any real a, or for real w > 0 with a < 0.
    With z = i + u it is e^{-w} int_0^inf e^{iwu} (u+i)^{a-1} du, taken by
    ``_ray`` with b = -iw; the factor e^{-w} stays outside, so the
    quadrature's absolute stop meets a value near |E_{1-a}(w) e^w|, not one
    near e^{-Re w}.
    """
    w = complex(w)
    if not (w.imag > 0 or (w.imag == 0 and w.real > 0 and a < 0)):
        raise RegimeError("ray integral needs Im(w) > 0, or real w > 0 with a < 0")

    def g(u):
        return np.exp(1j * w * u) * (u + 1j) ** (a - 1.0)

    return complex(np.exp(-w) * _ray(g, -1j * w, a - 1.0))


# ---------------------------------------------------------------------------
# Main-theorem right-hand side and the remainder term
# ---------------------------------------------------------------------------

def r_remainder(f: FourierExpansion, s: float, w, form: str = "one_dim") -> complex:
    """Remainder term R(w, s) produced by the non-holomorphic part of f.

    form = "one_dim": the coefficient-series shape
        -sum_{n<0} b_f(n) beta^{1-k} int_1^inf e^{-beta t} t^{s-k}
        E_{1-s}(alpha t) dt,   beta = 4 pi |n|, alpha = 2 pi n + w,
    as a finite sum of E_s values.  At the integer weights k <= 0 that a
    non-holomorphic part needs, m = -k and t^{s-k} E_{1-s}(alpha t) =
    t^m G(t), G(t) = alpha^{-s} Gamma(s, alpha t) (DLMF 8.19.1), with
    G'(t) = -t^{s-1} e^{-alpha t}; integrating t^m e^{-beta t} by parts
    against G gives
        int_1^inf e^{-beta t} t^{s-k} E_{1-s}(alpha t) dt
            = sum_{j<=m} (m!/j!) beta^{j-m-1}
              (e^{-beta} E_{1-s}(alpha) - E_{1-s-j}(alpha + beta)),
    with alpha + beta = 2 pi |n| + w, the series side's argument.  Each n
    takes its head e^{-beta} E_{1-s}(alpha) as e^{2 pi n - w} times
    ``specfun.exp_int_E_scaled``(1-s, alpha), which neither overflows nor
    underflows early at any n, and, from one more kernel call, the orders
    E_{1-s-j}(alpha + beta) (``specfun.exp_int_E_orders``); every call
    shares one prepared order 1 - s (``specfun.ExpIntOrder``).  Against
    mpmath on 1,600 random points at k = 0, -2, -4 and -10, s in [-3, 4],
    Im w in [0, 3] and Re w from -2 pi |n| + 0.02 to 4 (|n| <= 2), it is
    within 4.3e-13 relative, and 1.1e-12 where the kernel itself is
    1.4e-12 off (E_{2.96}(1.98)); at |n| up to 110 within 4e-14.  As Re w
    nears -2 pi |n| the two terms cancel: at w = -6 + i, s = 1, n = -1 it
    is within 1.3e-15 (k = 0), 7e-16 (k = -2), 1.1e-15 (k = -4) and
    2.2e-15 (k = -10).  It needs Im w >= 0 (RegimeError otherwise).
    form = "double_integral": i^{-s} times the double integral of
        e^{itzw} t^{s-k} R_t(z, w) over z in [i, i+1], t in [1, inf),
    where the t-integral is taken in closed form:
        int_1^inf t^{s-k} e^{-alpha t} dt = E_{k-s}(alpha),
        alpha = 4 pi p - i(z+m)(w - 2 pi p),
    for xi-coefficient p and Lerch index m.  The Lerch sum and the segment
    merge into one ray: with u = x + m, alpha = 2 pi p + w + B_p u,
    B_p = -i(w - 2 pi p), and e^{2 pi i p m} = 1 cancels the phase of each
    m, so sum_m int_i^{i+1} = int_i^{i+inf} and
        R = i^{-s} sum_p c_p int_0^inf (u+i)^{s-1} E_{k-s}(2 pi p + w + B_p u) du.
    ``_remainder_ray`` takes each p's integral by ``_ray``, the rule that
    also takes ``ray_integral_bend``'s: along u = t d_p,
    d_p = e^{-i arg(B_p)/2}, half the steepest-descent angle, where
    Re alpha > 0, the ray keeps cos(arg(B_p)/2) > 0.7 from the branch point
    u = -i, and the integrand decays like e^{-Re(B_p d_p) t}, where on the
    real axis it decays like e^{-t Im w}.  Each ray depends on (k, s, w, p)
    alone and is kept in ``KERNEL_TABLE``; f scales it by c_p.  Against
    one_dim on 2,000 random points with k in {0, -2, -4}, s in [-3, 4],
    Re w in [-5.5, 4], Im w in [0.05, 3] and one or two frequencies it is
    within 1.8e-13 relative, and on 1,000 such points with k = -10 among the weights,
    where the order k - s reaches -14 and E_s steps down to it
    (``specfun.ExpIntOrder``), within 1.3e-13.  The two shapes agree
    wherever both are defined.  Both need Re w > -2 pi min|n|, where the
    t-integrals converge, and raise RegimeError otherwise.
    """
    if not f.nonholo:
        return 0j
    w = complex(w)
    k = f.weight
    if w.real <= -TWO_PI * min(-n for n in f.nonholo):
        raise RegimeError("the remainder needs Re(w) > -2 pi min|n| over the non-holomorphic part")
    if form == "one_dim":
        if w.imag < 0:
            raise RegimeError("one-dimensional remainder needs Im(w) >= 0")
        m = -k
        order = specfun.ExpIntOrder(1 - s)
        total = 0j
        for n, b in f.nonholo.items():
            beta, alpha = -4 * math.pi * n, TWO_PI * n + w
            # e^{-beta} E_{1-s}(alpha) = e^{-beta-alpha} (e^alpha E_{1-s}(alpha)),
            # -beta - alpha = 2 pi n - w: neither factor overflows at any n
            head = cmath.exp(TWO_PI * n - w) * specfun.exp_int_E_scaled(order, alpha)
            c = float(math.factorial(m))
            for j, e in enumerate(specfun.exp_int_E_orders(order, -TWO_PI * n + w, m + 1)):
                if j:
                    c *= beta / j
                total += b * c * (head - e)
        return -complex(total)
    if form == "double_integral":
        if w.imag <= 0:
            raise RegimeError("double-integral remainder needs Im(w) > 0")
        total = 0j
        for p, c in xi_image(f, conjugate_first=True).holo.items():
            kept = _table_entry(("remainder", k, s, w, p))
            if RAY not in kept:
                kept[RAY] = _remainder_ray(k, s, w, p)
            total += c * kept[RAY]
        return i_power(-s) * total
    raise ValueError(f"unknown remainder form {form!r}")


def _remainder_ray(k: int, s: float, w: complex, p: int) -> complex:
    """int_0^inf (u+i)^{s-1} E_{k-s}(2 pi p + w + B_p u) du (``r_remainder``)
    by ``_ray`` with b = B_p: |E_{k-s}(alpha)| falls like e^{-Re alpha}."""
    b = -1j * (w - TWO_PI * p)
    a = TWO_PI * p + w
    power = complex(s) - 1.0
    order = specfun.ExpIntOrder(k - s)

    def g(u):
        return (u + 1j) ** power * specfun.exp_int_E(order, a + b * u)

    return _ray(g, b, power)


def rhs_main_theorem(f: FourierExpansion, s: float, w) -> complex:
    """Contour side of the main identity for L_f(phi_s^w), Im(w) > 0.

    i^{-s} int_i^{i+1} f(z) e^{iwz} zeta(1-s, w/(2 pi), z) dz, plus the
    double-integral remainder when f has a non-holomorphic part.
    """
    w = complex(w)
    if w.imag <= 0:
        raise RegimeError("the contour formula needs Im(w) > 0")

    value = i_power(-s) * _segment_pairing(
        f, lambda zs: np.exp(1j * w * zs) * lerch_sum(s - 1.0, w, zs), key=("lerch", s, w))
    if f.nonholo:
        value += r_remainder(f, s, w, "double_integral")
    return complex(value)


# ---------------------------------------------------------------------------
# w = 0 values: every real s, and the Bernoulli closed form at integer m
# ---------------------------------------------------------------------------

def rhs_star(f: FourierExpansion, s: float) -> complex:
    """C(f, s) = i^{-s} int_i^{i+1} f(z) zeta*(1-s, z) dz + R(0, s), the
    contour side of L*(f, s) at every real s and for every expansion.

    It is the w -> 0+ limit of ``rhs_main_theorem``.  The Lerch kernel is
        e^{iwz} zeta(1-s, w/(2 pi), z) = sum_{m>=0} e^{iw(z+m)} (z+m)^{s-1}
            = Gamma(s) (-iw)^{-s} + sum_{r>=0} zeta(1-s-r, z) (iw)^r / r!,
    the Lerch transcendent's expansion about w = 0, for s not a
    non-positive integer; at s = 0 the singular part is -log(-iw) and the
    regular part tends to zeta*(1, z) = -psi(z), and at s = -1, -2, ... the
    sum tends to zeta(1-s, z) directly.  The singular part is constant in
    z, and a cuspidal expansion integrates to 0 over [i, i+1] (every term
    carries e^{2 pi i n x}, n != 0), so it drops out, as does any constant:
    the kernel's limit is zeta(1-s, z), or equally zeta*(1-s, z) =
    zeta(1-s, z) + 1/s (``specfun.hurwitz_zeta_star``), which alone has a
    limit at s = 0.  The remainder R(w, s) tends to R(0, s), which
    ``r_remainder``'s one-dim shape takes as it stands (Re w = 0 >
    -2 pi min|n|, Im w = 0).
    Independence caveat: R(0, s) is a finite sum of the E_{1-s-j}(2 pi |n|)
    values that ``ltest.l_star``'s non-holomorphic part also sums, and they
    cancel, so against l_star this certifies the segment pairing.
    Against l_star: the default suite's harmonic forms at s = -2.5..3
    within 3.9e-14 relative, and 3,000 random harmonic forms (weights 0,
    -2, -4 and -10; s uniform in [-3, 3] or within 0.1 of an integer there)
    within 4.0e-13.  At s in (3, 4) the Hurwitz kernel's own 1.5e-12
    (``specfun.hurwitz_zeta``) reaches the value (1.3e-12 at s = 3.92), and
    a form whose values near 1e8 can raise QuadratureError there, as that
    error is above the quadrature's floor.
    """
    return complex(_zeta_pairing(f, s) + r_remainder(f, s, 0j))


def _zeta_pairing(f: FourierExpansion, s: float) -> complex:
    """i^{-s} int_i^{i+1} f(z) zeta*(1-s, z) dz; at s = m >= 1 its kernel is
    also the Bernoulli kernel -B_m(z)/m of ``rhs_integer_value``."""
    # zeta(1-s, z)'s pole -1/s is constant in z, so the pairing drops it, but
    # it leaves eps/|s| of rounding at each node: near s = 0, pair with zeta*
    kernel = specfun.hurwitz_zeta_star if abs(s) < 0.5 else specfun.hurwitz_zeta
    return i_power(-s) * _segment_pairing(f, lambda zs: kernel(1 - s, zs), key=("zeta", s))


# perfbench's tracer looks this name up in contour and wraps it
rhs_negative_s = rhs_star


def bern_c_constant(k: int, m: int) -> complex:
    """c_{k,m} = -sum_l m! (l-k)! i^{k+m+2l} / ((1+m-k)! l!)."""
    acc = 0j
    for el in range(m + 1):
        # int / int true division is correctly rounded, even for large ints
        ratio = (math.factorial(m) * math.factorial(el - k)
                 / (math.factorial(1 + m - k) * math.factorial(el)))
        acc += ratio * i_power(k + m + 2 * el)
    return -acc


def bern_d_constant(k: int, m: int, el: int, j: int) -> float:
    """d_{l,j} = m! (-1)^{j-1} (l-k)! / (l! (j+l-k+1)! (1-l+m-j)!)."""
    num = math.factorial(m) * math.factorial(el - k)
    den = (math.factorial(el) * math.factorial(j + el - k + 1)
           * math.factorial(1 - el + m - j))
    return (-1) ** (j - 1) * num / den


def _bern_second_integral(f: FourierExpansion, m: int,
                          printed_constants: bool = False) -> complex:
    """The xi-part of the Bernoulli formula for L_f(phi_{1+m}^0), m >= 0.

    The d_{l,j} terms carry an extra phase i^r (r = 1-l+m-j, the phase of
    the Bernoulli-polynomial Fourier coefficient), which the limit oracle
    confirms; printed_constants drops it to reproduce the phase-free variant
    for discrepancy reporting.
    """
    k = f.weight
    xi_f = xi_image(f, conjugate_first=True)
    ckm = bern_c_constant(k, m)

    def kernel(zs):
        poly = ckm * specfun.bernoulli_poly(2 + m - k, zs) / (2 + m - k)
        for el in range(m + 1):
            for j in range(m - el + 1):
                r = 1 - el + m - j
                phase = 1.0 if printed_constants else i_power(r)
                poly = poly - phase * bern_d_constant(k, m, el, j) * specfun.bernoulli_poly(
                    r, zs.real)
        return poly

    return _segment_pairing(xi_f, kernel, key=("bern2", k, m, printed_constants))


def rhs_integer_value(f: FourierExpansion, m: int,
                      printed_constants: bool = False) -> complex:
    """Closed-form contour value equal to L*(f, m) at integer m.

    Weakly holomorphic f, and every f at m < 1: ``rhs_star``.  With a
    non-holomorphic part (weight <= 0) at m >= 1, the Bernoulli-polynomial
    integrals of f and xi(f), the side of thm_bern and cor_polyl that
    shares no E_s value with the series; m = 1 is the same formula at
    mm = 0 (the integral over i..i+1 of a cuspidal expansion vanishes, so
    the constant of B_1 drops out).  printed_constants selects the
    phase-free d_{l,j} variant (see _bern_second_integral) for discrepancy
    reporting, at m = 1 as at m >= 2.
    """
    if f.is_weakly_holomorphic or m < 1:
        return rhs_star(f, m)
    # the Bernoulli theorem is stated for s = 1 + mm, mm = m - 1
    return complex(_zeta_pairing(f, m) + _bern_second_integral(f, m - 1, printed_constants))


# ---------------------------------------------------------------------------
# Compactly supported test functions: telescoped two-segment formula
# ---------------------------------------------------------------------------

def compact_support_value(f: FourierExpansion, seed, a: float, b: float) -> complex:
    """-i (int_{ia}^{ia+1} - int_{ib}^{ib+1}) f(z) Phi~(z) dz.

    seed provides .value(z) and .translated_sum(z) = sum_{n>=0} Phi(z+n),
    both taking a scalar or an ndarray z, together with a decay exponent used
    to sanity-check |Phi(z)| < |z|^{-1-eps} on the strip.  A seed keys its
    translated sums in ``KERNEL_TABLE``, so it must be hashable (TypeError
    otherwise), and equal seeds must have equal translated sums.
    """
    if not (0 < a < b):
        raise ValueError("need 0 < a < b")
    try:
        hash(seed)
    except TypeError:
        raise TypeError(f"seed {seed!r} must be hashable: sums are kept by seed") from None
    if not f.is_weakly_holomorphic:
        raise RegimeError("compact-support formula applies to weakly holomorphic f")
    eps = getattr(seed, "decay_epsilon", None)
    if eps is not None:
        for zz in (1j * a + 0.5, 1j * b + 3.0, 1j * (a + b) / 2 + 10.0):
            if abs(seed.value(zz)) >= abs(zz) ** (-1.0 - eps) * (1 + 1e-9):
                raise RegimeError(f"seed violates the decay condition at z={zz}")

    top = _segment_pairing(f, seed.translated_sum, a, key=("seed", seed))
    bottom = _segment_pairing(f, seed.translated_sum, b, key=("seed", seed))
    return complex(-1j * (top - bottom))
