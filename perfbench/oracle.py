"""High-precision oracle for series-side L-values, built on mpmath only.

It shares no code with maassl: it reads a form's coefficient table and sums
a_f(n) E_{1-s}(2 pi n + w) with mpmath's exponential integral at 30 digits.
Points on the negative real axis take the limit from the upper half-plane,
the convention of maassl's series side.  The limit w -> 0+ of
``l_value_limit`` is the same sum at w = 0.
"""

from __future__ import annotations

import mpmath

DIGITS = 30
# Relative to the sum of the terms' magnitudes.  exp_int_E is accurate to
# about 1e-12 relative; Richardson extrapolation in l_value_limit leaves
# about 1e-9 relative on the forms used here.
SERIES_RTOL = 1e-10
LIMIT_RTOL = 1e-6


def series_value(holo: dict, s: float, w: complex) -> tuple[complex, float]:
    """(sum of a_f(n) E_{1-s}(2 pi n + w), sum of the terms' magnitudes)."""
    with mpmath.workdps(DIGITS):
        below_cut = mpmath.mpf(10) ** (-2 * DIGITS)
        order = 1 - mpmath.mpf(s)
        total = mpmath.mpc(0)
        scale = mpmath.mpf(0)
        for n, a in holo.items():
            z = 2 * mpmath.pi * n + mpmath.mpc(w.real, w.imag)
            if z.imag == 0 and z.real < 0:
                z = mpmath.mpc(z.real, below_cut)
            term = mpmath.mpc(a.real, a.imag) * mpmath.expint(order, z)
            total += term
            scale += abs(term)
        return complex(total), float(scale)


def check(item, values: tuple, holo: dict) -> tuple[bool, float]:
    """Compare one lseries item's value with the oracle: (ok, abs_err)."""
    p = item.params
    if item.kind == "l_value":
        exact, scale = series_value(holo, p["s"], complex(*p["w"]))
        rtol = SERIES_RTOL
    elif item.kind == "l_star":
        exact, scale = series_value(holo, p["s"], 0j)
        rtol = SERIES_RTOL
    else:
        exact, scale = series_value(holo, p["m"], 0j)
        rtol = LIMIT_RTOL
    err = abs(complex(values[0]) - exact)
    return err <= rtol * max(1.0, scale), err
