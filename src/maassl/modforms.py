"""Exact q-expansions and Fourier-expansion objects.

A power series is a list of Python ints indexed by exponent.  series_mul
and series_inv truncate products and inverses to n coefficients; they build
the Eisenstein series E4/E6, the discriminant Delta and the Hauptmodul
J = j - 744, whose coefficients are all integers.  FourierExpansion holds a
finite holomorphic / non-holomorphic coefficient table (the shape of a
harmonic Maass cusp form) and supports point evaluation and the xi-operator
image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .specfun import bernoulli_number, upper_gamma_int


class ExpansionError(ValueError):
    """Coefficient data violates the cusp-form shape."""


def series_mul(a: list[int], b: list[int], n: int) -> list[int]:
    """The first n coefficients of the product of the power series a and b."""
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[:n - i]):
                out[i + j] += x * y
    return out


def series_inv(a: list[int], n: int) -> list[int]:
    """The first n coefficients of 1/a; over the integers this needs a[0] == 1."""
    if not a or a[0] != 1:
        raise ValueError("series_inv needs a leading coefficient of 1")
    out = [1] + [0] * (n - 1)
    for m in range(1, n):
        out[m] = -sum(a[k] * out[m - k] for k in range(1, min(m, len(a) - 1) + 1))
    return out[:n]


def _divisor_sigma(n: int, k: int) -> int:
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def build_eisenstein(k: int, prec: int) -> list[int]:
    """Normalized Eisenstein series E_4 or E_6, coefficients of q^0 .. q^(prec-1)."""
    if k not in (4, 6):
        raise ValueError("only E_4 and E_6 are provided")
    if prec < 1:
        raise ValueError("prec must be >= 1")
    front = int(-2 * k / bernoulli_number(k))  # exactly 240 or -504
    return [1] + [front * _divisor_sigma(n, k - 1) for n in range(1, prec)]


def build_delta(prec: int) -> list[int]:
    """Delta = (E_4^3 - E_6^2)/1728, coefficients of q^0 .. q^(prec-1)."""
    if prec < 2:
        raise ValueError("prec must be >= 2")
    e4 = build_eisenstein(4, prec)
    e6 = build_eisenstein(6, prec)
    diff = [x - y for x, y in zip(series_mul(e4, series_mul(e4, e4, prec), prec),
                                  series_mul(e6, e6, prec))]
    if any(c % 1728 for c in diff):
        raise ArithmeticError("E_4^3 - E_6^2 is not divisible by 1728")
    return [c // 1728 for c in diff]


def build_j_series(prec: int) -> dict[int, int]:
    """q-expansion of the modular j-function: {n: c(n)} for n = -1 .. prec-1."""
    e4 = build_eisenstein(4, prec + 1)
    e4_cubed = series_mul(e4, series_mul(e4, e4, prec + 1), prec + 1)
    # Delta = q (1 - 24 q + ...), so j = q^-1 E_4^3 / (Delta / q)
    qj = series_mul(e4_cubed, series_inv(build_delta(prec + 2)[1:], prec + 1), prec + 1)
    return {n - 1: c for n, c in enumerate(qj)}


# ---------------------------------------------------------------------------
# Fourier expansions
# ---------------------------------------------------------------------------

@dataclass
class FourierExpansion:
    """Finite coefficient table in the harmonic-Maass-cusp-form shape.

    holo maps n (n >= -n0, n != 0) to a_f(n), stored in increasing n;
    nonholo maps n < 0 to b_f(n), attached to the incomplete-gamma factor
    Gamma(1-k, -4 pi n y).  n0, the pole order at the cusp, is read off the
    stored (nonzero) coefficients: the deepest negative frequency, at least 1.

    terms lists holo's rows in that order, built once for the series side:
    (i, n, a(n), 2 pi n, |a(n)|), i the row's index and |a(n)| taken by
    math.hypot, which overflows to inf where abs raises OverflowError.

    An expansion is treated as immutable once built: ``terms``, ``arrays``
    and ``key`` hold its coefficient table.
    """

    weight: int
    level: int
    holo: dict[int, complex]
    nonholo: dict[int, complex]
    growth_const: float
    modular: bool = False
    label: str = ""
    n0: int = field(init=False)
    terms: list[tuple[int, int, complex, float, float]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if any(int(n) != n for n in (*self.holo, *self.nonholo)):
            raise ExpansionError("frequencies must be integers")
        if self.holo.get(0, 0) != 0:
            raise ExpansionError("constant term must vanish (cuspidal expansion)")
        self.holo = {n: complex(c) for n, c in sorted(self.holo.items()) if n != 0 and c != 0}
        if any(n >= 0 for n in self.nonholo):
            raise ExpansionError("non-holomorphic coefficients only at negative frequencies")
        self.nonholo = {n: complex(c) for n, c in self.nonholo.items() if c != 0}
        if self.nonholo and self.weight > 0:
            raise ExpansionError("non-holomorphic part requires weight <= 0")
        self.n0 = int(max(1, -min((*self.holo, *self.nonholo), default=0)))
        self.terms = [(i, n, a, 2 * math.pi * n, math.hypot(a.real, a.imag))
                      for i, (n, a) in enumerate(self.holo.items())]

    @property
    def is_weakly_holomorphic(self) -> bool:
        return not self.nonholo

    @cached_property
    def arrays(self):
        """(holo n, a(n), nonholo n, b(n)) as numpy arrays, sorted by n."""
        hn = np.array(list(self.holo), dtype=float)
        ha = np.array(list(self.holo.values()), dtype=complex)
        nn = np.array(sorted(self.nonholo), dtype=float)
        nb = np.array([self.nonholo[int(n)] for n in sorted(self.nonholo)], dtype=complex)
        return hn, ha, nn, nb

    @cached_property
    def key(self) -> tuple:
        """The weight and the raw bytes of ``arrays``, all that ``eval_at``
        reads: expansions with equal keys have equal values."""
        return (self.weight, *(a.tobytes() for a in self.arrays))

    @cached_property
    def tail_log_weights(self) -> list[float]:
        """log G_i, G_i = sum_{m >= i} |a(n_m)| e^{-2 pi (n_m - n_i)}, over the
        sorted holomorphic indices n_i; +inf on overflow."""
        hn, ha, _, _ = self.arrays
        with np.errstate(over="ignore"):
            log_b = np.log(np.abs(ha)) - 2 * math.pi * hn
        tails = np.logaddexp.accumulate(log_b[::-1])[::-1] + 2 * math.pi * hn
        return tails.tolist()  # a list indexes faster

    def eval_at(self, z):
        """Value of the truncated expansion; z scalar or ndarray with Im > 0.

        The holomorphic part is (q^n) @ a(n) with q = e^{2 pi i z}: one
        exponential per point, and numpy raises a complex number to an
        integer power |n| < 100 by repeated squaring, so the N x K table
        costs products instead of N K exponentials.  It agrees with the
        exponential form to rounding, and overflows where that does.
        """
        hn, ha, nn, nb = self.arrays
        za = np.asarray(z, dtype=complex)
        scalar = za.ndim == 0
        za = np.atleast_1d(za)
        out = np.zeros_like(za)
        if hn.size:
            out += (np.exp(2j * math.pi * za)[:, None] ** hn) @ ha
        if nn.size:
            y = za.imag
            for n, b in zip(nn, nb):
                gam = upper_gamma_int(1 - self.weight, -4 * math.pi * n * y)
                out += b * gam * np.exp(2j * math.pi * n * za)
        return complex(out[0]) if scalar else out


def synth_harmonic(k: int, holo: dict[int, complex],
                   nonholo: dict[int, complex]) -> FourierExpansion:
    """A synthetic expansion of the harmonic shape; flagged non-modular, so
    nothing reads its level, which is 1."""
    return FourierExpansion(k, 1, dict(holo), dict(nonholo),
                            growth_const=1.0, modular=False, label="synth")


def xi_image(f: FourierExpansion, conjugate_first: bool = False) -> FourierExpansion:
    """Expansion of xi_k f (or xi_k f^c when conjugate_first) at weight 2-k.

    The output coefficient at positive frequency -n (for n < 0 in the input)
    is -(-4 pi n)^{1-k} times conj(b_f(n)), without the conjugate when
    conjugate_first is set.
    """
    k = f.weight
    holo = {}
    for n, b in f.nonholo.items():
        coeff = b if conjugate_first else b.conjugate()
        holo[-n] = -((-4 * math.pi * n) ** (1 - k)) * coeff
    return FourierExpansion(2 - k, f.level, holo, {}, f.growth_const,
                            f.modular, f"xi({f.label})")


def build_J(prec: int = 40) -> FourierExpansion:
    """The Hauptmodul J = j - 744 as a FourierExpansion (weight 0, level 1)."""
    series = build_j_series(prec)
    holo = {n: complex(c) for n, c in series.items() if n != 0}
    assert series[0] == 744
    return FourierExpansion(0, 1, holo, {}, growth_const=4 * math.pi,
                            modular=True, label="J")


def build_J_squared(prec: int = 40) -> FourierExpansion:
    """J^2 minus its constant term, a weakly holomorphic cusp form.

    Its pole order is 2, so its coefficients grow like e^{4 pi sqrt(2n)},
    and that is its growth constant 4 pi sqrt 2: the stored log|c(n)| stay
    at least 0.19 below 4 pi sqrt(2n) for n >= 1, and reach 29.6 above
    4 pi sqrt(n)."""
    j = build_j_series(prec + 1)
    j[0] -= 744
    qJ = [j[n] for n in range(-1, prec + 1)]
    q2J2 = series_mul(qJ, qJ, prec + 2)  # index i holds the q^(i-2) coefficient of J^2
    const = q2J2[2]
    holo = {i - 2: complex(c) for i, c in enumerate(q2J2) if i != 2}
    fe = FourierExpansion(0, 1, holo, {}, growth_const=4 * math.pi * math.sqrt(2),
                          modular=True, label="Jsq")
    fe.constant_removed = float(const)  # 393768, derived not hard-coded
    return fe
