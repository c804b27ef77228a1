"""Exact q-expansions and Fourier-expansion objects.

QSeries does truncated Laurent arithmetic over exact rationals and is used
to build the Eisenstein series E4/E6, the discriminant Delta and the
Hauptmodul J = j - 744.  FourierExpansion holds a finite holomorphic /
non-holomorphic coefficient table (the shape of a harmonic Maass cusp form)
and supports point evaluation and the xi-operator image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .specfun import bernoulli_number, upper_gamma_int


class PrecisionError(ValueError):
    """Result precision would drop below the leading exponent."""


class ExpansionError(ValueError):
    """Coefficient data violates the cusp-form shape."""


class QSeries:
    """Truncated Laurent series sum_{n >= min_exponent} c_n q^n, exact below `precision`."""

    __slots__ = ("min_exponent", "coefficients", "precision")

    def __init__(self, min_exponent: int, coefficients, precision: int):
        coeffs = [Fraction(c) for c in coefficients]
        # normalize: drop leading zeros so the invariant "leading coeff nonzero" holds
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            min_exponent += 1
        if precision <= min_exponent and coeffs:
            raise PrecisionError("precision must exceed the leading exponent")
        coeffs = coeffs[: precision - min_exponent]
        self.min_exponent = min_exponent
        self.coefficients = coeffs
        self.precision = precision

    @classmethod
    def zero(cls, precision: int) -> "QSeries":
        return cls(0, [], precision)

    @classmethod
    def from_dict(cls, d: dict[int, Fraction | int], precision: int) -> "QSeries":
        if not d:
            return cls.zero(precision)
        lo = min(d)
        return cls(lo, [d.get(n, 0) for n in range(lo, precision)], precision)

    def __getitem__(self, n: int) -> Fraction:
        if n >= self.precision:
            raise PrecisionError(f"coefficient q^{n} beyond stored precision {self.precision}")
        return self._get(n)

    def items(self):
        for i, c in enumerate(self.coefficients):
            if c:
                yield self.min_exponent + i, c

    def is_zero(self) -> bool:
        return not self.coefficients

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.min_exponent == other.min_exponent
                and self.coefficients == other.coefficients)

    def __repr__(self):
        head = ", ".join(f"{c}*q^{n}" for n, c in list(self.items())[:4])
        return f"QSeries({head}..., prec={self.precision})"

    def __add__(self, other: "QSeries") -> "QSeries":
        prec = min(self.precision, other.precision)
        lo = min(self.min_exponent, other.min_exponent) if (self.coefficients or other.coefficients) else 0
        return QSeries(lo, [self._get(n) + other._get(n) for n in range(lo, prec)], prec)

    def _get(self, n: int) -> Fraction:
        idx = n - self.min_exponent
        if idx < 0 or idx >= len(self.coefficients):
            return Fraction(0)
        return self.coefficients[idx]

    def __neg__(self) -> "QSeries":
        return QSeries(self.min_exponent, [-c for c in self.coefficients], self.precision)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def scale(self, c) -> "QSeries":
        c = Fraction(c)
        if c == 0:
            return QSeries.zero(self.precision)
        return QSeries(self.min_exponent, [c * x for x in self.coefficients], self.precision)

    def shift(self, k: int) -> "QSeries":
        """Multiply by q^k."""
        return QSeries(self.min_exponent + k, list(self.coefficients), self.precision + k)

    def __mul__(self, other: "QSeries") -> "QSeries":
        if self.is_zero() or other.is_zero():
            return QSeries.zero(min(self.precision, other.precision))
        lo = self.min_exponent + other.min_exponent
        # precision of a product: exponent n is exact iff every split n = a+b
        # uses exact coefficients, so prec = min(p1 + lo2, p2 + lo1)
        prec = min(self.precision + other.min_exponent,
                   other.precision + self.min_exponent)
        if prec <= lo:
            raise PrecisionError("product precision would not exceed its leading exponent")
        out = [Fraction(0)] * (prec - lo)
        for i, a in enumerate(self.coefficients):
            if a == 0:
                continue
            na = self.min_exponent + i
            jmax = min(len(other.coefficients), prec - na - other.min_exponent)
            for j in range(jmax):
                b = other.coefficients[j]
                if b:
                    out[na + other.min_exponent + j - lo] += a * b
        return QSeries(lo, out, prec)

    def invert(self) -> "QSeries":
        if self.is_zero():
            raise ZeroDivisionError("cannot invert the zero series")
        lead = self.coefficients[0]
        lo = -self.min_exponent
        prec = self.precision - 2 * self.min_exponent
        n_out = prec - lo
        out = [Fraction(0)] * n_out
        out[0] = 1 / lead
        for n in range(1, n_out):
            acc = Fraction(0)
            for k in range(1, min(n, len(self.coefficients) - 1) + 1):
                acc += self.coefficients[k] * out[n - k]
            out[n] = -acc / lead
        return QSeries(lo, out, prec)

    def __pow__(self, e: int) -> "QSeries":
        if e < 0:
            return self.invert() ** (-e)
        if e == 0:
            return QSeries(0, [1], self.precision)
        acc = None
        base = self
        while e:
            if e & 1:
                acc = base if acc is None else acc * base
            e >>= 1
            if e:
                base = base * base
        return acc

    def truncate(self, precision: int) -> "QSeries":
        if precision > self.precision:
            raise PrecisionError("cannot extend precision by truncation")
        return QSeries(self.min_exponent, self.coefficients[: precision - self.min_exponent], precision)


def _divisor_sigma(n: int, k: int) -> int:
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def build_eisenstein(k: int, prec: int) -> QSeries:
    """Normalized Eisenstein series E_4 or E_6 with exact rational coefficients."""
    if k not in (4, 6):
        raise ValueError("only E_4 and E_6 are provided")
    if prec < 1:
        raise ValueError("prec must be >= 1")
    front = Fraction(-2 * k, bernoulli_number(k))
    coeffs = [Fraction(1)] + [front * _divisor_sigma(n, k - 1) for n in range(1, prec)]
    return QSeries(0, coeffs, prec)


def build_delta(prec: int) -> QSeries:
    """Delta = (E_4^3 - E_6^2)/1728, leading term q."""
    if prec < 2:
        raise ValueError("prec must be >= 2")
    e4 = build_eisenstein(4, prec)
    e6 = build_eisenstein(6, prec)
    return (e4 ** 3 - e6 ** 2).scale(Fraction(1, 1728)).truncate(prec)


def build_j_series(prec: int) -> QSeries:
    """q-expansion of the modular j-function, exponents -1 .. prec-1."""
    e4 = build_eisenstein(4, prec + 2)
    delta = build_delta(prec + 2)
    return (e4 ** 3 * delta.invert()).truncate(prec)


# ---------------------------------------------------------------------------
# Fourier expansions
# ---------------------------------------------------------------------------

@dataclass
class FourierExpansion:
    """Finite coefficient table in the harmonic-Maass-cusp-form shape.

    holo maps n (n >= -n0, n != 0) to a_f(n); nonholo maps n < 0 to b_f(n),
    attached to the incomplete-gamma factor Gamma(1-k, -4 pi n y).
    """

    weight: int
    level: int
    holo: dict[int, complex]
    nonholo: dict[int, complex]
    n0: int
    growth_const: float
    modular: bool = False
    label: str = ""
    _arrays: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.holo.get(0, 0) != 0:
            raise ExpansionError("constant term must vanish (cuspidal expansion)")
        self.holo = {n: complex(c) for n, c in self.holo.items() if n != 0 and c != 0}
        if any(n >= 0 for n in self.nonholo):
            raise ExpansionError("non-holomorphic coefficients only at negative frequencies")
        self.nonholo = {n: complex(c) for n, c in self.nonholo.items() if c != 0}
        if self.nonholo and self.weight > 0:
            raise ExpansionError("non-holomorphic part requires weight <= 0")

    @property
    def is_weakly_holomorphic(self) -> bool:
        return not self.nonholo

    def arrays(self):
        if self._arrays is None:
            hn = np.array(sorted(self.holo), dtype=float)
            ha = np.array([self.holo[int(n)] for n in sorted(self.holo)], dtype=complex)
            nn = np.array(sorted(self.nonholo), dtype=float)
            nb = np.array([self.nonholo[int(n)] for n in sorted(self.nonholo)], dtype=complex)
            object.__setattr__(self, "_arrays", (hn, ha, nn, nb))
        return self._arrays

    def eval_at(self, z):
        """Value of the truncated expansion; z scalar or ndarray with Im > 0."""
        hn, ha, nn, nb = self.arrays()
        za = np.asarray(z, dtype=complex)
        scalar = za.ndim == 0
        za = np.atleast_1d(za)
        out = np.zeros_like(za)
        if hn.size:
            out += np.exp(2j * math.pi * np.outer(za, hn)) @ ha
        if nn.size:
            y = za.imag
            for n, b in zip(nn, nb):
                gam = upper_gamma_int(1 - self.weight, -4 * math.pi * n * y)
                out += b * gam * np.exp(2j * math.pi * n * za)
        return complex(out[0]) if scalar else out

    def scaled(self, c: complex) -> "FourierExpansion":
        return FourierExpansion(self.weight, self.level,
                                {n: c * a for n, a in self.holo.items()},
                                {n: c * b for n, b in self.nonholo.items()},
                                self.n0, self.growth_const, self.modular,
                                f"{c}*{self.label}")

    def plus(self, other: "FourierExpansion") -> "FourierExpansion":
        if self.weight != other.weight or self.level != other.level:
            raise ExpansionError("can only add expansions of equal weight and level")
        holo = dict(self.holo)
        for n, a in other.holo.items():
            holo[n] = holo.get(n, 0) + a
        nonholo = dict(self.nonholo)
        for n, b in other.nonholo.items():
            nonholo[n] = nonholo.get(n, 0) + b
        return FourierExpansion(self.weight, self.level, holo, nonholo,
                                max(self.n0, other.n0),
                                max(self.growth_const, other.growth_const),
                                False, f"{self.label}+{other.label}")


def synth_harmonic(k: int, holo: dict[int, complex], nonholo: dict[int, complex],
                   level: int = 1) -> FourierExpansion:
    """A synthetic expansion of the harmonic shape; flagged non-modular."""
    n0 = max((-n for n in holo if n < 0), default=0)
    n0 = max(n0, max((-n for n in nonholo), default=0), 1)
    return FourierExpansion(k, level, dict(holo), dict(nonholo), n0,
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
    return FourierExpansion(2 - k, f.level, holo, {}, 0, f.growth_const,
                            f.modular, f"xi({f.label})")


def build_J(prec: int = 40) -> FourierExpansion:
    """The Hauptmodul J = j - 744 as a FourierExpansion (weight 0, level 1)."""
    series = build_j_series(prec)
    holo = {n: complex(c) for n, c in series.items() if n != 0}
    assert series[0] == 744
    return FourierExpansion(0, 1, holo, {}, 1, growth_const=4 * math.pi,
                            modular=True, label="J")


def build_J_squared(prec: int = 40) -> FourierExpansion:
    """J^2 minus its constant term, a weakly holomorphic cusp form."""
    j = build_j_series(prec + 2)
    jm = QSeries.from_dict({n: c for n, c in j.items() if n != 0} | {0: j[0] - 744},
                           j.precision)
    sq = (jm * jm).truncate(prec)
    const = sq[0]
    holo = {n: complex(c) for n, c in sq.items() if n != 0}
    fe = FourierExpansion(0, 1, holo, {}, 2, growth_const=4 * math.pi,
                          modular=True, label="Jsq")
    fe.constant_removed = float(const)  # 393768, derived not hard-coded
    return fe
