"""Composite Gauss-Legendre quadrature on straight paths, refined by doubling.

A path is given by a base partition (its edges).  At level L every base
panel is split into 2^L equal sub-panels, each carrying a base_nodes-point
Gauss-Legendre rule.  Levels 0 and 1 share one integrand call, since a
vectorized integrand costs about the same for 16 or 48 nodes per panel and
most integrals stop at level 1; every later level is one call of its own.
L grows until two successive levels agree to max(abs_tol, rounding floor),
where the floor, a few eps times sum |w_i g_i|, is the rounding error of the
sum itself, so that integrands of size e^{4 pi} do not chase an absolute
tolerance below double precision; when only the floor was met, one more
level is evaluated and returned.  The error estimate is the difference of
the last two levels plus the floor.  For integrands analytic near the path
the error falls geometrically in the number of panels (Trefethen, "Is Gauss
quadrature better than Clenshaw-Curtis?", SIAM Rev. 2008).

Integrands accept an ndarray of N complex points and return N values, or an
(N, K) array of K integrands at once; a vector-valued integral converges in
the max-norm over its K components and returns an ndarray of K values.

The nodes and scaled weights of a path's levels are read-only tables,
cached per (path edges, level) up to level ``CACHED_LEVELS``, the deepest
the default suite reaches, as are the levels' rules on [0, 1]; deeper
levels are built per call from the order's cached Gauss-Legendre rule, so
an integral that fails at max_depth pins no memory.  An integrand call
gets such a table, which it cannot write, and its node count names the
level: 48, 64 and 128 per base panel at levels 1 to 3 (``CACHED_NODES``),
so values on a path's nodes may be kept by (path, node count) up to
CACHED_NODES nodes (``contour._kept``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class QuadratureError(RuntimeError):
    """Panel doubling met a non-finite level sum, or reached max_depth
    without two agreeing levels."""


@dataclass(frozen=True)
class QuadratureConfig:
    """abs_tol: agreement asked of two successive levels (or the rounding
    floor, if larger); max_depth: the doubling cap, i.e. the finest level
    evaluated splits every base panel into 2^max_depth sub-panels;
    base_nodes: Gauss-Legendre nodes per sub-panel."""

    abs_tol: float = 1e-11
    max_depth: int = 14
    base_nodes: int = 16

    def __post_init__(self):
        if self.abs_tol <= 0:
            raise ValueError("abs_tol must be positive")
        if self.base_nodes < 8:
            raise ValueError("base_nodes must be >= 8")


DEFAULT_QUAD = QuadratureConfig()

# rounding floor of a level per unit of sum |w_i g_i|: a few eps
_ROUNDING = 8 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class SegmentIntegral:
    value: complex  # an ndarray of K values for an (N, K)-valued integrand
    est_error: float
    panels_used: int


_gauss_legendre = lru_cache(maxsize=4)(np.polynomial.legendre.leggauss)


def _level_rule(order: int, level: int):
    """Nodes in [0, 1] and weights of `order`-point Gauss-Legendre on 2^level
    equal sub-panels of [0, 1]."""
    x, w = _gauss_legendre(order)
    n = 1 << level
    u = ((np.arange(n)[:, None] + (1 + x) / 2) / n).ravel()
    return u, np.tile(w / (2 * n), n)


# levels whose rules and tables are cached: 2^3 sub-panels per base panel
CACHED_LEVELS = 3
# nodes per base panel of the largest cached table, level CACHED_LEVELS's
CACHED_NODES = DEFAULT_QUAD.base_nodes << CACHED_LEVELS
_cached_level_rule = lru_cache(maxsize=4 * (CACHED_LEVELS + 1))(_level_rule)


def _level_table(edges: bytes, dtype: str, level: int):
    """(nodes, weights) of `level` on the panels between the edges, given as
    the raw bytes of an ndarray of `dtype`: nodes lo + width u and weights
    width w of ``_level_rule``, panel by panel, both read-only.  Level 1's
    nodes follow level 0's, since the two levels share one integrand call
    (``_doubling``)."""
    e = np.frombuffer(edges, dtype)
    lo, width = e[:-1, None], np.diff(e)[:, None]
    rule = _cached_level_rule if level <= CACHED_LEVELS else _level_rule
    u, w = rule(DEFAULT_QUAD.base_nodes, level)
    nodes = (lo + width * u).ravel()
    if level == 1:
        nodes = np.concatenate([_cached_level_table(edges, dtype, 0)[0], nodes])
    weights = (width * w).ravel()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


_cached_level_table = lru_cache(maxsize=64)(_level_table)


def _doubling(g, edges: np.ndarray) -> SegmentIntegral:
    """Composite Gauss-Legendre over the panels between `edges`, with the
    settings of DEFAULT_QUAD.

    Returns the first level Q_L that agrees with Q_{L-1} to
    max(abs_tol, rounding floor), with est_error = |Q_L - Q_{L-1}| + floor.
    When the floor decided the agreement, truncation error may still hide
    under it, so one more level is evaluated and returned instead.  Raises
    QuadratureError at the first level whose sum is not finite, since no
    finer level can repair an overflow or a NaN of the integrand, and when
    the level to return would exceed max_depth.

    The first call gets level 0's nodes followed by level 1's and its values
    are split between them, so an integral that stops at level 1 costs one
    call; each level from 2 on is one more.
    """
    if edges.size < 2:
        return SegmentIntegral(0j, 0.0, 0)
    cfg = DEFAULT_QUAD
    key = edges.tobytes(), edges.dtype.str

    def table(level):
        build = _cached_level_table if level <= CACHED_LEVELS else _level_table
        return build(*key, level)

    def level_sum(weights, vals):
        terms = weights.reshape((-1,) + (1,) * (vals.ndim - 1)) * vals
        return terms.sum(axis=0), _ROUNDING * float(np.abs(terms).sum(axis=0).max())

    def finite(level, est):
        if not np.isfinite(est).all():
            raise QuadratureError(f"panel doubling: level {level} sum is not finite")
        return est

    w0 = table(0)[1]
    nodes, weights = table(1)
    fused = np.asarray(g(nodes))
    prev = finite(0, level_sum(w0, fused[:w0.size])[0])
    extra = False  # the last pair agreed only within the floor
    diff = np.inf
    for level in range(1, cfg.max_depth + 1):
        if level == 1:
            vals = fused[w0.size:]
        else:
            nodes, weights = table(level)
            vals = np.asarray(g(nodes))
        est, floor = level_sum(weights, vals)
        diff = float(np.abs(finite(level, est) - prev).max())
        if extra or max(diff, floor) <= cfg.abs_tol:
            return SegmentIntegral(est if est.ndim else complex(est), diff + floor,
                                   (edges.size - 1) << level)
        extra = diff <= floor
        prev = est
    raise QuadratureError(
        f"panel doubling reached max_depth {cfg.max_depth} (diff {diff:.3g})")


def integrate_segment(g, z0, z1) -> SegmentIntegral:
    """Integrate g along the straight segment from z0 to z1 (one base panel)."""
    z0 = complex(z0)
    z1 = complex(z1)
    if z0 == z1:
        return SegmentIntegral(0j, 0.0, 0)
    return _doubling(g, np.array([z0, z1]))


def integrate_decaying(g, t0: float, t1: float) -> SegmentIntegral:
    """Integrate over [t0, t1] on base panels of widths 1, 2, 4, ...

    Suited to smooth integrands that decay roughly exponentially: the wide
    far panels cost no more nodes than the near ones.
    """
    edges = [t0]
    width = 1.0
    while edges[-1] < t1:
        edges.append(min(edges[-1] + width, t1))
        width *= 2
    return _doubling(g, np.asarray(edges, dtype=complex))
