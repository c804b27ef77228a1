#!/usr/bin/env python3
"""Microseconds per call of the kernels under the contour and series sides.

    python scripts/kernel_timings.py [--number 200] [--repeat 5]

Prints one row per (kernel, case, N) with the best of --repeat rounds of
--number calls each:

- specfun.lerch_sum(a, w, z) at w = 0.3 + 0.7i, on the nodes of one
  integrand call on [i, i+1]: quadrature levels 0 and 1 (48 nodes), level 2
  (64) and level 3 (128), for a in {-2.5, -0.5, -1, 0, 1, 0.5};
- FourierExpansion.eval_at on the same nodes, for J, Jsq and a 4-term
  synthetic form;
- quadrature.integrate_segment of the trivial integrand g(z) = z on
  [i, i+1], which stops after its first call (48 nodes): the quadrature's
  own cost;
- contour._segment_pairing(J, e^{iwz} lerch_sum(-0.5, w, z)) at
  w = 0.3 + 0.7i (levels 0 to 2, 112 nodes), cold, with
  contour.KERNEL_TABLE, which keeps J's values and the kernel's, emptied
  before every call, and warm, the cost of a pairing that finds both kept;
- exp_int_E(0.5, z) on a scalar z = 2 pi + w, w = 0.3 + 0.7i, with a
  plain-number order (which builds its ExpIntOrder each call) and through
  one ExpIntOrder reused over the calls, as a series sum's terms are (the
  continued fraction); through that order at z = -2 pi + w, the near-cut
  power series that a phi_s^w sum's n = -1 term takes; and on a 1k vector
  spread over |z| in [0.5, 63] and arg z in (-2.5, 2.5);
- hurwitz_zeta(s, z) for s = 2 and 1.5, and digamma(z), on the 48 nodes
  of quadrature levels 0 and 1 on [i, i+1];
- contour.r_remainder(f, 1, 0.5 + i) in both shapes, one_dim and
  double_integral, on the default suite's harmonic forms hB (weight -2,
  one non-holomorphic term) and hC (weight 0, two); the double integral
  cold, with contour.KERNEL_TABLE emptied before every call, and kept, the
  cost of a call that finds its per-frequency ray values in the table;
- the double integral's ray of one xi-frequency p = 1 at the same s and w
  (contour._remainder_ray, which keeps nothing), for hB and hC: the cost
  of a ray that the table does not hold;
- contour.ray_integral_bend(a, w), the bending lemma's rotated ray, at
  (a, w) = (-1, 1), real w, and (2, 1 + i);
- ltest.l_value(hB, phi_1^{0.5+i}) and ltest.l_value_limit(hB, 2), the
  series side with its non-holomorphic part; l_value(J, phi_{0.5}^{0.3+0.7i})
  and l_star(J, 0.5), each a sum of 12 kernel terms; l_value on the 4-term
  synthetic form at the same phi, its 4 terms the size of an lseries item,
  and, as synth4/fresh, that form built anew and its first l_value taken,
  the cost a fresh-forms check pays per form; and l_value_limit(f, 0) on J
  and on that synthetic form, weakly holomorphic.

BLAS is pinned to one thread, as in perfbench.  Run it from the root of a
checkout with PYTHONPATH=src, or point PYTHONPATH at another checkout's
src/ to time that one on the same machine.
"""

import argparse
import math
import os
import timeit

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from maassl import (PhiSW, build_J, build_J_squared, contour, l_star,  # noqa: E402
                    l_value, l_value_limit, r_remainder, specfun, synth_harmonic)
from maassl.quadrature import _cached_level_table, integrate_segment  # noqa: E402

LERCH_W = 0.3 + 0.7j
LERCH_A = (-2.5, -0.5, -1.0, 0.0, 1.0, 0.5)


def segment_nodes() -> dict[int, np.ndarray]:
    """The nodes one integrand call gets on [i, i+1], by node count:
    quadrature's tables of levels 1 (with level 0's nodes), 2 and 3."""
    edges = np.array([1j, 1j + 1])
    tables = [_cached_level_table(edges.tobytes(), edges.dtype.str, level)[0]
              for level in (1, 2, 3)]
    return {z.size: z for z in tables}


def cases():
    """(kernel, case, N, thunk) for every row of the table."""
    nodes = segment_nodes()
    for n, z in nodes.items():
        for a in LERCH_A:
            yield "lerch_sum", f"a={a:g}", n, lambda a=a, z=z: specfun.lerch_sum(a, LERCH_W, z)
    synth4 = {-1: 1, 1: 0.5 + 0.25j, 2: -0.3, 3: 0.1j}
    forms = {"J": build_J(), "Jsq": build_J_squared(), "synth4": synth_harmonic(0, synth4, {})}
    for n, z in nodes.items():
        for name, f in forms.items():
            yield "eval_at", name, n, lambda f=f, z=z: f.eval_at(z)
    yield "integrate_segment", "g(z)=z", 48, lambda: integrate_segment(lambda z: z, 1j, 1j + 1)
    J = forms["J"]

    def lerch_kernel(zs):
        return np.exp(1j * LERCH_W * zs) * specfun.lerch_sum(-0.5, LERCH_W, zs)

    key = "lerch", 0.5, LERCH_W  # lerch_kernel is rhs_main_theorem's at s = 0.5

    def cold_pairing():
        contour.KERNEL_TABLE.clear()
        return contour._segment_pairing(J, lerch_kernel, key=key)

    yield "segment_pairing", "J/lerch/cold", 112, cold_pairing
    yield "segment_pairing", "J/lerch/warm", 112, lambda: contour._segment_pairing(
        J, lerch_kernel, key=key)
    z1 = 2 * math.pi + LERCH_W
    yield "exp_int_E", "scalar", 1, lambda: specfun.exp_int_E(0.5, z1)
    order = specfun.ExpIntOrder(0.5)
    yield "exp_int_E", "scalar/order", 1, lambda: specfun.exp_int_E(order, z1)
    z_cut = -2 * math.pi + LERCH_W
    yield "exp_int_E", "scalar/near-cut", 1, lambda: specfun.exp_int_E(order, z_cut)
    rng = np.random.default_rng(1)
    zv = np.exp(rng.uniform(math.log(0.5), math.log(63.0), 1000)
                + 1j * rng.uniform(-2.5, 2.5, 1000))
    yield "exp_int_E", "vector", 1000, lambda: specfun.exp_int_E(0.5, zv)
    for s in (2.0, 1.5):
        yield "hurwitz_zeta", f"s={s:g}", 48, lambda s=s: specfun.hurwitz_zeta(s, nodes[48])
    yield "digamma", "z", 48, lambda: specfun.digamma(nodes[48])
    harmonic = {"hB": synth_harmonic(-2, {1: 1}, {-1: 2 - 1j}),
                "hC": synth_harmonic(0, {}, {-1: 1, -2: 0.3})}

    def cold_remainder(f):
        contour.KERNEL_TABLE.clear()
        return r_remainder(f, 1.0, 0.5 + 1j, "double_integral")

    for name, f in harmonic.items():
        yield "r_remainder", f"{name}/one_dim", 1, lambda f=f: r_remainder(
            f, 1.0, 0.5 + 1j, "one_dim")
        yield "r_remainder", f"{name}/double_integral", 1, lambda f=f: cold_remainder(f)
        yield "r_remainder", f"{name}/kept", 1, lambda f=f: r_remainder(
            f, 1.0, 0.5 + 1j, "double_integral")
    for name, f in harmonic.items():
        yield "remainder_ray", f"{name}/p=1", 1, lambda k=f.weight: contour._remainder_ray(
            k, 1.0, 0.5 + 1j, 1)
    for a, w, case in ((-1.0, 1.0, "a=-1/w=1"), (2.0, 1 + 1j, "a=2/w=1+i")):
        yield "ray_integral_bend", case, 1, lambda a=a, w=w: contour.ray_integral_bend(a, w)
    hb = harmonic["hB"]
    yield "l_value", "hB", 1, lambda: l_value(hb, PhiSW(1.0, 0.5 + 1j))
    yield "l_value_limit", "hB/m=2", 1, lambda: l_value_limit(hb, 2)
    yield "l_value", "J", 1, lambda: l_value(J, PhiSW(0.5, LERCH_W))
    yield "l_value", "synth4", 1, lambda: l_value(forms["synth4"], PhiSW(0.5, LERCH_W))
    yield "l_value", "synth4/fresh", 1, lambda: l_value(synth_harmonic(0, synth4, {}),
                                                        PhiSW(0.5, LERCH_W))
    yield "l_star", "J/s=0.5", 1, lambda: l_star(J, 0.5)
    for name in ("J", "synth4"):
        yield "l_value_limit", f"{name}/m=0", 1, lambda f=forms[name]: l_value_limit(f, 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--number", type=int, default=200, help="calls per round")
    ap.add_argument("--repeat", type=int, default=5, help="rounds; the best is kept")
    args = ap.parse_args()
    print(f"{'kernel':<17} {'case':<18} {'N':>5} {'us/call':>9}")
    for kernel, case, n, thunk in cases():
        thunk()  # warm caches (binomials, term counts, form arrays)
        best = min(timeit.repeat(thunk, number=args.number, repeat=args.repeat))
        print(f"{kernel:<17} {case:<18} {n:>5} {best / args.number * 1e6:>9.1f}")


if __name__ == "__main__":
    main()
