#!/usr/bin/env python3
"""Extrapolation study for integer-point L-values of harmonic forms.

Evaluates L_f(phi_m^{ix}) on a dyadic ladder x = x0 / 2^j, forms the
Richardson tableau for the limit x -> 0+, and compares the extrapolated
value against the closed-form evaluator.  Useful for checking how the
closed form behaves as the ladder is refined, and for adjudicating
alternative constant conventions (--printed).
"""

import argparse

from maassl import PhiSW, l_value, rhs_integer_value, synth_harmonic
from maassl.ltest import _LIMIT_LEVELS, _LIMIT_X0, richardson_table


def tableau(f, m, x0, levels):
    xs = [x0 / 2 ** j for j in range(levels)]
    vals = [l_value(f, PhiSW(float(m), 1j * x)).value for x in xs]
    return xs, richardson_table(vals)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=0, help="weight of the test form")
    ap.add_argument("--m", type=int, default=2, help="integer argument")
    ap.add_argument("--x0", type=float, default=_LIMIT_X0,
                    help="largest damping x (default: l_value_limit's)")
    ap.add_argument("--levels", type=int, default=_LIMIT_LEVELS,
                    help="ladder levels (default: l_value_limit's)")
    ap.add_argument("--printed", action="store_true",
                    help="use the phase-free constant variant in the closed form")
    args = ap.parse_args()

    f = synth_harmonic(args.k, {1: 0.5}, {-1: 1})
    xs, rows = tableau(f, args.m, args.x0, args.levels)

    print(f"# k={args.k} m={args.m} ladder x0={args.x0} levels={args.levels}")
    for x, v in zip(xs, rows[0]):
        print(f"x={x:<12.6g} L={v.real:+.12e} {v.imag:+.12e}j")
    diag = [row[-1] for row in rows]
    print("\n# Richardson diagonal")
    for i, v in enumerate(diag):
        print(f"order {i}: {v.real:+.15e} {v.imag:+.15e}j")

    limit = diag[-1]
    closed = rhs_integer_value(f, args.m, printed_constants=args.printed)
    print(f"\nextrapolated limit : {limit:.15g}")
    print(f"closed form        : {closed:.15g}")
    print(f"|difference|       : {abs(limit - closed):.3e}")
    print(f"tableau residual   : {abs(diag[-1] - diag[-2]):.3e}")


if __name__ == "__main__":
    main()
