"""Command-line interface: special functions, coefficients, L-values, verify."""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import ltest, specfun, verify
from .verify import resolve_form


def _parse_complex(text: str) -> complex:
    """Accept '1.5', '0.3,0.7' or Python literals like '1+2j'."""
    text = text.strip()
    if "," in text:
        re_part, im_part = text.split(",", 1)
        return complex(float(re_part), float(im_part))
    return complex(text)


def _order(z: complex) -> int:
    if z.imag or not z.real.is_integer():
        raise ValueError(f"the order must be an integer, got {z}")
    return int(z.real)


def _print_value(z: complex):
    z = complex(z)
    print(f"{z.real:.15g} {z.imag:.15g}")


_SPECFUN_TABLE = {
    "E": (2, lambda a: specfun.exp_int_E(a[0], a[1])),
    "Gamma": (2, lambda a: specfun.inc_gamma_upper(a[0], a[1])),
    "EI": (1, lambda a: specfun.cal_EI(a[0])),
    "hurwitz": (2, lambda a: specfun.hurwitz_zeta(a[0], a[1])),
    "lerch": (3, lambda a: specfun.lerch_zeta(a[0], a[1], a[2])),
    "digamma": (1, lambda a: specfun.digamma(a[0])),
    "polygamma": (2, lambda a: specfun.polygamma(_order(a[0]), a[1])),
    "bernoulli": (2, lambda a: specfun.bernoulli_poly(_order(a[0]), a[1])),
}


def _cmd_specfun(args) -> int:
    name = args.fn
    if name not in _SPECFUN_TABLE:
        print(f"unknown function {name!r}; choose from {sorted(_SPECFUN_TABLE)}",
              file=sys.stderr)
        return 2
    arity, fn = _SPECFUN_TABLE[name]
    if len(args.args) != arity:
        print(f"{name} takes {arity} argument(s)", file=sys.stderr)
        return 2
    values = [_parse_complex(a) for a in args.args]
    _print_value(fn(values))
    return 0


def _cmd_coeffs(args) -> int:
    if args.prec < 1:
        raise ValueError(f"--prec must be >= 1, got {args.prec}")
    # named forms are built to the requested --prec
    build = verify.NAMED_FORMS.get(args.form)
    form = build(args.prec) if build else resolve_form(args.form)
    rows = [(n, form.holo[n].real, form.holo[n].imag)
            for n in sorted(form.holo) if n < args.prec]
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["n", "re", "im"])
        writer.writerows(rows)
    else:
        print(json.dumps({"form": args.form,
                          "coefficients": [[n, re, im] for n, re, im in rows]},
                         indent=2))
    return 0


def _cmd_lvalue(args) -> int:
    form = resolve_form(args.form)
    phi = ltest.PhiSW(float(args.s), _parse_complex(args.w))
    _print_value(ltest.l_value(form, phi).value)
    return 0


def _cmd_verify(args) -> int:
    if args.config:
        checks = verify.load_suite(args.config)
    else:
        checks = verify.default_suite()
    reports, summary = verify.run_suite(checks, args.filter)
    if not reports:  # a run of no check certifies nothing
        raise ValueError("no check selected")
    for r in reports:
        line = (f"{r.status.upper():7s} {r.id:32s} abs_err={r.abs_err:.3e} "
                f"rel_err={r.rel_err:.3e}")
        if r.message:
            line += f"  ({r.message})"
        print(line)
    print(f"pass={summary['pass']} fail={summary['fail']} "
          f"skipped={summary['skipped']}")
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(verify.report_json(reports, summary), fh, indent=2)
    return 1 if summary["fail"] else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maassl",
        description="L-values of weakly holomorphic / harmonic Maass cusp "
                    "forms and verification of their closed-form evaluations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("specfun", help="evaluate one special function")
    p.add_argument("fn")
    p.add_argument("args", nargs="*")
    p.set_defaults(run=_cmd_specfun)

    p = sub.add_parser("coeffs", help="export Fourier coefficients")
    p.add_argument("form")
    p.add_argument("--prec", type=int, default=40)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(run=_cmd_coeffs)

    p = sub.add_parser("lvalue", help="evaluate an L-value")
    p.add_argument("form")
    p.add_argument("--s", required=True)
    p.add_argument("--w", default="0,0", help="w; the default 0 gives L*(f, s)")
    p.set_defaults(run=_cmd_lvalue)

    p = sub.add_parser("verify", help="run the identity verification suite")
    p.add_argument("--config", help="JSON suite config (default: bundled suite)")
    p.add_argument("--filter", help="glob on check id or theorem name")
    p.add_argument("--report", help="write a JSON report to this path")
    p.set_defaults(run=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError, specfun.SpecFunError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
