#!/usr/bin/env python3
"""Compare two `maassl verify --report` files check by check.

    python scripts/compare_reports.py PARENT.json CHANGE.json

For every check whose theorem, lhs, rhs, abs_err, rel_err, error estimates,
status or message differ, or that is in only one report, prints the old and
the new values.  Values are compared bit for bit (through their exact repr).
Exits 1 if any check differs, else 0.
"""

import argparse
import json

FIELDS = ("theorem", "lhs", "rhs", "abs_err", "rel_err", "lhs_err_est", "rhs_err_est",
          "status", "message")


def load(path: str) -> dict:
    with open(path) as fh:
        return {c["id"]: c for c in json.load(fh)["checks"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args()
    old, new = load(args.parent), load(args.change)
    differ = 0
    for cid in list(old) + [c for c in new if c not in old]:
        if cid not in new or cid not in old:
            differ += 1
            print(f"{cid}: only in {args.parent if cid in old else args.change}")
            continue
        a, b = old[cid], new[cid]
        lines = [f"  {key}: {a[key]!r} -> {b[key]!r}"
                 for key in FIELDS if repr(a[key]) != repr(b[key])]
        if lines:
            differ += 1
            print(cid)
            print("\n".join(lines))
    print(f"{differ} of {len(set(old) | set(new))} checks differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
