"""The three benchmark workloads: item generation, set-up and execution.

Every item is one call into maassl's public API, and run.py runs items
closed-loop: the next starts only after the previous one has returned.

- ``suite``: the bundled ``verify.default_suite()`` in a seeded order.
- ``lseries``: series-side L-values only (``l_value``, ``l_star``,
  ``l_value_limit``) on J, Jsq and seeded synthetic weakly holomorphic forms.
- ``fresh-forms``: seeded synthetic forms, each used by exactly one
  ``verify`` check; every pass draws new forms, so no cache can help.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("suite", "lseries", "fresh-forms")

# Tolerances of the default suite, per theorem, reused for fresh forms.
FRESH_TOLERANCE = {
    "thm_maincor": 1e-7, "thm_main": 1e-6, "r_form_equality": 1e-6,
    "cor_bernWHF": 1e-7, "cor_polyl": 1e-5, "cor_hurw": 1e-7,
    "sect6_compact": 1e-8,
}
FRESH_PER_THEOREM = 6
COMPACT_SEEDS = ("z^-2", "z^-3", "lorentzian")

# cusp coefficients of the synthetic lseries forms; fixed, so that every
# seed sums the same number of terms
LSERIES_SYNTH_SIZES = (8, 12, 18, 24)
LSERIES_PER_FORM = {"l_value": 320, "l_star": 160, "l_value_limit": 80}
ORACLE_PER_KIND_AND_FORM = 1

# A warm-up check on a small fixed form fills the quadrature-node and
# Bernoulli caches; its descriptor is never produced by a workload.
WARMUP_FORM = 'synth:{"k": 0, "holo": {"-1": 1, "1": 1}, "label": "warmup"}'


@dataclass(frozen=True)
class Item:
    """One closed-loop request: a verify check, or one series-side value."""

    id: str
    kind: str  # "check", "l_value", "l_star" or "l_value_limit"
    form: str  # form descriptor, as accepted by verify.resolve_form
    theorem: str = ""
    params: dict = field(default_factory=dict)
    tolerance: float = 0.0


@dataclass
class Outcome:
    values: tuple  # the program's outputs, compared bitwise between runs
    status: str  # "pass", "fail" or "skipped"
    abs_err: float | None  # gap between the two pipelines, None if unchecked
    message: str = ""


def _rng(workload: str, seed: int, pass_index: int = 0) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_index}")


def _coeff(rng: random.Random) -> list[float]:
    return [round(rng.uniform(-1, 1), 6), round(rng.uniform(-1, 1), 6)]


def _stratum(rng: random.Random, j: int, n: int, lo: float, hi: float) -> float:
    """A uniform draw from the j-th of n equal sub-intervals of [lo, hi]."""
    return round(lo + (hi - lo) * (j + rng.random()) / n, 6)


def _synth(k: int, holo: dict, nonholo: dict | None = None) -> str:
    data = {"k": k, "holo": {str(n): c for n, c in holo.items()}}
    if nonholo:
        data["nonholo"] = {str(n): c for n, c in nonholo.items()}
    return "synth:" + json.dumps(data)


def _whf_form(rng: random.Random, k: int, n_cusp: int) -> str:
    """Weakly holomorphic: principal part q^-1 plus n_cusp (1 to 3) cusp terms."""
    ns = [-1] + sorted(rng.sample([1, 2, 3], n_cusp))
    return _synth(k, {n: _coeff(rng) for n in ns})


def _harmonic_form(rng: random.Random, k: int, n_nonholo: int, n_holo: int) -> str:
    """Harmonic: 1 or 2 non-holomorphic terms and n_holo holomorphic ones."""
    nonholo = {n: _coeff(rng) for n in (-1, -2)[:n_nonholo]}
    holo_ns = sorted(rng.sample([-1, 1, 2], n_holo))
    return _synth(k, {n: _coeff(rng) for n in holo_ns}, nonholo)


def _check(id_: str, theorem: str, form: str, **params) -> Item:
    return Item(id_, "check", form, theorem, params, FRESH_TOLERANCE[theorem])


def _fresh_items(seed: int, pass_index: int) -> list[Item]:
    """One pass of fresh checks, laid out in slots shared by every pass.

    A slot fixes the shape that drives a check's cost (theorem, weight,
    numbers of terms, narrow bands of s and Im w); the pass draws everything
    else afresh, so no form or (s, w) is ever repeated.  Every seed uses the
    same slot shapes, in a seeded order.  Forms have at most 4 coefficients.
    """
    rng = _rng("fresh-forms", seed, pass_index)
    n = FRESH_PER_THEOREM
    items = []
    for j in range(n):
        k = (0, -2)[j % 2]
        n_cusp = 1 + j % 3
        n_nonholo = 1 + (j // 2) % 2
        n_holo = j % (5 - 2 * n_nonholo)  # 0-2 with one nonholo term, 0 with two
        im_w = _stratum(rng, j, n, 0.8, 1.5)
        # Re w sets the remainder's cutoff 1 + 46/(2 pi + Re w); above 0.3 it
        # stays below 8, so every slot integrates over the same panels
        re_w = _stratum(rng, n - 1 - j, n, 0.35, 1.0)
        tag = f"p{pass_index}-{j}"
        items.append(_check(
            f"{tag}-maincor", "thm_maincor", _whf_form(rng, k, n_cusp),
            s=_stratum(rng, j, n, -1.5, 2.5), w=[round(rng.uniform(-0.5, 0.5), 6), im_w]))
        for theorem in ("thm_main", "r_form_equality"):
            items.append(_check(
                f"{tag}-{theorem}", theorem, _harmonic_form(rng, k, n_nonholo, n_holo),
                s=_stratum(rng, j, n, 0.3, 2.5),
                w=[re_w, round(im_w * rng.uniform(0.98, 1.02), 6)]))
        items.append(_check(f"{tag}-bernWHF", "cor_bernWHF", _whf_form(rng, k, n_cusp),
                            m=j % 4))
        items.append(_check(f"{tag}-polyl", "cor_polyl",
                            _harmonic_form(rng, k, n_nonholo, n_holo), m=1))
        items.append(_check(f"{tag}-hurw", "cor_hurw", _whf_form(rng, k, n_cusp),
                            s=_stratum(rng, j, n, -2.5, -0.2)))
        # Heights stay below Im z = 1.8: above about 1.9 the absolute-tolerance
        # bisection on a q^-1 form needs seconds, and near 2.2 it stalls.
        a = _stratum(rng, j, n, 1.0, 1.3)
        items.append(_check(f"{tag}-compact", "sect6_compact", _whf_form(rng, k, n_cusp),
                            phi=COMPACT_SEEDS[j % 3], a=a,
                            b=round(a + rng.uniform(0.2, 0.5), 6)))
    order = list(range(len(items)))
    _rng("fresh-forms-order", seed).shuffle(order)
    return [items[i] for i in order]


def _lseries_items(seed: int) -> list[Item]:
    rng = _rng("lseries", seed)
    forms = {"J": "J", "Jsq": "Jsq"}
    for i, n_max in enumerate(LSERIES_SYNTH_SIZES):
        holo = {-1: _coeff(rng)}
        holo.update({n: _coeff(rng) for n in range(1, n_max + 1)})
        forms[f"synth{i}"] = _synth(rng.choice((0, -2)), holo)
    items = []
    for name, desc in forms.items():
        for j in range(LSERIES_PER_FORM["l_value"]):
            s = round(rng.uniform(-2.0, 3.0), 6)
            w = [round(rng.uniform(-1.0, 1.0), 6), round(rng.uniform(0.2, 2.0), 6)]
            items.append(Item(f"{name}-lv{j}", "l_value", desc, params={"s": s, "w": w}))
        for j in range(LSERIES_PER_FORM["l_star"]):
            items.append(Item(f"{name}-star{j}", "l_star", desc,
                              params={"s": round(rng.uniform(-2.5, 3.0), 6)}))
        for j in range(LSERIES_PER_FORM["l_value_limit"]):
            items.append(Item(f"{name}-lim{j}", "l_value_limit", desc,
                              params={"m": rng.randint(-1, 3)}))
    rng.shuffle(items)
    return items


def make_items(workload: str, seed: int, pass_index: int = 0) -> list[Item]:
    """The items of one pass; only fresh-forms differs from pass to pass.

    Item i of every pass fills the same slot: the same item, or for
    fresh-forms a fresh item of the same shape.
    """
    if workload == "suite":
        from maassl import verify

        items = [Item(c.id, "check", c.form, c.theorem, c.params, c.tolerance)
                 for c in verify.default_suite()]
        _rng("suite", seed).shuffle(items)
        return items
    if workload == "lseries":
        return _lseries_items(seed)
    if workload == "fresh-forms":
        return _fresh_items(seed, pass_index)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def repeats_items(workload: str) -> bool:
    """Whether every pass of the workload runs the same items."""
    return workload != "fresh-forms"


def oracle_sample(workload: str, seed: int, items: list[Item]) -> list[Item]:
    """The seeded lseries items whose values the mpmath oracle checks."""
    if workload != "lseries":
        return []
    rng = _rng("lseries-oracle", seed)
    groups: dict[tuple, list[Item]] = {}
    for item in items:
        groups.setdefault((item.form, item.kind), []).append(item)
    sample = []
    for key in sorted(groups):
        sample.extend(rng.sample(groups[key], ORACLE_PER_KIND_AND_FORM))
    return sample


def setup(items: list[Item], build_forms: bool) -> dict:
    """Build the forms that items share and fill maassl's lazy caches.

    Returns the form table used by the series-side items.  Fresh forms are
    not built here: resolving them is part of each check's cost.
    """
    from maassl import verify

    verify.run_check(verify.CheckSpec("warmup", "cor_hurw", WARMUP_FORM, {"s": -2.5}))
    verify.run_check(verify.CheckSpec("warmup", "cor_bernWHF", WARMUP_FORM, {"m": 0}))
    if not build_forms:
        return {}
    return {desc: verify.resolve_form(desc) for desc in sorted({i.form for i in items})}


def run_item(item: Item, forms: dict) -> Outcome:
    """Run one item through the public API; exceptions count as failures."""
    from maassl import ltest, verify

    if item.kind == "check":
        spec = verify.CheckSpec(item.id, item.theorem, item.form, item.params,
                                item.tolerance)
        r = verify.run_check(spec)
        return Outcome((complex(r.lhs), complex(r.rhs)), r.status, r.abs_err, r.message)
    f = forms[item.form]
    p = item.params
    try:
        if item.kind == "l_value":
            value = ltest.l_value(f, ltest.PhiSW(p["s"], complex(*p["w"]))).value
            values = (complex(value),)
        elif item.kind == "l_star":
            values = (complex(ltest.l_star(f, p["s"])),)
        else:
            value, est = ltest.l_value_limit(f, p["m"])
            values = (complex(value), float(est))
    except Exception as exc:  # a raising item is a failed item
        return Outcome((), "fail", None, f"{type(exc).__name__}: {exc}")
    ok = all(math.isfinite(abs(v)) for v in values)
    return Outcome(values, "pass" if ok else "fail", None, "" if ok else "non-finite value")


def bits(values: tuple) -> list[str]:
    """Exact representation of an item's outputs, for bitwise comparison."""
    out = []
    for v in values:
        z = complex(v)
        out.extend((z.real.hex(), z.imag.hex()))
    return out
