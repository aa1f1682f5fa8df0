"""Truncated partition-analysis engine.

A :class:`FactoredOmegaExpr` denotes numerator / prod_j (1 - m_j) over
*retained* and *eliminated* variables, an eliminated variable keeping the
terms whose exponent in it is >= 0 (mode ``nonneg``) or 0 (``zero``) and
then being set to 1.

:func:`expand_truncated` expands every factor geometrically, exact for all
terms up to a weighted degree on the retained variables: by geometric
division when nothing is eliminated (the closed forms), else (the crude
forms) by a multiplicity search that settles each eliminated variable at
the last factor touching it, as in the last-factor step of MacMahon's
partition analysis (Andrews, Paule and Riese; Xin).

The crude generating functions are *generated* by one builder, which looks
a region up in the region list of :mod:`qtcatalan.dyck` and writes its rows,
those the path classifiers are generated from, as one coefficient table,
each column a geometric factor, as in Xin's fast algorithm.  The closed
rational forms they eliminate to are transcribed in
``data/closed_forms.json`` and loaded by :func:`closed_form`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache
from importlib import resources
from itertools import product
from operator import add, itemgetter, mul
from typing import Mapping, Sequence

from .catalan import GF3_REFINED_VARS, GF4_REFINED_VARS, gf_series3, gf_series4
from .dyck import (_BOUNDS3, _F_PART_CUTS, _F_PARTS, _H_PART_CUTS, _H_PARTS, Linear,
                   _case, _regions)
from .polynomial import SparsePoly, VarTable

MODE_NONNEG = "nonneg"
MODE_ZERO = "zero"

# per eliminated variable: MODE_NONNEG keeps exponents >= 0, MODE_ZERO
# keeps exponent == 0; the variable is then set to 1
EliminationSpec = dict[str, str]


@dataclass(frozen=True)
class WeightVector:
    """Truncation discipline: weight per retained variable plus a bound.

    Variables missing from ``weights`` default to weight 1.  Terms of
    weighted total degree <= ``bound`` are computed exactly.
    """

    bound: int
    weights: Mapping[str, int] | None = None

    def __post_init__(self):
        if type(self.bound) is not int or self.bound < 0:
            raise ValueError(f"bound must be a nonnegative integer, got {self.bound!r}")
        if self.weights is not None and not isinstance(self.weights, Mapping):
            raise ValueError(f"weights must be a mapping of names, got {self.weights!r}")
        if self.weights:
            bad = {n: w for n, w in self.weights.items() if type(w) is not int or w < 0}
            if bad:
                raise ValueError(f"weights must be nonnegative integers: {bad}")

    def resolve(self, names: Sequence[str]) -> list[int]:
        """Weights for the given variables, defaulting to 1."""
        wmap = dict(self.weights or {})
        unknown = set(wmap) - set(names)
        if unknown:
            raise ValueError(f"weights given for unknown variables {sorted(unknown)}")
        return [wmap.get(n, 1) for n in names]


def _check_monomial(role: str, mono: tuple, n: int) -> None:
    if len(mono) != n:
        raise ValueError(f"{role} monomial length mismatch")
    bad = [e for e in mono if type(e) is not int]
    if bad:
        raise ValueError(f"{role} monomial {mono!r} has non-integer exponent {bad[0]!r}")


@dataclass
class FactoredOmegaExpr:
    """Signed monomial numerator over a product of (1 - monomial) factors.

    Coefficients and exponents must be ints (exact integer arithmetic);
    every monomial is stored as a tuple.
    """

    vars: VarTable
    numerator: list[tuple[int, tuple[int, ...]]]
    factors: list[tuple[int, ...]]
    elim: EliminationSpec = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.vars)
        for name, mode in self.elim.items():
            self.vars.index(name)
            if mode not in (MODE_NONNEG, MODE_ZERO):
                raise ValueError(f"unknown elimination mode {mode!r} for {name!r}")
        self.numerator = [(coeff, tuple(mono)) for coeff, mono in self.numerator]
        self.factors = [tuple(mono) for mono in self.factors]
        for coeff, mono in self.numerator:
            if type(coeff) is not int:
                raise ValueError(f"numerator coefficient {coeff!r} is not an integer")
            _check_monomial("numerator", mono, n)
        for mono in self.factors:
            _check_monomial("factor", mono, n)

    @property
    def retained_names(self) -> tuple[str, ...]:
        return tuple(n for n in self.vars.names if n not in self.elim)

    def retained_vars(self) -> VarTable:
        return VarTable(self.retained_names)


def expand_truncated(expr: FactoredOmegaExpr, wv: WeightVector) -> SparsePoly:
    """Expand with elimination, exact up to retained weighted degree wv.bound.

    With nothing to eliminate (``expr.elim`` empty, as for the closed
    forms) the series is built by geometric division, one sweep over
    degree buckets per factor (:func:`_expand_geometric`).  Otherwise a
    depth-first search picks each factor's multiplicity in turn.  At the
    last factor touching an eliminated variable the multiplicity is forced
    (``zero``) or bounded (``nonneg``), so every branch it keeps satisfies
    that variable's mode; a variable no factor touches is checked on the
    numerator term.  A leaf reads its key with one ``itemgetter`` call.

    Raises ValueError if any factor has nonpositive retained weight (the
    expansion would not terminate).
    """
    names = expr.vars.names
    n_all = len(names)
    retained = expr.retained_names
    ret_weights = wv.resolve(retained)
    wmap = dict(zip(retained, ret_weights))
    w_full = [wmap.get(n, 0) for n in names]

    factors = expr.factors
    fwt = []
    for f in factors:
        w = sum(w_full[i] * f[i] for i in range(n_all))
        if w <= 0:
            desc = {names[i]: f[i] for i in range(n_all) if f[i]}
            raise ValueError(f"factor {desc} has nonpositive weight {w}; "
                             f"expansion would not terminate")
        fwt.append(w)
    if not expr.elim:
        return SparsePoly._owning(expr.retained_vars(), _expand_geometric(
            expr.numerator, factors, fwt, w_full, wv.bound))

    ret_idx = [i for i, n in enumerate(names) if n not in expr.elim]
    elim_info = [(i, expr.elim[n]) for i, n in enumerate(names) if n in expr.elim]
    fexps = [tuple((i, c) for i, c in enumerate(f) if c) for f in factors]
    nf = len(factors)

    # An eliminated variable's exponent is final once its last touching
    # factor has its multiplicity n: with exponent v and coefficient c,
    # ``zero`` forces v + n*c == 0, and ``nonneg`` gives v + n*c >= 0, a
    # lower bound on n if c > 0 and an upper one if c < 0.
    settle: list[list[tuple[int, bool, int]]] = [[] for _ in range(nf)]
    untouched = []
    for ie, mode in elim_info:
        touching = [j for j in range(nf) if factors[j][ie]]
        if touching:
            last = touching[-1]
            settle[last].append((ie, mode == MODE_ZERO, factors[last][ie]))
        else:
            untouched.append((ie, mode == MODE_ZERO))

    acc: dict[tuple[int, ...], int] = {}
    cur = [0] * n_all
    # itemgetter returns a bare item for one index and takes no empty
    # index list, so those keys are built as tuples
    retained_of = (itemgetter(*ret_idx) if len(ret_idx) > 1
                   else lambda cur: tuple(cur[i] for i in ret_idx))

    def rec(j: int, rem: int, sign: int):
        if j == nf:
            key = retained_of(cur)
            acc[key] = acc.get(key, 0) + sign
            return
        wt = fwt[j]
        lo, hi = 0, rem // wt
        for ie, is_zero, c in settle[j]:
            v = cur[ie]
            if is_zero:
                n, r = divmod(-v, c)
                if r:
                    return
                lo, hi = max(lo, n), min(hi, n)
            elif c > 0:
                lo = max(lo, -(v // c))
            else:
                hi = min(hi, v // -c)
        if lo > hi:
            return
        exps = fexps[j]
        if lo:
            rem -= lo * wt
            for i, c in exps:
                cur[i] += lo * c
        rec(j + 1, rem, sign)
        for _ in range(lo, hi):
            rem -= wt
            for i, c in exps:
                cur[i] += c
            rec(j + 1, rem, sign)
        if hi:
            for i, c in exps:
                cur[i] -= hi * c

    for coeff, mono in expr.numerator:
        # a variable no factor touches is settled by the numerator term
        if any(mono[ie] if is_zero else mono[ie] < 0 for ie, is_zero in untouched):
            continue
        mw = sum(w_full[i] * mono[i] for i in range(n_all))
        rem = wv.bound - mw
        if rem < 0:
            continue
        for i in range(n_all):
            cur[i] = mono[i]
        rec(0, rem, coeff)
    # rec refers to itself; without this the cycle would keep acc, the
    # result's terms, alive until the cyclic GC next runs
    del rec

    return SparsePoly._owning(expr.retained_vars(), acc)


def _expand_geometric(numerator: list[tuple[int, tuple[int, ...]]],
                      factors: list[tuple[int, ...]], fwt: list[int],
                      w_full: list[int], bound: int) -> dict[tuple[int, ...], int]:
    """Terms of weighted degree <= ``bound`` of numerator / prod (1 - m).

    The terms are kept in buckets by weighted degree.  Dividing by 1 - m,
    for a factor m of weight w, adds every bucket d times m into bucket
    d + w; sweeping d upward carries each addition on, so every term picks
    up all powers of m that fit under the bound.
    """
    buckets: dict[int, dict[tuple[int, ...], int]] = {}
    for coeff, mono in numerator:
        d = sum(w * e for w, e in zip(w_full, mono))
        if d <= bound:
            bucket = buckets.setdefault(d, {})
            bucket[mono] = bucket.get(mono, 0) + coeff
    # later buckets only ever lie above the lowest numerator degree
    lowest = min(buckets, default=bound)
    for f, w in zip(factors, fwt):
        for d in range(lowest, bound - w + 1):
            src = buckets.get(d)
            if src:
                dst = buckets.setdefault(d + w, {})
                for mono, c in src.items():
                    if c:
                        key = tuple(map(add, mono, f))
                        dst[key] = dst.get(key, 0) + c
    # a monomial has one weighted degree, so the buckets share no key
    return {mono: c for bucket in buckets.values() for mono, c in bucket.items()}


def truncate_weighted(p: SparsePoly, wv: WeightVector) -> SparsePoly:
    """Drop terms of weighted degree above wv.bound."""
    w = wv.resolve(p.vars.names)
    return SparsePoly._owning(p.vars, {exps: c for exps, c in p.terms.items()
                                       if sum(wi * e for wi, e in zip(w, exps)) <= wv.bound})


@dataclass(frozen=True)
class SeriesDiff:
    """Outcome of a truncated series comparison."""

    equal: bool
    witness: tuple[int, ...] | None = None
    left: int = 0
    right: int = 0


def series_equal(p: SparsePoly, r: SparsePoly, wv: WeightVector) -> SeriesDiff:
    """Compare all terms of weighted degree <= wv.bound.

    On mismatch the witness is the first differing exponent tuple in
    canonical (descending lexicographic) order.  Once the variable tables
    and weights are checked, equal term dicts end the comparison; else only
    differing terms are weighed, so operands within the bound go untruncated.
    """
    if p.vars != r.vars:
        raise ValueError(f"variable table mismatch: {p.vars!r} vs {r.vars!r}")
    w = wv.resolve(p.vars.names)
    pt, rt = p.terms, r.terms
    if pt == rt:
        return SeriesDiff(True)
    diffs = [key for key in pt.keys() | rt.keys() if pt.get(key, 0) != rt.get(key, 0)
             and sum(wi * e for wi, e in zip(w, key)) <= wv.bound]
    if not diffs:
        return SeriesDiff(True)
    key = max(diffs)
    return SeriesDiff(False, key, pt.get(key, 0), rt.get(key, 0))


def slice_weight_vector(oracle: SparsePoly, x_names: Sequence[str],
                        base: Mapping[str, int], max_x_total: int,
                        min_m: int = 0) -> WeightVector:
    """Weight vector whose truncation set is exactly an x-degree slice.

    ``oracle`` must contain every term with total x-degree <= ``max_x_total``
    of the series under test.  The non-x variables get the ``base`` weights;
    the x variables get M+1 where M is the largest base-weighted degree any
    oracle term carries outside the x's (at least ``min_m``; the base weights
    dotted with 0 at the x's).  Terms with total x-degree at most
    ``max_x_total`` then all fit under the bound, while any term with larger
    x-degree exceeds it.  M < 0 gives a negative bound: ValueError.
    """
    x_set = set(x_names)
    w = [0 if n in x_set else base.get(n, 1) for n in oracle.vars.names]
    m = max(min_m, max((sum(map(mul, w, exps)) for exps in oracle.terms), default=min_m))
    weights = dict(base)
    for x in x_names:
        weights[x] = m + 1
    return WeightVector(bound=max_x_total * (m + 1) + m, weights=weights)


def slice_term_bound(expr: FactoredOmegaExpr, x_names: Sequence[str],
                     base: Mapping[str, int], max_x_total: int) -> int:
    """Largest base-weighted non-x degree a slice term of ``expr`` can have.

    Requires every factor to carry positive total x-degree, so a term of
    total x-degree <= ``max_x_total`` uses at most that many factor copies.
    Passing the result as ``min_m`` to :func:`slice_weight_vector` makes a
    slice comparison against ``expr`` complete rather than bounded by what
    the oracle happens to contain.
    """
    names = expr.vars.names
    x_set = set(x_names)
    base_w = [0 if n in x_set else base.get(n, 1) for n in names]
    x_deg = [1 if n in x_set else 0 for n in names]

    def qty(mono):
        return sum(w * e for w, e in zip(base_w, mono))

    worst = 0
    for mono in expr.factors:
        if sum(d * e for d, e in zip(x_deg, mono)) <= 0:
            raise ValueError("factor without x content; slice bound unavailable")
        worst = max(worst, qty(mono))
    num = max((qty(mono) for _, mono in expr.numerator), default=0)
    return max_x_total * worst + max(0, num)


# ----------------------------------------------------------------------
# crude generating functions from constraint systems

# Base weights under which every crude factor has positive weight; the
# default all-ones vector gives e.g. the P1C2 r2-factor (q y2 / t^2)
# weight zero, so the y variables are weighted 2.
F_BASE_WEIGHTS = {"q": 1, "t": 1, "y2": 2, "y3": 2}
H_BASE_WEIGHTS = {"q": 1, "t": 1, "y2": 2, "y3": 2, "y4": 2}


def _at_parity(row: Linear, r: int) -> Linear:
    """``row`` over s, with b = 2s + r and the parity symbol "r" set to r."""
    out = {v: c for v, c in row.items() if v not in ("b", "r")}
    out["s"] = out.get("s", 0) + 2 * row.get("b", 0)
    out["const"] = out.get("const", 0) + r * (row.get("b", 0) + row.get("r", 0))
    return out


# Each family's retained functionals and path domain rows.  The region
# tables, which the path classifiers are generated from too, are dyck's.

_BASE3 = {"q": {"r2": 1, "r3": 1}, "x1": {"k1": 1}, "x2": {"k2": 1},
          "x3": {"k3": 1}, "y2": {"r2": 1}, "y3": {"r3": 1}}
_BASE4 = {"q": {"k": 6, "a": -3, "b": -2, "c": -1}, "x": {"k": 1},
          "y2": {"a": 1}, "y3": {"b": 1}, "y4": {"c": 1}}
_DOMAIN4 = [{"k": 1, "a": -1},                        # a <= k
            {"k": 2, "a": -1, "b": -1},               # b <= 2k - a
            {"k": 3, "a": -1, "b": -1, "c": -1}]      # c <= 3k - a - b


def _crude(retained: Sequence[str], base: Mapping[str, Linear], domain: list[Linear],
           part_cuts: list[Linear], parts: Sequence[tuple], region: str) -> FactoredOmegaExpr:
    """Crude expression of a family's ``region``, found in :func:`_regions`.

    The region is one coefficient table with a row per variable, in variable
    order: the retained functionals (``base``, and the bounce as "t"), the
    slack rows L >= 0 (l1.., ``nonneg``: ``domain``, the part's and the
    case's), then a row A - z*p per ceiling p = ceil(A/z) (mu, or mu1.. for
    two; ``zero``), a table in s rewritten at its parity r.  Each summation
    variable's column is a factor, the "const" column is the base monomial,
    and the numerator runs each mu through range(z)."""
    found = {label: entry for label, _, *entry in _regions(parts)}
    if region not in found:
        raise ValueError(f"unknown region {region!r}; expected one of {tuple(found)}")
    part, case, r = found[region]
    sum_vars, cuts, cases = parts[part]
    bounce, ceilings = cases[case]
    slack = domain + _case(part_cuts, part) + _case(cuts, case)
    lams = [f"l{i + 1}" for i in range(len(slack))]
    mus = [f"mu{i + 1}" if len(ceilings) > 1 else "mu" for i in range(len(ceilings))]
    functionals = {**base, "t": bounce}
    table = [row if r is None else _at_parity(row, r)
             for row in [functionals[name] for name in retained] + slack
             + [{**a, p: a.get(p, 0) - z} for z, a, p in ceilings]]
    factors = [tuple(row.get(v, 0) for row in table)
               for v in sum_vars if v != "p" or ceilings]
    const = [row.get("const", 0) for row in table]
    pad = (0,) * (len(table) - len(ceilings))
    numerator = [(1, tuple(c + j for c, j in zip(const, pad + js)))
                 for js in product(*(range(z) for z, _, _ in ceilings))]
    return FactoredOmegaExpr(VarTable([*retained, *lams, *mus]), numerator, factors,
                             dict.fromkeys(lams, MODE_NONNEG) | dict.fromkeys(mus, MODE_ZERO))


def build_crude_F(region: str) -> FactoredOmegaExpr:
    """Crude generating function for one length-3 bounce region."""
    return _crude(GF3_REFINED_VARS, _BASE3, _BOUNDS3, _F_PART_CUTS, _F_PARTS, region)


def build_crude_H(region: str) -> FactoredOmegaExpr:
    """Crude generating function for one k^4 bounce region."""
    return _crude(GF4_REFINED_VARS, _BASE4, _DOMAIN4, _H_PART_CUTS, _H_PARTS, region)


# ----------------------------------------------------------------------
# closed forms


@cache
def _closed_form_registry() -> dict:
    text = resources.files("qtcatalan.data").joinpath("closed_forms.json").read_text()
    return json.loads(text)


def closed_form(form_id: str) -> FactoredOmegaExpr:
    """Closed rational form from the registry, with nothing to eliminate."""
    registry = _closed_form_registry()
    if form_id not in registry:
        raise ValueError(f"unknown closed form {form_id!r}; "
                         f"expected one of {tuple(registry)}")
    entry = registry[form_id]
    vt = VarTable(entry["vars"])

    def mono(exps: Mapping[str, int]) -> tuple[int, ...]:
        out = [0] * len(vt)
        for name, e in exps.items():
            out[vt.index(name)] = e
        return tuple(out)

    numerator = [(item["coeff"], mono(item["monomial"]))
                 for item in entry["numerator"]]
    factors = [mono(f) for f in entry["factors"]]
    return FactoredOmegaExpr(vt, numerator, factors, {})


# ----------------------------------------------------------------------
# verification sections

def _form_ids(family: str, parts: Sequence[tuple]) -> dict[str, str]:
    """Closed-form id of each gf section of a family's regions, from the
    region's number and case in :func:`_regions`: "F P1C2" -> "F12".  The two
    are written side by side while both have one digit, as every id in the
    registry does, and apart with "_" once either has two: "H P12C3" -> "H12_3"."""
    ids = {}
    for label, number, _, case, _ in _regions(parts):
        sep = "" if max(number, case + 1) < 10 else "_"
        ids[f"{family} {label}"] = f"{family}{number}{sep}{case + 1}"
    return ids


# gf section -> closed-form id; an identity section is its own id
_SECTION_IDS = {**_form_ids("F", _F_PARTS), "EQ1": "EQ1",
                **_form_ids("H", _H_PARTS), "EQ2": "EQ2"}
GF_SECTIONS = tuple(_SECTION_IDS)
CLOSED_FORM_IDS = tuple(_SECTION_IDS.values())


def check_gf_section(section: str, max_order: int
                     ) -> tuple[list[tuple[str, SeriesDiff]], int]:
    """Check one gf section on the slice of total x-degree <= max_order.

    A section (see ``GF_SECTIONS``) is a bounce region, "F P1C1" .. "H P3C3",
    or a product identity, "EQ1" or "EQ2".  A region compares its crude form
    with its closed form, then its closed form with the refined path sum of
    the region; an identity compares its product form with the plain path
    sum.  ``min_m`` comes from :func:`slice_term_bound` on the closed form,
    so every slice term of the closed form is compared.

    Returns the named comparisons in that order and the number of terms in
    the path sum.
    """
    if section not in GF_SECTIONS:
        raise ValueError(f"unknown section {section!r}; expected one of {GF_SECTIONS}")
    family, _, region = section.partition(" ")
    three = family in ("F", "EQ1")
    series = gf_series3 if three else gf_series4
    x_names = ("x1", "x2", "x3") if three else ("x",)
    form = closed_form(_SECTION_IDS[section])
    if region:
        oracle = series(max_order, region=region, refined=True)
        base = F_BASE_WEIGHTS if three else H_BASE_WEIGHTS
    else:
        oracle = series(max_order)
        base = {"q": 1, "t": 1}
    wv = slice_weight_vector(oracle, x_names, base, max_order,
                             min_m=slice_term_bound(form, x_names, base, max_order))
    closed = expand_truncated(form, wv)
    if not region:
        return [(section, series_equal(closed, oracle, wv))], len(oracle.terms)
    crude = expand_truncated((build_crude_F if three else build_crude_H)(region), wv)
    return ([("crude_vs_closed", series_equal(crude, closed, wv)),
             ("closed_vs_paths", series_equal(closed, oracle, wv))],
            len(oracle.terms))
