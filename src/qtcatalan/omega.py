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
a region up in the region list of :mod:`qtcatalan.dyck` and writes the
family's row table and domain rows, and the region's rows, those the path
classifiers are generated from, as one coefficient table, each column a
geometric factor, as in Xin's fast algorithm.  The closed rational forms
they eliminate to are transcribed in ``data/closed_forms.json`` and loaded
by :func:`closed_form`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache
from importlib import resources
from itertools import product
from math import inf
from operator import add, itemgetter, mul
from typing import Mapping, Sequence

from .catalan import gf_series3, gf_series4
from .dyck import (_DOMAIN3, _DOMAIN4, _F_PART_CUTS, _F_PARTS, _H_PART_CUTS, _H_PARTS, _ROW3,
                   _ROW4, Linear, _at_parity, _regions, _split_rows)
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
            if not all(isinstance(n, str) for n in self.weights):
                raise ValueError(f"weight names must be strings, got {list(self.weights)!r}")
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


def _check_types(fn: str, *args: tuple[object, type]) -> None:
    """Raise TypeError naming ``fn`` and the type it takes, for each (value,
    type) of ``args`` whose value is of another type."""
    for value, cls in args:
        if not isinstance(value, cls):
            raise TypeError(f"{fn} takes a {cls.__name__}, got {type(value).__name__}")


def _check_monomial(role: str, mono: tuple, n: int) -> None:
    if len(mono) != n:
        raise ValueError(f"{role} monomial length mismatch")
    bad = [e for e in mono if type(e) is not int]
    if bad:
        raise ValueError(f"{role} monomial {mono!r} has non-integer exponent {bad[0]!r}")


@dataclass
class FactoredOmegaExpr:
    """Signed monomial numerator over a product of (1 - monomial) factors.

    ``vars`` is stored as a :class:`VarTable`, and taken as it takes its
    names.  Coefficients and exponents must be ints (exact integer
    arithmetic); every monomial is stored as a tuple.
    """

    vars: VarTable
    numerator: list[tuple[int, tuple[int, ...]]]
    factors: list[tuple[int, ...]]
    elim: EliminationSpec = field(default_factory=dict)

    def __post_init__(self):
        self.vars = VarTable(self.vars)
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
        return tuple(n for n in self.vars if n not in self.elim)

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

    A factor of positive weight is bounded by what is left of wv.bound.  A
    factor of weight 0 is accepted where an eliminated variable settled
    there bounds its multiplicity from above: a ``zero`` one, or a
    ``nonneg`` one with a negative coefficient.  So a crude form, whose
    x-free summation variables are each capped by a domain or mu row at
    their last factor, expands on the exact slice of total x-degree <= N
    under weight 1 on each x and 0 elsewhere.

    Raises ValueError, before any search, if a factor has negative weight,
    or weight 0 and no such cap (the expansion would not terminate), and
    TypeError for an argument that is no FactoredOmegaExpr or WeightVector.
    """
    _check_types("expand_truncated", (expr, FactoredOmegaExpr), (wv, WeightVector))
    names = expr.vars
    retained = expr.retained_names
    wmap = dict(zip(retained, wv.resolve(retained)))
    w_full = [wmap.get(n, 0) for n in names]
    factors = expr.factors
    fwt = [sum(map(mul, w_full, f)) for f in factors]

    # An eliminated variable's exponent is final once its last touching
    # factor has its multiplicity n: with exponent v and coefficient c,
    # ``zero`` forces v + n*c == 0, and ``nonneg`` gives v + n*c >= 0, a
    # lower bound on n if c > 0 and an upper one if c < 0.
    settle: list[list[tuple[int, bool, int]]] = [[] for _ in factors]
    untouched = []
    for ie, n in enumerate(names):
        if n in expr.elim:
            is_zero = expr.elim[n] == MODE_ZERO
            touching = [j for j, f in enumerate(factors) if f[ie]]
            if touching:
                settle[touching[-1]].append((ie, is_zero, factors[touching[-1]][ie]))
            else:
                untouched.append((ie, is_zero))
    for f, w, settled in zip(factors, fwt, settle):
        if w < 0 or w == 0 and not any(is_zero or c < 0 for _, is_zero, c in settled):
            desc = {names[i]: e for i, e in enumerate(f) if e}
            raise ValueError(f"factor {desc} has nonpositive weight {w}; "
                             f"expansion would not terminate")
    if not expr.elim:
        return SparsePoly._owning(expr.retained_vars(), _expand_geometric(
            expr.numerator, factors, fwt, w_full, wv.bound))

    ret_idx = [i for i, n in enumerate(names) if n not in expr.elim]
    fexps = [tuple((i, c) for i, c in enumerate(f) if c) for f in factors]
    nf = len(factors)
    acc: dict[tuple[int, ...], int] = {}
    cur = [0] * len(names)
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
        # a factor of weight 0 is capped by a variable settled at it
        lo, hi = 0, rem // wt if wt else inf
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
        rem = wv.bound - sum(map(mul, w_full, mono))
        if rem < 0:
            continue
        cur[:] = mono
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
    _check_types("truncate_weighted", (p, SparsePoly), (wv, WeightVector))
    w = wv.resolve(p.vars)
    return SparsePoly._owning(p.vars, {exps: c for exps, c in p.terms.items()
                                       if sum(wi * e for wi, e in zip(w, exps)) <= wv.bound})


@dataclass(frozen=True)
class SeriesDiff:
    """Outcome of a truncated series comparison."""

    equal: bool
    witness: tuple[int, ...] | None = None
    left: int = 0
    right: int = 0
    # the variable table the witness's exponents follow
    names: tuple[str, ...] = field(default=(), compare=False)


def series_equal(p: SparsePoly, r: SparsePoly, wv: WeightVector) -> SeriesDiff:
    """Compare all terms of weighted degree <= wv.bound.

    On mismatch the witness is the first differing exponent tuple in
    canonical (descending lexicographic) order.  Once the variable tables
    and weights are checked, equal term dicts end the comparison; else only
    differing terms are weighed, so operands within the bound go untruncated.
    """
    _check_types("series_equal", (p, SparsePoly), (r, SparsePoly), (wv, WeightVector))
    if p.vars != r.vars:
        raise ValueError(f"variable table mismatch: {p.vars!r} vs {r.vars!r}")
    w = wv.resolve(p.vars)
    pt, rt = p.terms, r.terms
    if pt == rt:
        return SeriesDiff(True)
    diffs = [key for key in pt.keys() | rt.keys() if pt.get(key, 0) != rt.get(key, 0)
             and sum(wi * e for wi, e in zip(w, key)) <= wv.bound]
    if not diffs:
        return SeriesDiff(True)
    key = max(diffs)
    return SeriesDiff(False, key, pt.get(key, 0), rt.get(key, 0), tuple(p.vars))


# ----------------------------------------------------------------------
# crude generating functions from constraint systems

def _crude(row: Mapping[str, Linear | None], domain: list[Linear], part_cuts: list[Linear],
           parts: Sequence[tuple], region: str) -> FactoredOmegaExpr:
    """Crude expression of a family's ``region``, found in :func:`_regions`.

    The region is one coefficient table with a row per variable, in variable
    order: the retained functionals (``row``, in its key order, its "t" the
    bounce), the slack rows L >= 0 (l1.., ``nonneg``: ``domain``, the part's
    and the case's), then a row A - z*p per ceiling p = ceil(A/z) (mu, or
    mu1.. for two; ``zero``), a table in s rewritten at its parity r.  Each
    summation variable's column is a factor, the "const" column is the base
    monomial, and the numerator runs each mu through range(z)."""
    found = {label: entry for label, _, *entry in _regions(parts)}
    if region not in found:
        raise ValueError(f"unknown region {region!r}; expected one of {tuple(found)}")
    part, case, r = found[region]
    sum_vars, cuts, cases = parts[part]
    bounce, ceilings = cases[case]
    slack = domain + _split_rows(part_cuts, part) + _split_rows(cuts, case)
    lams = [f"l{i + 1}" for i in range(len(slack))]
    mus = [f"mu{i + 1}" if len(ceilings) > 1 else "mu" for i in range(len(ceilings))]
    functionals = [bounce if f is None else f for f in row.values()]
    table = [f if r is None else _at_parity(f, r)
             for f in functionals + slack + [{**a, p: a.get(p, 0) - z} for z, a, p in ceilings]]
    factors = [tuple(f.get(v, 0) for f in table)
               for v in sum_vars if v != "p" or ceilings]
    const = [f.get("const", 0) for f in table]
    pad = (0,) * (len(table) - len(ceilings))
    numerator = [(1, tuple(c + j for c, j in zip(const, pad + js)))
                 for js in product(*(range(z) for z, _, _ in ceilings))]
    return FactoredOmegaExpr(VarTable([*row, *lams, *mus]), numerator, factors,
                             dict.fromkeys(lams, MODE_NONNEG) | dict.fromkeys(mus, MODE_ZERO))


def build_crude_F(region: str) -> FactoredOmegaExpr:
    """Crude generating function for one length-3 bounce region."""
    return _crude(_ROW3, _DOMAIN3, _F_PART_CUTS, _F_PARTS, region)


def build_crude_H(region: str) -> FactoredOmegaExpr:
    """Crude generating function for one k^4 bounce region."""
    return _crude(_ROW4, _DOMAIN4, _H_PART_CUTS, _H_PARTS, region)


# ----------------------------------------------------------------------
# closed forms


@cache
def _closed_form_registry() -> dict:
    text = resources.files("qtcatalan.data").joinpath("closed_forms.json").read_text()
    return json.loads(text)


def closed_form(form_id: str) -> FactoredOmegaExpr:
    """Closed rational form from the registry, with nothing to eliminate."""
    registry = _closed_form_registry()
    if not isinstance(form_id, str) or form_id not in registry:
        raise ValueError(f"unknown closed form {form_id!r}; "
                         f"expected one of {tuple(registry)}")
    entry = registry[form_id]
    vt = VarTable(entry["vars"])
    numerator = [(item["coeff"], vt.exponents(item["monomial"]))
                 for item in entry["numerator"]]
    factors = [vt.exponents(f) for f in entry["factors"]]
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
    sum.  Each x has weight 1 and every other variable 0, so each side is
    expanded, and compared, on exactly that slice, whatever the others hold.

    Returns the named comparisons in that order and the number of terms in
    the path sum.
    """
    if section not in GF_SECTIONS:
        raise ValueError(f"unknown section {section!r}; expected one of {GF_SECTIONS}")
    family, _, region = section.partition(" ")
    three = family in ("F", "EQ1")
    oracle = (gf_series3 if three else gf_series4)(max_order, region=region or None,
                                                    refined=bool(region))
    x_names = ("x1", "x2", "x3") if three else ("x",)
    wv = WeightVector(max_order, {n: int(n in x_names) for n in oracle.vars})
    closed = expand_truncated(closed_form(_SECTION_IDS[section]), wv)
    if not region:
        return [(section, series_equal(closed, oracle, wv))], len(oracle.terms)
    crude = expand_truncated((build_crude_F if three else build_crude_H)(region), wv)
    return ([("crude_vs_closed", series_equal(crude, closed, wv)),
             ("closed_vs_paths", series_equal(closed, oracle, wv))],
            len(oracle.terms))
