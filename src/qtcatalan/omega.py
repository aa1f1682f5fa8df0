"""Truncated partition-analysis engine.

A :class:`FactoredOmegaExpr` denotes

    numerator / prod_j (1 - m_j)

where the numerator is a signed sum of monomials and each m_j is a
monomial, over a variable table split into *retained* variables and
*eliminated* ones.  Eliminated variables carry a mode: ``nonneg`` keeps
the terms whose exponent in that variable is >= 0, ``zero`` keeps the
terms with exponent exactly 0; either way the variable is then set to 1.

:func:`expand_truncated` expands every factor geometrically, bounded by a
weighted total degree on the retained variables: every factor must have
strictly positive weight, which makes the expansion finite, and the result
is then exact for all terms of weighted degree <= the bound.  It has two
branches.  An expression with nothing to eliminate (the closed forms) is
expanded by geometric division: the numerator's terms are bucketed by
weighted degree and each factor is divided out in one upward sweep over
the buckets, at a cost of about terms x factors.  An expression with
eliminated variables (the crude forms) goes to a multiplicity search that
applies the elimination term by term.  Each eliminated variable is settled
at the last factor that touches it, where its mode forces that factor's
multiplicity (``zero``) or bounds it (``nonneg``), as in the last-factor
step of MacMahon's partition analysis (Andrews, Paule and Riese; Xin); so
the search visits a few nodes per emitted term.

The crude generating functions for the two path families are *generated*
from their linear constraint systems by :func:`build_crude_F` and
:func:`build_crude_H`.  A region's crude form is one coefficient table, a
row per variable and a column per summation variable: the retained
variables' functionals, a slack row per inequality L >= 0, and a row
A - z*p per ceiling p = ceil(A/z), whose auxiliary variable has mode
``zero`` and numerator 1 + mu + ... + mu^(z-1).  Each column is a
geometric factor, as in Xin's fast algorithm.  The closed rational forms
they eliminate to are transcribed in ``data/closed_forms.json`` and
loaded by :func:`closed_form`.

Each region's system is written as cut lines, each once: case i of a split
holds cut i and fails cut i - 1, whose strict complement -L - 1 >= 0 is
derived, so the cases partition what is split.  The k^4 parts 2 and 3 (even
and odd b) are one table in s and the parity r of b = 2s + r.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache, partial
from importlib import resources
from itertools import product
from operator import add
from typing import Mapping, Sequence

from .catalan import (F_REGIONS, GF3_REFINED_VARS, GF4_REFINED_VARS,
                      H_REGIONS, gf_series3, gf_series4)
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
    numerator term.

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

    def rec(j: int, rem: int, sign: int):
        if j == nf:
            key = tuple(cur[i] for i in ret_idx)
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
    canonical (descending lexicographic) order.  Only differing terms are
    weighed, so operands already within the bound are not truncated.
    """
    if p.vars != r.vars:
        raise ValueError(f"variable table mismatch: {p.vars!r} vs {r.vars!r}")
    w = wv.resolve(p.vars.names)
    pt, rt = p.terms, r.terms
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
    oracle term carries outside the x's (at least ``min_m``).  Terms with
    total x-degree at most ``max_x_total`` then all fit under the bound,
    while any term with larger x-degree exceeds it.
    """
    x_set = set(x_names)
    non_x = [(i, base.get(n, 1)) for i, n in enumerate(oracle.vars.names)
             if n not in x_set]
    m = min_m
    for exps in oracle.terms:
        m = max(m, sum(w * exps[i] for i, w in non_x))
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

Linear = Mapping[str, int]  # sum-variable coefficients, "const" for the constant


def _negated(row: Linear) -> Linear:
    """Strict complement of ``row >= 0``, written ``-row - 1 >= 0``."""
    out = {v: -c for v, c in row.items()}
    out["const"] = out.get("const", 0) - 1
    return out


def _case(cuts: list[Linear], i: int) -> list[Linear]:
    """Rows of case i (from 0) of a split by ``cuts``: it holds cut i and
    fails cut i - 1, so the cases partition what the split divides."""
    return cuts[i:i + 1] + ([_negated(cuts[i - 1])] if i else [])


def _at_parity(row: Linear, r: int) -> Linear:
    """``row`` over s, with b = 2s + r and the parity symbol "r" set to r."""
    out = {v: c for v, c in row.items() if v not in ("b", "r")}
    out["s"] = out.get("s", 0) + 2 * row.get("b", 0)
    out["const"] = out.get("const", 0) + r * (row.get("b", 0) + row.get("r", 0))
    return out


# A family's tables: the path domain rows; the cuts between its parts; per
# part its summation variables ("p" is dropped in cases without a ceiling),
# the cuts between its cases and each case's (bounce, ceilings).

_BASE3 = {"q": {"r2": 1, "r3": 1}, "x1": {"k1": 1}, "x2": {"k2": 1},
          "x3": {"k3": 1}, "y2": {"r2": 1}, "y3": {"r3": 1}}
_BOUNDS3 = [{"k1": 1, "r2": -1},            # r2 <= k1
            {"r2": 1, "k2": 1, "r3": -1}]   # r3 <= r2 + k2
_CEIL3 = [(2, _BOUNDS3[1], "p")]            # p = ceil((r2 + k2 - r3)/2)
_F_PART_CUTS = [{"r2": 1, "k2": -1, "const": -1}]   # part 1: r2 > k2
_F_PARTS = (
    # part 1, case 1: r2 - r3 >= k2
    (("k1", "r2", "k2", "r3", "p", "k3"), [{"r2": 1, "k2": -1, "r3": -1}],
     [({"k1": 2, "r2": -1, "r3": -1}, []), ({"k1": 2, "r2": -2, "p": 1}, _CEIL3)]),
    # part 2, case 1: r2 + r3 <= k2
    (("k1", "k2", "r2", "r3", "p", "k3"), [{"k2": 1, "r2": -1, "r3": -1}],
     [({"k1": 2, "r2": -2, "k2": 1, "r3": -1}, []),
      ({"k1": 2, "r2": -2, "p": 1}, _CEIL3)]),
)

# k^4: part 1 is written in b.  Parts 2 and 3 (b < 2k - 2a, b = 2s + r with
# r = 0 and 1) are one table written in s and r, rewritten by _at_parity.
_BASE4 = {"q": {"k": 6, "a": -3, "b": -2, "c": -1}, "x": {"k": 1},
          "y2": {"a": 1}, "y3": {"b": 1}, "y4": {"c": 1}}
_DOMAIN4 = [{"k": 1, "a": -1},                        # a <= k
            {"k": 2, "a": -1, "b": -1},               # b <= 2k - a
            {"k": 3, "a": -1, "b": -1, "c": -1}]      # c <= 3k - a - b
_H_PART_CUTS = [{"a": 2, "b": 1, "k": -2}]            # part 1: b >= 2k - 2a
_CUTS4 = [{"a": 1, "s": 3, "c": 1, "k": -3, "r": 2},  # c >= 3k - a - 3s - 2r
          {"a": 3, "s": 3, "c": 1, "k": -3, "r": 2}]  # c >= 3k - 3a - 3s - 2r
_H_PARTS = (
    # part 1, case 1: c >= 4k - 2a - 2b; case 2 needs ceil(c/2)
    (("k", "a", "b", "c", "p"), [{"a": 2, "b": 2, "c": 1, "k": -4}],
     [({"a": 6, "b": 3, "c": 1, "k": -4}, []),
      ({"a": 5, "b": 2, "p": 1, "k": -2}, [(2, {"c": 1}, "p")])]),
    # parts 2 and 3: case 2 holds cut 2 and its bounce needs the ceiling of
    # half of it; case 3 needs ceil((c - r)/3)
    (("k", "a", "s", "c", "p"), _CUTS4,
     [({"a": 4, "s": 4, "c": 1, "k": -2, "r": 3}, []),
      ({"a": 2, "s": 1, "k": 1, "p": 1, "r": 1}, [(2, _CUTS4[1], "p")]),
      ({"a": 3, "s": 2, "p": 1, "r": 2}, [(3, {"c": 1, "r": -1}, "p")])]),
)


def _crude(retained: Sequence[str], base: Mapping[str, Linear],
           rows: list[Linear], part: tuple, case: int, form=dict) -> FactoredOmegaExpr:
    """Crude expression of ``case`` of ``part`` within the part's ``rows``.

    The region is one coefficient table with a row per variable, in
    variable order: the retained functionals (``base``, and the bounce as
    "t"), the slack rows L >= 0 (l1.., ``nonneg``), then a row A - z*p per
    ceiling p = ceil(A/z) (mu, or mu1.. for two; ``zero``).  ``form``
    rewrites each row once; the default copies it as written.  Each
    summation variable's column is a factor, the "const" column is the
    base monomial, and the numerator runs each mu through range(z).
    """
    sum_vars, cuts, cases = part
    bounce, ceilings = cases[case]
    slack = rows + _case(cuts, case)
    lams = [f"l{i + 1}" for i in range(len(slack))]
    mus = [f"mu{i + 1}" if len(ceilings) > 1 else "mu" for i in range(len(ceilings))]
    functionals = {**base, "t": bounce}
    table = [form(row) for row in [functionals[name] for name in retained] + slack
             + [{**a, p: a.get(p, 0) - z} for z, a, p in ceilings]]
    factors = [tuple(row.get(v, 0) for row in table)
               for v in sum_vars if v != "p" or ceilings]
    const = [row.get("const", 0) for row in table]
    pad = (0,) * (len(table) - len(ceilings))
    numerator = [(1, tuple(c + j for c, j in zip(const, pad + js)))
                 for js in product(*(range(z) for z, _, _ in ceilings))]
    return FactoredOmegaExpr(VarTable([*retained, *lams, *mus]), numerator, factors,
                             dict.fromkeys(lams, MODE_NONNEG) | dict.fromkeys(mus, MODE_ZERO))


def _part_case(region: str, regions: tuple[str, ...]) -> tuple[int, int]:
    if region not in regions:
        raise ValueError(f"unknown region {region!r}; expected one of {regions}")
    return int(region[1]) - 1, int(region[3]) - 1


def build_crude_F(region: str) -> FactoredOmegaExpr:
    """Crude generating function for one length-3 bounce region."""
    part, case = _part_case(region, F_REGIONS)
    return _crude(GF3_REFINED_VARS, _BASE3, _BOUNDS3 + _case(_F_PART_CUTS, part),
                  _F_PARTS[part], case)


def build_crude_H(region: str) -> FactoredOmegaExpr:
    """Crude generating function for one k^4 bounce region."""
    part, case = _part_case(region, H_REGIONS)
    half = min(part, 1)  # parts 2 and 3 fail the part cut and share a table
    return _crude(GF4_REFINED_VARS, _BASE4, _DOMAIN4 + _case(_H_PART_CUTS, half),
                  _H_PARTS[half], case, partial(_at_parity, r=part - 1) if part else dict)


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

GF_SECTIONS = (tuple(f"F {r}" for r in F_REGIONS) + ("EQ1",)
               + tuple(f"H {r}" for r in H_REGIONS) + ("EQ2",))


def _form_id(section: str) -> str:
    """Closed-form id of a gf section: "F P1C2" -> "F12", "EQ1" -> "EQ1"."""
    family, _, region = section.partition(" ")
    return family + region[1] + region[3] if region else family


CLOSED_FORM_IDS = tuple(_form_id(section) for section in GF_SECTIONS)


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
    form = closed_form(_form_id(section))
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
