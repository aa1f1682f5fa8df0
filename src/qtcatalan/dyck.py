"""Path models and statistics for length-3 vectors and for k^4.

A path for a vector (k1, k2, k3) is determined by its red ranks
(r1 = 0, r2, r3) with 0 <= r2 <= k1 and 0 <= r3 <= r2 + k2.  The
involutions describe the same path by run parameters (b, d): b down-steps
after the first up-run and d after the second, with r2 = a - b and
r3 = a - b + c - d for (a, c, e) = (k1, k2, k3).  A path for k^4 is
determined by run parameters (a, b, c) with 0 <= a <= k, 0 <= b <= 2k - a,
0 <= c <= 3k - a - b.  These paths fall into runs (k, a, b) of consecutive
c, listed once by :func:`_runs4`, which the enumeration and the row stream
both follow.

The statistics are area (sum of red ranks) and bounce, neither depending on
the last vector component; ``Path3.stats()`` and ``Path4.stats()`` give a
path's region, area and bounce.  Each family's path model, which omega's
crude forms are built from, is here: its domain rows, its row table, and
its region tables, which define the bounce; :func:`_regions` numbers and
labels their regions.  :func:`_compile`, the package's one code generator, writes
straight-line code from a first-match table of rows over floor(row/z)
symbols; the region tables are lowered into it, each split's overlap check
being guard cases, and compiled to the path classifiers (a path's region
number, bounce and area), which the row streams call; it also writes a
loop form that runs the same code for each value of the last argument,
computing what does not depend on it once, before the loop: each test and
symbol that does not read it, and the part of each row that does not, as
``_bounce4_rows`` classifies a whole run of k^4 paths.  The involution's
case table is compiled the same way.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain, groupby, repeat
from typing import Callable, Iterable, Iterator, Mapping, Sequence


def _check_ints(name: str, *values) -> None:
    # type(), not isinstance(): a bool is an int but not a number here
    if not all(type(x) is int for x in values):
        raise ValueError(f"{name} requires integers, got {values!r}")


def _check_type(value, cls: type) -> None:
    # a plain tuple or None would otherwise fail on its first attribute
    if not isinstance(value, cls):
        raise ValueError(f"expected a {cls.__name__}, got {value!r}")


def ceil_div(a: int, z: int) -> int:
    """Mathematical ceiling of a/z for integers a and z >= 1, correct for negative a."""
    _check_ints("ceil_div", a, z)
    if z <= 0:
        raise ValueError(f"ceil_div requires a positive divisor, got {z}")
    return -((-a) // z)


# ----------------------------------------------------------------------
# bounce regions

Linear = Mapping[str, int]  # coefficients by variable, "const" for the constant


def _negated(row: Linear) -> Linear:
    """Strict complement of ``row >= 0``, written ``-row - 1 >= 0``."""
    return {**{v: -c for v, c in row.items()}, "const": -row.get("const", 0) - 1}


def _split_rows(cuts: list[Linear], i: int) -> list[Linear]:
    """Rows of case i (from 0) of a split by ``cuts``: it holds cut i and
    fails cut i - 1, so the cases partition what the split divides."""
    return cuts[i:i + 1] + ([_negated(cuts[i - 1])] if i else [])


# A family's path model: its domain rows, a path being a nonnegative integer
# point where each row is >= 0, and its row table, the functionals of a
# path's row keyed in the order of its refined variables, the bounce "t"
# (None) being the classifier's.  Its region tables: the cuts between its
# parts; per part its summation variables ("p" is dropped in cases without
# a ceiling), the cuts between its cases and each case's (bounce,
# ceilings), a ceiling (z, A, p) being p = ceil(A/z).  :func:`_regions`
# numbers and labels the cases as regions.

_DOMAIN3 = [{"k1": 1, "r2": -1},            # r2 <= k1
            {"r2": 1, "k2": 1, "r3": -1}]   # r3 <= r2 + k2
_ROW3 = {"q": {"r2": 1, "r3": 1}, "t": None, "x1": {"k1": 1}, "x2": {"k2": 1},
         "x3": {"k3": 1}, "y2": {"r2": 1}, "y3": {"r3": 1}}
_CEIL3 = [(2, _DOMAIN3[1], "p")]            # p = ceil((r2 + k2 - r3)/2)
_F_CASE2 = ({"k1": 2, "r2": -2, "p": 1}, _CEIL3)    # case 2 of both parts
_F_PART_CUTS = [{"r2": 1, "k2": -1, "const": -1}]   # part 1: r2 > k2
_F_PARTS = (
    # part 1, case 1: r2 - r3 >= k2
    (("k1", "r2", "k2", "r3", "p", "k3"), [{"r2": 1, "k2": -1, "r3": -1}],
     [({"k1": 2, "r2": -1, "r3": -1}, []), _F_CASE2]),
    # part 2, case 1: r2 + r3 <= k2
    (("k1", "k2", "r2", "r3", "p", "k3"), [{"k2": 1, "r2": -1, "r3": -1}],
     [({"k1": 2, "r2": -2, "k2": 1, "r3": -1}, []), _F_CASE2]),
)

_DOMAIN4 = [{"k": 1, "a": -1},                        # a <= k
            {"k": 2, "a": -1, "b": -1},               # b <= 2k - a
            {"k": 3, "a": -1, "b": -1, "c": -1}]      # c <= 3k - a - b
_ROW4 = {"q": {"k": 6, "a": -3, "b": -2, "c": -1}, "t": None, "x": {"k": 1},
         "y2": {"a": 1}, "y3": {"b": 1}, "y4": {"c": 1}}
# k^4: part 1 is written in b.  Parts 2 and 3 (b < 2k - 2a, b = 2s + r with
# r = 0 and 1) are one table written in s and r, which :func:`_at_parity`
# rewrites for r = 0 and r = 1.
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


def _regions(parts: Sequence[tuple]) -> list[tuple[str, int, int, int, int | None]]:
    """A family's regions in index order, from its tables at each call, as
    (f"P{number}C{case + 1}", number, part, case, r); a table in s is two
    numbered parts, one per parity r of b (else r is None)."""
    numbered = [(i, r) for i, (sum_vars, _, _) in enumerate(parts)
                for r in ((0, 1) if "s" in sum_vars else (None,))]
    return [(f"P{n}C{j + 1}", n, i, j, r)
            for n, (i, r) in enumerate(numbered, 1) for j in range(len(parts[i][2]))]


F_REGIONS = tuple(label for label, *_ in _regions(_F_PARTS))
H_REGIONS = tuple(label for label, *_ in _regions(_H_PARTS))


def _at_parity(row: Linear, r: int) -> Linear:
    """``row`` over s, with b = 2s + r and the parity symbol "r" set to r."""
    out = {v: c for v, c in row.items() if v not in ("b", "r")}
    out["s"] = out.get("s", 0) + 2 * row.get("b", 0)
    out["const"] = out.get("const", 0) + r * (row.get("b", 0) + row.get("r", 0))
    return out


def _source(row: Linear) -> str:
    """Python expression for ``row``, with no multiplication by 1."""
    terms = []
    for v, c in row.items():
        if c:
            text = str(abs(c)) if v == "const" else v if abs(c) == 1 else f"{abs(c)} * {v}"
            terms.append(f"{'-' if c < 0 else '+'} {text}")
    return " ".join(terms or ["0"]).removeprefix("+ ")


def _reversed(row: Linear) -> Linear:
    """``row <= 0``, written ``-row >= 0``."""
    return {v: -c for v, c in row.items()}


# the test that holds wherever a test fails, where tests() gives one (it never
# gives ">", the complement of "<=", and "==" has none)
_COMPLEMENT = {">=": "<", "<": ">="}
# the test that holds where a test of the negated row holds
_MIRRORED = {">=": "<=", "<=": ">=", "<": ">", "==": "=="}


def _signed(row: Linear) -> Linear:
    """``row`` with its positive terms first, so its source starts with no minus."""
    return dict(sorted(row.items(), key=lambda term: term[1] < 0))


def _atom(text: str) -> bool:
    """Whether ``text`` is a name or a number, which takes no arithmetic."""
    return text.isidentifier() or text.isdigit()


def _compile(name: str, args: str, cases: Sequence[tuple[list[Linear], object]],
             symbols: Mapping[str, tuple[Linear, int]]) -> tuple[Callable, Callable]:
    """Compile ``name(args)`` from a first-match table as straight-line code.

    A case (rows, result) holds where its rows hold and no earlier case's
    do.  Rows read the arguments and ``symbols``: name -> (row, z), z >= 1,
    each symbol q being floor(row/z), which its defining rows
    0 <= row - z*q <= z - 1 pin down; z = 1 names the row itself.  A result,
    a tuple of rows, strings and tuples, is returned; a message, an f-string
    over the arguments and its rows' symbols, is raised as AssertionError.
    Cases sharing their next test share an ``if``, a test known to hold is
    left out, and a symbol is computed where a path first needs it.

    Returns the pair (``name``, loop form).  The loop form
    ``{name}_rows(<the other arguments>, values, *appenders)`` runs the same
    tree for the last argument = each of ``values`` in one loop, gives each
    item of a case's result to its own appender and goes on with the next
    value, and raises what ``name`` raises.  What does not read the last
    argument is computed once, before the loop: every such test, symbol and
    result item whole, and of every row that reads it, directly or through
    a symbol, the part that does not, one name per set of terms (a name or
    a number is left as it is).  Such a test is written ``<the part that
    reads it> op <that name>``."""
    *head, over = args.split(", ")
    cuts: list[Linear] = []
    found: dict[frozenset, tuple[int, str]] = {}  # a row's terms -> (j, op)

    def key(row: Linear) -> frozenset:
        return frozenset((v, k) for v, k in row.items() if k)

    def tests(rows: list[Linear]) -> list[tuple[int, str]]:
        """Each row as (j, op), holding iff cut j op 0; ">=" then "<=" is "=="."""
        out: list[tuple[int, str]] = []
        for row in rows:
            if key(row) not in found:
                cuts.append(row)
                for op, form in ((">=", row), ("<", _negated(row)), ("<=", _reversed(row))):
                    found.setdefault(key(form), (len(cuts) - 1, op))
            j, op = found[key(row)]
            if out and out[-1][0] == j and {out[-1][1], op} == {">=", "<="}:
                out[-1] = (j, "==")
            else:
                out.append((j, op))
        return out

    def varies(row: Iterable[str]) -> bool:
        return any(v == over or v in symbols and varies(symbols[v][0]) for v in row)

    def hoist(row: Linear) -> bool:
        return loop and not varies(row)

    def split(row: Linear) -> tuple[Linear, Linear]:
        """``row``'s terms that read the loop argument, and the others."""
        varying = {v: k for v, k in row.items() if k and varies([v])}
        return varying, {v: k for v, k in row.items() if k and v not in varying}

    def looped(row: Linear) -> Linear:
        """``row`` as the loop form reads it: the part that does not vary,
        unless a name or a number (with its sign, where ``row`` varies),
        becomes a name computed once before the loop, one per set of terms."""
        if not loop:
            return row
        part, fixed = split(row)
        text = _source(fixed)
        if not _atom(text.removeprefix("- ") if part else text):
            if key(fixed) not in hoisted:  # the symbols it reads are hoisted already
                hoisted[key(fixed)] = f"_h{len(before)}"
                before.append(f"    {hoisted[key(fixed)]} = {_source(_signed(fixed))}")
            fixed = {hoisted[key(fixed)]: 1}
        return _signed({**part, **fixed})

    def define(row: Linear, indent: str, defined: set) -> None:
        for v in row:
            if v not in symbols or v in defined or v in hoisted:
                continue
            arg, z = symbols[v]
            define(arg, indent, defined)
            body = arg if hoist(arg) else looped(arg)
            term = _source(body) if z == 1 or len(body) == 1 else f"({_source(body)})"
            line = f"{v} = {term}" + (f" // {z}" if z > 1 else "")
            if hoist(arg):
                hoisted[v] = v
                before.append(f"    {line}")
            else:
                defined.add(v)
                lines.append(f"{indent}{line}")

    def source(value, indent: str, defined: set) -> str:
        if isinstance(value, str):
            return repr(value)
        if isinstance(value, tuple):
            return f"({', '.join(source(v, indent, defined) for v in value)})"
        define(value, indent, defined)
        return _source(looped(value))

    def emit(group: Iterable, depth: int, indent: str, defined: set, known: set) -> bool:
        """Emit the cases of ``group`` from their test ``depth`` on, where the
        tests in ``known`` hold; True if the code emitted always returns (in
        the loop form, goes on with the next value)."""
        for test, same in groupby(group, lambda case: case[0][depth:depth + 1]):
            if not test:
                value = next(same)[1]
                if isinstance(value, str):
                    lines.append(f"{indent}raise AssertionError(f{value!r})")
                elif not loop:
                    lines.append(f"{indent}return {source(value, indent, defined)[1:-1]}")
                else:
                    items = [source(item, indent, defined) for item in value]
                    lines.extend(f"{indent}_append{i}({item})" for i, item in enumerate(items))
                    lines.append(f"{indent}continue")
                return True
            j, op = test[0]
            if (j, op) in known:
                if emit(same, depth + 1, indent, defined, known):
                    return True
            else:
                define(cuts[j], indent, defined)
                if loop and varies(cuts[j]):
                    # <varying part> op <the rest, moved across>
                    part, fixed, shown = *split(cuts[j]), op
                    if all(k < 0 for k in part.values()):
                        part, fixed, shown = _reversed(part), _reversed(fixed), _MIRRORED[op]
                    condition = f"{_source(_signed(part))} {shown} {_source(looped(_reversed(fixed)))}"
                else:
                    positive = {v: k for v, k in cuts[j].items() if k > 0}
                    negative = {v: -k for v, k in cuts[j].items() if k < 0}
                    condition = f"{_source(positive)} {op} {_source(negative)}"
                if hoist(cuts[j]):
                    if condition not in hoisted:
                        hoisted[condition] = f"_t{len(before)}"
                        before.append(f"    {hoisted[condition]} = {condition}")
                    condition = hoisted[condition]
                lines.append(f"{indent}if {condition}:")
                if emit(same, depth + 1, indent + "    ", set(defined), known | {(j, op)}):
                    known.add((j, _COMPLEMENT.get(op)))
        return False

    table = [(tests(rows), result) for rows, result in cases]
    # the loop form's lines ahead of its loop, and what they compute: a
    # symbol, a test's condition, or the terms of a row's part -> its name
    loop, before, hoisted = False, [], {}
    lines = [f"def {name}({args}):"]
    emit(table, 0, "    ", set(), set())
    point, loop = lines, True
    width = next(len(r) for _, r in cases if isinstance(r, tuple))
    head += ["values"] + [f"_append{i}" for i in range(width)]
    lines = [f"    for {over} in values:"]
    emit(table, 0, "        ", set(), set())
    lines = [*point, f"def {name}_rows({', '.join(head)}):", *before, *lines]
    exec(compile("\n".join(lines), f"<generated {name}>", "exec"), {}, namespace := {})
    return namespace[name], namespace[f"{name}_rows"]


def _lowered(args: str, point: str, row: Mapping[str, Linear | None], part_cuts: list[Linear],
             parts: Sequence[tuple]) -> tuple[str, list[tuple[list[Linear], object]], dict]:
    """A family's part and case tables as the :func:`_compile` table (args,
    cases, symbols).  Case j of part i has the rows ``_split_rows(part_cuts,
    i) + _split_rows(cuts, j)`` and returns (region, bounce, area = row["q"]),
    the region numbered by :func:`_regions` and each ceiling p = ceil(A/z) a
    symbol, floor((A + z - 1)/z); a table in s reads s = floor(b/2) and r = b - 2s.
    Ahead of a split's cases, a guard case per pair j, m >= j + 2 raises where
    both hold, and a last one where none does."""
    fields = ", ".join(f"{v}={{{v}}}" for v in args.split(", "))
    symbols = {"s": ({"b": 1}, 2), "r": ({"b": 1, "s": -2}, 1)}
    table: list[tuple[list[Linear], object]] = []
    number = {(i, j, r): x for x, (_, _, i, j, r) in enumerate(_regions(parts))}
    for i, (sum_vars, cuts, cases) in enumerate(parts):
        n = len(cases)
        regions = [{"const": number[i, j, 0], "r": number[i, j, 1] - number[i, j, 0]}
                   if "s" in sum_vars else {"const": number[i, j, None]} for j in range(n)]
        rows = [_split_rows(part_cuts, i) + _split_rows(cuts, j) for j in range(n)]
        table += [(rows[j] + rows[m],
                   f"bounce cases [{{{_source(regions[j])} + 1}}, {{{_source(regions[m])} + 1}}] "
                   f"fired for {point}({fields}); expected exactly one")
                  for j in range(n) for m in range(j + 2, n)]
        for j, (bounce, ceilings) in enumerate(cases):
            for z, a, p in ceilings:
                symbols[f"{p}{len(table)}"] = ({**a, "const": a.get("const", 0) + z - 1}, z)
                bounce = {f"{p}{len(table)}" if v == p else v: c for v, c in bounce.items()}
            table.append((rows[j], (regions[j], bounce, row["q"])))
    return args, table + [([], f"no bounce case holds for {point}({fields})")], symbols


# (region, bounce, area) of a path (r2, r3) for (k1, k2, k3), or (a, b, c)
# for k^4; _bounce3_rows(k1, k2, r2, r3s, region_append, bounce_append,
# area_append) classifies a row of paths, each r3 of r3s, in one call, and
# _bounce4_rows(k, a, b, cs, ...) a run of k^4 paths, each c of cs
_bounce3, _bounce3_rows = _compile(
    "_bounce3", *_lowered("k1, k2, r2, r3", "Path3", _ROW3, _F_PART_CUTS, _F_PARTS))
_bounce4, _bounce4_rows = _compile(
    "_bounce4", *_lowered("k, a, b, c", "Path4", _ROW4, _H_PART_CUTS, _H_PARTS))
# an appender that keeps nothing, for the loop-form outputs a caller does not read
_discard = deque(maxlen=0).append


def _runs4(k: int) -> list[tuple[int, int, int]]:
    """The runs of the k^4 paths in lexicographic order: (a, b, n) for the
    n = 3k - a - b + 1 paths (k, a, b, c), c < n, of _DOMAIN4."""
    return [(a, b, 3 * k - a - b + 1) for a in range(k + 1) for b in range(2 * k - a + 1)]


# ----------------------------------------------------------------------
# row streams

# One row stream per family, on plain tuples: _rows3(vectors) and _rows4(ks)
# meet each path (k1, k2, k3, r2, r3) or (k, a, b, c), a lattice point of
# _DOMAIN3/4, in the order of enumerate_paths3/4, classify it there, and
# yield (region, row): the region an index into F_REGIONS or H_REGIONS, the
# row _ROW3/4 at the path, its "q" (the area) and "t" (the bounce) as the
# classifier gives them.  _rows4 classifies each run (k, a, b) of _runs4 by
# one _bounce4_rows call, which drained _rows4(range(21)) in 0.039 s against
# 0.066 s by a _bounce4 call per path.  _rows3 makes one _bounce3 call per
# path: its rows are short (r2 + k2 + 1 values of r3), and one _bounce3_rows
# call per (k1, k2, k3, r2) took 0.0053 s against 0.0029 s over the vectors
# of total <= 12 (Python 3.11, best of 9).
# Every polynomial of catalan, and both path tables of cli, read the rows
# of one of these streams, catalan's each tallying the columns of its own
# variables from the rows of its region, or of every region.


def _rows3(vectors: Iterable[tuple[int, int, int]]) -> Iterator[tuple[int, tuple[int, ...]]]:
    for k1, k2, k3 in vectors:
        for r2 in range(k1 + 1):
            for r3 in range(r2 + k2 + 1):
                region, bounce, area = _bounce3(k1, k2, r2, r3)
                yield region, (area, bounce, k1, k2, k3, r2, r3)


def _rows4(ks: Iterable[int]) -> Iterator[tuple[int, tuple[int, ...]]]:
    for k in ks:
        for a, b, n in _runs4(k):
            regions, bounces, areas = [], [], []
            _bounce4_rows(k, a, b, range(n), regions.append, bounces.append, areas.append)
            yield from zip(regions, zip(areas, bounces, repeat(k), repeat(a), repeat(b), range(n)))


# ----------------------------------------------------------------------
# length-3 vectors


@dataclass(frozen=True)
class KVec3:
    """Vector (k1, k2, k3) of nonnegative integers; zero entries allowed."""

    k1: int
    k2: int
    k3: int

    def __post_init__(self):
        if any(type(x) is not int or x < 0 for x in (self.k1, self.k2, self.k3)):
            raise ValueError(f"vector components must be nonnegative integers: {self}")


@dataclass(frozen=True)
class Path3:
    """Path for a length-3 vector, given by red ranks (r2, r3)."""

    k: KVec3
    r2: int
    r3: int

    def __post_init__(self):
        _check_type(self.k, KVec3)
        if type(self.r2) is not int or type(self.r3) is not int:
            raise ValueError(f"red ranks must be integers: {self}")
        if not (0 <= self.r2 <= self.k.k1):
            raise ValueError(f"r2={self.r2} out of range [0, {self.k.k1}]")
        if not (0 <= self.r3 <= self.r2 + self.k.k2):
            raise ValueError(f"r3={self.r3} out of range [0, {self.r2 + self.k.k2}]")

    def stats(self) -> tuple[str, int, int]:
        """(region label in F_REGIONS, area, bounce), by one classifier call."""
        region, bounce, area = _bounce3(self.k.k1, self.k.k2, self.r2, self.r3)
        return F_REGIONS[region], area, bounce


@dataclass(frozen=True, slots=True)
class Path4:
    """Path for k^4, given by run parameters (a, b, c)."""

    k: int
    a: int
    b: int
    c: int

    def __post_init__(self):
        k, a, b, c = self.k, self.a, self.b, self.c
        if not (type(k) is type(a) is type(b) is type(c) is int):
            raise ValueError(f"parameters must be integers: {self}")
        if k < 0:
            raise ValueError(f"k must be nonnegative, got {k}")
        if not (0 <= a <= k):
            raise ValueError(f"a={a} out of range [0, {k}]")
        if not (0 <= b <= 2 * k - a):
            raise ValueError(f"b={b} out of range [0, {2 * k - a}]")
        if not (0 <= c <= 3 * k - a - b):
            raise ValueError(f"c={c} out of range [0, {3 * k - a - b}]")

    @property
    def red_ranks(self) -> tuple[int, int, int, int]:
        k, a, b, c = self.k, self.a, self.b, self.c
        return (0, k - a, 2 * k - a - b, 3 * k - a - b - c)

    def stats(self) -> tuple[str, int, int]:
        """(region label in H_REGIONS, area, bounce), by one classifier call."""
        region, bounce, area = _bounce4(self.k, self.a, self.b, self.c)
        return H_REGIONS[region], area, bounce


def enumerate_paths3(k: KVec3) -> list[Path3]:
    """All paths for k, ordered lexicographically by (r2, r3)."""
    _check_type(k, KVec3)
    return [Path3(k, r2, r3) for r2 in range(k.k1 + 1) for r3 in range(r2 + k.k2 + 1)]


# ----------------------------------------------------------------------
# k^4


def enumerate_paths4(k: int) -> list[Path4]:
    """All paths for k^4, ordered lexicographically by (a, b, c)."""
    if type(k) is not int or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    # built a column at a time, with no Python call per path and without
    # __post_init__: the runs of _runs4 already make each path valid
    as_, bs, lengths = zip(*_runs4(k))
    paths = list(map(object.__new__, repeat(Path4, sum(lengths))))
    _drain(map(_set_k, paths, repeat(k)))
    _drain(map(_set_a, paths, chain.from_iterable(map(repeat, as_, lengths))))
    _drain(map(_set_b, paths, chain.from_iterable(map(repeat, bs, lengths))))
    _drain(map(_set_c, paths, chain.from_iterable(map(range, lengths))))
    return paths


# the slots' member descriptors, bound once: a write through one skips the
# frozen __setattr__ and the lookup of the attribute by name
_set_k, _set_a, _set_b, _set_c = (Path4.__dict__[name].__set__ for name in "kabc")
# runs an iterator to its end in C, keeping nothing
_drain = deque(maxlen=0).extend
