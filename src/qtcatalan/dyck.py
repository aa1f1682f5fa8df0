"""Path models and statistics for length-3 vectors and for k^4.

A path for a vector (k1, k2, k3) is determined by its red ranks
(r1 = 0, r2, r3) with 0 <= r2 <= k1 and 0 <= r3 <= r2 + k2.  The same path
can be described by run parameters (b, d): b down-steps after the first
up-run and d after the second, with r2 = a - b and r3 = a - b + c - d for
(a, c, e) = (k1, k2, k3).  A path for k^4 is determined by run parameters
(a, b, c) with 0 <= a <= k, 0 <= b <= 2k - a, 0 <= c <= 3k - a - b.

The statistics are area (sum of red ranks) and bounce, neither depending on
the last vector component.  The region tables below, which omega's crude
forms are built from, define the bounce: the path classifiers generated from
them give a path's bounce and its region's index in ``F_REGIONS``/``H_REGIONS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

F_REGIONS = ("P1C1", "P1C2", "P2C1", "P2C2")
H_REGIONS = ("P1C1", "P1C2", "P2C1", "P2C2", "P2C3", "P3C1", "P3C2", "P3C3")


def ceil_div(a: int, z: int) -> int:
    """Mathematical ceiling of a/z for integers a and z >= 1, correct for negative a."""
    if type(a) is not int or type(z) is not int:
        raise ValueError(f"ceil_div requires integers, got {a!r} and {z!r}")
    if z <= 0:
        raise ValueError(f"ceil_div requires a positive divisor, got {z}")
    return -((-a) // z)


# ----------------------------------------------------------------------
# bounce regions

Linear = Mapping[str, int]  # coefficients by variable, "const" for the constant


def _negated(row: Linear) -> Linear:
    """Strict complement of ``row >= 0``, written ``-row - 1 >= 0``."""
    return {**{v: -c for v, c in row.items()}, "const": -row.get("const", 0) - 1}


def _case(cuts: list[Linear], i: int) -> list[Linear]:
    """Rows of case i (from 0) of a split by ``cuts``: it holds cut i and
    fails cut i - 1, so the cases partition what the split divides."""
    return cuts[i:i + 1] + ([_negated(cuts[i - 1])] if i else [])


# A family's tables: the cuts between its parts; per part its summation
# variables ("p" is dropped in cases without a ceiling), the cuts between
# its cases and each case's (bounce, ceilings), a ceiling (z, A, p) being
# p = ceil(A/z).  The regions of F_REGIONS and H_REGIONS are the cases in
# table order.

_BOUNDS3 = [{"k1": 1, "r2": -1},            # r2 <= k1
            {"r2": 1, "k2": 1, "r3": -1}]   # r3 <= r2 + k2
_CEIL3 = [(2, _BOUNDS3[1], "p")]            # p = ceil((r2 + k2 - r3)/2)
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

# k^4: part 1 is written in b.  Parts 2 and 3 (b < 2k - 2a, b = 2s + r with
# r = 0 and 1) are one table written in s and r; a path of theirs is in
# region 2 + 3r + case, and omega rewrites the table for r = 0 and r = 1.
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


def _source(row: Linear, ceilings=(), cuts: Sequence[Linear] = ()) -> str:
    """Python expression for ``row``, with no multiplication by 1: a ceiling
    p = ceil(A/z) is -((-A) // z), reading -A from its local if A is a cut."""
    terms = []
    for v, c in row.items():
        for z, a, p in ceilings:
            if v == p:
                neg = next((f"-cut{j}" for j, cut in enumerate(cuts) if a is cut), None)
                v, c = f"(({neg or _source({u: -e for u, e in a.items()})}) // {z})", -c
        if c:
            text = str(abs(c)) if v == "const" else v if abs(c) == 1 else f"{abs(c)} * {v}"
            terms.append(f"{'-' if c < 0 else '+'} {text}")
    return " ".join(terms or ["0"]).removeprefix("+ ")


def _classifier(name: str, args: str, point: str, part_cuts: list[Linear],
                parts: Sequence[tuple]) -> Callable[..., tuple[int, int]]:
    """Compile ``name(args)``, a path's (region, bounce), from a family's
    tables as straight-line code.  Each cut is computed once into a local L,
    and a case tests its :func:`_case` rows as L >= 0, or L < 0 for -L - 1 >= 0.
    A split by two or more cuts raises AssertionError naming ``point`` unless
    exactly one case holds; one cut splits every integer point in two."""
    def tests(rows: list[Linear], cuts: list[Linear], local: str) -> str:
        return " and ".join(next(f"{local}{j} {'>=' if row is cut else '<'} 0"
                                 for j, cut in enumerate(cuts)
                                 if row is cut or row == _negated(cut)) for row in rows)

    fields = ", ".join(f"{v}={{{v}}}" for v in args.split(", "))
    lines = [f"def {name}({args}):"]
    lines += [f"    part{j} = {_source(cut)}" for j, cut in enumerate(part_cuts)]
    first = 0
    for i, (sum_vars, cuts, cases) in enumerate(parts):
        # a table in s is read with s, r = divmod(b, 2), its r = 1 regions last
        n, parity = len(cases), "s" in sum_vars
        regions = [f"{first + j} + {n} * r" if parity else f"{first + j}" for j in range(n)]
        first += n * (1 + parity)
        lines.append(f"    if {tests(_case(part_cuts, i), part_cuts, 'part')}:")
        lines += ["        s, r = divmod(b, 2)"] * parity
        lines += [f"        cut{j} = {_source(cut)}" for j, cut in enumerate(cuts)]
        hits = [tests(_case(cuts, j), cuts, "cut") for j in range(n)]
        if len(cuts) > 1:
            lines += [f"        hit{j} = {hit}" for j, hit in enumerate(hits)]
            hits = [f"hit{j}" for j in range(n)]
            fired = f"[j for j, hit in enumerate(({', '.join(hits)}), {regions[0]} + 1) if hit]"
            lines += [f"        if {' + '.join(hits)} != 1:",
                      f"            raise AssertionError(f'bounce cases {{{fired}}} fired for "
                      f"{point}({fields}); expected exactly one')"]
        for hit, region, (bounce, ceilings) in zip(hits, regions, cases):
            lines += [f"        if {hit}:",
                      f"            return {region}, {_source(bounce, ceilings, cuts)}"]
    exec(compile("\n".join(lines), f"<generated {name}>", "exec"), globals(), namespace := {})
    return namespace[name]


# (region, bounce) of a path (r2, r3) for (k1, k2, k3), or (a, b, c) for k^4
_bounce3 = _classifier("_bounce3", "k1, k2, r2, r3", "Path3", _F_PART_CUTS, _F_PARTS)
_bounce4 = _classifier("_bounce4", "k, a, b, c", "Path4", _H_PART_CUTS, _H_PARTS)


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


def _check_kvec3(k) -> None:
    if not isinstance(k, KVec3):
        raise ValueError(f"expected a KVec3 vector, got {k!r}")


@dataclass(frozen=True)
class Path3:
    """Path for a length-3 vector, given by red ranks (r2, r3)."""

    k: KVec3
    r2: int
    r3: int

    def __post_init__(self):
        _check_kvec3(self.k)
        if type(self.r2) is not int or type(self.r3) is not int:
            raise ValueError(f"red ranks must be integers: {self}")
        if not (0 <= self.r2 <= self.k.k1):
            raise ValueError(f"r2={self.r2} out of range [0, {self.k.k1}]")
        if not (0 <= self.r3 <= self.r2 + self.k.k2):
            raise ValueError(f"r3={self.r3} out of range [0, {self.r2 + self.k.k2}]")


@dataclass(frozen=True)
class ParamPath3:
    """Path for (a, c, e) in run-parameter form (b, d)."""

    a: int
    c: int
    e: int
    b: int
    d: int

    def __post_init__(self):
        if any(type(x) is not int or x < 0 for x in (self.a, self.c, self.e, self.b, self.d)):
            raise ValueError(f"parameters must be nonnegative integers: {self}")
        if self.a - self.b < 0:
            raise ValueError(f"b={self.b} exceeds a={self.a}")
        if self.a - self.b + self.c - self.d < 0:
            raise ValueError(f"d={self.d} exceeds {self.a - self.b + self.c} for {self}")


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


def count_paths3(k: KVec3) -> int:
    """Closed-form path count (k1+1)(k2+1) + k1(k1+1)/2."""
    _check_kvec3(k)
    return (k.k1 + 1) * (k.k2 + 1) + k.k1 * (k.k1 + 1) // 2


def _ranks3(k1: int, k2: int) -> Iterator[tuple[int, int]]:
    """Red ranks (r2, r3) of each path for (k1, k2, k3), lexicographically."""
    for r2 in range(k1 + 1):
        for r3 in range(r2 + k2 + 1):
            yield r2, r3


def enumerate_paths3(k: KVec3) -> list[Path3]:
    """All paths for k, ordered lexicographically by (r2, r3)."""
    _check_kvec3(k)
    return [Path3(k, r2, r3) for r2, r3 in _ranks3(k.k1, k.k2)]


def area3(p: Path3) -> int:
    return p.r2 + p.r3


def bounce3(p: Path3) -> int:
    """Bounce statistic from the red ranks, by the region tables."""
    return _bounce3(p.k.k1, p.k.k2, p.r2, p.r3)[1]


def _check_runs(name: str, a: int, c: int, b: int, d: int) -> None:
    """Raise ValueError naming ``name`` unless (b, d) are integer run
    parameters of a path for (a, c): all nonnegative, b <= a, d <= a - b + c."""
    if not all(type(x) is int for x in (a, c, b, d)):
        raise ValueError(f"{name} requires integers, got {(a, c, b, d)!r}")
    if min(a, c, b, d, a - b, a - b + c - d) < 0:
        raise ValueError(f"(b={b}, d={d}) is not a valid path for (a={a}, c={c})")


def area_from_runs(a: int, c: int, b: int, d: int) -> int:
    """Area in run parameters: r2 + r3 = 2a - 2b + c - d."""
    _check_runs("area_from_runs", a, c, b, d)
    return 2 * a - 2 * b + c - d


def bounce_from_runs(a: int, c: int, b: int, d: int) -> int:
    """Bounce in run parameters (e plays no role)."""
    _check_runs("bounce_from_runs", a, c, b, d)
    return _bounce3(a, c, a - b, a - b + c - d)[1]


def bounce3_bd(p: ParamPath3) -> int:
    return bounce_from_runs(p.a, p.c, p.b, p.d)


def to_param3(p: Path3) -> ParamPath3:
    """Convert red ranks to run parameters: b = a - r2, d = r2 + c - r3."""
    a, c, e = p.k.k1, p.k.k2, p.k.k3
    return ParamPath3(a, c, e, a - p.r2, p.r2 + c - p.r3)


def to_redrank3(p: ParamPath3) -> Path3:
    """Inverse of :func:`to_param3`."""
    r2 = p.a - p.b
    return Path3(KVec3(p.a, p.c, p.e), r2, r2 + p.c - p.d)


# ----------------------------------------------------------------------
# k^4


def enumerate_paths4(k: int) -> list[Path4]:
    """All paths for k^4, ordered lexicographically by (a, b, c)."""
    if type(k) is not int or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    return [_loop_path4(k, a, b, c)
            for a in range(k + 1)
            for b in range(2 * k - a + 1)
            for c in range(3 * k - a - b + 1)]


_new, _setattr = object.__new__, object.__setattr__


def _loop_path4(k: int, a: int, b: int, c: int) -> Path4:
    """The Path4 (k, a, b, c), built without ``__post_init__``: the loop
    bounds of :func:`enumerate_paths4` already make it valid."""
    p = _new(Path4)
    _setattr(p, "k", k)
    _setattr(p, "a", a)
    _setattr(p, "b", b)
    _setattr(p, "c", c)
    return p


def area4(p: Path4) -> int:
    """Sum of red ranks: 6k - 3a - 2b - c."""
    return 6 * p.k - 3 * p.a - 2 * p.b - p.c


def bounce4_case(p: Path4) -> int:
    """Number (1..8) of the unique bounce case containing the path."""
    return _bounce4(p.k, p.a, p.b, p.c)[0] + 1


def bounce4(p: Path4) -> int:
    """Bounce statistic for k^4 paths, by the eight-region table."""
    return _bounce4(p.k, p.a, p.b, p.c)[1]
