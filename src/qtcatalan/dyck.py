"""Path models and statistics for length-3 vectors and for k^4.

A path for a vector (k1, k2, k3) is determined by its red ranks
(r1 = 0, r2, r3) with 0 <= r2 <= k1 and 0 <= r3 <= r2 + k2.  The same path
can be described by run parameters (b, d): b down-steps after the first
up-run and d after the second, with r2 = a - b and r3 = a - b + c - d for
(a, c, e) = (k1, k2, k3).  A path for k^4 is determined by run parameters
(a, b, c) with 0 <= a <= k, 0 <= b <= 2k - a, 0 <= c <= 3k - a - b.

The statistics are area (sum of red ranks) and bounce (piecewise-linear
formulas below, taken as the definition here).  Neither depends on the
last vector component.  One evaluation per path gives its bounce and the
index of its region in ``F_REGIONS`` or ``H_REGIONS``, the labels owned here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

F_REGIONS = ("P1C1", "P1C2", "P2C1", "P2C2")
H_REGIONS = ("P1C1", "P1C2", "P2C1", "P2C2", "P2C3", "P3C1", "P3C2", "P3C3")


def ceil_div(a: int, z: int) -> int:
    """Mathematical ceiling of a/z for z >= 1, correct for negative a."""
    if z <= 0:
        raise ValueError(f"ceil_div requires a positive divisor, got {z}")
    return -((-a) // z)


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
        if not isinstance(self.k, KVec3):
            raise ValueError(f"expected a KVec3 vector, got {self.k!r}")
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
    return (k.k1 + 1) * (k.k2 + 1) + k.k1 * (k.k1 + 1) // 2


def _ranks3(k1: int, k2: int) -> Iterator[tuple[int, int]]:
    """Red ranks (r2, r3) of each path for (k1, k2, k3), lexicographically."""
    for r2 in range(k1 + 1):
        for r3 in range(r2 + k2 + 1):
            yield r2, r3


def enumerate_paths3(k: KVec3) -> list[Path3]:
    """All paths for k, ordered lexicographically by (r2, r3)."""
    return [Path3(k, r2, r3) for r2, r3 in _ranks3(k.k1, k.k2)]


def area3(p: Path3) -> int:
    return p.r2 + p.r3


def _bounce3(k1: int, k2: int, r2: int, r3: int) -> tuple[int, int]:
    """(region, bounce) of the path (r2, r3), the region an index into
    F_REGIONS by the branches taken: P1 when m = k2 < r2, C1 when u >= 2m."""
    part, m = (0, k2) if r2 > k2 else (2, r2)
    u = r2 + k2 - r3
    if u >= 2 * m:
        return part, 2 * (k1 - r2) + u - m
    return part + 1, 2 * (k1 - r2) + ceil_div(u, 2)


def bounce3(p: Path3) -> int:
    """Bounce statistic from the red ranks, two-branch formula."""
    return _bounce3(p.k.k1, p.k.k2, p.r2, p.r3)[1]


def area_from_runs(a: int, c: int, b: int, d: int) -> int:
    """Area in run parameters: r2 + r3 = 2a - 2b + c - d."""
    return 2 * a - 2 * b + c - d


def bounce_from_runs(a: int, c: int, b: int, d: int) -> int:
    """Bounce in run parameters (e plays no role)."""
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


def _bounce4(k: int, a: int, b: int, c: int) -> tuple[int, int]:
    """(region, bounce) of the k^4 path (a, b, c), the region an index into
    H_REGIONS.  Only the predicates of the path's part are evaluated, and
    exactly one must hold: cases 1 and 2 of part 1 (b >= 2k - 2a), else cases
    3 + 3r, 4 + 3r and 5 + 3r of parts 2 and 3, written once in b = 2s + r."""
    hits = []
    if b >= 2 * k - 2 * a:
        if c >= 4 * k - 2 * a - 2 * b:
            hits.append((0, 6 * a + 3 * b + c - 4 * k))
        if c < 4 * k - 2 * a - 2 * b:
            hits.append((1, 5 * a + 2 * b + ceil_div(c, 2) - 2 * k))
    else:
        # r = 0 in part 2 and 1 in part 3; the cuts c >= cut - a and
        # c >= cut - 3a are omega's _CUTS4
        s, r = divmod(b, 2)
        cut, first = 3 * k - 3 * s - 2 * r, 2 + 3 * r
        if c >= cut - a:
            hits.append((first, 4 * a + 2 * b + c - 2 * k + r))
        if cut - 3 * a <= c < cut - a:
            hits.append((first + 1, 2 * a + s + r + k + ceil_div(3 * a + c - cut, 2)))
        if c < cut - 3 * a:
            hits.append((first + 2, 3 * a + b + r + ceil_div(c - r, 3)))
    if len(hits) != 1:
        raise AssertionError(f"bounce cases {[i + 1 for i, _ in hits]} fired for "
                             f"Path4(k={k}, a={a}, b={b}, c={c}); expected exactly one")
    return hits[0]


def bounce4_case(p: Path4) -> int:
    """Number (1..8) of the unique bounce case containing the path."""
    return _bounce4(p.k, p.a, p.b, p.c)[0] + 1


def bounce4(p: Path4) -> int:
    """Bounce statistic for k^4 paths, eight-case piecewise formula."""
    return _bounce4(p.k, p.a, p.b, p.c)[1]
