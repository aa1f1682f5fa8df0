"""q,t-polynomials assembled from path statistics.

Every polynomial here is a sum of q^area t^bounce over an enumerated set
of paths, optionally refined by extra variables recording the path
parameters (y2, y3 for red ranks; y2, y3, y4 for k^4 run parameters) and
optionally restricted to one region of the piecewise bounce formula.
Region labels: P1C1..P2C2 for length-3 vectors, P1C1..P3C3 for k^4.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import permutations
from struct import Struct
from typing import Iterable, Iterator, Sequence

from .dyck import (KVec3, Path3, Path4, _bounce3, _bounce4, area3, area4,
                   bounce4_case, enumerate_paths3, enumerate_paths4)
from .polynomial import SparsePoly, VarTable

QT_VARS = ("q", "t")
REFINED3_VARS = ("q", "t", "y2", "y3")
REFINED4_VARS = ("q", "t", "y2", "y3", "y4")
GF3_VARS = ("q", "t", "x1", "x2", "x3")
GF3_REFINED_VARS = ("q", "t", "x1", "x2", "x3", "y2", "y3")
GF4_VARS = ("q", "t", "x")
GF4_REFINED_VARS = ("q", "t", "x", "y2", "y3", "y4")

F_REGIONS = ("P1C1", "P1C2", "P2C1", "P2C2")
H_REGIONS = ("P1C1", "P1C2", "P2C1", "P2C2", "P2C3", "P3C1", "P3C2", "P3C3")


def region_of_path3(p: Path3) -> str:
    """Bounce region of a length-3 path (partition of the (r2, r3) grid)."""
    return F_REGIONS[_bounce3(p.k.k1, p.k.k2, p.r2, p.r3)[0]]


def region_of_path4(p: Path4) -> str:
    """Bounce region of a k^4 path (one of the eight cases)."""
    return H_REGIONS[bounce4_case(p) - 1]


def _tally(names: Sequence[str], keys: Iterable[tuple[int, ...]]) -> SparsePoly:
    """Polynomial with coefficient = number of occurrences of each key."""
    terms = Counter(keys)
    # every exponent is a path statistic or parameter, never negative
    if terms and min(min(exps) for exps in terms) < 0:
        raise AssertionError("negative exponent in a path polynomial")
    return SparsePoly(VarTable(names), terms)


def _scored3(k: KVec3, region: str | None) -> Iterator[tuple[int, int, Path3]]:
    """(area, bounce, path) for each path for k in ``region`` (None: all)."""
    for p in enumerate_paths3(k):
        i, bounce = _bounce3(k.k1, k.k2, p.r2, p.r3)
        if region is None or F_REGIONS[i] == region:
            yield area3(p), bounce, p


def _scored4(k: int, region: str | None) -> Iterator[tuple[int, int, Path4]]:
    """(area, bounce, path) for each path for k^4, as :func:`_scored3`."""
    for p in enumerate_paths4(k):
        case, bounce = _bounce4(k, p.a, p.b, p.c)
        if region is None or H_REGIONS[case - 1] == region:
            yield area4(p), bounce, p


def catalan_poly3(k: KVec3) -> SparsePoly:
    """Sum of q^area t^bounce over all paths for k, over variables (q, t)."""
    _check_k3(k)
    return _tally(QT_VARS, ((area, bounce) for area, bounce, _ in _scored3(k, None)))


def catalan_poly_lambda3(lam: Sequence[int]) -> SparsePoly:
    """Sum of catalan_poly3 over the distinct rearrangements of a partition.

    ``lam`` must be weakly decreasing with nonnegative parts; each distinct
    ordered vector is counted once.
    """
    lam = tuple(lam)
    if len(lam) != 3:
        raise ValueError(f"expected 3 parts, got {lam!r}")
    if not (lam[0] >= lam[1] >= lam[2] >= 0):
        raise ValueError(f"parts must be weakly decreasing and nonnegative: {lam!r}")
    total = SparsePoly.zero(VarTable(QT_VARS))
    for vec in sorted(set(permutations(lam))):
        total = total + catalan_poly3(KVec3(*vec))
    return total


def catalan_poly_k4(k: int) -> SparsePoly:
    """Sum of q^area t^bounce over all paths for k^4."""
    return _tally(QT_VARS, ((area, bounce) for area, bounce, _ in _scored4(k, None)))


def _check_args(region: str | None, allowed: tuple[str, ...], order: int = 0,
                refined: bool = False):
    if region is not None and region not in allowed:
        raise ValueError(f"unknown region {region!r}; expected one of {allowed}")
    if type(order) is not int or order < 0:
        raise ValueError(f"the series order must be a nonnegative integer, got {order!r}")
    if type(refined) is not bool:
        raise ValueError(f"refined must be True or False, got {refined!r}")


def _check_k3(k: KVec3):
    if not isinstance(k, KVec3):
        raise ValueError(f"expected a KVec3 vector, got {k!r}")


def refined_poly3(k: KVec3, region: str | None = None) -> SparsePoly:
    """Refined sum q^area t^bounce y2^r2 y3^r3 over (q, t, y2, y3).

    With ``region`` set, only paths in that bounce region contribute.
    """
    _check_k3(k)
    _check_args(region, F_REGIONS)
    return _tally(REFINED3_VARS, ((area, bounce, p.r2, p.r3)
                                  for area, bounce, p in _scored3(k, region)))


def refined_poly4(k: int, region: str | None = None) -> SparsePoly:
    """Refined sum q^area t^bounce y2^a y3^b y4^c over (q, t, y2, y3, y4)."""
    _check_args(region, H_REGIONS)
    return _tally(REFINED4_VARS, ((area, bounce, p.a, p.b, p.c)
                                  for area, bounce, p in _scored4(k, region)))


def _gf_paths3(max_total: int) -> Iterator[tuple[int, int, int, int, int]]:
    """(k1, k2, k3, r2, r3) for each path of each vector with k1 + k2 + k3 <=
    max_total, as plain tuples, in the ranges of :func:`enumerate_paths3`."""
    for k1 in range(max_total + 1):
        for k2 in range(max_total - k1 + 1):
            for k3 in range(max_total - k1 - k2 + 1):
                for r2 in range(k1 + 1):
                    for r3 in range(r2 + k2 + 1):
                        yield k1, k2, k3, r2, r3


def _gf_paths4(max_k: int) -> Iterator[tuple[int, int, int, int]]:
    """(k, a, b, c) for each path for k^4 with k <= max_k, as plain tuples,
    in the ranges of :func:`enumerate_paths4`."""
    for k in range(max_k + 1):
        for a in range(k + 1):
            for b in range(2 * k - a + 1):
                for c in range(3 * k - a - b + 1):
                    yield k, a, b, c


# Each path's region (F region index 0..3, k^4 case 1..8) and bounce, in
# the order of _gf_paths3/4, for the last order asked: one classification
# per path, however many regions are tallied, and five bytes kept per
# path: a byte for the region and a C unsigned int for the bounce, read
# back through a memoryview (the array module would add an extension
# module to every import).
_BOUNCE = Struct("I")


def _record(classified: Iterable[tuple[int, int]]) -> tuple[bytes, memoryview]:
    regions, bounces = bytearray(), bytearray()
    for region, bounce in classified:
        regions.append(region)
        bounces += _BOUNCE.pack(bounce)
    return bytes(regions), memoryview(bounces).toreadonly().cast("I")


@lru_cache(maxsize=1)
def _classified3(max_total: int) -> tuple[bytes, memoryview]:
    return _record(_bounce3(k1, k2, r2, r3) for k1, k2, _, r2, r3 in _gf_paths3(max_total))


@lru_cache(maxsize=1)
def _classified4(max_k: int) -> tuple[bytes, memoryview]:
    return _record(_bounce4(*path) for path in _gf_paths4(max_k))


def gf_series3(max_total: int, region: str | None = None,
               refined: bool = False) -> SparsePoly:
    """Generating series sum over k1+k2+k3 <= max_total of x1^k1 x2^k2 x3^k3
    times the (optionally refined, optionally region-filtered) path sum."""
    _check_args(region, F_REGIONS, max_total, refined)
    want = None if region is None else F_REGIONS.index(region)
    regions, bounces = _classified3(max_total)
    # the area is r2 + r3, as in area3
    return _tally(GF3_REFINED_VARS if refined else GF3_VARS,
                  ((r2 + r3, bounce, k1, k2, k3) + ((r2, r3) if refined else ())
                   for (k1, k2, k3, r2, r3), i, bounce
                   in zip(_gf_paths3(max_total), regions, bounces)
                   if want is None or i == want))


def gf_series4(max_k: int, region: str | None = None,
               refined: bool = False) -> SparsePoly:
    """Generating series sum over k <= max_k of x^k times the path sum."""
    _check_args(region, H_REGIONS, max_k, refined)
    want = None if region is None else H_REGIONS.index(region) + 1
    regions, bounces = _classified4(max_k)
    # the area is 6k - 3a - 2b - c, as in area4
    return _tally(GF4_REFINED_VARS if refined else GF4_VARS,
                  ((6 * k - 3 * a - 2 * b - c, bounce, k) + ((a, b, c) if refined else ())
                   for (k, a, b, c), case, bounce in zip(_gf_paths4(max_k), regions, bounces)
                   if want is None or case == want))
