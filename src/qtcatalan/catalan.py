"""q,t-polynomials assembled from path statistics.

Every polynomial here is a sum of q^area t^bounce over plain-tuple paths,
one sweep per family, optionally refined by extra variables recording the
path parameters (y2, y3 for red ranks; y2, y3, y4 for k^4 run parameters)
and optionally restricted to one region of the piecewise bounce formula,
named by the labels F_REGIONS and H_REGIONS of :mod:`qtcatalan.dyck`.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, partial
from itertools import compress, permutations, repeat, starmap, tee
from operator import eq, itemgetter
from struct import Struct
from typing import Iterable, Iterator, Sequence

from .dyck import (F_REGIONS, H_REGIONS, KVec3, Path3, Path4, _bounce3, _bounce4,
                   _check_kvec3, _ranks3, area4, bounce4, enumerate_paths4)
from .polynomial import SparsePoly, VarTable

QT_VARS = ("q", "t")
REFINED3_VARS = ("q", "t", "y2", "y3")
REFINED4_VARS = ("q", "t", "y2", "y3", "y4")
GF3_VARS = ("q", "t", "x1", "x2", "x3")
GF3_REFINED_VARS = ("q", "t", "x1", "x2", "x3", "y2", "y3")
GF4_VARS = ("q", "t", "x")
GF4_REFINED_VARS = ("q", "t", "x", "y2", "y3", "y4")


def region_of_path3(p: Path3) -> str:
    """Bounce region of a length-3 path (partition of the (r2, r3) grid)."""
    return F_REGIONS[_bounce3(p.k.k1, p.k.k2, p.r2, p.r3)[0]]


def region_of_path4(p: Path4) -> str:
    """Bounce region of a k^4 path (one of the eight cases)."""
    return H_REGIONS[_bounce4(p.k, p.a, p.b, p.c)[0]]


def _tally(names: Sequence[str], columns: Sequence[str],
           rows: Iterable[tuple[int, ...]]) -> SparsePoly:
    """Polynomial over ``names`` counting the rows, whose columns are ``columns``."""
    terms = Counter(map(itemgetter(*map(columns.index, names)), rows))
    # every exponent is an int path statistic or parameter, never negative,
    # so _owning can skip the constructor's checks
    if terms and min(min(exps) for exps in terms) < 0:
        raise AssertionError("negative exponent in a path polynomial")
    return SparsePoly._owning(VarTable(names), dict(terms))


# One sweep per family, on plain tuples: a path is (k1, k2, k3, r2, r3) or
# (k, a, b, c), in the ranges of enumerate_paths3/4.  Its (region, bounce)
# comes from _bounce3/4, or from the gf record below in the same order, and
# its row is (area, bounce, *path), over GF3/GF4_REFINED_VARS; every
# polynomial here tallies the columns of its own variables.  A region is one
# filter for every caller: _in_region drops the other paths by compress over
# the regions, read in step, before any row is built.


def _paths3(vectors: Iterable[tuple[int, int, int]]) -> Iterator[tuple[int, ...]]:
    return ((k1, k2, k3, r2, r3) for k1, k2, k3 in vectors for r2, r3 in _ranks3(k1, k2))


def _paths4(ks: Iterable[int]) -> Iterator[tuple[int, int, int, int]]:
    for k in ks:
        for a in range(k + 1):
            for b in range(2 * k - a + 1):
                for c in range(3 * k - a - b + 1):
                    yield k, a, b, c


def _classify3(paths: Iterable[tuple[int, ...]]) -> Iterator[tuple[int, int]]:
    return (_bounce3(k1, k2, r2, r3) for k1, k2, _, r2, r3 in paths)


def _stream(paths: Iterable[tuple[int, ...]], classify, want: int | None) -> tuple:
    # the paths, their regions and their bounces, read in step from one pass
    # over the paths; no regions without a filter, whose unread tee would
    # keep every (region, bounce) pair
    paths, to_classify = tee(paths)
    if want is None:
        return paths, (), map(itemgetter(1), classify(to_classify))
    regions, bounces = tee(classify(to_classify))
    return paths, map(itemgetter(0), regions), map(itemgetter(1), bounces)


def _in_region(paths, regions, bounces, want: int | None) -> Iterator[tuple]:
    # (path, bounce) of each path whose region is want (None: every path)
    pairs = zip(paths, bounces)
    return pairs if want is None else compress(pairs, map(eq, regions, repeat(want)))


def _rows3(paths, regions, bounces, want: int | None) -> Iterator[tuple[int, ...]]:
    # the area is r2 + r3, as in area3
    for (k1, k2, k3, r2, r3), bounce in _in_region(paths, regions, bounces, want):
        yield r2 + r3, bounce, k1, k2, k3, r2, r3


def _rows4(paths, regions, bounces, want: int | None) -> Iterator[tuple[int, ...]]:
    # the area is 6k - 3a - 2b - c, as in area4
    for (k, a, b, c), bounce in _in_region(paths, regions, bounces, want):
        yield 6 * k - 3 * a - 2 * b - c, bounce, k, a, b, c


def _check_args(region: str | None, allowed: tuple[str, ...], size: int = 0,
                refined: bool = False) -> int | None:
    """Validate the arguments; return the index of ``region`` in ``allowed``."""
    if region is not None and region not in allowed:
        raise ValueError(f"unknown region {region!r}; expected one of {allowed}")
    if type(size) is not int or size < 0:
        raise ValueError(f"expected a nonnegative integer, got {size!r}")
    if type(refined) is not bool:
        raise ValueError(f"refined must be True or False, got {refined!r}")
    return None if region is None else allowed.index(region)


def _sweep3(ks: Sequence[KVec3], region: str | None) -> Iterator[tuple[int, ...]]:
    """The rows of the paths for each vector of ``ks`` in ``region`` (None: all)."""
    for k in ks:
        _check_kvec3(k)
    want = _check_args(region, F_REGIONS)
    vectors = [(k.k1, k.k2, k.k3) for k in ks]
    return _rows3(*_stream(_paths3(vectors), _classify3, want), want)


def catalan_poly3(k: KVec3) -> SparsePoly:
    """Sum of q^area t^bounce over all paths for k, over variables (q, t)."""
    return _tally(QT_VARS, GF3_REFINED_VARS, _sweep3([k], None))


def catalan_poly_lambda3(lam: Sequence[int]) -> SparsePoly:
    """Sum of catalan_poly3 over the distinct rearrangements of a partition,
    tallied in one sweep over all their paths.

    ``lam`` must be weakly decreasing with nonnegative parts; each distinct
    ordered vector is counted once.
    """
    lam = tuple(lam)
    if len(lam) != 3:
        raise ValueError(f"expected 3 parts, got {lam!r}")
    if not (lam[0] >= lam[1] >= lam[2] >= 0):
        raise ValueError(f"parts must be weakly decreasing and nonnegative: {lam!r}")
    vectors = [KVec3(*vec) for vec in sorted(set(permutations(lam)))]
    return _tally(QT_VARS, GF3_REFINED_VARS, _sweep3(vectors, None))


def catalan_poly_k4(k: int) -> SparsePoly:
    """Sum of q^area t^bounce over all paths for k^4."""
    # the one sum over enumerate_paths4 objects, whose count the k4_ring
    # benchmark reads
    paths = enumerate_paths4(k)
    return _tally(QT_VARS, QT_VARS, zip(map(area4, paths), map(bounce4, paths)))


def refined_poly3(k: KVec3, region: str | None = None) -> SparsePoly:
    """Refined sum q^area t^bounce y2^r2 y3^r3 over (q, t, y2, y3).

    With ``region`` set, only paths in that bounce region contribute.
    """
    return _tally(REFINED3_VARS, GF3_REFINED_VARS, _sweep3([k], region))


def refined_poly4(k: int, region: str | None = None) -> SparsePoly:
    """Refined sum q^area t^bounce y2^a y3^b y4^c over (q, t, y2, y3, y4)."""
    want = _check_args(region, H_REGIONS, k)
    return _tally(REFINED4_VARS, GF4_REFINED_VARS,
                  _rows4(*_stream(_paths4([k]), partial(starmap, _bounce4), want), want))


def _gf_paths3(max_total: int) -> Iterator[tuple[int, ...]]:
    """Each path of each vector with k1 + k2 + k3 <= max_total."""
    return _paths3((k1, k2, k3) for k1 in range(max_total + 1)
                   for k2 in range(max_total - k1 + 1)
                   for k3 in range(max_total - k1 - k2 + 1))


# Each path's region (an index into F_REGIONS or H_REGIONS) and bounce, in
# the order of _gf_paths3 and _paths4, for the last order asked: one
# classification per path, however many regions are tallied, and five bytes
# kept per path: a byte for the region and a C unsigned int for the bounce,
# read back through a memoryview (the array module would add an extension
# module to every import).  A region's series reads the region bytes as
# _in_region's selectors.
_BOUNCE = Struct("I")


def _record(classified: Iterable[tuple[int, int]]) -> tuple[bytes, memoryview]:
    regions, bounces = bytearray(), bytearray()
    for region, bounce in classified:
        regions.append(region)
        bounces += _BOUNCE.pack(bounce)
    return bytes(regions), memoryview(bounces).toreadonly().cast("I")


@lru_cache(maxsize=1)
def _classified3(max_total: int) -> tuple[bytes, memoryview]:
    return _record(_classify3(_gf_paths3(max_total)))


@lru_cache(maxsize=1)
def _classified4(max_k: int) -> tuple[bytes, memoryview]:
    return _record(starmap(_bounce4, _paths4(range(max_k + 1))))


def gf_series3(max_total: int, region: str | None = None,
               refined: bool = False) -> SparsePoly:
    """Generating series sum over k1+k2+k3 <= max_total of x1^k1 x2^k2 x3^k3
    times the (optionally refined, optionally region-filtered) path sum."""
    want = _check_args(region, F_REGIONS, max_total, refined)
    return _tally(GF3_REFINED_VARS if refined else GF3_VARS, GF3_REFINED_VARS,
                  _rows3(_gf_paths3(max_total), *_classified3(max_total), want))


def gf_series4(max_k: int, region: str | None = None,
               refined: bool = False) -> SparsePoly:
    """Generating series sum over k <= max_k of x^k times the path sum."""
    want = _check_args(region, H_REGIONS, max_k, refined)
    return _tally(GF4_REFINED_VARS if refined else GF4_VARS, GF4_REFINED_VARS,
                  _rows4(_paths4(range(max_k + 1)), *_classified4(max_k), want))
