"""q,t-polynomials assembled from path statistics.

Every polynomial here is a sum of q^area t^bounce over plain-tuple paths,
one row stream per family, optionally refined by extra variables recording
the path parameters (y2, y3 for red ranks; y2, y3, y4 for k^4 run
parameters) and optionally restricted to one region of the piecewise
bounce formula, named by the labels F_REGIONS and H_REGIONS of
:mod:`qtcatalan.dyck`.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import lru_cache
from itertools import chain, permutations
from operator import itemgetter
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


# One row stream per family, on plain tuples: a path is (k1, k2, k3, r2, r3)
# or (k, a, b, c), in the ranges of enumerate_paths3/4.  _rows3/4 classify
# each path as they meet it, by one _bounce3/4 call, and yield (region, row):
# the region an index into F_REGIONS or H_REGIONS, the row (area, bounce,
# *path) over GF3/GF4_REFINED_VARS.  Every polynomial here tallies the
# columns of its own variables from the rows of its region, or of every
# region, filtered from that one stream.


def _paths3(vectors: Iterable[tuple[int, int, int]]) -> Iterator[tuple[int, ...]]:
    return ((k1, k2, k3, r2, r3) for k1, k2, k3 in vectors for r2, r3 in _ranks3(k1, k2))


def _paths4(ks: Iterable[int]) -> Iterator[tuple[int, int, int, int]]:
    for k in ks:
        for a in range(k + 1):
            for b in range(2 * k - a + 1):
                for c in range(3 * k - a - b + 1):
                    yield k, a, b, c


def _rows3(paths: Iterable[tuple[int, ...]]) -> Iterator[tuple[int, tuple[int, ...]]]:
    # the area is r2 + r3, as in area3
    for k1, k2, k3, r2, r3 in paths:
        region, bounce = _bounce3(k1, k2, r2, r3)
        yield region, (r2 + r3, bounce, k1, k2, k3, r2, r3)


def _rows4(paths: Iterable[tuple[int, ...]]) -> Iterator[tuple[int, tuple[int, ...]]]:
    # the area is 6k - 3a - 2b - c, as in area4
    for k, a, b, c in paths:
        region, bounce = _bounce4(k, a, b, c)
        yield region, (6 * k - 3 * a - 2 * b - c, bounce, k, a, b, c)


def _in_region(rows: Iterable[tuple[int, tuple]], want: int | None) -> Iterator[tuple]:
    """The rows whose region is ``want`` (None: every row)."""
    return (row for region, row in rows if want is None or region == want)


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
    return _in_region(_rows3(_paths3([(k.k1, k.k2, k.k3) for k in ks])), want)


def catalan_poly3(k: KVec3) -> SparsePoly:
    """Sum of q^area t^bounce over all paths for k, over variables (q, t)."""
    return _tally(QT_VARS, GF3_REFINED_VARS, _sweep3([k], None))


def catalan_poly_lambda3(lam: Sequence[int]) -> SparsePoly:
    """Sum of catalan_poly3 over the distinct rearrangements of a partition,
    tallied in one sweep over all their paths.

    ``lam`` must be weakly decreasing with nonnegative int parts; each distinct
    ordered vector is counted once.
    """
    lam = tuple(lam)
    if len(lam) != 3:
        raise ValueError(f"expected 3 parts, got {lam!r}")
    if any(type(part) is not int for part in lam):
        raise ValueError(f"parts must be integers: {lam!r}")
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
    return _tally(REFINED4_VARS, GF4_REFINED_VARS, _in_region(_rows4(_paths4([k])), want))


def _gf_paths3(max_total: int) -> Iterator[tuple[int, ...]]:
    """Each path of each vector with k1 + k2 + k3 <= max_total."""
    return _paths3((k1, k2, k3) for k1 in range(max_total + 1)
                   for k2 in range(max_total - k1 + 1)
                   for k3 in range(max_total - k1 - k2 + 1))


# The rows of the last gf order asked, in the order of _gf_paths3 or
# _paths4, kept per region: one enumeration and one classification per path
# and order, however many regions are tallied.  A region's rows are packed
# as C unsigned ints, four bytes per column, and read back through a
# read-only memoryview (the array module would add an extension module to
# every import), so the cache holds no tuple or int object per path.


@lru_cache(maxsize=1)
def _gf_rows(three: bool, order: int) -> dict[int, memoryview]:
    """Per region number, the packed rows of the length-3 paths with
    k1 + k2 + k3 <= order (``three``) or of the k^4 paths with k <= order."""
    rows = _rows3(_gf_paths3(order)) if three else _rows4(_paths4(range(order + 1)))
    pack, packed = Struct("7I" if three else "6I").pack, defaultdict(bytearray)
    for region, row in rows:
        packed[region] += pack(*row)
    return {region: memoryview(b).toreadonly().cast("I") for region, b in packed.items()}


def _gf_tally(names: Sequence[str], columns: Sequence[str],
              views: dict[int, memoryview], want: int | None) -> SparsePoly:
    chosen = views.values() if want is None else [views.get(want, ())]
    return _tally(names, columns, chain.from_iterable(
        zip(*[iter(view)] * len(columns)) for view in chosen))


def gf_series3(max_total: int, region: str | None = None,
               refined: bool = False) -> SparsePoly:
    """Generating series sum over k1+k2+k3 <= max_total of x1^k1 x2^k2 x3^k3
    times the (optionally refined, optionally region-filtered) path sum."""
    want = _check_args(region, F_REGIONS, max_total, refined)
    return _gf_tally(GF3_REFINED_VARS if refined else GF3_VARS, GF3_REFINED_VARS,
                     _gf_rows(True, max_total), want)


def gf_series4(max_k: int, region: str | None = None,
               refined: bool = False) -> SparsePoly:
    """Generating series sum over k <= max_k of x^k times the path sum."""
    want = _check_args(region, H_REGIONS, max_k, refined)
    return _gf_tally(GF4_REFINED_VARS if refined else GF4_VARS, GF4_REFINED_VARS,
                     _gf_rows(False, max_k), want)
