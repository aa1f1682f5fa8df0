"""q,t-polynomials assembled from path statistics.

Every polynomial here is a sum of q^area t^bounce over plain-tuple paths,
tallied from the rows of :mod:`qtcatalan.dyck`'s row stream of the family,
optionally refined by extra variables recording the path parameters (y2, y3
for red ranks; y2, y3, y4 for k^4 run parameters) and optionally restricted
to one region of the piecewise bounce formula, named by the labels F_REGIONS
and H_REGIONS of :mod:`qtcatalan.dyck`.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import lru_cache
from itertools import chain, islice, permutations
from operator import attrgetter, itemgetter
from struct import Struct
from typing import Iterable, Iterator, Sequence

from .dyck import (_ROW3, _ROW4, F_REGIONS, H_REGIONS, KVec3, _bounce4_rows, _check_type,
                   _discard, _rows3, _rows4, _runs4, enumerate_paths4)
from .polynomial import SparsePoly, VarTable

QT_VARS = ("q", "t")
REFINED3_VARS = ("q", "t", "y2", "y3")
REFINED4_VARS = ("q", "t", "y2", "y3", "y4")
GF3_VARS = ("q", "t", "x1", "x2", "x3")
GF3_REFINED_VARS = tuple(_ROW3)
GF4_VARS = ("q", "t", "x")
GF4_REFINED_VARS = tuple(_ROW4)


def _tally(names: Sequence[str], columns: Sequence[str],
           rows: Iterable[tuple[int, ...]]) -> SparsePoly:
    """Polynomial over ``names`` counting the rows, whose columns are ``columns``."""
    return _owned(names, Counter(map(itemgetter(*map(columns.index, names)), rows)))


def _owned(names: Sequence[str], terms: Counter) -> SparsePoly:
    """Polynomial over ``names`` with the coefficients ``terms``, keyed by
    exponent tuples in the order of ``names``."""
    # every exponent is an int path statistic or parameter, never negative,
    # so _owning can skip the constructor's checks
    if terms and min(min(exps) for exps in terms) < 0:
        raise AssertionError("negative exponent in a path polynomial")
    return SparsePoly._owning(VarTable(names), dict(terms))


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
        _check_type(k, KVec3)
    want = _check_args(region, F_REGIONS)
    return _in_region(_rows3([(k.k1, k.k2, k.k3) for k in ks]), want)


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
    # the one sum over enumerate_paths4 objects: the k4_ring benchmark's
    # trace counts the paths there, until it counts them through a recorder
    # (ROADMAP item 14).  Each run (k, a, b) of _runs4 takes the next n of
    # the objects' c values and is classified in one _bounce4_rows call; a
    # run is tallied before the next, so no list outgrows one run
    cs = map(attrgetter("c"), enumerate_paths4(k))
    terms, bounces, areas = Counter(), [], []
    for a, b, n in _runs4(k):
        _bounce4_rows(k, a, b, islice(cs, n), _discard, bounces.append, areas.append)
        terms.update(zip(areas, bounces))
        bounces.clear()
        areas.clear()
    return _owned(QT_VARS, terms)


def refined_poly3(k: KVec3, region: str | None = None) -> SparsePoly:
    """Refined sum q^area t^bounce y2^r2 y3^r3 over (q, t, y2, y3).

    With ``region`` set, only paths in that bounce region contribute.
    """
    return _tally(REFINED3_VARS, GF3_REFINED_VARS, _sweep3([k], region))


def refined_poly4(k: int, region: str | None = None) -> SparsePoly:
    """Refined sum q^area t^bounce y2^a y3^b y4^c over (q, t, y2, y3, y4)."""
    want = _check_args(region, H_REGIONS, k)
    return _tally(REFINED4_VARS, GF4_REFINED_VARS, _in_region(_rows4([k]), want))


# The rows of the last gf order asked, as _rows3/_rows4 yield them, kept per
# region: one enumeration and one classification per path and order,
# however many regions are tallied.  A region's rows are packed as C
# unsigned ints, four bytes per column of _ROW3/_ROW4, and read back through
# a read-only memoryview (the array module would add an extension module to
# every import), so the cache holds no tuple or int object per path.


@lru_cache(maxsize=1)
def _gf_rows(three: bool, order: int) -> dict[int, memoryview]:
    """Per region number, the packed rows of the length-3 paths with
    k1 + k2 + k3 <= order (``three``) or of the k^4 paths with k <= order."""
    rows = (_rows3((k1, k2, k3) for k1 in range(order + 1) for k2 in range(order - k1 + 1)
                   for k3 in range(order - k1 - k2 + 1)) if three else _rows4(range(order + 1)))
    pack, packed = Struct(f"{len(_ROW3 if three else _ROW4)}I").pack, defaultdict(bytearray)
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
