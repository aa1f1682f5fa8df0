import copy
import pickle
import sys
from dataclasses import FrozenInstanceError, replace
from itertools import product

import pytest

from qtcatalan import dyck, involution
from qtcatalan.dyck import (F_REGIONS, H_REGIONS, KVec3, Path3, Path4, _bounce3, _bounce4,
                            ceil_div, enumerate_paths3, enumerate_paths4)


@pytest.mark.parametrize("a, z, expected", [
    (3, 2, 2), (-1, 3, 0), (7, 3, 3), (0, 5, 0), (-6, 2, -3), (6, 3, 2),
])
def test_ceil_div(a, z, expected):
    assert ceil_div(a, z) == expected


def test_ceil_div_sandwich_small():
    for a in range(-50, 51):
        for z in range(1, 6):
            p = ceil_div(a, z)
            assert 0 <= p * z - a <= z - 1


def test_ceil_div_rejects_nonpositive_divisor():
    with pytest.raises(ValueError):
        ceil_div(3, 0)
    with pytest.raises(ValueError):
        ceil_div(3, -2)


def test_ceil_div_rejects_non_integers():
    for a, z in ((1.5, 2), (3, 2.0), (True, 2), (3, True)):
        with pytest.raises(ValueError, match="requires integers"):
            ceil_div(a, z)


def test_kvec_validation():
    with pytest.raises(ValueError):
        KVec3(1, -1, 0)
    for bad in ((1.5, 0, 0), (1, True, 0), (0, 0, "2")):
        with pytest.raises(ValueError, match="nonnegative integers"):
            KVec3(*bad)


def test_path3_validation():
    k = KVec3(1, 1, 1)
    with pytest.raises(ValueError):
        Path3(k, 2, 0)
    with pytest.raises(ValueError):
        Path3(k, 1, 3)


@pytest.mark.parametrize("r2, r3", [(0.5, 1), (1, 1.0), (True, 1), (1, False), ("1", 1)])
def test_path3_rejects_non_integer_ranks(r2, r3):
    # a half-integer rank once gave a path of area 1.5 and bounce 4.0
    with pytest.raises(ValueError, match="integers"):
        Path3(KVec3(2, 1, 1), r2, r3)


@pytest.mark.parametrize("k", [(1, 1, 1), [1, 1, 1], None])
def test_path3_rejects_a_vector_that_is_not_a_kvec3(k):
    # a plain tuple once failed with AttributeError on k.k1
    with pytest.raises(ValueError, match="KVec3"):
        Path3(k, 0, 0)


def test_enumerate_paths3_rejects_a_vector_that_is_not_a_kvec3():
    # a plain tuple once failed with AttributeError on k.k1
    with pytest.raises(ValueError, match="KVec3"):
        enumerate_paths3((1, 1, 1))


def test_enumerate_paths3_counts_and_order():
    assert [(p.r2, p.r3) for p in enumerate_paths3(KVec3(0, 0, 0))] == [(0, 0)]
    assert len(enumerate_paths3(KVec3(1, 1, 1))) == 5
    assert len(enumerate_paths3(KVec3(2, 1, 3))) == 9
    ps = [(p.r2, p.r3) for p in enumerate_paths3(KVec3(2, 1, 0))]
    assert ps == sorted(ps)


def test_enumerate_paths3_matches_closed_count():
    for k1 in range(21):
        for k2 in range(21):
            for k3 in (0, 20):
                k = KVec3(k1, k2, k3)
                assert len(enumerate_paths3(k)) == (k1 + 1) * (k2 + 1) + k1 * (k1 + 1) // 2


@pytest.mark.parametrize("k, r2, r3, a, b", [
    ((1, 1, 1), 0, 0, 0, 3),
    ((1, 1, 1), 1, 1, 2, 1),
    ((1, 1, 1), 1, 2, 3, 0),
    ((2, 1, 3), 2, 3, 5, 0),
])
def test_area3_bounce3_values(k, r2, r3, a, b):
    assert Path3(KVec3(*k), r2, r3).stats()[1:] == (a, b)


def test_statistics_nonnegative_and_maximal_path():
    for k1 in range(6):
        for k2 in range(6):
            k = KVec3(k1, k2, 1)
            for p in enumerate_paths3(k):
                _, area, bounce = p.stats()
                assert area >= 0
                assert bounce >= 0
            _, area, bounce = Path3(k, k1, k1 + k2).stats()
            assert bounce == 0
            assert area == 2 * k1 + k2


def test_statistics_do_not_depend_on_last_component():
    for k1 in range(5):
        for k2 in range(5):
            base = [p.stats() for p in enumerate_paths3(KVec3(k1, k2, 0))]
            other = [p.stats() for p in enumerate_paths3(KVec3(k1, k2, 7))]
            assert base == other


@pytest.mark.parametrize("a, c, b, d, expected", [
    (1, 1, 0, 0, 0),
    (1, 1, 1, 1, 3),
    (2, 1, 0, 2, 1),
])
def test_bounce3_bd_values(a, c, b, d, expected):
    # run parameters (b, d) are the red ranks r2 = a - b, r3 = a - b + c - d
    assert Path3(KVec3(a, c, 0), a - b, a - b + c - d).stats()[2] == expected


def test_enumerate_paths4_counts():
    with pytest.raises(ValueError, match="nonnegative"):
        enumerate_paths4(-1)
    assert [(p.a, p.b, p.c) for p in enumerate_paths4(0)] == [(0, 0, 0)]
    assert len(enumerate_paths4(1)) == 14
    ps = [(p.a, p.b, p.c) for p in enumerate_paths4(2)]
    assert ps == sorted(ps)


@pytest.mark.parametrize("k", [True, 2.0, 1.5, "2"])
def test_enumerate_paths4_rejects_non_integers(k):
    with pytest.raises(ValueError, match="nonnegative integer"):
        enumerate_paths4(k)


def test_path4_validation_and_red_ranks():
    with pytest.raises(ValueError, match="k must be nonnegative, got -1"):
        Path4(-1, 0, 0, 0)
    with pytest.raises(ValueError):
        Path4(1, 2, 0, 0)
    with pytest.raises(ValueError):
        Path4(1, 1, 2, 0)
    with pytest.raises(ValueError):
        Path4(1, 1, 1, 2)
    assert Path4(1, 1, 1, 1).red_ranks == (0, 0, 0, 0)
    assert Path4(1, 0, 1, 0).red_ranks == (0, 1, 1, 2)


@pytest.mark.parametrize("k", range(7))
def test_enumerated_paths4_are_indistinguishable_from_validated_ones(k):
    # enumerate_paths4 skips __post_init__; the objects must not show it
    for p in enumerate_paths4(k):
        q = Path4(k, p.a, p.b, p.c)
        assert (p, hash(p), repr(p), p.red_ranks) == (q, hash(q), repr(q), q.red_ranks)
        assert pickle.loads(pickle.dumps(p)) == p
        assert copy.deepcopy(p) == p
    p = enumerate_paths4(k)[-1]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(p, protocol)) == p
    with pytest.raises(ValueError, match="out of range"):
        replace(p, a=k + 1)
    with pytest.raises(FrozenInstanceError):
        p.a = 0


@pytest.mark.parametrize("kabc", [(2, 0.5, 1, 0), (2.0, 1, 1, 0), (2, 1, True, 0),
                                  (2, 1, 1, "0")])
def test_path4_rejects_non_integers(kabc):
    with pytest.raises(ValueError, match="must be integers"):
        Path4(*kabc)


@pytest.mark.parametrize("abc, area, bounce", [
    ((1, 1, 1), 0, 6),
    ((0, 0, 0), 6, 0),
    ((0, 1, 0), 4, 2),
])
def test_area4_bounce4_k1(abc, area, bounce):
    assert Path4(1, *abc).stats()[1:] == (area, bounce)


def test_bounce4_cases_partition_small():
    for k in range(7):
        for p in enumerate_paths4(k):
            label, area, bounce = p.stats()  # raises unless exactly one case fires
            assert 1 <= H_REGIONS.index(label) + 1 <= 8
            assert area >= 0
            assert bounce >= 0


def test_bounce4_overlapping_cases_name_the_path():
    # a = -1 is no path: its even-b bounds overlap, so cases 3 and 5 both
    # hold, which the guard case ahead of them reports
    with pytest.raises(AssertionError,
                       match=r"\[3, 5\] fired for Path4\(k=0, a=-1, b=0, c=1\)"):
        _bounce4(0, -1, 0, 1)


def test_classifiers_make_no_other_call():
    # one path per region of each family, through a ceiling and both parities
    paths3 = {_bounce3(*point)[0]: point for point in product(range(4), repeat=4)
              if 0 <= point[2] <= point[0] and 0 <= point[3] <= point[2] + point[1]}
    paths4 = {_bounce4(2, p.a, p.b, p.c)[0]: (2, p.a, p.b, p.c) for p in enumerate_paths4(2)}
    assert sorted(paths3) == list(range(4)) and sorted(paths4) == list(range(8))
    for classify, paths in ((_bounce3, paths3), (_bounce4, paths4)):
        for point in paths.values():
            calls = 0

            def profile(frame, event, arg):
                nonlocal calls
                calls += event == "call"
            sys.setprofile(profile)
            try:
                classify(*point)
            finally:
                sys.setprofile(None)
            assert calls == 1, (classify.__name__, point)


def test_a_bounce_table_without_its_last_case_names_the_point():
    args, table, symbols = dyck._lowered("k, a, b, c", "Path4", dyck._ROW4,
                                         dyck._H_PART_CUTS, dyck._H_PARTS)
    assert table[-1][0] == []  # the rowless case that holds where no other does
    # without P2C3/P3C3, the last case of the s table
    classify = dyck._compile("_bounce4", args, table[:-2] + table[-1:], symbols)[0]
    assert classify(1, 1, 0, 0) == _bounce4(1, 1, 0, 0) == (1, 3, 3)
    assert _bounce4(1, 0, 0, 0)[0] == 4
    with pytest.raises(AssertionError,
                       match=r"^no bounce case holds for Path4\(k=1, a=0, b=0, c=0\)$"):
        classify(1, 0, 0, 0)


def reference_bounce4(k, a, b, c):
    """The eight-branch k^4 bounce, with the odd-b cases 6-8 written out as a
    second copy of the even-b cases 3-5, and the area, the sum of the red
    ranks: (case 1..8, bounce, area)."""
    s = b // 2
    hits = []
    if b >= 2 * k - 2 * a:
        if c >= 4 * k - 2 * a - 2 * b:
            hits.append((1, 6 * a + 3 * b + c - 4 * k))
        if c < 4 * k - 2 * a - 2 * b:
            hits.append((2, 5 * a + 2 * b + ceil_div(c, 2) - 2 * k))
    elif b % 2 == 0:
        # bounds use 3b/2 = 3s for even b = 2s
        if c >= 3 * k - a - 3 * s:
            hits.append((3, 4 * a + 2 * b + c - 2 * k))
        if 3 * k - 3 * a - 3 * s <= c < 3 * k - a - 3 * s:
            hits.append((4, 2 * a + s + k + ceil_div(3 * a + 3 * s + c - 3 * k, 2)))
        if c < 3 * k - 3 * a - 3 * s:
            hits.append((5, 3 * a + b + ceil_div(c, 3)))
    else:
        # bounds use 3(b+1)/2 = 3(s+1) for odd b = 2s+1
        t = 3 * (s + 1)
        if c >= 3 * k - a - t + 1:
            hits.append((6, 4 * a + 2 * b + c - 2 * k + 1))
        if 3 * k - 3 * a - t + 1 <= c < 3 * k - a - t + 1:
            hits.append((7, 2 * a + s + 1 + k + ceil_div(3 * a + 3 * s + c - 3 * k + 2, 2)))
        if c < 3 * k - 3 * a - t + 1:
            hits.append((8, 3 * a + b + 1 + ceil_div(c - 1, 3)))
    if len(hits) != 1:
        raise AssertionError(f"bounce cases {[case for case, _ in hits]} fired for "
                             f"Path4(k={k}, a={a}, b={b}, c={c}); expected exactly one")
    return *hits[0], sum((k - a, 2 * k - a - b, 3 * k - a - b - c))


def test_bounce4_matches_the_eight_branch_reference_on_paths():
    # the public views on Path4 objects
    for k in range(13):
        for p in enumerate_paths4(k):
            want = reference_bounce4(k, p.a, p.b, p.c)
            label, area, bounce = p.stats()
            assert (H_REGIONS.index(label) + 1, bounce, area) == want, p
    # every path with k <= 24, as plain tuples
    for k in range(25):
        for a in range(k + 1):
            for b in range(2 * k - a + 1):
                for c in range(3 * k - a - b + 1):
                    region, bounce, area = _bounce4(k, a, b, c)
                    want = reference_bounce4(k, a, b, c)
                    assert (region + 1, bounce, area) == want, (k, a, b, c)


def test_bounce4_matches_the_eight_branch_reference_off_paths():
    # outside the path ranges the cases can overlap or all fail; the error
    # must then name the same cases and point as the reference's
    failures = 0
    for point in product(range(-2, 5), repeat=4):
        try:
            want = reference_bounce4(*point)
        except AssertionError as exc:
            failures += 1
            with pytest.raises(AssertionError) as got:
                _bounce4(*point)
            assert str(got.value) == str(exc), point
        else:
            region, bounce, area = _bounce4(*point)
            assert (region + 1, bounce, area) == want, point
    assert failures > 0


def reference_bounce3(k1: int, k2: int, r2: int, r3: int) -> tuple[int, int, int]:
    """(region, bounce, area) of the path (r2, r3), the region an index into
    F_REGIONS by the branches taken: P1 when m = k2 < r2, C1 when u >= 2m;
    the area the sum of the red ranks (0, r2, r3)."""
    part, m = (0, k2) if r2 > k2 else (2, r2)
    u = r2 + k2 - r3
    area = sum((0, r2, r3))
    if u >= 2 * m:
        return part, 2 * (k1 - r2) + u - m, area
    return part + 1, 2 * (k1 - r2) + ceil_div(u, 2), area


def test_bounce3_matches_the_two_branch_reference():
    # every path of every vector with k1, k2 <= 8 (k3 plays no role)
    for k1 in range(9):
        for k2 in range(9):
            for r2 in range(k1 + 1):
                for r3 in range(r2 + k2 + 1):
                    point = (k1, k2, r2, r3)
                    assert _bounce3(*point) == reference_bounce3(*point), point
    # off the paths too: both are total on the integers
    for point in product(range(-2, 5), repeat=4):
        assert _bounce3(*point) == reference_bounce3(*point), point


# The row streams restate the path model's tables as loops and tuples: each
# is pinned to the table it restates, on every length-3 vector with
# k1, k2 <= 6 and k3 <= 2 and on every k <= 6.
VECTORS3 = list(product(range(7), range(7), range(3)))
KS4 = range(7)


def _value(functional, point: dict) -> int:
    return sum(c * {**point, "const": 1}[v] for v, c in functional.items())


def _domain_points(domain, fixed: dict, free: tuple[str, ...], top: int) -> list[tuple]:
    """The points (*fixed, *free) with each free value in range(top + 1)
    where every domain row is >= 0, in lexicographic order."""
    points = [{**fixed, **dict(zip(free, values))}
              for values in product(range(top + 1), repeat=len(free))]
    return [tuple(point.values()) for point in points
            if all(_value(row, point) >= 0 for row in domain)]


def _paths(rows) -> list[tuple]:
    """The path columns of a row stream, in its order."""
    return [row[2:] for _, row in rows]


def _points3() -> list[tuple]:
    # each box reaches one past the largest coordinate a path can have
    return [point for k1, k2, k3 in VECTORS3 for point in _domain_points(
        dyck._DOMAIN3, {"k1": k1, "k2": k2, "k3": k3}, ("r2", "r3"), k1 + k2 + 1)]


def _points4() -> list[tuple]:
    return [point for k in KS4
            for point in _domain_points(dyck._DOMAIN4, {"k": k}, ("a", "b", "c"), 3 * k + 1)]


def test_paths_list_the_points_of_the_domain_rows():
    want3, want4 = _points3(), _points4()
    assert _paths(dyck._rows3(VECTORS3)) == want3 == sorted(want3)
    assert _paths(dyck._rows4(KS4)) == want4 == sorted(want4)
    for k in KS4:
        assert _paths(dyck._rows4([k])) == [(p.k, p.a, p.b, p.c) for p in enumerate_paths4(k)]


def _accepts(make, *args) -> bool:
    try:
        make(*args)
    except ValueError:
        return False
    return True


def _in_domain(domain, point: dict) -> bool:
    return min(point.values()) >= 0 and all(_value(row, point) >= 0 for row in domain)


def test_every_spelling_of_a_path_domain_accepts_the_same_points(monkeypatch):
    # Each domain is written out by hand in several places beside _DOMAIN3/4.
    # On a box whose free coordinates run from 2 below 0 to 2 past their
    # largest value, each spelling's verdict on a point must be the domain
    # rows' verdict: a nonnegative point where every row holds.
    disagree = []

    def compare(where, point, domain, verdicts):
        if set(verdicts) != {_in_domain(domain, point)}:
            disagree.append((where, point, verdicts))

    for k1, k2, k3 in product(range(4), range(4), range(2)):
        k = KVec3(k1, k2, k3)
        listed = {(p.r2, p.r3) for p in enumerate_paths3(k)}
        streamed = {(r2, r3) for *_, r2, r3 in _paths(dyck._rows3([(k1, k2, k3)]))}
        for r2, r3 in product(range(-2, k1 + 3), range(-2, k1 + k2 + 3)):
            point = {"k1": k1, "k2": k2, "k3": k3, "r2": r2, "r3": r3}
            compare("Path3", point, dyck._DOMAIN3, (
                _accepts(Path3, k, r2, r3), (r2, r3) in listed, (r2, r3) in streamed))

    for k in range(4):
        listed = {(p.a, p.b, p.c) for p in enumerate_paths4(k)}
        runs = {(a, b, c) for a, b, n in dyck._runs4(k) for c in range(n)}
        streamed = {(a, b, c) for _, a, b, c in _paths(dyck._rows4([k]))}
        for a, b, c in product(range(-2, k + 3), range(-2, 2 * k + 3), range(-2, 3 * k + 3)):
            point = {"k": k, "a": a, "b": b, "c": c}
            compare("Path4", point, dyck._DOMAIN4, (
                _accepts(Path4, k, a, b, c), (a, b, c) in listed, (a, b, c) in runs,
                (a, b, c) in streamed))

    # verify_involution, through a _case_rows that records the points its
    # loops visit and sends each of them to one chosen image
    visited = set()

    def case_rows(a, c, b, ds, label_append, image_append):
        for d in ds:
            visited.add((b, d))
            label_append("L11")
            image_append(image)

    monkeypatch.setattr(involution, "_case_rows", case_rows)
    for a, c in product(range(5), repeat=2):
        visited.clear()
        image = (0, 0)  # a valid image for every (a, c) while the loops are recorded
        involution.verify_involution(a, c)
        loops = set(visited)
        # the run parameters of the length-3 paths for (a, c)
        listed = {(a - p.r2, p.r2 + c - p.r3) for p in enumerate_paths3(KVec3(a, c, 0))}
        for b, d in product(range(-2, a + 3), range(-2, a + c + 3)):
            image = (b, d)
            valid_image = all(f.reason != "invalid_image"
                              for f in involution.verify_involution(a, c).failures)
            point = {"k1": a, "k2": c, "b": b, "d": d, "r2": a - b, "r3": a - b + c - d}
            compare("involution_map", point, dyck._DOMAIN3, (
                _accepts(involution.involution_map, a, c, b, d), (b, d) in loops,
                (b, d) in listed, valid_image))
    assert disagree == []


def _row_mismatches(rows, paths: list[tuple], names: tuple[str, ...], table, classify
                    ) -> list[tuple]:
    """Each (path, got) of the stream ``rows`` of ``paths`` that is not the
    classifier's region with ``table`` at the path, its "t" the bounce, or
    whose classifier's area is not the table's "q"."""
    out = []
    for path, got in zip(paths, rows, strict=True):
        point = dict(zip(names, path))
        region, bounce, area = classify(**point)
        row = tuple(bounce if f is None else _value(f, point) for f in table.values())
        if got != (region, row) or area != _value(table["q"], point):
            out.append((path, got))
    return out


def _classify3(k1, k2, k3, r2, r3):
    return _bounce3(k1, k2, r2, r3)


def test_row_streams_restate_the_row_tables():
    paths3, paths4 = _points3(), _points4()
    names3, names4 = ("k1", "k2", "k3", "r2", "r3"), ("k", "a", "b", "c")
    assert _row_mismatches(dyck._rows3(VECTORS3), paths3, names3, dyck._ROW3, _classify3) == []
    assert _row_mismatches(dyck._rows4(KS4), paths4, names4, dyck._ROW4, _bounce4) == []
    # negative control: a row table with a wrong area coefficient is caught
    wrong = {**dyck._ROW4, "q": {**dyck._ROW4["q"], "c": -2}}
    assert _row_mismatches(dyck._rows4(KS4), paths4, names4, wrong, _bounce4)


def test_stats_are_the_region_area_and_bounce_of_the_row_streams():
    # each path object's stats() against the row its family's stream yields
    # for the same path, region numbers read as labels
    got3 = [(p.k.k1, p.k.k2, p.k.k3, p.r2, p.r3, *p.stats())
            for k in VECTORS3 for p in enumerate_paths3(KVec3(*k))]
    want3 = [(*path, F_REGIONS[region], area, bounce)
             for region, (area, bounce, *path) in dyck._rows3(VECTORS3)]
    assert got3 == want3
    got4 = [(p.k, p.a, p.b, p.c, *p.stats()) for k in KS4 for p in enumerate_paths4(k)]
    want4 = [(*path, H_REGIONS[region], area, bounce)
             for region, (area, bounce, *path) in dyck._rows4(KS4)]
    assert got4 == want4
    assert {label for *_, label, _, _ in got3} == set(F_REGIONS)
    assert {label for *_, label, _, _ in got4} == set(H_REGIONS)
