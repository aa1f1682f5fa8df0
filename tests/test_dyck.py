import copy
import pickle
from dataclasses import FrozenInstanceError, replace
from itertools import product

import pytest

from qtcatalan.dyck import (KVec3, ParamPath3, Path3, Path4, _bounce4, area3,
                            area4, bounce3, bounce3_bd, bounce4, bounce4_case,
                            ceil_div, count_paths3, enumerate_paths3,
                            enumerate_paths4, to_param3, to_redrank3)


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


@pytest.mark.parametrize("params", [
    (1.5, 2, 0, 0, 0), (2, 1, 0, 1.0, 0), (1, 1, True, 0, 0), (1, 1, 1, 0, False),
])
def test_param_path3_rejects_non_integers(params):
    with pytest.raises(ValueError, match="nonnegative integers"):
        ParamPath3(*params)


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
                assert len(enumerate_paths3(k)) == count_paths3(k)


@pytest.mark.parametrize("k, r2, r3, a, b", [
    ((1, 1, 1), 0, 0, 0, 3),
    ((1, 1, 1), 1, 1, 2, 1),
    ((1, 1, 1), 1, 2, 3, 0),
    ((2, 1, 3), 2, 3, 5, 0),
])
def test_area3_bounce3_values(k, r2, r3, a, b):
    p = Path3(KVec3(*k), r2, r3)
    assert area3(p) == a
    assert bounce3(p) == b


def test_statistics_nonnegative_and_maximal_path():
    for k1 in range(6):
        for k2 in range(6):
            k = KVec3(k1, k2, 1)
            for p in enumerate_paths3(k):
                assert area3(p) >= 0
                assert bounce3(p) >= 0
            top = Path3(k, k1, k1 + k2)
            assert bounce3(top) == 0
            assert area3(top) == 2 * k1 + k2


def test_statistics_do_not_depend_on_last_component():
    for k1 in range(5):
        for k2 in range(5):
            base = [(area3(p), bounce3(p))
                    for p in enumerate_paths3(KVec3(k1, k2, 0))]
            other = [(area3(p), bounce3(p))
                     for p in enumerate_paths3(KVec3(k1, k2, 7))]
            assert base == other


@pytest.mark.parametrize("a, c, b, d, expected", [
    (1, 1, 0, 0, 0),
    (1, 1, 1, 1, 3),
    (2, 1, 0, 2, 1),
])
def test_bounce3_bd_values(a, c, b, d, expected):
    assert bounce3_bd(ParamPath3(a, c, 0, b, d)) == expected


def test_param_conversion_pinned_values():
    p = Path3(KVec3(1, 1, 1), 1, 2)
    pp = to_param3(p)
    assert (pp.b, pp.d) == (0, 0)
    assert to_redrank3(pp) == p


def test_param_round_trip_and_bounce_agreement():
    for p in enumerate_paths3(KVec3(3, 2, 1)):
        assert to_redrank3(to_param3(p)) == p
    for k1 in range(7):
        for k2 in range(7):
            for p in enumerate_paths3(KVec3(k1, k2, 1)):
                assert bounce3(p) == bounce3_bd(to_param3(p))


def test_param_path_validation():
    with pytest.raises(ValueError):
        ParamPath3(1, 1, 1, 2, 0)  # b > a
    with pytest.raises(ValueError):
        ParamPath3(1, 1, 1, 0, 3)  # d too large


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
    p = Path4(1, *abc)
    assert area4(p) == area
    assert bounce4(p) == bounce


def test_bounce4_cases_partition_small():
    for k in range(7):
        for p in enumerate_paths4(k):
            case = bounce4_case(p)  # raises unless exactly one fires
            assert 1 <= case <= 8
            assert area4(p) >= 0
            assert bounce4(p) >= 0


def test_bounce4_overlapping_cases_name_the_path():
    # a = -1 is no path: its even-b bounds overlap, so cases 3 and 5 both
    # fire, which only shows when every predicate is evaluated
    with pytest.raises(AssertionError,
                       match=r"\[3, 5\] fired for Path4\(k=0, a=-1, b=0, c=1\)"):
        _bounce4(0, -1, 0, 1)


def reference_bounce4(k, a, b, c):
    """The eight-branch k^4 bounce, with the odd-b cases 6-8 written out as a
    second copy of the even-b cases 3-5: (case 1..8, bounce)."""
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
    return hits[0]


def test_bounce4_matches_the_eight_branch_reference_on_paths():
    for k in range(13):
        for p in enumerate_paths4(k):
            want = reference_bounce4(k, p.a, p.b, p.c)
            assert (bounce4_case(p), bounce4(p)) == want, p
            region, bounce = _bounce4(k, p.a, p.b, p.c)
            assert (region + 1, bounce) == want, p


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
            region, bounce = _bounce4(*point)
            assert (region + 1, bounce) == want, point
    assert failures > 0
