from collections import Counter
from itertools import permutations, product
from math import comb

import pytest

from qtcatalan import catalan
from qtcatalan.catalan import (F_REGIONS, H_REGIONS, catalan_poly3,
                               catalan_poly_k4, catalan_poly_lambda3,
                               gf_series3, gf_series4, refined_poly3,
                               refined_poly4, region_of_path3, region_of_path4)
from qtcatalan.dyck import (KVec3, area3, area4, bounce3, bounce4,
                            enumerate_paths3, enumerate_paths4)
from qtcatalan.polynomial import SparsePoly, VarTable

QT = VarTable(("q", "t"))

C111 = SparsePoly(QT, {(3, 0): 1, (2, 1): 1, (1, 2): 1, (1, 1): 1, (0, 3): 1})


def ones(p):
    return p.eval_ones(p.vars.names).constant_value()


def test_catalan_poly3_base_cases():
    assert catalan_poly3(KVec3(0, 0, 0)) == SparsePoly.one(QT)
    assert catalan_poly3(KVec3(1, 1, 1)) == C111
    assert ones(catalan_poly3(KVec3(1, 1, 1))) == 5


def test_catalan_poly3_counts():
    for k1 in range(5):
        for k2 in range(5):
            k = KVec3(k1, k2, 1)
            assert ones(catalan_poly3(k)) == len(enumerate_paths3(k))


def test_catalan_poly3_symmetry_instances():
    for k in [(3, 1, 2), (2, 2, 0), (0, 4, 1), (5, 3, 2)]:
        assert catalan_poly3(KVec3(*k)).is_symmetric("q", "t")


def test_catalan_poly3_degree_bound():
    for k1 in range(6):
        for k2 in range(6):
            p = catalan_poly3(KVec3(k1, k2, 3))
            bound = 2 * k1 + k2
            for (eq, et) in p.terms:
                assert eq <= bound and et <= bound


def test_catalan_poly_lambda3():
    assert catalan_poly_lambda3((1, 1, 1)) == catalan_poly3(KVec3(1, 1, 1))
    p = catalan_poly_lambda3((2, 1, 1))
    expected = (catalan_poly3(KVec3(2, 1, 1)) + catalan_poly3(KVec3(1, 2, 1))
                + catalan_poly3(KVec3(1, 1, 2)))
    assert p == expected
    assert p.is_symmetric("q", "t")
    assert catalan_poly_lambda3((3, 2, 1)).is_symmetric("q", "t")


def test_catalan_poly_lambda3_tallies_every_rearrangement_in_one_sweep(monkeypatch):
    sweeps = []
    real = catalan._sweep3

    def counting(ks, region):
        sweeps.append(ks)
        return real(ks, region)
    monkeypatch.setattr(catalan, "_sweep3", counting)
    vectors = sorted(set(permutations((3, 2, 1))))
    p = catalan_poly_lambda3((3, 2, 1))
    assert sweeps == [[KVec3(*v) for v in vectors]]
    assert p == sum((catalan_poly3(KVec3(*v)) for v in vectors), SparsePoly.zero(QT))


def test_catalan_poly_lambda3_input_validation():
    with pytest.raises(ValueError):
        catalan_poly_lambda3((1, 2, 3))
    with pytest.raises(ValueError):
        catalan_poly_lambda3((2, 1))
    with pytest.raises(ValueError):
        catalan_poly_lambda3((2, 1, -1))
    # parts that are not ints, bools included, before they are compared
    for lam in (("c", "b", "a"), (2, 1, 0.0), (True, True, False), (2, None, 0)):
        with pytest.raises(ValueError, match="parts must be integers"):
            catalan_poly_lambda3(lam)


def test_catalan_poly_k4():
    assert catalan_poly_k4(0) == SparsePoly.one(QT)
    p = catalan_poly_k4(1)
    assert ones(p) == 14
    assert p.is_symmetric("q", "t")
    assert p.terms.get((6, 0)) == 1 and p.terms.get((0, 6)) == 1
    assert p.max_degree("q") == 6 and p.max_degree("t") == 6


def test_refined_poly3_collapses_to_plain():
    for k in [(0, 0, 0), (2, 1, 0), (1, 3, 2)]:
        k = KVec3(*k)
        assert refined_poly3(k).eval_ones(["y2", "y3"]) == catalan_poly3(k)
    assert refined_poly3(KVec3(0, 0, 0)) == SparsePoly.one(
        VarTable(("q", "t", "y2", "y3")))


def test_refined_poly3_region_filters_partition():
    for k1 in range(5):
        for k2 in range(5):
            k = KVec3(k1, k2, 1)
            total = SparsePoly.zero(VarTable(("q", "t", "y2", "y3")))
            for region in F_REGIONS:
                total = total + refined_poly3(k, region)
            assert total == refined_poly3(k)


def test_refined_poly4_collapses_and_partitions():
    # catalan_poly_k4 sums over Path4 objects, refined_poly4 over plain tuples
    for k in range(11):
        plain = catalan_poly_k4(k)
        assert refined_poly4(k).eval_ones(["y2", "y3", "y4"]) == plain
        assert ones(plain) * (4 * k + 5) == comb(4 * k + 5, 4)
    for k in range(4):
        total = SparsePoly.zero(VarTable(("q", "t", "y2", "y3", "y4")))
        for region in H_REGIONS:
            total = total + refined_poly4(k, region)
        assert total == refined_poly4(k)


def test_non_vector_rejected():
    for build in (catalan_poly3, refined_poly3):
        with pytest.raises(ValueError, match="KVec3"):
            build((1, 1, 1))


@pytest.mark.parametrize("build", [gf_series3, gf_series4])
@pytest.mark.parametrize("refined", ["yes", 1, None])
def test_gf_series_refined_must_be_a_bool(build, refined):
    with pytest.raises(ValueError, match="refined"):
        build(2, refined=refined)


def test_unknown_region_rejected():
    with pytest.raises(ValueError, match="unknown region"):
        refined_poly3(KVec3(1, 1, 1), "P3C1")
    with pytest.raises(ValueError, match="unknown region"):
        refined_poly4(1, "P4C1")


def test_negative_sizes_rejected():
    for build in (catalan_poly_k4, refined_poly4, gf_series3, gf_series4):
        for n in (-1, -2):
            with pytest.raises(ValueError, match="nonnegative"):
                build(n)


@pytest.mark.parametrize("build, n", [
    (gf_series3, 1.5), (gf_series3, True), (gf_series4, 2.0),
    (catalan_poly_k4, 2.0), (refined_poly4, 1.0),
])
def test_non_integer_sizes_rejected(build, n):
    with pytest.raises(ValueError, match="nonnegative integer"):
        build(n)


def test_f_partition_follows_the_paper_inequalities():
    # P1 is r2 > k2 (the tie r2 = k2 is P2, as the crude systems cut it);
    # C1 is r2 - r3 - k2 >= 0 in P1 and k2 - r2 - r3 >= 0 in P2
    for k1 in range(9):
        for k2 in range(9):
            k = KVec3(k1, k2, 0)
            counts = dict.fromkeys(F_REGIONS, 0)
            for p in enumerate_paths3(k):
                r2, r3 = p.r2, p.r3
                if r2 > k2:
                    region = "P1C1" if r2 - r3 - k2 >= 0 else "P1C2"
                else:
                    region = "P2C1" if k2 - r2 - r3 >= 0 else "P2C2"
                assert region_of_path3(p) == region, (k1, k2, r2, r3)
                counts[region] += 1
            for region, n in counts.items():
                assert sum(refined_poly3(k, region).terms.values()) == n, (k1, k2, region)


def test_region_of_path3_matches_filters():
    k = KVec3(3, 2, 0)
    seen = {region: 0 for region in F_REGIONS}
    for p in enumerate_paths3(k):
        seen[region_of_path3(p)] += 1
    assert sum(seen.values()) == len(enumerate_paths3(k))


def test_gf_series3_structure():
    s = gf_series3(3)
    # vectors (0, 0, m) have a single path with both statistics zero
    for m in range(4):
        assert s.coeff({"q": 0, "t": 0, "x1": 0, "x2": 0, "x3": m}).constant_value() == 1
    c111 = s.coeff({"x1": 1, "x2": 1, "x3": 1})
    assert c111 == C111


def test_gf_series4_structure():
    s = gf_series4(2)
    assert s.coeff({"x": 0}).constant_value() == 1
    assert s.coeff({"x": 1}) == catalan_poly_k4(1)
    assert gf_series4(2, refined=True).eval_ones(["y2", "y3", "y4"]) == s


def reference_sum3(k, region, refined):
    """(area, bounce) exponents, with (r2, r3) when refined, of the validated
    Path3 objects for k in ``region``, from the public statistics."""
    return Counter((area3(p), bounce3(p)) + ((p.r2, p.r3) if refined else ())
                   for p in enumerate_paths3(k) if region in (None, region_of_path3(p)))


def reference_sum4(k, region, refined):
    """As :func:`reference_sum3`, from Path4 objects, with (a, b, c)."""
    return Counter((area4(p), bounce4(p)) + ((p.a, p.b, p.c) if refined else ())
                   for p in enumerate_paths4(k) if region in (None, region_of_path4(p)))


def reference_gf3(n, region, refined):
    """gf_series3 from validated Path3 objects and the public statistics."""
    names = ("q", "t", "x1", "x2", "x3") + (("y2", "y3") if refined else ())
    terms = Counter()
    for k1 in range(n + 1):
        for k2 in range(n - k1 + 1):
            for k3 in range(n - k1 - k2 + 1):
                for (area, bounce, *ys), count in reference_sum3(
                        KVec3(k1, k2, k3), region, refined).items():
                    terms[(area, bounce, k1, k2, k3, *ys)] += count
    return SparsePoly(VarTable(names), terms)


def reference_gf4(n, region, refined):
    """gf_series4 from validated Path4 objects and the public statistics."""
    names = ("q", "t", "x") + (("y2", "y3", "y4") if refined else ())
    terms = Counter()
    for k in range(n + 1):
        for (area, bounce, *ys), count in reference_sum4(k, region, refined).items():
            terms[(area, bounce, k, *ys)] += count
    return SparsePoly(VarTable(names), terms)


@pytest.mark.parametrize("series, reference, regions", [
    (gf_series3, reference_gf3, F_REGIONS),
    (gf_series4, reference_gf4, H_REGIONS),
], ids=("gf3", "gf4"))
def test_gf_series_matches_path_object_reference(series, reference, regions):
    for n in range(5):
        for refined in (False, True):
            for region in (None,) + regions:
                got = series(n, region=region, refined=refined)
                want = reference(n, region, refined)
                assert got.vars == want.vars and got == want, (n, region, refined)
            total = series(n, refined=refined)
            parts = SparsePoly.zero(total.vars)
            for region in regions:
                parts = parts + series(n, region=region, refined=refined)
            assert parts == total, (n, refined)


def test_path_sums_match_path_object_reference():
    refined3 = VarTable(("q", "t", "y2", "y3"))
    refined4 = VarTable(("q", "t", "y2", "y3", "y4"))
    for vec in product(range(5), repeat=3):
        k = KVec3(*vec)
        got, want = catalan_poly3(k), SparsePoly(QT, reference_sum3(k, None, False))
        assert got.vars == want.vars and got == want, k
        for region in (None,) + F_REGIONS:
            got, want = refined_poly3(k, region), SparsePoly(refined3, reference_sum3(k, region, True))
            assert got.vars == want.vars and got == want, (k, region)
    for k in range(6):
        got, want = catalan_poly_k4(k), SparsePoly(QT, reference_sum4(k, None, False))
        assert got.vars == want.vars and got == want, k
        for region in (None,) + H_REGIONS:
            got, want = refined_poly4(k, region), SparsePoly(refined4, reference_sum4(k, region, True))
            assert got.vars == want.vars and got == want, (k, region)


def reference_product(a, b):
    """Term dict of a * b by convolving exponent tuples, zeros dropped."""
    out = Counter()
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[tuple(x + y for x, y in zip(ea, eb))] += ca * cb
    return {e: c for e, c in out.items() if c}


def test_k4_products_match_the_tuple_convolution():
    polys = [catalan_poly_k4(k) for k in range(7)]
    for i in range(7):
        for j in range(i, 7):
            want = reference_product(polys[i].terms, polys[j].terms)
            assert (polys[i] * polys[j]).terms == (polys[j] * polys[i]).terms == want, (i, j)


def test_k4_ring_pair_product_evaluates_and_is_symmetric():
    a, b = catalan_poly_k4(7), catalan_poly_k4(8)
    p = a * b

    def at(poly, q, t):
        return sum(c * q ** i * t ** j for (i, j), c in poly.terms.items())

    for q, t in [(2, 3), (3, 2), (5, 7), (-2, 11), (1, 1)]:
        assert at(p, q, t) == at(a, q, t) * at(b, q, t), (q, t)
    assert {(j, i): c for (i, j), c in p.terms.items()} == p.terms
