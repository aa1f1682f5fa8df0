"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Every check is exact; the asserted time limits are the
stated budgets for each criterion.
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

from qtcatalan.catalan import (F_REGIONS, H_REGIONS, catalan_poly3,
                               catalan_poly_k4, catalan_poly_lambda3)
from qtcatalan.dyck import (KVec3, ceil_div, enumerate_paths3,
                            enumerate_paths4, bounce3, bounce3_bd,
                            bounce4_case, to_param3)
from qtcatalan.involution import lemma4_check, verify_involution
from qtcatalan.omega import GF_SECTIONS, check_gf_section
from qtcatalan.polynomial import SparsePoly

GOLDEN = Path(__file__).parent / "golden" / "catalan_111.json"


@contextmanager
def criterion(number, description, budget_s):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[criterion {number:2d}] FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {number:2d}] PASS - {description} ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f}s, budget {budget_s}s"


def test_criterion_01_symmetry3():
    with criterion(1, "q,t-symmetry of the length-3 polynomial, all k_i <= 10", 10):
        checked = 0
        for k1 in range(11):
            for k2 in range(11):
                for k3 in range(11):
                    assert catalan_poly3(KVec3(k1, k2, k3)).is_symmetric("q", "t"), \
                        (k1, k2, k3)
                    checked += 1
        assert checked == 1331


def test_criterion_02_symmetry_lambda():
    with criterion(2, "q,t-symmetry of the partition polynomial, parts <= 10", 10):
        count = 0
        for l1 in range(11):
            for l2 in range(l1 + 1):
                for l3 in range(l2 + 1):
                    assert catalan_poly_lambda3((l1, l2, l3)).is_symmetric("q", "t"), \
                        (l1, l2, l3)
                    count += 1
        assert count == 286


def test_criterion_03_eq1_series():
    with criterion(3, "EQ1 equals the enumerated series, k1+k2+k3 <= 8", 30):
        [(name, diff)], _ = check_gf_section("EQ1", 8)
        assert name == "EQ1" and diff.equal, diff


def test_criterion_04_refined_f_forms():
    with criterion(4, "F11..F22 match region-filtered refined sums, order 6", 60):
        for region in F_REGIONS:
            checks = dict(check_gf_section(f"F {region}", 6)[0])
            assert checks["closed_vs_paths"].equal, (region, checks)


def test_criterion_05_crude_f_equals_closed():
    with criterion(5, "crude F builders equal their closed forms, order 6", 60):
        for region in F_REGIONS:
            checks = dict(check_gf_section(f"F {region}", 6)[0])
            assert checks["crude_vs_closed"].equal, (region, checks)


def test_criterion_06_symmetry4_and_counts():
    with criterion(6, "k^4 symmetry and path counts, k <= 12", 10):
        for k in range(13):
            poly = catalan_poly_k4(k)
            assert poly.is_symmetric("q", "t"), k
            count = poly.eval_ones(["q", "t"]).constant_value()
            assert count == len(enumerate_paths4(k)), k
            if k == 1:
                assert count == 14


def test_criterion_07_eq2_series():
    with criterion(7, "EQ2 equals the enumerated k^4 series, k <= 10", 30):
        [(name, diff)], _ = check_gf_section("EQ2", 10)
        assert name == "EQ2" and diff.equal, diff


def test_criterion_08_h_forms():
    with criterion(8, "H11..H33 match refined sums and crude builders, order 6", 120):
        for region in H_REGIONS:
            checks = dict(check_gf_section(f"H {region}", 6)[0])
            for name in ("closed_vs_paths", "crude_vs_closed"):
                assert checks[name].equal, (region, name, checks[name])


def test_criterion_09_involutions():
    with criterion(9, "involutions exchange the statistics, all a,c <= 40", 60):
        checked = 0
        for a in range(41):
            for c in range(41):
                report = verify_involution(a, c)
                assert report.ok, report.describe()
                checked += report.checked
        assert checked == 1212001


def test_criterion_10_ceiling_identities():
    with criterion(10, "ceiling sandwich and parity stability identities", 1):
        for a in range(-1000, 1001):
            for z in range(1, 11):
                p = ceil_div(a, z)
                assert 0 <= p * z - a <= z - 1, (a, z)
        for c in range(201):
            for d in range(201):
                assert lemma4_check(c, d), (c, d)


def test_criterion_11_formula_coherence():
    with criterion(11, "bounce formulas agree; k^4 cases partition, k <= 12", 10):
        for k1 in range(13):
            for k2 in range(13):
                for k3 in range(13):
                    for p in enumerate_paths3(KVec3(k1, k2, k3)):
                        assert bounce3(p) == bounce3_bd(to_param3(p)), p
        for k in range(13):
            for p in enumerate_paths4(k):
                bounce4_case(p)  # raises unless exactly one case fires


def test_criterion_12_golden_anchor():
    with criterion(12, "classical anchor polynomial matches the golden file", 10):
        golden = SparsePoly.from_json_dict(json.loads(GOLDEN.read_text()))
        assert catalan_poly3(KVec3(1, 1, 1)) == golden
        # recompute the anchor with the independent statistic pair used to
        # produce the golden file: (dinv, area) over area sequences
        def area_sequences(n, prefix=(0,)):
            if len(prefix) == n:
                yield prefix
                return
            for nxt in range(prefix[-1] + 2):
                yield from area_sequences(n, prefix + (nxt,))

        terms = {}
        for seq in area_sequences(3):
            dinv = sum(1 for i in range(3) for j in range(i + 1, 3)
                       if seq[i] - seq[j] in (0, 1))
            key = (dinv, sum(seq))
            terms[key] = terms.get(key, 0) + 1
        assert SparsePoly(golden.vars, terms) == golden


def test_criterion_13_gf_sections_order_12():
    with criterion(13, "every gf section holds on the order-12 slice", 6):
        for section in GF_SECTIONS:
            for name, diff in check_gf_section(section, 12)[0]:
                assert diff.equal, (section, name, diff)
