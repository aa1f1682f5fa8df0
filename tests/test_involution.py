import pytest

from qtcatalan import dyck, involution
from qtcatalan.dyck import ParamPath3, area_from_runs, bounce_from_runs, ceil_div
from qtcatalan.involution import (CASE_EXCHANGE, Failure, InvolutionReport,
                                  apply_involution, classify, classify_phi,
                                  classify_psi, involution_map, lemma4_check,
                                  parity_x, parity_y, phi, psi, verify_involution)


def test_parity_indicators():
    assert parity_x(1, 1, 1, 1) == 0
    assert parity_y(1, 2) == 0
    assert parity_y(1, 1) == 0
    assert parity_x(2, 1, 0, 0) == 1
    assert parity_y(2, 3) == 0


@pytest.mark.parametrize("c, d", [(1, 2), (0, 0), (2, 3)])
def test_lemma4_pinned_values(c, d):
    assert lemma4_check(c, d)


def test_lemma4_exhaustive_small():
    assert all(lemma4_check(c, d) for c in range(60) for d in range(60))


def test_classify_phi_pinned_cases():
    assert classify_phi(1, 1, 0, 0) == "L21"
    assert classify_phi(1, 1, 1, 1) == "L12"
    assert classify_phi(1, 3, 0, 2) == "L11"


def test_phi_pinned_images():
    assert phi(1, 1, 0, 0) == (1, 1)
    assert phi(1, 1, 1, 1) == (0, 0)
    assert phi(1, 3, 0, 2) == (0, 4)


def test_classify_psi_pinned_cases():
    assert classify_psi(2, 1, 0, 2) == "G12"
    assert classify_psi(2, 1, 1, 2) == "G21"
    assert classify_psi(2, 1, 0, 0) == "G31"


def test_psi_pinned_images():
    assert psi(2, 1, 0, 2) == (1, 2)
    assert psi(2, 1, 1, 2) == (0, 2)
    assert psi(3, 1, 0, 2) == (2, 2)


def test_preconditions():
    with pytest.raises(ValueError):
        classify_phi(2, 1, 0, 0)  # needs a <= c
    with pytest.raises(ValueError):
        classify_psi(1, 1, 0, 0)  # needs a > c
    with pytest.raises(ValueError):
        classify_phi(1, 1, 2, 0)  # invalid path
    with pytest.raises(ValueError):
        psi(2, 1, 0, 4)  # invalid path
    # negative a or c is no path at all, whichever map the order selects
    for call in (classify, involution_map):
        with pytest.raises(ValueError, match="not a valid path"):
            call(1, -1, 0, 0)
    for a, c in ((3, -2), (-1, 3)):
        with pytest.raises(ValueError, match="a, c >= 0"):
            verify_involution(a, c)


def test_non_integers_rejected():
    for call, args in ((phi, (1, 2, 0.5, 0)), (classify, (True, 3, 0, 0)),
                       (classify_phi, (1, 2, 0, 1.0)), (psi, (3, 1, 0, False)),
                       (classify_psi, (3.0, 1, 0, 0)), (involution_map, (1, "2", 0, 0))):
        with pytest.raises(ValueError, match="requires integers"):
            call(*args)
    for a, c in ((2.5, 1), (1, True), (2, 1.0)):
        with pytest.raises(ValueError, match="requires integers a, c >= 0"):
            verify_involution(a, c)


def test_apply_involution_round_trip():
    p = ParamPath3(1, 1, 1, 0, 0)
    q = apply_involution(p)
    assert (q.b, q.d) == (1, 1)
    assert q.e == p.e
    assert apply_involution(q) == p


def test_statistic_exchange_example():
    src = ParamPath3(1, 1, 0, 0, 0)
    img = apply_involution(src)
    assert (area_from_runs(src.a, src.c, src.b, src.d),
            bounce_from_runs(src.a, src.c, src.b, src.d)) == (3, 0)
    assert (area_from_runs(img.a, img.c, img.b, img.d),
            bounce_from_runs(img.a, img.c, img.b, img.d)) == (0, 3)


def test_g12_g21_exchange():
    assert involution_map(2, 1, 0, 2) == (1, 2)
    assert involution_map(2, 1, 1, 2) == (0, 2)
    assert classify(2, 1, 0, 2) == "G12"
    assert classify(2, 1, 1, 2) == "G21"


def test_verify_involution_known_pairs():
    rep = verify_involution(1, 1)
    assert rep.ok and rep.checked == 5
    for c in range(5):
        assert verify_involution(0, c).ok
    rep = verify_involution(5, 3)
    assert rep.ok
    # all six psi cases occur at (5, 3)
    labels = {classify(5, 3, b, d)
              for b in range(6) for d in range(5 - b + 3 + 1)}
    assert labels == {"G11", "G12", "G21", "G22", "G31", "G32"}


def test_verify_involution_grid():
    for a in range(13):
        for c in range(13):
            rep = verify_involution(a, c)
            assert rep.ok, rep.describe()


def test_case_exchange_pattern():
    for a in range(10):
        for c in range(10):
            for b in range(a + 1):
                for d in range(a - b + c + 1):
                    lab = classify(a, c, b, d)
                    b2, d2 = involution_map(a, c, b, d)
                    assert classify(a, c, b2, d2) == CASE_EXCHANGE[lab]


def test_g12_g21_are_singletons():
    for a in range(1, 12):
        for c in range(a):
            counts = {"G12": 0, "G21": 0}
            for b in range(a + 1):
                for d in range(a - b + c + 1):
                    lab = classify_psi(a, c, b, d)
                    if lab in counts:
                        counts[lab] += 1
            assert counts == {"G12": 1, "G21": 1}


def test_report_serialization():
    rep = verify_involution(2, 3)
    doc = rep.to_json_dict()
    assert doc["a"] == 2 and doc["c"] == 3
    assert doc["failures"] == []
    assert "ok" in rep.describe()


def test_verify_involution_reports_wrong_case_exchange(monkeypatch):
    monkeypatch.setitem(CASE_EXCHANGE, "L12", "L12")
    report = verify_involution(2, 3)
    assert report.checked == 15
    assert [(f.b, f.d, f.reason) for f in report.failures] == [
        (1, 3, "wrong_case_exchange"), (1, 4, "wrong_case_exchange"),
        (2, 0, "wrong_case_exchange"), (2, 1, "wrong_case_exchange"),
        (2, 2, "wrong_case_exchange"), (2, 3, "wrong_case_exchange")]


def _l22_g32_subtracted(a, c, b, d):
    """The variant named in ``_l22_g32``'s docstring: subtract, not add."""
    y = parity_y(c, d)
    num = c + ceil_div(d, 2) - y
    return (a - b - d - num // 2, 2 * (d // 2) + y)


def _l11_sent_to(image):
    """``_case`` with every L11 point sent to ``image(a, c, b, d)``."""
    real_case = involution._case

    def case(a, c, b, d):
        label, img = real_case(a, c, b, d)
        return label, (image(a, c, b, d) if label == "L11" else img)
    return case


# name -> how to break the map, given pytest's monkeypatch
MUTANTS = {
    "real": lambda mp: None,
    "g32_subtracted": lambda mp: mp.setattr(involution, "_l22_g32", _l22_g32_subtracted),
    "l11_fixed": lambda mp: mp.setattr(
        involution, "_case", _l11_sent_to(lambda a, c, b, d: (b, d))),
    "l11_past_row_end": lambda mp: mp.setattr(
        involution, "_case", _l11_sent_to(lambda a, c, b, d: (b, a - b + c + 1))),
    "l12_to_itself": lambda mp: mp.setitem(CASE_EXCHANGE, "L12", "L12"),
}


@pytest.mark.parametrize("mutant, a, c, expected", [
    ("g32_subtracted", 3, 2, [(1, 1, "not_involution"), (1, 2, "invalid_image"),
                              (1, 3, "invalid_image"), (2, 0, "not_involution"),
                              (2, 1, "invalid_image")]),
    ("l11_fixed", 1, 3, [(0, 2, "stat_mismatch"), (0, 4, "stat_mismatch"),
                         (1, 0, "stat_mismatch"), (1, 1, "stat_mismatch")]),
    # (0, 5) is one past the end of row 0: read by position it would be (1, 0)
    ("l11_past_row_end", 1, 3, [(0, 2, "invalid_image"), (0, 3, "invalid_image"),
                                (0, 4, "invalid_image"), (1, 0, "invalid_image"),
                                (1, 1, "invalid_image")]),
])
def test_verify_involution_reports_each_failure_reason(monkeypatch, mutant, a, c, expected):
    MUTANTS[mutant](monkeypatch)
    assert [(f.b, f.d, f.reason) for f in verify_involution(a, c).failures] == expected


def _reference_verify(a, c):
    """The per-point loop that evaluates every image again, as a reference."""
    report = InvolutionReport(a, c)
    fail = report.failures.append
    for b in range(a + 1):
        for d in range(a - b + c + 1):
            report.checked += 1
            label, (b2, d2) = involution._case(a, c, b, d)
            if b2 < 0 or d2 < 0 or a - b2 < 0 or a - b2 + c - d2 < 0:
                fail(Failure(b, d, "invalid_image"))
                continue
            label2, back = involution._case(a, c, b2, d2)
            if back != (b, d):
                fail(Failure(b, d, "not_involution"))
                continue
            if (area_from_runs(a, c, b2, d2) != bounce_from_runs(a, c, b, d)
                    or bounce_from_runs(a, c, b2, d2) != area_from_runs(a, c, b, d)):
                fail(Failure(b, d, "stat_mismatch"))
                continue
            if label2 != CASE_EXCHANGE[label]:
                fail(Failure(b, d, "wrong_case_exchange"))
    return report


@pytest.mark.parametrize("mutant", MUTANTS)
def test_verify_involution_matches_the_reference_loop(monkeypatch, mutant):
    MUTANTS[mutant](monkeypatch)
    for a in range(13):
        for c in range(13):
            assert (verify_involution(a, c).to_json_dict()
                    == _reference_verify(a, c).to_json_dict()), (a, c)


def test_verify_involution_evaluates_each_point_once(monkeypatch):
    calls = {"_case": 0, "_bounce3": 0}

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper
    monkeypatch.setattr(involution, "_case", counting("_case", involution._case))
    monkeypatch.setattr(dyck, "_bounce3", counting("_bounce3", dyck._bounce3))
    report = verify_involution(6, 4)
    assert report.ok and calls == {"_case": report.checked, "_bounce3": report.checked}
