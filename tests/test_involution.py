import pytest

from qtcatalan.dyck import ParamPath3, area_from_runs, bounce_from_runs
from qtcatalan.involution import (CASE_EXCHANGE, apply_involution, classify,
                                  classify_phi, classify_psi, involution_map,
                                  lemma4_check, parity_x, parity_y, phi, psi,
                                  verify_involution)


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
