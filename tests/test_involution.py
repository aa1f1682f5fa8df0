import sys

import pytest

from qtcatalan import dyck, involution
from qtcatalan.dyck import KVec3, Path3, ceil_div
from qtcatalan.involution import (CASE_EXCHANGE, Failure, InvolutionReport, classify,
                                  involution_map, lemma4_check, parity_x, parity_y, phi,
                                  psi, verify_involution)


def stats(a: int, c: int, b: int, d: int) -> tuple[int, int]:
    """(area, bounce) of the path with run parameters (b, d) for (a, c)."""
    return Path3(KVec3(a, c, 0), a - b, a - b + c - d).stats()[1:]


def test_parity_indicators():
    assert parity_x(1, 1, 1, 1) == 0
    assert parity_y(1, 2) == 0
    assert parity_y(1, 1) == 0
    assert parity_x(2, 1, 0, 0) == 1
    assert parity_y(2, 3) == 0


@pytest.mark.parametrize("fn, args", [
    (parity_x, (1.5, 0, 0, 0)), (parity_x, (True, 1, 0, 0)), (parity_x, (1, 1, 1, "1")),
    (parity_y, (True, 1)), (parity_y, (1, 0.5)), (parity_y, (1, False)),
    (lemma4_check, (True, 1)), (lemma4_check, (1, 0.5)),
])
def test_parities_reject_non_integers(fn, args):
    # True once counted as 1 and 1.5 raised TypeError
    with pytest.raises(ValueError, match=f"^{fn.__name__} requires integers"):
        fn(*args)


@pytest.mark.parametrize("c, d", [(1, 2), (0, 0), (2, 3)])
def test_lemma4_pinned_values(c, d):
    assert lemma4_check(c, d)


def test_lemma4_exhaustive_small():
    assert all(lemma4_check(c, d) for c in range(60) for d in range(60))


def test_classify_phi_pinned_cases():
    assert classify(1, 1, 0, 0) == "L21"
    assert classify(1, 1, 1, 1) == "L12"
    assert classify(1, 3, 0, 2) == "L11"


def test_phi_pinned_images():
    assert phi(1, 1, 0, 0) == (1, 1)
    assert phi(1, 1, 1, 1) == (0, 0)
    assert phi(1, 3, 0, 2) == (0, 4)


def test_classify_psi_pinned_cases():
    assert classify(2, 1, 0, 2) == "G12"
    assert classify(2, 1, 1, 2) == "G21"
    assert classify(2, 1, 0, 0) == "G31"


def test_psi_pinned_images():
    assert psi(2, 1, 0, 2) == (1, 2)
    assert psi(2, 1, 1, 2) == (0, 2)
    assert psi(3, 1, 0, 2) == (2, 2)


def test_preconditions():
    with pytest.raises(ValueError, match="phi requires a <= c"):
        phi(2, 1, 0, 0)
    with pytest.raises(ValueError, match="psi requires a > c"):
        psi(1, 1, 0, 0)
    with pytest.raises(ValueError):
        phi(1, 1, 2, 0)  # invalid path
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
                       (phi, (1, 2, 0, 1.0)), (psi, (3, 1, 0, False)),
                       (psi, (3.0, 1, 0, 0)), (involution_map, (1, "2", 0, 0))):
        with pytest.raises(ValueError, match="requires integers"):
            call(*args)
    for a, c in ((2.5, 1), (1, True), (2, 1.0)):
        with pytest.raises(ValueError, match="requires integers a, c >= 0"):
            verify_involution(a, c)


def test_apply_involution_round_trip():
    assert involution_map(1, 1, 0, 0) == (1, 1)
    assert involution_map(1, 1, 1, 1) == (0, 0)


def test_statistic_exchange_example():
    image = involution_map(1, 1, 0, 0)
    assert stats(1, 1, 0, 0) == (3, 0)
    assert stats(1, 1, *image) == (0, 3)


@pytest.mark.parametrize("runs, match", [
    ((1.5, 1, 0, 0), "requires integers"),   # a non-integer
    ((1, -1, 0, 0), "not a valid path"),     # a negative value
    ((1, 1, 5, 0), "not a valid path"),      # b > a
    ((1, 1, 0, 3), "not a valid path"),      # d > a - b + c
])
@pytest.mark.parametrize("call", [classify, involution_map])
def test_run_parameters_reject_what_is_no_path(call, runs, match):
    with pytest.raises(ValueError, match=match):
        call(*runs)


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
                    lab = classify(a, c, b, d)
                    if lab in counts:
                        counts[lab] += 1
            assert counts == {"G12": 1, "G21": 1}


def test_report_serialization():
    rep = verify_involution(2, 3)
    doc = rep.to_json_dict()
    assert doc["a"] == 2 and doc["c"] == 3
    assert doc["failures"] == []
    assert "ok" in rep.describe()


def test_report_with_failures_describes_and_serializes_them():
    rep = InvolutionReport(1, 1, 5, [Failure(1, 0, "wrong_case_exchange"),
                                     Failure(1, 1, "not_involution")])
    assert rep.describe() == ("(a=1, c=1): 2 failures out of 5 paths\n"
                              "  (b=1, d=0): wrong_case_exchange\n"
                              "  (b=1, d=1): not_involution")
    assert rep.to_json() == ('{"a": 1, "c": 1, "checked": 5, "failures": ['
                             '{"b": 1, "d": 0, "reason": "wrong_case_exchange"}, '
                             '{"b": 1, "d": 1, "reason": "not_involution"}]}')


def test_verify_involution_reports_wrong_case_exchange(monkeypatch):
    monkeypatch.setitem(CASE_EXCHANGE, "L12", "L12")
    report = verify_involution(2, 3)
    assert report.checked == 15
    assert [(f.b, f.d, f.reason) for f in report.failures] == [
        (1, 3, "wrong_case_exchange"), (1, 4, "wrong_case_exchange"),
        (2, 0, "wrong_case_exchange"), (2, 1, "wrong_case_exchange"),
        (2, 2, "wrong_case_exchange"), (2, 3, "wrong_case_exchange")]


def _g32_subtracted():
    """``_case`` and ``_case_rows`` regenerated with b' = a - b - d - v, not
    + v, in the image of L22 and G32: the variant named beside ``_IMAGE_22``."""
    old = involution._IMAGE_22
    new = ({**old[0], "v": -1}, old[1])
    return involution._generate(tuple((label, rows, new if image is old else image)
                                      for label, rows, image in involution._CASES))


def _patch_both(mp, forms):
    """Patch ``_case`` and ``_case_rows`` with the two forms of one table."""
    mp.setattr(involution, "_case", forms[0])
    mp.setattr(involution, "_case_rows", forms[1])


def _l11_sent_to(mp, image):
    """Send every L11 point to ``image(a, c, b, d)``: in ``_case``, which the
    reference loop calls, and through the image appender ``_case_rows`` is
    given, which ``verify_involution`` calls."""
    real_case, real_rows = involution._case, involution._case_rows

    def case(a, c, b, d):
        label, img = real_case(a, c, b, d)
        return label, (image(a, c, b, d) if label == "L11" else img)

    def case_rows(a, c, b, ds, append_label, append_image):
        labels, points = [], iter(ds)

        def record(label):
            labels.append(label)
            append_label(label)

        def send(img):
            d = next(points)
            append_image(image(a, c, b, d) if labels[-1] == "L11" else img)
        real_rows(a, c, b, ds, record, send)
    mp.setattr(involution, "_case", case)
    mp.setattr(involution, "_case_rows", case_rows)


# name -> how to break the map, given pytest's monkeypatch
MUTANTS = {
    "real": lambda mp: None,
    "g32_subtracted": lambda mp: _patch_both(mp, _g32_subtracted()),
    "l11_fixed": lambda mp: _l11_sent_to(mp, lambda a, c, b, d: (b, d)),
    "l11_past_row_end": lambda mp: _l11_sent_to(mp, lambda a, c, b, d: (b, a - b + c + 1)),
    "l12_to_itself": lambda mp: mp.setitem(CASE_EXCHANGE, "L12", "L12"),
    # one-sided exchanges met from either member of an L12/L21 pair
    "l21_to_itself": lambda mp: mp.setitem(CASE_EXCHANGE, "L21", "L21"),
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
            (area, bounce), (area2, bounce2) = stats(a, c, b, d), stats(a, c, b2, d2)
            if area2 != bounce or bounce2 != area:
                fail(Failure(b, d, "stat_mismatch"))
                continue
            if label2 != CASE_EXCHANGE[label]:
                fail(Failure(b, d, "wrong_case_exchange"))
    return report


@pytest.mark.parametrize("mutant", MUTANTS)
def test_verify_involution_matches_the_reference_loop(monkeypatch, mutant):
    MUTANTS[mutant](monkeypatch)
    pairs = [(a, c) for a in range(13) for c in range(13)]
    for a, c in pairs + [(29, 30), (30, 29), (30, 30), (17, 40), (40, 17)]:
        assert (verify_involution(a, c).to_json_dict()
                == _reference_verify(a, c).to_json_dict()), (a, c)


def test_verify_involution_makes_one_loop_call_per_row(monkeypatch):
    calls = {"_case_rows": [], "_bounce3_rows": []}

    def counting(name, real):
        def wrapper(*args):
            *head, append = args  # the image's or the bounce's appender
            results = []

            def counted(value):
                results.append(value)
                append(value)
            real(*head, counted)
            calls[name].append(len(results))
        return wrapper
    monkeypatch.setattr(involution, "_case_rows",
                        counting("_case_rows", involution._case_rows))
    monkeypatch.setattr(dyck, "_bounce3_rows", counting("_bounce3_rows", dyck._bounce3_rows))
    report = verify_involution(6, 4)
    rows = [6 - b + 4 + 1 for b in range(7)]  # points per row b
    assert report.ok and sum(rows) == report.checked == 56
    assert calls == {"_case_rows": rows, "_bounce3_rows": rows}


def test_verify_involution_makes_two_calls_per_row():
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"
    sys.setprofile(profile)
    try:
        report = verify_involution(6, 4)
    finally:
        sys.setprofile(None)
    assert report.ok and report.checked == 56
    assert calls <= 2 * (6 + 1) + 4, calls


# The hand-written maps the case table replaced, kept as a reference.

def _l12_g22(a: int, c: int, b: int, d: int) -> tuple[int, int]:
    """Image of (b, d) in L12 and in G22."""
    x = parity_x(a, c, b, d)
    num = a - b + c - d - x
    assert num % 2 == 0
    return (num // 2, 2 * a - 2 * b + x)


def _l21_g31(a: int, c: int, b: int, d: int) -> tuple[int, int]:
    """Image of (b, d) in L21 and in G31."""
    return (a - d // 2, 2 * d - 2 * b + c - 3 * ceil_div(d, 2))


def _l22_g32(a: int, c: int, b: int, d: int) -> tuple[int, int]:
    """Image of (b, d) in L22 and in G32: b' = a - b - d + (c + ceil(d/2) - Y)/2;
    subtracting instead fails to be an involution at (a, c, b, d) = (3, 2, 2, 0)."""
    y = parity_y(c, d)
    num = c + ceil_div(d, 2) - y
    assert num % 2 == 0
    return (a - b - d + num // 2, 2 * (d // 2) + y)


def reference_case(a: int, c: int, b: int, d: int) -> tuple[str, tuple[int, int]]:
    """(label, image) of (b, d) under the map for (a, c); (b, d) must be valid."""
    if a <= c:
        if 2 * (a - b) <= d:
            if 3 * b + d - a <= c:
                return "L11", (b, 3 * a - 5 * b + c - d)
            return "L12", _l12_g22(a, c, b, d)
        if 2 * b + ceil_div(d, 2) <= c:
            return "L21", _l21_g31(a, c, b, d)
        return "L22", _l22_g32(a, c, b, d)
    if b == 0 and d == 2 * c:
        return "G12", (a - c, d)
    if b == a - c and d == 2 * (a - b):
        return "G21", (0, d)
    if a - b > c and 2 * c <= d:
        return "G11", (a - b + c - d, d)
    if a - b <= c and 2 * (a - b) <= d:
        return "G22", _l12_g22(a, c, b, d)
    # remaining region: min(2(a - b), 2c) > d
    if 2 * b + ceil_div(d, 2) <= c:
        return "G31", _l21_g31(a, c, b, d)
    return "G32", _l22_g32(a, c, b, d)


def test_generated_case_matches_the_reference():
    for a in range(17):
        for c in range(17):
            for b in range(a + 1):
                for d in range(a - b + c + 1):
                    assert involution._case(a, c, b, d) == reference_case(a, c, b, d), (a, c, b, d)


def test_g32_subtracted_agrees_with_the_hand_written_variant():
    def subtracted(a, c, b, d):
        y = parity_y(c, d)
        num = c + ceil_div(d, 2) - y
        return (a - b - d - num // 2, 2 * (d // 2) + y)
    case, _ = _g32_subtracted()
    for a in range(9):
        for c in range(9):
            for b in range(a + 1):
                for d in range(a - b + c + 1):
                    label, image = reference_case(a, c, b, d)
                    if label in ("L22", "G32"):
                        image = subtracted(a, c, b, d)
                    assert case(a, c, b, d) == (label, image), (a, c, b, d)


def _shifted(cut, by):
    """The case table with ``cut``'s constant moved by ``by`` wherever the cut,
    its complement or its reverse is a row."""
    moved = {**cut, "const": cut.get("const", 0) + by}
    forms = [(cut, moved), (dyck._negated(cut), dyck._negated(moved)),
             (involution._reversed(cut), involution._reversed(moved))]
    return tuple((label, [next((new for old, new in forms if row == old), row) for row in rows],
                  image) for label, rows, image in involution._CASES)


@pytest.mark.parametrize("cut", ["_A_LE_C", "_WIDE", "_L11", "_LOW", "_SHORT", "_TALL",
                                 "_B_ZERO"])
def test_a_shifted_cut_is_reported(monkeypatch, cut):
    table = _shifted(getattr(involution, cut), -1)
    assert table != involution._CASES
    _patch_both(monkeypatch, involution._generate(table))
    reasons = [f.reason for a in range(8) for c in range(8)
               for f in verify_involution(a, c).failures]
    assert reasons
    assert set(reasons) <= {"invalid_image", "not_involution", "stat_mismatch",
                            "wrong_case_exchange"}


def test_a_point_no_case_holds_for_is_named():
    case, _ = involution._generate(involution._CASES[:-1])  # without G32
    assert case(3, 2, 0, 4) == reference_case(3, 2, 0, 4) == ("G12", (1, 4))
    with pytest.raises(AssertionError,
                       match=r"no involution case holds at \(a, c, b, d\) = \(3, 2, 2, 0\)"):
        case(3, 2, 2, 0)
