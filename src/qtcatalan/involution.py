"""Involutions on length-3 paths that exchange area and bounce.

Paths for (a, c, e) are written in run parameters (b, d) with b <= a and
b + d <= a + c.  Two maps cover the two regimes: ``phi`` for a <= c and
``psi`` for a > c.  Each map is classified into labelled cases; applying
the map sends a case to its partner case (or back to itself), squares to
the identity, and swaps the two statistics.  ``verify_involution`` checks
all of this exhaustively for one (a, c) pair and reports failures as data
rather than raising.

Case labels and their exchange pattern:

    L11 <-> L11    L12 <-> L21    L22 <-> L22        (a <= c)
    G11 <-> G11    G12 <-> G21    G22 <-> G31    G32 <-> G32   (a > c)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .dyck import ParamPath3, area_from_runs, bounce_from_runs, ceil_div

CASE_EXCHANGE = {
    "L11": "L11", "L22": "L22", "L12": "L21", "L21": "L12",
    "G11": "G11", "G32": "G32", "G12": "G21", "G21": "G12",
    "G22": "G31", "G31": "G22",
}


def parity_x(a: int, c: int, b: int, d: int) -> int:
    """Indicator that a - b + c - d is odd."""
    return (a - b + c - d) & 1


def parity_y(c: int, d: int) -> int:
    """Indicator that c + ceil(d/2) is odd."""
    return (c + ceil_div(d, 2)) & 1


def lemma4_check(c: int, d: int) -> bool:
    """Parity stability under one halving step.

    With Y = parity_y(c, d) and d' = 2*floor(d/2) + Y, the recomputed
    indicator parity_y(c, d') must equal the parity of d itself.
    """
    y = parity_y(c, d)
    d1 = 2 * (d // 2) + y
    return parity_y(c, d1) == d & 1


def _check_valid(a: int, c: int, b: int, d: int):
    if min(a, c, b, d, a - b, a - b + c - d) < 0:
        raise ValueError(f"(b={b}, d={d}) is not a valid path for (a={a}, c={c})")


def _case(a: int, c: int, b: int, d: int) -> str:
    """Case label of (b, d) under the map for (a, c); (b, d) must be valid."""
    if a <= c:
        if 2 * (a - b) <= d:
            return "L11" if 3 * b + d - a <= c else "L12"
        return "L21" if 2 * b + ceil_div(d, 2) <= c else "L22"
    if b == 0 and d == 2 * c:
        return "G12"
    if b == a - c and d == 2 * (a - b):
        return "G21"
    if a - b > c and 2 * c <= d:
        return "G11"
    if a - b <= c and 2 * (a - b) <= d:
        return "G22"
    # remaining region: min(2(a - b), 2c) > d
    return "G31" if 2 * b + ceil_div(d, 2) <= c else "G32"


def _image(case: str, a: int, c: int, b: int, d: int) -> tuple[int, int]:
    """Image of (b, d) in the given case of the map for (a, c).

    Three rows are shared by the two maps: L12 = G22, L21 = G31 and
    L22 = G32.  The G32 image uses b' = a - b - d + (c + ceil(d/2) - Y)/2,
    the same shape as the L22 row; the subtracted variant fails to be an
    involution already at (a, c, b, d) = (3, 2, 2, 0).
    """
    if case == "L11":
        return (b, 3 * a - 5 * b + c - d)
    if case == "G11":
        return (a - b + c - d, d)
    if case == "G12":
        return (a - c, d)
    if case == "G21":
        return (0, d)
    if case in ("L12", "G22"):
        x = parity_x(a, c, b, d)
        num = a - b + c - d - x
        assert num % 2 == 0
        return (num // 2, 2 * a - 2 * b + x)
    if case in ("L21", "G31"):
        return (a - d // 2, 2 * d - 2 * b + c - 3 * ceil_div(d, 2))
    y = parity_y(c, d)
    num = c + ceil_div(d, 2) - y
    assert num % 2 == 0
    return (a - b - d + num // 2, 2 * (d // 2) + y)


def classify_phi(a: int, c: int, b: int, d: int) -> str:
    """Case label for the a <= c map."""
    if a > c:
        raise ValueError(f"classify_phi requires a <= c, got a={a}, c={c}")
    _check_valid(a, c, b, d)
    return _case(a, c, b, d)


def phi(a: int, c: int, b: int, d: int) -> tuple[int, int]:
    """Involution on paths with a <= c, exchanging area and bounce."""
    return _image(classify_phi(a, c, b, d), a, c, b, d)


def classify_psi(a: int, c: int, b: int, d: int) -> str:
    """Case label for the a > c map.

    The two singleton cases G12 (b = 0, d = 2c) and G21 (b = a - c,
    d = 2(a - b)) are carved out of their enclosing regions first.
    """
    if a <= c:
        raise ValueError(f"classify_psi requires a > c, got a={a}, c={c}")
    _check_valid(a, c, b, d)
    return _case(a, c, b, d)


def psi(a: int, c: int, b: int, d: int) -> tuple[int, int]:
    """Involution on paths with a > c, exchanging area and bounce."""
    return _image(classify_psi(a, c, b, d), a, c, b, d)


def classify(a: int, c: int, b: int, d: int) -> str:
    """Case label under the map that applies to (a, c)."""
    return classify_phi(a, c, b, d) if a <= c else classify_psi(a, c, b, d)


def involution_map(a: int, c: int, b: int, d: int) -> tuple[int, int]:
    """Image of (b, d) under phi (a <= c) or psi (a > c)."""
    return phi(a, c, b, d) if a <= c else psi(a, c, b, d)


def apply_involution(p: ParamPath3) -> ParamPath3:
    """Apply the statistic-exchanging involution to a full path."""
    b2, d2 = involution_map(p.a, p.c, p.b, p.d)
    return ParamPath3(p.a, p.c, p.e, b2, d2)


@dataclass
class Failure:
    b: int
    d: int
    reason: str  # invalid_image | not_involution | stat_mismatch | wrong_case_exchange


@dataclass
class InvolutionReport:
    """Result of exhaustively checking one (a, c) pair."""

    a: int
    c: int
    checked: int = 0
    failures: list[Failure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "a": self.a,
            "c": self.c,
            "checked": self.checked,
            "failures": [{"b": f.b, "d": f.d, "reason": f.reason}
                         for f in self.failures],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    def describe(self) -> str:
        if self.ok:
            return f"(a={self.a}, c={self.c}): {self.checked} paths ok"
        lines = [f"(a={self.a}, c={self.c}): {len(self.failures)} failures "
                 f"out of {self.checked} paths"]
        lines += [f"  (b={f.b}, d={f.d}): {f.reason}" for f in self.failures]
        return "\n".join(lines)


def verify_involution(a: int, c: int) -> InvolutionReport:
    """Exhaustively verify the involution over every path for (a, c).

    For each valid (b, d): the image must be a valid path, applying the map
    twice must return to (b, d), area and bounce must be exchanged, and the
    case labels must follow CASE_EXCHANGE.  Failures are recorded, not
    raised; a negative a or c raises ValueError.
    """
    if a < 0 or c < 0:
        raise ValueError(f"verify_involution requires a, c >= 0, got a={a}, c={c}")
    report = InvolutionReport(a, c)
    fail = report.failures.append
    for b in range(a + 1):
        for d in range(a - b + c + 1):
            report.checked += 1
            label = _case(a, c, b, d)
            b2, d2 = _image(label, a, c, b, d)
            if b2 < 0 or d2 < 0 or a - b2 < 0 or a - b2 + c - d2 < 0:
                fail(Failure(b, d, "invalid_image"))
                continue
            label2 = _case(a, c, b2, d2)
            if _image(label2, a, c, b2, d2) != (b, d):
                fail(Failure(b, d, "not_involution"))
                continue
            if (area_from_runs(a, c, b2, d2) != bounce_from_runs(a, c, b, d)
                    or bounce_from_runs(a, c, b2, d2) != area_from_runs(a, c, b, d)):
                fail(Failure(b, d, "stat_mismatch"))
                continue
            if label2 != CASE_EXCHANGE[label]:
                fail(Failure(b, d, "wrong_case_exchange"))
    return report
