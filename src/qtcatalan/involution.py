"""Involutions on length-3 paths that exchange area and bounce.

Paths for (a, c, e) are written in run parameters (b, d) with b <= a and
b + d <= a + c.  Two maps cover the two regimes: ``phi`` for a <= c and
``psi`` for a > c.  Each map is split into labelled cases, each written
once as a predicate beside its image (L12 = G22, L21 = G31 and L22 = G32
share theirs).  Applying the map sends a case to its partner case (or
back to itself), squares to the identity, and swaps the two statistics.
``verify_involution`` checks all of this exhaustively for one (a, c) pair
and reports failures as data rather than raising.

Case labels and their exchange pattern:

    L11 <-> L11    L12 <-> L21    L22 <-> L22        (a <= c)
    G11 <-> G11    G12 <-> G21    G22 <-> G31    G32 <-> G32   (a > c)
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

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


def _case(a: int, c: int, b: int, d: int) -> tuple[str, tuple[int, int]]:
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


def _checked_case(a: int, c: int, b: int, d: int, name: str,
                  a_le_c: bool | None) -> tuple[str, tuple[int, int]]:
    """:func:`_case` after checking the input to ``name``: integers, a valid path,
    and a <= c iff ``a_le_c`` (None: either map)."""
    if not all(type(x) is int for x in (a, c, b, d)):
        raise ValueError(f"{name} requires integers, got {(a, c, b, d)!r}")
    if a_le_c is not None and (a <= c) != a_le_c:
        raise ValueError(f"{name} requires a {'<=' if a_le_c else '>'} c, got a={a}, c={c}")
    if min(a, c, b, d, a - b, a - b + c - d) < 0:
        raise ValueError(f"(b={b}, d={d}) is not a valid path for (a={a}, c={c})")
    return _case(a, c, b, d)


def classify_phi(a: int, c: int, b: int, d: int) -> str:
    """Case label for the a <= c map."""
    return _checked_case(a, c, b, d, "classify_phi", True)[0]


def phi(a: int, c: int, b: int, d: int) -> tuple[int, int]:
    """Involution on paths with a <= c, exchanging area and bounce."""
    return _checked_case(a, c, b, d, "phi", True)[1]


def classify_psi(a: int, c: int, b: int, d: int) -> str:
    """Case label for the a > c map.

    The two singleton cases G12 (b = 0, d = 2c) and G21 (b = a - c,
    d = 2(a - b)) are carved out of their enclosing regions first.
    """
    return _checked_case(a, c, b, d, "classify_psi", False)[0]


def psi(a: int, c: int, b: int, d: int) -> tuple[int, int]:
    """Involution on paths with a > c, exchanging area and bounce."""
    return _checked_case(a, c, b, d, "psi", False)[1]


def classify(a: int, c: int, b: int, d: int) -> str:
    """Case label under the map that applies to (a, c)."""
    return _checked_case(a, c, b, d, "classify", None)[0]


def involution_map(a: int, c: int, b: int, d: int) -> tuple[int, int]:
    """Image of (b, d) under phi (a <= c) or psi (a > c)."""
    return _checked_case(a, c, b, d, "involution_map", None)[1]


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
        return asdict(self)

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
    raised; a negative or non-integer a or c raises ValueError.

    Each point is evaluated once: a first pass records its label, image and
    bounce in flat lists, row b starting at index ``start[b]``, and the
    checks read a valid image's record at ``start[b2] + d2``.  The lists
    hold the whole pair, so memory grows with its (a + 1)(a/2 + c + 1)
    points: about 31 MiB at (400, 400).  Evaluating each image again
    instead would hold next to nothing, at twice the evaluations.
    """
    if type(a) is not int or type(c) is not int or a < 0 or c < 0:
        raise ValueError(f"verify_involution requires integers a, c >= 0, got a={a!r}, c={c!r}")
    labels, images, bounces, start = [], [], [], []
    for b in range(a + 1):
        start.append(len(labels))
        for d in range(a - b + c + 1):
            label, image = _case(a, c, b, d)
            labels.append(label)
            images.append(image)
            bounces.append(bounce_from_runs(a, c, b, d))
    report = InvolutionReport(a, c, len(labels))
    fail = report.failures.append
    i = -1
    for b in range(a + 1):
        for d in range(a - b + c + 1):
            i += 1
            b2, d2 = images[i]
            # tested before indexing: a negative index wraps round and a d2
            # past the end of its row reads the next row
            if b2 < 0 or d2 < 0 or a - b2 < 0 or a - b2 + c - d2 < 0:
                fail(Failure(b, d, "invalid_image"))
                continue
            j = start[b2] + d2
            if images[j] != (b, d):
                fail(Failure(b, d, "not_involution"))
                continue
            if (area_from_runs(a, c, b2, d2) != bounces[i]
                    or bounces[j] != area_from_runs(a, c, b, d)):
                fail(Failure(b, d, "stat_mismatch"))
                continue
            if labels[j] != CASE_EXCHANGE[labels[i]]:
                fail(Failure(b, d, "wrong_case_exchange"))
    return report
