"""Involutions on length-3 paths that exchange area and bounce.

Paths for (a, c, e) are written in run parameters (b, d) with b <= a and
b + d <= a + c.  Two maps cover the two regimes: ``phi`` for a <= c and
``psi`` for a > c.  Each map is split into labelled cases, and the table
``_CASES`` defines them: per case its predicate rows and its image, in the
``Linear`` format of dyck's region tables, over (a, b, c, d) and the
derived symbols of ``_SYMBOLS``, each floor(row/z) of a row (L12 = G22,
L21 = G31 and L22 = G32 share their images).  dyck's one code generator
compiles the table into ``_case``, straight-line code, at import.  Applying
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
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

from . import dyck
from .dyck import Linear, _check_ints, _discard, _negated, _reversed, ceil_div

CASE_EXCHANGE = {
    "L11": "L11", "L22": "L22", "L12": "L21", "L21": "L12",
    "G11": "G11", "G32": "G32", "G12": "G21", "G21": "G12",
    "G22": "G31", "G31": "G22",
}


def parity_x(a: int, c: int, b: int, d: int) -> int:
    """Indicator that a - b + c - d is odd."""
    _check_ints("parity_x", a, c, b, d)
    return (a - b + c - d) & 1


def parity_y(c: int, d: int) -> int:
    """Indicator that c + ceil(d/2) is odd."""
    _check_ints("parity_y", c, d)
    return (c + ceil_div(d, 2)) & 1


def lemma4_check(c: int, d: int) -> bool:
    """Parity stability under one halving step.

    With Y = parity_y(c, d) and d' = 2*floor(d/2) + Y, the recomputed
    indicator parity_y(c, d') must equal the parity of d itself.
    """
    _check_ints("lemma4_check", c, d)
    d1 = 2 * (d // 2) + parity_y(c, d)  # d'
    return parity_y(c, d1) == d & 1


# ----------------------------------------------------------------------
# the cases, as data

# Derived symbols, in dyck._compile's format name -> (row, z) for
# floor(row/z): h = floor((d + 1)/2) = ceil(d/2), f = floor(d/2), the
# affine w = a - b + c - d and g = c + h (z = 1), and the halves
# u = floor(w/2) and v = floor(g/2) the images of L12/G22 and L22/G32 use;
# x = w - 2u and y = g - 2v (z = 1) are their remainders, parity_x and
# parity_y.  Each row is written once, so the generated code computes each
# once.
_SYMBOLS = {
    "h": ({"d": 1, "const": 1}, 2),
    "f": ({"d": 1}, 2),
    "w": ({"a": 1, "b": -1, "c": 1, "d": -1}, 1),
    "g": ({"c": 1, "h": 1}, 1),
    "u": ({"w": 1}, 2),
    "v": ({"g": 1}, 2),
    "x": ({"w": 1, "u": -2}, 1),
    "y": ({"g": 1, "v": -2}, 1),
}

# The map split and the cuts between cases, each row meaning row >= 0
_A_LE_C = {"c": 1, "a": -1}                 # phi for a <= c, psi for a > c
_WIDE = {"d": 1, "a": -2, "b": 2}           # 2(a - b) <= d
_L11 = {"c": 1, "a": 1, "b": -3, "d": -1}   # 3b + d - a <= c
_LOW = {"c": 1, "b": -2, "h": -1}           # 2b + h <= c
_SHORT = {"c": 1, "a": -1, "b": 1}          # a - b <= c
_TALL = {"d": 1, "c": -2}                   # 2c <= d
_B_ZERO = {"b": -1}                         # b <= 0, so b = 0
_A_GT_C = _negated(_A_LE_C)


# Images (b', d'), one row each
_IMAGE_12 = ({"u": 1}, {"a": 2, "b": -2, "x": 1})                    # L12, G22
_IMAGE_21 = ({"a": 1, "f": -1}, {"d": 2, "b": -2, "c": 1, "h": -3})   # L21, G31
# b' = a - b - d + v: subtracting v instead fails to be an involution at
# (a, c, b, d) = (3, 2, 2, 0)
_IMAGE_22 = ({"a": 1, "b": -1, "d": -1, "v": 1}, {"f": 2, "y": 1})   # L22, G32

# (label, predicate rows, image) per case, in first-match order; an
# equality is a cut with its reverse
_CASES = (
    ("L11", [_A_LE_C, _WIDE, _L11], ({"b": 1}, {"a": 3, "b": -5, "c": 1, "d": -1})),
    ("L12", [_A_LE_C, _WIDE, _negated(_L11)], _IMAGE_12),
    ("L21", [_A_LE_C, _negated(_WIDE), _LOW], _IMAGE_21),
    ("L22", [_A_LE_C, _negated(_WIDE), _negated(_LOW)], _IMAGE_22),
    # the singletons G12 and G21 are carved out of G11 and G22 first
    ("G12", [_A_GT_C, _B_ZERO, _TALL, _reversed(_TALL)],
     ({"a": 1, "c": -1}, {"d": 1})),
    ("G21", [_A_GT_C, _SHORT, _reversed(_SHORT), _WIDE, _reversed(_WIDE)],
     ({}, {"d": 1})),
    ("G11", [_A_GT_C, _negated(_SHORT), _TALL],
     ({"a": 1, "b": -1, "c": 1, "d": -1}, {"d": 1})),
    ("G22", [_A_GT_C, _SHORT, _WIDE], _IMAGE_12),
    # the rest, where min(2(a - b), 2c) > d
    ("G31", [_A_GT_C, _LOW], _IMAGE_21),
    ("G32", [_A_GT_C, _negated(_LOW)], _IMAGE_22),
)


def _generate(cases: Sequence[tuple[str, list[Linear], tuple[Linear, Linear]]]
              ) -> tuple[Callable[[int, int, int, int], tuple[str, tuple[int, int]]], Callable]:
    """Compile a case table's two forms: ``_case(a, c, b, d)``, a point's
    (label, image), and ``_case_rows(a, c, b, ds, label_append,
    image_append)``, which appends them for each d of ``ds`` in turn."""
    table = [(rows, (label, image)) for label, rows, image in cases]
    no_case = "no involution case holds at (a, c, b, d) = ({a}, {c}, {b}, {d})"
    return dyck._compile("_case", "a, c, b, d", table + [([], no_case)], _SYMBOLS)


_case, _case_rows = _generate(_CASES)


def _check_runs(name: str, a: int, c: int, b: int, d: int) -> None:
    """Raise ValueError naming ``name`` unless (b, d) are integer run
    parameters of a path for (a, c): all nonnegative, b <= a, d <= a - b + c."""
    _check_ints(name, a, c, b, d)
    if min(a, c, b, d, a - b, a - b + c - d) < 0:
        raise ValueError(f"(b={b}, d={d}) is not a valid path for (a={a}, c={c})")


def _checked_case(a: int, c: int, b: int, d: int, name: str,
                  a_le_c: bool | None) -> tuple[str, tuple[int, int]]:
    """:func:`_case` after checking the input to ``name``: integers, a valid path,
    and a <= c iff ``a_le_c`` (None: either map)."""
    _check_runs(name, a, c, b, d)
    if a_le_c is not None and (a <= c) != a_le_c:
        raise ValueError(f"{name} requires a {'<=' if a_le_c else '>'} c, got a={a}, c={c}")
    return _case(a, c, b, d)


def phi(a: int, c: int, b: int, d: int) -> tuple[int, int]:
    """Involution on paths with a <= c, exchanging area and bounce."""
    return _checked_case(a, c, b, d, "phi", True)[1]


def psi(a: int, c: int, b: int, d: int) -> tuple[int, int]:
    """Involution on paths with a > c, exchanging area and bounce."""
    return _checked_case(a, c, b, d, "psi", False)[1]


def classify(a: int, c: int, b: int, d: int) -> str:
    """Case label under the map that applies to (a, c)."""
    return _checked_case(a, c, b, d, "classify", None)[0]


def involution_map(a: int, c: int, b: int, d: int) -> tuple[int, int]:
    """Image of (b, d) under phi (a <= c) or psi (a > c)."""
    return _checked_case(a, c, b, d, "involution_map", None)[1]


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

    Each point is evaluated once, a row b at a time, by one ``_case_rows``
    call (d ascending) and one ``dyck._bounce3_rows`` call (r3 = a - b + c - d
    descending): a first pass records each point's label, image, bounce and
    area in flat lists, row b starting at index ``start[b]``, and the checks
    read a valid image's record at ``start[b2] + d2``.  The lists hold the
    whole pair, so memory grows with its (a + 1)(a/2 + c + 1) points: a
    tracemalloc peak of about 40 MiB at (400, 400).  Evaluating each image
    again instead would hold next to nothing, at twice the evaluations.
    """
    if type(a) is not int or type(c) is not int or a < 0 or c < 0:
        raise ValueError(f"verify_involution requires integers a, c >= 0, got a={a!r}, c={c!r}")
    labels, images, bounces, areas, start = [], [], [], [], []
    for b in range(a + 1):
        start.append(len(labels))
        r2 = a - b
        _case_rows(a, c, b, range(r2 + c + 1), labels.append, images.append)
        # the regions go to _discard: the checks do not read them
        dyck._bounce3_rows(a, c, r2, range(r2 + c, -1, -1), _discard, bounces.append, areas.append)
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
            if areas[j] != bounces[i] or bounces[j] != areas[i]:
                fail(Failure(b, d, "stat_mismatch"))
                continue
            if labels[j] != CASE_EXCHANGE[labels[i]]:
                fail(Failure(b, d, "wrong_case_exchange"))
    return report
