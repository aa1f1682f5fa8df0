"""The table compiler against its tables, on and off the valid paths.

``interpret`` reads a ``dyck._compile`` table directly, with none of the
compiler's sharing of tests or placement of symbols: the first case whose
rows are all >= 0 gives the result, every symbol is floor(row / z) by
Python's ``//``, and a string result is formatted over the point and its
symbols and raised.  The compiled classifiers and the involution's
``_case`` must agree with it at every point of a box that holds many
points that are no path.

The source the compiler writes for the three tables, both forms each, is
``golden/generated_tables.txt``.  After a change that is meant to alter the
generated code, review the difference and regenerate it:

    PYTHONPATH=src python tests/test_compile.py > tests/golden/generated_tables.txt
"""

import ast
import sys
from itertools import product
from pathlib import Path

import pytest

from qtcatalan import dyck, involution

BOX = list(product(range(-3, 6), repeat=4))
GOLDEN = Path(__file__).parent / "golden" / "generated_tables.txt"


class Point(dict):
    """A point's arguments, and each symbol floor(row / z) once it is read."""

    def __init__(self, names, point, symbols):
        super().__init__(zip(names, point), const=1)
        self.symbols = symbols

    def value(self, row):
        return sum(c * self[v] for v, c in row.items())

    def __missing__(self, name):
        row, z = self.symbols[name]
        self[name] = quotient = self.value(row) // z
        return quotient


def interpret(args, cases, symbols):
    """The function ``dyck._compile`` would build from the table, read row by row."""
    names = args.split(", ")

    def result(env, out):
        if isinstance(out, str):
            return out
        if isinstance(out, tuple):
            return tuple(result(env, x) for x in out)
        return env.value(out)

    def run(*point):
        env = Point(names, point, symbols)
        for rows, out in cases:
            if all(env.value(row) >= 0 for row in rows):
                if isinstance(out, str):
                    raise AssertionError(eval("f" + repr(out), {}, env))
                return result(env, out)
        raise LookupError(f"no case holds at {point}")
    return run


def _case_table():
    table = [(rows, (label, image)) for label, rows, image in involution._CASES]
    no_case = "no involution case holds at (a, c, b, d) = ({a}, {c}, {b}, {d})"
    return "a, c, b, d", table + [([], no_case)], involution._SYMBOLS


TABLES = {
    "_bounce3": (dyck._bounce3, lambda: dyck._lowered(
        "k1, k2, r2, r3", "Path3", dyck._ROW3, dyck._F_PART_CUTS, dyck._F_PARTS)),
    "_bounce4": (dyck._bounce4, lambda: dyck._lowered(
        "k, a, b, c", "Path4", dyck._ROW4, dyck._H_PART_CUTS, dyck._H_PARTS)),
    "_case": (involution._case, _case_table),
}


def _outcome(function, point):
    try:
        return function(*point)
    except AssertionError as exc:
        return "AssertionError", str(exc)


@pytest.mark.parametrize("name", TABLES)
def test_compiled_function_agrees_with_its_table_on_a_box(name):
    compiled, table = TABLES[name]
    reference = interpret(*table())
    outcomes = [_outcome(compiled, point) for point in BOX]
    assert outcomes == [_outcome(reference, point) for point in BOX]
    if name == "_bounce4":  # the box reaches the guard cases' errors
        assert any(out[0] == "AssertionError" for out in outcomes)


def generated(name):
    """The source ``dyck._compile`` writes for the table ``name``, both forms."""
    sources = []

    def spy(source, *args):
        sources.append(source)
        return compile(source, *args)
    dyck.compile = spy  # a module global, found before the builtin
    try:
        dyck._compile(name, *TABLES[name][1]())
    finally:
        del dyck.compile
    (source,) = sources
    return source + "\n"


@pytest.mark.parametrize("name", TABLES)
def test_generated_code_only_floors(name):
    _, _, symbols = TABLES[name][1]()
    assert all(z >= 1 for _, z in symbols.values())
    source = generated(name)
    assert " // " in source
    for token in ("assert", "&", "%"):
        assert token not in source, token


def test_generated_code_matches_the_golden_file():
    assert "".join(map(generated, TABLES)) == GOLDEN.read_text()


# name -> (the loop form the package uses, over the table's last argument,
# and the width of a case's result)
LOOPS = {
    "_bounce3": (dyck._bounce3_rows, 3),
    "_bounce4": (dyck._bounce4_rows, 3),  # hoists the symbols s and r, reaches a guard
    "_case": (involution._case_rows, 2),
}


def _appended(function, names, over, fixed, values, width):
    """What a loop form over ``over`` would append for ``values`` if it called
    the point form ``function`` per value, and the message it raises, if any."""
    appended = tuple([] for _ in range(width))
    for value in values:
        point = {**fixed, over: value}
        try:
            result = function(*(point[name] for name in names))
        except AssertionError as exc:
            return appended, str(exc)
        for out, item in zip(appended, result, strict=True):
            out.append(item)
    return appended, None


def _looped(rows, fixed, values, width):
    appended = tuple([] for _ in range(width))
    try:
        rows(*fixed.values(), values, *(out.append for out in appended))
    except AssertionError as exc:
        return appended, str(exc)
    return appended, None


@pytest.mark.parametrize("name", LOOPS)
def test_loop_form_appends_what_the_point_form_returns(name):
    compiled, table = TABLES[name]
    args, cases, symbols = table()
    rows, width = LOOPS[name]
    reference = interpret(args, cases, symbols)
    names = args.split(", ")
    *others, over = names
    outcomes = []
    for point in sorted({tuple(p for v, p in zip(names, point) if v != over) for point in BOX}):
        fixed = dict(zip(others, point))
        for values in (range(-3, 6), range(5, -4, -1)):
            got = _looped(rows, fixed, values, width)
            want = _appended(compiled, names, over, fixed, values, width)
            assert got == want, (fixed, values)
            assert got == _appended(reference, names, over, fixed, values, width), (fixed, values)
            outcomes.append(got)
    if name == "_bounce4":  # a guard raises, after earlier values were appended
        assert any(message and "bounce cases [3, 5] fired" in message and appended[0]
                   for appended, message in outcomes)


def _recomputed(name):
    """The statements and tests in the loop of the loop form of ``name`` with
    an arithmetic part that reads neither the loop argument nor a name the
    loop assigns: work the loop would repeat for every value."""
    function = next(node for node in ast.parse(generated(name)).body
                    if node.name == f"{name}_rows")
    loop = next(node for node in function.body if isinstance(node, ast.For))
    varying = {node.id for node in ast.walk(loop)
               if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}

    def reads(node):
        return any(isinstance(n, ast.Name) and n.id in varying for n in ast.walk(node))
    # a raise is not among the roots: its message is formatted once, as the loop ends
    roots = [node.test if isinstance(node, ast.If) else node.value for node in ast.walk(loop)
             if isinstance(node, (ast.If, ast.Assign, ast.Expr))]
    return [ast.unparse(root) for root in roots
            if any(isinstance(node, (ast.BinOp, ast.UnaryOp, ast.Compare)) and not reads(node)
                   for node in ast.walk(root))]


@pytest.mark.parametrize("name", LOOPS)
def test_loop_form_computes_what_does_not_vary_before_its_loop(name):
    assert _recomputed(name) == []


def test_loop_form_names_the_value_no_case_holds_for():
    case, case_rows = involution._generate(involution._CASES[:-1])  # without G32
    labels, images = [], []
    with pytest.raises(AssertionError,
                       match=r"no involution case holds at \(a, c, b, d\) = \(3, 2, 2, 0\)"):
        case_rows(3, 2, 2, [4, 2, 0, 1], labels.append, images.append)
    assert list(zip(labels, images)) == [case(3, 2, 2, 4), case(3, 2, 2, 2)]
    assert labels == ["G22", "G22"]


if __name__ == "__main__":
    sys.stdout.write("".join(map(generated, TABLES)))
