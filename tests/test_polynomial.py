import ast
import copy
import json
import pathlib
import pickle
import random
import re

import pytest

import qtcatalan
from qtcatalan.omega import closed_form
from qtcatalan.polynomial import SparsePoly, VarTable

QT = VarTable(("q", "t"))


def mono(vars, exps, coeff=1):
    return SparsePoly.monomial(vars, exps, coeff)


def random_poly(rng, vars, max_terms=6, max_exp=4):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        exps = tuple(rng.randrange(max_exp + 1) for _ in vars)
        terms[exps] = rng.randint(-5, 5)
    return SparsePoly(vars, terms)


def test_vartable_rejects_duplicates():
    with pytest.raises(ValueError):
        VarTable(("q", "q"))


@pytest.mark.parametrize("names", ["qt", "q", [1, 2], ("q", 1), ("q", None), ("q", b"t")])
def test_vartable_rejects_names_that_are_not_strings(names):
    # a bare string would be split into its letters; a name that is no str
    # would break rendering
    with pytest.raises(ValueError, match="iterable of strings"):
        VarTable(names)


def test_vartable_unknown_variable():
    with pytest.raises(ValueError, match="unknown variable"):
        QT.index("z")


def test_vartable_is_the_tuple_of_its_names():
    vt = VarTable(("q", "t"))
    assert vt == ("q", "t") and ("q", "t") == vt
    assert hash(vt) == hash(("q", "t"))
    assert vt[0] == "q" and vt[-1] == "t" and vt[1:] == ("t",)
    assert list(vt) == ["q", "t"] and len(vt) == 2 and "t" in vt and "x" not in vt
    assert vt.names == ("q", "t") and type(vt.names) is tuple
    assert repr(vt) == "VarTable(['q', 't'])"


def test_vartable_exponents():
    vt = VarTable(("q", "t"))
    assert vt.exponents({"t": 2}) == (0, 2)
    assert vt.exponents({"q": -1, "t": 3}) == (-1, 3)
    assert vt.exponents({}) == (0, 0)
    with pytest.raises(ValueError, match="unknown variable 'z'"):
        vt.exponents({"t": 1, "z": 1})


@pytest.mark.parametrize("names", [("q", "t"), ["q", "t"], QT], ids=("tuple", "list", "table"))
def test_polynomials_take_their_names_as_a_vartable(names):
    # a plain tuple once built and then failed on .names when rendered
    p = SparsePoly(names, {(1, 0): 1})
    assert type(p.vars) is VarTable and p.vars == QT
    assert p.text() == "q" and p == mono(QT, {"q": 1})
    t2 = SparsePoly.monomial(names, {"t": 2})
    assert type(t2.vars) is VarTable and t2 == mono(QT, {"t": 2})


@pytest.mark.parametrize("names, message", [
    ("qt", "iterable of strings"), (("q", "q"), "duplicate"), (("q", 1), "iterable of strings"),
], ids=("string", "repeated", "not_str"))
def test_polynomials_reject_the_names_vartable_rejects(names, message):
    with pytest.raises(ValueError, match=message):
        SparsePoly(names, {})
    with pytest.raises(ValueError, match=message):
        SparsePoly.monomial(names, {})


@pytest.mark.parametrize("make", [
    lambda: QT, lambda: SparsePoly(QT, {(2, 1): -3, (0, 0): 1}), lambda: closed_form("EQ2"),
], ids=("VarTable", "SparsePoly", "closed_form"))
def test_pickle_and_deepcopy_round_trip(make):
    obj = make()
    copies = [pickle.loads(pickle.dumps(obj, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies + [copy.deepcopy(obj)]:
        assert type(other) is type(obj) and other == obj
        assert type(getattr(other, "vars", other)) is VarTable


def test_add_disjoint_supports():
    assert mono(QT, {"q": 1}) + mono(QT, {"t": 1}) == SparsePoly(
        QT, {(1, 0): 1, (0, 1): 1})


def test_add_cancellation_drops_term():
    p = mono(QT, {"q": 1}) + mono(QT, {"t": 1})
    r = p + mono(QT, {"q": 1}, -1)
    assert r == mono(QT, {"t": 1})
    assert (1, 0) not in r.terms


def test_mul_binomials():
    p = (SparsePoly.one(QT) + mono(QT, {"q": 1})) * (SparsePoly.one(QT) + mono(QT, {"t": 1}))
    assert p == SparsePoly(QT, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})


def test_mul_identity():
    rng = random.Random(7)
    p = random_poly(rng, QT)
    assert p * SparsePoly.one(QT) == p


def test_mul_telescoping_geometric():
    tx = VarTable(("t", "x"))
    partial = sum((mono(tx, {"t": 6 * k, "x": k}) for k in range(6)),
                  SparsePoly.zero(tx))
    p = (SparsePoly.one(tx) - mono(tx, {"t": 6, "x": 1})) * partial
    assert p == SparsePoly.one(tx) - mono(tx, {"t": 36, "x": 6})


def test_vartable_mismatch_raises():
    other = VarTable(("q", "u"))
    with pytest.raises(ValueError, match="mismatch"):
        SparsePoly.one(QT) + SparsePoly.one(other)
    with pytest.raises(ValueError, match="mismatch"):
        SparsePoly.one(QT) * SparsePoly.one(other)


def test_swap_vars_basic():
    p = mono(QT, {"q": 3}) + mono(QT, {"q": 1, "t": 1})
    assert p.swap_vars("q", "t") == mono(QT, {"t": 3}) + mono(QT, {"q": 1, "t": 1})
    assert p.swap_vars("q", "q") == p
    assert p.swap_vars("q", "q").terms is not p.terms


def test_swap_vars_is_involution():
    rng = random.Random(11)
    for _ in range(20):
        p = random_poly(rng, QT)
        assert p.swap_vars("q", "t").swap_vars("q", "t") == p


def test_swap_unknown_variable():
    with pytest.raises(ValueError, match="unknown variable"):
        SparsePoly.one(QT).swap_vars("q", "z")


def test_is_symmetric():
    assert (mono(QT, {"q": 1}) + mono(QT, {"t": 1})).is_symmetric("q", "t")
    assert not mono(QT, {"q": 1}).is_symmetric("q", "t")


def test_is_symmetric_agrees_with_swap():
    rng = random.Random(13)
    for _ in range(30):
        p = random_poly(rng, QT)
        assert p.is_symmetric("q", "t") == (p.swap_vars("q", "t") == p)


def test_coeff_extraction():
    qx = VarTable(("q", "x"))
    p = SparsePoly.one(qx) + mono(qx, {"q": 1, "x": 1})
    c = p.coeff({"x": 1})
    assert c.vars == VarTable(("q",))
    assert c == mono(VarTable(("q",)), {"q": 1})
    assert p.coeff({"x": 0}) == SparsePoly.one(VarTable(("q",)))


@pytest.mark.parametrize("e", [True, 1.0, "1", None])
def test_coeff_rejects_an_exponent_that_is_not_an_int(e):
    # True == 1 and 1.0 == 1 would match the exponent 1, as the constructor
    # and monomial refuse them
    p = mono(QT, {"q": 1}) + 1
    with pytest.raises(ValueError, match="coeff needs int exponents"):
        p.coeff({"q": e})
    assert p.coeff({"q": 1}) == SparsePoly.one(VarTable(("t",)))


def test_eval_ones():
    qy = VarTable(("q", "t", "y2"))
    p = mono(qy, {"q": 1, "y2": 1}) + mono(qy, {"t": 1, "y2": 2})
    r = p.eval_ones(["y2"])
    assert r == mono(QT, {"q": 1}) + mono(QT, {"t": 1})
    # collapsing can merge and cancel terms
    p2 = mono(qy, {"q": 1, "y2": 1}) + mono(qy, {"q": 1, "y2": 2}, -1)
    assert not p2.eval_ones(["y2"])


def test_eval_ones_rejects_a_bare_string():
    # a bare string would be read as one-letter names: "qt" as q and t,
    # "y2" as the unknown y and 2
    p = mono(VarTable(("q", "t", "y2")), {"q": 1, "y2": 1})
    for names in ("qt", "y2", "q"):
        with pytest.raises(ValueError, match="iterable of strings"):
            p.eval_ones(names)
    assert p.eval_ones(("y2",)) == p.eval_ones(["y2"]) == mono(QT, {"q": 1})


def test_constant_value():
    p = SparsePoly.constant(QT, 5) + mono(QT, {"q": 2})
    assert p.constant_value() == 5
    assert p.eval_ones(["q", "t"]).constant_value() == 6
    assert (mono(QT, {"q": 1}) - mono(QT, {"t": 1})).eval_ones(["q", "t"]).terms == {}


def test_ring_axioms_on_random_operands():
    rng = random.Random(42)
    vars = VarTable(("q", "t", "x"))
    for _ in range(25):
        a = random_poly(rng, vars, max_terms=4, max_exp=3)
        b = random_poly(rng, vars, max_terms=4, max_exp=3)
        c = random_poly(rng, vars, max_terms=4, max_exp=3)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_no_zero_coefficients_after_ops():
    rng = random.Random(3)
    vars = VarTable(("q", "t"))
    for _ in range(30):
        a = random_poly(rng, vars)
        b = random_poly(rng, vars)
        for p in (a + b, a - b, a * b, a + (-b)):
            assert all(c != 0 for c in p.terms.values())


def test_constructor_copies_caller_terms():
    d = {(1, 0): 2, (0, 1): 0}
    p = SparsePoly(QT, d)
    assert p.terms == {(1, 0): 2}
    assert d == {(1, 0): 2, (0, 1): 0}
    assert p.terms is not d
    d[(2, 2)] = 5
    assert (2, 2) not in p.terms
    assert type(p.terms) is dict


def test_only_polynomial_module_assigns_terms():
    # SparsePoly._owning is the one place zero coefficients are dropped; a
    # module that sets ``.terms`` itself would bypass it
    src = pathlib.Path(qtcatalan.__file__).parent
    stores = []
    for path in sorted(src.glob("*.py")):
        if path.name == "polynomial.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr == "terms"
                    and isinstance(node.ctx, ast.Store)):
                stores.append(f"{path.name}:{node.lineno}")
    assert not stores, f"assignments to .terms outside polynomial.py: {stores}"


@pytest.mark.parametrize("bad", [{(0.5, 0): 1}, {(0, 1): 1.0}, {(True, 0): 1},
                                 {(0, 0): True}, {("1", 0): 1}, {(1, 0): "2"}])
def test_constructor_rejects_non_int_terms(bad):
    # a float exponent used to reach the packed product and come out wrong
    with pytest.raises(ValueError, match=re.escape(f"term {next(iter(bad))!r}")):
        SparsePoly(QT, {(0, 1): 1, **bad})


def test_constructor_rejects_exponent_tuples_of_the_wrong_length():
    with pytest.raises(ValueError, match=re.escape("exponent tuple (1,) has length 1, expected 2")):
        SparsePoly(QT, {(1,): 1})


@pytest.mark.parametrize("other", [True, 1.0])
def test_arithmetic_rejects_operands_that_are_not_ints(other):
    p = mono(QT, {"q": 1})
    for op in (p.__add__, p.__mul__, p.__sub__):
        with pytest.raises(TypeError, match=type(other).__name__):
            op(other)


def test_negative_exponents_allowed():
    p = mono(QT, {"q": -2, "t": 1})
    assert p * mono(QT, {"q": 2}) == mono(QT, {"t": 1})


def test_json_round_trip():
    rng = random.Random(19)
    vars = VarTable(("q", "t", "x1"))
    for _ in range(20):
        p = random_poly(rng, vars)
        assert SparsePoly.from_json(p.to_json()) == p


def test_json_canonical_order_is_stable():
    p = SparsePoly(QT, {(0, 3): 1, (3, 0): 1, (1, 1): 1, (2, 1): 1, (1, 2): 1})
    doc = p.to_json_dict()
    assert [t["exps"] for t in doc["terms"]] == [
        [3, 0], [2, 1], [1, 2], [1, 1], [0, 3]]
    assert p.to_json() == p.to_json()


def test_json_rejects_duplicate_terms():
    doc = {"vars": ["q"], "terms": [{"exps": [1], "coeff": 1},
                                    {"exps": [1], "coeff": 2}]}
    with pytest.raises(ValueError, match="duplicate"):
        SparsePoly.from_json(json.dumps(doc))


@pytest.mark.parametrize("term", [{"exps": [1.5], "coeff": 2},
                                  {"exps": [1], "coeff": 2.9},
                                  {"exps": [True], "coeff": 1},
                                  {"exps": [1], "coeff": True},
                                  {"exps": ["7"], "coeff": 1},
                                  {"exps": [1], "coeff": "7"},
                                  {"exps": 1, "coeff": 1}])
def test_json_rejects_non_integer_terms(term):
    doc = {"vars": ["q"], "terms": [{"exps": [0], "coeff": 1}, term]}
    with pytest.raises(ValueError, match="JSON term .* needs integer"):
        SparsePoly.from_json(json.dumps(doc))


@pytest.mark.parametrize("doc, message", [
    ({"vars": "qt", "terms": []}, '"vars" must be a list of strings'),
    ({"vars": ["q", 1], "terms": []}, '"vars" must be a list of strings'),
    ({"terms": []}, '"vars" must be a list of strings'),
    ({"vars": ["q"]}, '"terms" must be a list'),
    ({"vars": ["q"], "terms": [[1, 2]]}, "must be an object with exps and coeff"),
    ({"vars": ["q"], "terms": [{"coeff": 1}]}, "must be an object with exps and coeff"),
    ({"vars": ["q"], "terms": [{"exps": [1]}]}, "must be an object with exps and coeff"),
    (["q"], "must be an object"),
])
def test_json_rejects_malformed_documents(doc, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        SparsePoly.from_json(json.dumps(doc))


def test_an_int_compares_as_the_constant_polynomial():
    q = mono(VarTable(("q",)), {"q": 1})
    assert 1 - q + q == 1
    assert 1 == 1 - q + q
    assert q - q == 0
    assert 0 == q - q
    assert SparsePoly.constant(QT, -3) == -3
    assert q != 1 and 1 != q
    assert not (q - q != 0)


@pytest.mark.parametrize("other", [True, False, 1.0, 0.0, "1", None, (1,)])
def test_nothing_else_compares_equal(other):
    # a bool is no number here, as in arithmetic
    for p in (SparsePoly.one(QT), SparsePoly.zero(QT)):
        assert p != other and other != p


def test_polynomials_stay_unhashable():
    assert SparsePoly.__hash__ is None
    with pytest.raises(TypeError):
        hash(SparsePoly.one(QT))


def test_text_and_latex_rendering():
    p = SparsePoly(QT, {(3, 0): 1, (1, 1): -2, (0, 0): 1})
    assert p.text() == "q^3 - 2*q*t + 1"
    x1 = VarTable(("q", "x1"))
    assert mono(x1, {"q": 2, "x1": 1}).latex() == "q^{2} x_{1}"
    assert SparsePoly.zero(QT).text() == "0"


def test_pow():
    p = SparsePoly.one(QT) + mono(QT, {"q": 1})
    assert p ** 0 == SparsePoly.one(QT)
    assert p ** 3 == p * p * p


@pytest.mark.parametrize("n", [True, False, 1.0, -1])
def test_pow_rejects_exponents_that_are_not_nonnegative_ints(n):
    with pytest.raises(ValueError, match="nonnegative integer"):
        mono(QT, {"q": 1}) ** n
