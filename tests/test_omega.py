import gc
import random
from collections import Counter

import pytest

from qtcatalan import catalan, dyck, omega
from qtcatalan.catalan import (F_REGIONS, H_REGIONS, gf_series3, gf_series4,
                               refined_poly3)
from qtcatalan.dyck import KVec3
from qtcatalan.omega import (CLOSED_FORM_IDS, FactoredOmegaExpr, WeightVector,
                             build_crude_F, build_crude_H, check_gf_section,
                             closed_form, expand_truncated, series_equal,
                             truncate_weighted)
from qtcatalan.polynomial import SparsePoly, VarTable


def x_slice(names, order):
    """Weight 1 on each x and 0 on every other variable: the truncation set
    is the slice of total x-degree <= ``order``."""
    return WeightVector(order, {n: int(n.startswith("x")) for n in names})


def geometric(names, factor_exps, elim=None, numerator=None):
    vt = VarTable(names)
    zero = (0,) * len(names)
    return FactoredOmegaExpr(vt, numerator or [(1, zero)],
                             [tuple(f) for f in factor_exps], elim or {})


def test_single_lambda_geometric():
    e = geometric(("x", "l"), [(1, 1)], {"l": "nonneg"})
    p = expand_truncated(e, WeightVector(4))
    assert p == SparsePoly(VarTable(("x",)), {(i,): 1 for i in range(5)})


def test_expand_truncated_leaves_no_garbage_cycle():
    # the result must be freed by reference counting alone, not held in a
    # cycle until the cyclic GC runs
    forms = (build_crude_F("P1C1"), closed_form("F11"))
    wv = x_slice(forms[1].vars.names, 3)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for form in forms:
            assert expand_truncated(form, wv).terms
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_nonneg_pair_matches_direct_expansion():
    # terms x^a y^b survive iff a >= b
    e = geometric(("x", "y", "l"), [(1, 0, 1), (0, 1, -1)], {"l": "nonneg"})
    p = expand_truncated(e, WeightVector(3))
    direct = geometric(("x", "y"), [(1, 0), (1, 1)])
    assert p == expand_truncated(direct, WeightVector(3))


def test_zero_mode_diagonal():
    e = geometric(("x", "y", "m"), [(1, 0, 1), (0, 1, -1)], {"m": "zero"})
    p = expand_truncated(e, WeightVector(3))
    direct = geometric(("x", "y"), [(1, 1)])
    assert p == expand_truncated(direct, WeightVector(3))


def test_no_elimination_is_plain_expansion():
    e = geometric(("x",), [(1,)])
    p = expand_truncated(e, WeightVector(6))
    assert p.terms == {(i,): 1 for i in range(7)}
    # (1 - x) / (1 - x): every higher term cancels in the accumulator
    e = geometric(("x",), [(1,)], numerator=[(1, (0,)), (-1, (1,))])
    assert expand_truncated(e, WeightVector(5)).terms == {(0,): 1}


def test_monotone_consistency():
    e = geometric(("x", "y", "l"), [(1, 0, 2), (0, 1, -1)], {"l": "nonneg"})
    big = expand_truncated(e, WeightVector(8))
    small = expand_truncated(e, WeightVector(5))
    assert truncate_weighted(big, WeightVector(5)) == small


def test_nonpositive_factor_weight_rejected():
    e = geometric(("x", "y"), [(1, -1)])
    with pytest.raises(ValueError, match="nonpositive weight"):
        expand_truncated(e, WeightVector(4))
    # a weight vector fixing the balance is accepted
    p = expand_truncated(e, WeightVector(4, {"x": 2, "y": 1}))
    assert p.terms[(1, -1)] == 1


def test_weight_vector_validation():
    with pytest.raises(ValueError):
        WeightVector(-1)
    with pytest.raises(ValueError):
        WeightVector(3, {"x": -2})
    e = geometric(("x",), [(1,)])
    with pytest.raises(ValueError, match="unknown variables"):
        expand_truncated(e, WeightVector(3, {"nope": 1}))


def test_weight_vector_rejects_non_integers():
    for bad in (2.5, 3.0, True):
        with pytest.raises(ValueError, match="nonnegative integer"):
            WeightVector(bad)
    with pytest.raises(ValueError, match="nonnegative integers"):
        WeightVector(3, {"q": 1.5})
    for bad in ([1, 2], [], ("q", 1), "q"):
        with pytest.raises(ValueError, match="mapping"):
            WeightVector(3, bad)
    with pytest.raises(ValueError, match="nonnegative integer"):
        check_gf_section("EQ1", 2.5)


@pytest.mark.parametrize("weights", [{1: 2, "z": 1}, {("q",): 1}, {None: 0}])
def test_weight_vector_rejects_names_that_are_not_strings(weights):
    # resolve() would sort mixed-type names to report them as unknown
    with pytest.raises(ValueError, match="weight names must be strings"):
        WeightVector(3, weights)


@pytest.mark.parametrize("section", omega.GF_SECTIONS)
def test_slice_weight_vector_matches_its_definition(monkeypatch, section):
    # every weight vector check_gf_section expands and compares with is the
    # x-slice of its variables, and keeps exactly the path-sum terms of
    # total x-degree <= the order
    seen = []

    def capture(fn):
        def wrapper(*args):
            seen.append(args[-1])
            return fn(*args)
        return wrapper

    monkeypatch.setattr(omega, "expand_truncated", capture(expand_truncated))
    monkeypatch.setattr(omega, "series_equal", capture(series_equal))
    _, terms = check_gf_section(section, 4)
    family, _, region = section.partition(" ")
    series = gf_series3 if family in ("F", "EQ1") else gf_series4
    wider = series(5, region=region or None, refined=bool(region))
    assert len(seen) == (4 if region else 2)
    assert all(wv == x_slice(wider.vars.names, 4) for wv in seen)
    kept = truncate_weighted(wider, seen[0])
    assert len(kept.terms) == terms < len(wider.terms)
    assert kept == series(4, region=region or None, refined=bool(region))


def test_expr_rejects_a_non_integer_coefficient():
    # the series would carry float coefficients
    with pytest.raises(ValueError, match="coefficient 1.5 is not an integer"):
        FactoredOmegaExpr(VarTable(("x",)), [(1.5, (0,))], [(1,)])


@pytest.mark.parametrize("numerator, factors, bad", [
    ([(1, (0.5,))], [(1,)], 0.5),
    ([(1, (0,))], [(1.0,)], 1.0),
    ([(1, (True,))], [(1,)], True),
], ids=("numerator", "factor", "bool"))
def test_expr_rejects_a_non_integer_exponent(numerator, factors, bad):
    with pytest.raises(ValueError, match=f"non-integer exponent {bad!r}"):
        FactoredOmegaExpr(VarTable(("x",)), numerator, factors)


@pytest.mark.parametrize("numerator, factors, role", [
    ([(1, (0, 0))], [(1,)], "numerator"),
    ([(1, (0,))], [(1,), ()], "factor"),
])
def test_expr_rejects_a_monomial_of_the_wrong_length(numerator, factors, role):
    with pytest.raises(ValueError, match=f"^{role} monomial length mismatch$"):
        FactoredOmegaExpr(VarTable(("x",)), numerator, factors)


def test_expr_rejects_an_unknown_elimination_mode():
    with pytest.raises(ValueError, match="unknown elimination mode 'pos' for 'l'"):
        FactoredOmegaExpr(VarTable(("x", "l")), [(1, (0, 0))], [(1, 0)], {"l": "pos"})


@pytest.mark.parametrize("names, message", [("xy", "iterable of strings"),
                                            (("x", "x"), "duplicate")],
                         ids=("string", "repeated"))
def test_expr_rejects_the_names_vartable_rejects(names, message):
    with pytest.raises(ValueError, match=message):
        FactoredOmegaExpr(names, [(1, (0, 0))], [(1, 0)])


@pytest.mark.parametrize("names", [("x",), ["x"]], ids=("tuple", "list"))
def test_expr_takes_its_names_as_a_vartable(names):
    # a plain tuple once built and then failed on .names when expanded
    e = FactoredOmegaExpr(names, [(1, (0,))], [(1,)])
    assert type(e.vars) is VarTable and e.vars == ("x",)
    assert expand_truncated(e, WeightVector(2)) == SparsePoly(("x",), {(i,): 1 for i in range(3)})


@pytest.mark.parametrize("call, needed", [
    (lambda: expand_truncated(closed_form("F11"), 3), "WeightVector"),
    (lambda: expand_truncated(SparsePoly.one(("q",)), WeightVector(1)), "FactoredOmegaExpr"),
    (lambda: series_equal(SparsePoly.one(("q",)), SparsePoly.one(("q",)), 3), "WeightVector"),
    (lambda: truncate_weighted(SparsePoly.one(("q",)), 3), "WeightVector"),
    (lambda: truncate_weighted(3, WeightVector(1)), "SparsePoly"),
], ids=("expand_int", "expand_poly", "series_equal_int", "truncate_int", "truncate_not_poly"))
def test_entry_points_name_the_type_they_take(call, needed):
    # each once failed with AttributeError on the argument of the wrong type
    with pytest.raises(TypeError, match=f"takes a {needed}, got "):
        call()


def test_expr_stores_list_monomials_as_tuples():
    e = FactoredOmegaExpr(VarTable(("x",)), [(1, [0])], [[1]])
    assert e.numerator == [(1, (0,))] and type(e.numerator[0][1]) is tuple
    assert e.factors == [(1,)] and type(e.factors[0]) is tuple
    assert expand_truncated(e, WeightVector(2)).terms == {(0,): 1, (1,): 1, (2,): 1}


def test_series_equal_reports_leading_witness():
    qt = VarTable(("q", "t"))
    one_q = SparsePoly(qt, {(0, 0): 1, (1, 0): 1})
    one_t = SparsePoly(qt, {(0, 0): 1, (0, 1): 1})
    wv = WeightVector(1)
    assert series_equal(one_q, one_q, wv).equal
    diff = series_equal(one_q, one_t, wv)
    assert not diff.equal
    assert diff.witness == (1, 0)
    assert (diff.left, diff.right) == (1, 0)


def test_series_equal_requires_same_vars():
    p = SparsePoly.one(VarTable(("q",)))
    r = SparsePoly.one(VarTable(("t",)))
    with pytest.raises(ValueError, match="mismatch"):
        series_equal(p, r, WeightVector(1))
    # equal terms are checked against the weight vector too
    with pytest.raises(ValueError, match="unknown variables"):
        series_equal(p, p, WeightVector(1, {"t": 1}))


@pytest.mark.parametrize("other", [1, None, "q"])
def test_series_equal_rejects_an_operand_that_is_not_a_polynomial(other):
    p = SparsePoly.one(VarTable(("q",)))
    for args in ((p, other), (other, p)):
        with pytest.raises(TypeError, match=f"got {type(other).__name__}$"):
            series_equal(*args, WeightVector(1))


def test_series_equal_ignores_terms_beyond_bound():
    qt = VarTable(("q", "t"))
    p = SparsePoly(qt, {(0, 0): 1, (5, 0): 9})
    r = SparsePoly(qt, {(0, 0): 1})
    assert series_equal(p, r, WeightVector(2)).equal
    assert not series_equal(p, r, WeightVector(5)).equal


def test_closed_form_registry():
    assert set(CLOSED_FORM_IDS) == {"F11", "F12", "F21", "F22", "EQ1", "H11",
                                    "H12", "H21", "H22", "H23", "H31", "H32",
                                    "H33", "EQ2"}
    for form_id in CLOSED_FORM_IDS:
        expr = closed_form(form_id)
        assert not expr.elim
        assert expr.factors
    with pytest.raises(ValueError, match="unknown closed form"):
        closed_form("F13")


@pytest.mark.parametrize("form_id", [["EQ1"], ("EQ1",), None, 1])
def test_closed_form_rejects_an_id_that_is_not_a_string(form_id):
    # hashable or not, an id that is not a str is unknown
    with pytest.raises(ValueError, match="unknown closed form"):
        closed_form(form_id)


def test_form_ids_keep_two_digit_numbers_apart():
    # twelve numbered parts, the first with eleven cases: "P1C11" and
    # "P11C1" would both read "K111" if the numbers were run together
    parts = [(("a",), [], [None] * 11)] + [(("a",), [], [None])] * 11
    ids = omega._form_ids("K", parts)
    assert [ids[f"K {label}"] for label in ("P1C1", "P1C10", "P1C11", "P11C1", "P12C1")] == [
        "K11", "K1_10", "K1_11", "K11_1", "K12_1"]
    assert len(set(ids.values())) == len(ids) == 22


def forcing_search(expr):
    """``expr`` with one more variable, eliminated ``nonneg``, that no factor
    touches and every numerator term carries at exponent 0: the same series,
    expanded by the multiplicity search instead of geometric division."""
    return FactoredOmegaExpr(VarTable((*expr.vars.names, "idle")),
                             [(c, (*mono, 0)) for c, mono in expr.numerator],
                             [(*f, 0) for f in expr.factors], {"idle": "nonneg"})


@pytest.mark.parametrize("section", omega.GF_SECTIONS)
def test_closed_expansion_matches_the_search(monkeypatch, section):
    # the closed form and weight vector check_gf_section expands, captured
    calls = []

    def capture(expr, wv):
        if not expr.elim:
            calls.append((expr, wv))
        return expand_truncated(expr, wv)

    monkeypatch.setattr(omega, "expand_truncated", capture)
    for order in (0, 4, 8, 12):
        calls.clear()
        check_gf_section(section, order)
        [(form, wv)] = calls
        got = expand_truncated(form, wv).terms
        assert got == expand_truncated(forcing_search(form), wv).terms, order
        if order:
            # negative control: one factor exponent (q, weight 0) moved
            qi = form.vars.index("q")
            moved = forcing_search(form)
            moved.factors[-1] = tuple(e + (i == qi) for i, e in enumerate(moved.factors[-1]))
            assert got != expand_truncated(moved, wv).terms, order


def test_build_crude_unknown_region():
    with pytest.raises(ValueError, match="unknown region"):
        build_crude_F("P3C1")
    with pytest.raises(ValueError, match="unknown region"):
        build_crude_H("P4C1")


def test_check_gf_section_unknown_section():
    for section in ("F P3C3", "H P4C1", "EQ3", "P1C1"):
        with pytest.raises(ValueError, match="unknown section"):
            check_gf_section(section, 2)


def test_eq1_constant_term_and_x3_column():
    wv = x_slice(gf_series3(0).vars.names, 3)
    series = expand_truncated(closed_form("EQ1"), wv)
    assert series.constant_value() == 1
    for m in range(4):
        col = series.coeff({"q": 0, "t": 0, "x1": 0, "x2": 0, "x3": m})
        assert col.constant_value() == 1


def test_eq1_coefficient_is_catalan_poly():
    wv = x_slice(gf_series3(0).vars.names, 3)
    series = expand_truncated(closed_form("EQ1"), wv)
    from qtcatalan.catalan import catalan_poly3
    assert series.coeff({"x1": 1, "x2": 1, "x3": 1}) == catalan_poly3(KVec3(1, 1, 1))


def test_f11_coefficient_matches_filtered_refined_poly():
    wv = x_slice(gf_series3(0, region="P1C1", refined=True).vars.names, 3)
    series = expand_truncated(closed_form("F11"), wv)
    got = series.coeff({"x1": 2, "x2": 1, "x3": 0})
    want = refined_poly3(KVec3(2, 1, 0), "P1C1")
    assert got.vars == want.vars and got == want


@pytest.mark.parametrize("region", F_REGIONS)
def test_crude_f_equals_closed_and_enumeration(region):
    oracle = gf_series3(3, region=region, refined=True)
    wv = x_slice(oracle.vars.names, 3)
    crude = expand_truncated(build_crude_F(region), wv)
    closed = expand_truncated(closed_form("F" + region[1] + region[3]), wv)
    assert series_equal(crude, closed, wv).equal
    assert series_equal(closed, oracle, wv).equal


@pytest.mark.parametrize("region", H_REGIONS)
def test_crude_h_equals_closed_and_enumeration(region):
    oracle = gf_series4(2, region=region, refined=True)
    wv = x_slice(oracle.vars.names, 2)
    crude = expand_truncated(build_crude_H(region), wv)
    closed = expand_truncated(closed_form("H" + region[1] + region[3]), wv)
    assert series_equal(crude, closed, wv).equal
    assert series_equal(closed, oracle, wv).equal


@pytest.mark.parametrize("cut, sections", [
    # the cut between the two cases of F part 1
    (dyck._F_PARTS[0][1][0], ("F P1C1", "F P1C2")),
    # the k^4 case-1 cut, shared by parts 2 and 3
    (dyck._CUTS4[0], ("H P2C1", "H P2C2", "H P3C1", "H P3C2")),
], ids=("F_part1_cut", "H_parts23_cut1"))
def test_shifted_shared_cut_fails_every_region_built_from_it(
        monkeypatch, cut, sections):
    monkeypatch.setitem(cut, "const", cut.get("const", 0) - 1)
    for section in sections:
        diffs = dict(check_gf_section(section, 2)[0])
        assert not diffs["crude_vs_closed"].equal, section
        assert diffs["closed_vs_paths"].equal, section


def test_shifted_shared_cut_moves_paths_and_crude_forms_together(monkeypatch):
    # the path classifier and the crude forms read the same cut: shifted in
    # place and the classifier rebuilt, each region built from the cut still
    # has a crude form equal to its path sum, and only the closed form differs
    cut = dyck._CUTS4[0]
    monkeypatch.setitem(cut, "const", cut.get("const", 0) - 1)
    point, rows = dyck._compile("_bounce4", *dyck._lowered(
        "k, a, b, c", "Path4", dyck._ROW4, dyck._H_PART_CUTS, dyck._H_PARTS))
    monkeypatch.setattr(dyck, "_bounce4", point)
    monkeypatch.setattr(dyck, "_bounce4_rows", rows)
    catalan._gf_rows.cache_clear()
    try:
        for region in ("P2C1", "P2C2", "P3C1", "P3C2"):
            oracle = gf_series4(2, region=region, refined=True)
            form = closed_form("H" + region[1] + region[3])
            wv = x_slice(oracle.vars.names, 2)
            assert expand_truncated(build_crude_H(region), wv) == oracle, region
            assert not series_equal(expand_truncated(form, wv), oracle, wv).equal, region
    finally:
        catalan._gf_rows.cache_clear()


def test_eq2_matches_enumeration_small():
    oracle = gf_series4(3)
    wv = x_slice(oracle.vars.names, 3)
    series = expand_truncated(closed_form("EQ2"), wv)
    assert series_equal(series, oracle, wv).equal


def test_closed_form_series_are_symmetric():
    eq1 = expand_truncated(closed_form("EQ1"), x_slice(gf_series3(0).vars.names, 3))
    assert eq1.is_symmetric("q", "t")
    wv = x_slice(gf_series4(0).vars.names, 3)
    eq2 = expand_truncated(closed_form("EQ2"), wv)
    assert eq2.is_symmetric("q", "t")


def test_f_forms_sum_to_eq1_after_y_collapse():
    # the four refined closed forms, summed and evaluated at y2 = y3 = 1,
    # give the same series as the unrefined closed form
    refined_oracle = gf_series3(4, refined=True)
    wv = x_slice(refined_oracle.vars.names, 4)
    total = None
    for form_id in ("F11", "F12", "F21", "F22"):
        part = expand_truncated(closed_form(form_id), wv)
        total = part if total is None else total + part
    assert series_equal(total, refined_oracle, wv).equal
    collapsed = total.eval_ones(["y2", "y3"])

    # both are the exact slice of total x-degree <= 4
    eq1 = expand_truncated(closed_form("EQ1"), x_slice(gf_series3(0).vars.names, 4))
    assert collapsed == eq1


def test_expanded_path_terms_have_nonnegative_exponents():
    crude = build_crude_F("P1C2")
    crude = expand_truncated(crude, x_slice(crude.retained_names, 2))
    for exps in crude.terms:
        assert min(exps) >= 0


# ----------------------------------------------------------------------
# expand_truncated against an unpruned reference


def reference_expand(expr, wv, cap=None):
    """Every multiplicity vector whose weight fits the bound, a factor of
    weight 0 taking each multiplicity below ``cap``, with the elimination
    modes applied to the finished exponents."""
    names = expr.vars.names
    wmap = dict(zip(expr.retained_names, wv.resolve(expr.retained_names)))
    w = [wmap.get(n, 0) for n in names]
    fwt = [sum(a * b for a, b in zip(w, f)) for f in expr.factors]
    keep = [i for i, n in enumerate(names) if n not in expr.elim]
    modes = [(expr.vars.index(n), m) for n, m in expr.elim.items()]

    def vectors(j, rem):
        if j == len(fwt):
            yield ()
            return
        for n in range(rem // fwt[j] + 1 if fwt[j] else cap):
            for rest in vectors(j + 1, rem - n * fwt[j]):
                yield (n,) + rest

    terms = Counter()
    for coeff, mono in expr.numerator:
        rem = wv.bound - sum(a * b for a, b in zip(w, mono))
        if rem < 0:
            continue
        for ns in vectors(0, rem):
            exps = [e + sum(n * f[i] for n, f in zip(ns, expr.factors))
                    for i, e in enumerate(mono)]
            if all(exps[i] == 0 if m == "zero" else exps[i] >= 0 for i, m in modes):
                terms[tuple(exps[i] for i in keep)] += coeff
    return {k: c for k, c in terms.items() if c}


@pytest.mark.parametrize("section", [s for s in omega.GF_SECTIONS if " " in s])
def test_crude_expansion_matches_unpruned_reference(section):
    # on the x-slice every x-free factor (r2, r3, a, b or s, c, p) has
    # weight 0; 3N + 1 exceeds every path parameter at order N
    family, _, region = section.partition(" ")
    order = 3 if family == "F" else 2
    expr = (build_crude_F if family == "F" else build_crude_H)(region)
    wv = x_slice(expr.retained_names, order)
    assert 0 in [sum(wv.weights.get(n, 0) * e for n, e in zip(expr.vars.names, f))
                 for f in expr.factors]
    want = reference_expand(expr, wv, cap=3 * order + 1)
    paths = (gf_series3 if family == "F" else gf_series4)(order, region=region, refined=True)
    assert want == paths.terms
    assert expand_truncated(expr, wv).terms == want


def padded(build):
    """``build`` with one more numerator term, q^1000 times the base monomial."""
    def build_padded(region):
        expr = build(region)
        qi = expr.vars.index("q")
        base = expr.numerator[0][1]
        expr.numerator.append((1, tuple(e + 1000 * (i == qi) for i, e in enumerate(base))))
        return expr
    return build_padded


def test_padded_crude_form_fails_its_section(monkeypatch):
    # weight 0 on q puts the q^1000 terms on the slice, so they are compared
    monkeypatch.setattr(omega, "build_crude_F", padded(build_crude_F))
    monkeypatch.setattr(omega, "build_crude_H", padded(build_crude_H))
    for section, order in (("F P1C1", 3), ("H P2C3", 2)):
        checks = dict(check_gf_section(section, order)[0])
        diff = checks["crude_vs_closed"]
        assert not diff.equal, section
        names = closed_form(omega._SECTION_IDS[section]).vars.names
        assert diff.witness[names.index("q")] >= 1000, section
        assert checks["closed_vs_paths"].equal, section


def test_uncapped_weight_zero_factor_rejected_before_any_search():
    # m = 1 + n0 is never 0, so a search would stop at the first factor and
    # never reach the last, whose only settled variable l (coefficient +1)
    # bounds y's multiplicity from below only
    names = ("x", "y", "m", "l")
    numerator = [(1, (0, 0, 1, 0))]
    wv = WeightVector(3, {"x": 1, "y": 0})
    uncapped = geometric(names, [(1, 0, 1, 0), (0, 1, 0, 1)],
                         {"m": "zero", "l": "nonneg"}, numerator)
    with pytest.raises(ValueError, match=r"factor \{'y': 1, 'l': 1\} has nonpositive weight 0"):
        expand_truncated(uncapped, wv)
    # a negative coefficient caps it, and so does a zero variable
    for elim, c in (({"m": "zero", "l": "nonneg"}, -1), ({"m": "zero", "l": "zero"}, 1)):
        capped = geometric(names, [(1, 0, 1, 0), (0, 1, 0, c)], elim, numerator)
        assert expand_truncated(capped, wv).terms == {}
    # a negative weight is rejected even where a variable caps the factor
    negative = geometric(names, [(1, 0, 1, 0), (0, -1, 0, -1)],
                         {"m": "zero", "l": "nonneg"}, numerator)
    with pytest.raises(ValueError, match=r"factor \{'y': -1, 'l': -1\} has nonpositive weight -1"):
        expand_truncated(negative, WeightVector(3, {"x": 1, "y": 1}))


def random_expr(rng):
    """1-2 retained variables, 1-2 eliminated ones of each mode, elimination
    coefficients in -3..3 and positive factor weights, the variables of the
    table in a random order, so retained and eliminated ones interleave."""
    retained = [f"x{i}" for i in range(rng.randint(1, 2))]
    nonneg = [f"l{i}" for i in range(rng.randint(1, 2))]
    zero = [f"m{i}" for i in range(rng.randint(1, 2))]
    factors = []
    for _ in range(rng.randint(1, 4)):
        ret = [rng.randint(0, 2) for _ in retained]
        ret[rng.randrange(len(retained))] = rng.randint(1, 2)
        factors.append(ret + [rng.randint(-3, 3) for _ in nonneg + zero])
    numerator = [(rng.choice((-2, -1, 1, 3)),
                  [rng.randint(0, 1) for _ in retained]
                  + [rng.randint(-2, 2) for _ in nonneg + zero])
                 for _ in range(rng.randint(1, 3))]
    elim = {**dict.fromkeys(nonneg, "nonneg"), **dict.fromkeys(zero, "zero")}
    names = retained + nonneg + zero
    order = rng.sample(range(len(names)), len(names))
    return geometric([names[i] for i in order], [[f[i] for i in order] for f in factors],
                     elim, [(c, tuple(m[i] for i in order)) for c, m in numerator])


def test_random_expansions_match_unpruned_reference():
    rng = random.Random(20040058)
    exprs = [random_expr(rng) for _ in range(300)]
    # nothing retained, so no factor has weight: every numerator term is
    # kept or dropped whole, into the one key ()
    exprs.append(geometric(("l", "m"), [], {"l": "nonneg", "m": "zero"},
                           [(1, (0, 0)), (2, (1, 0)), (5, (-1, 0)), (3, (0, 1)), (4, (2, 0))]))
    assert reference_expand(exprs[-1], WeightVector(2)) == {(): 7}
    kinds = Counter()
    for expr in exprs[:-1]:
        eliminated = [n in expr.elim for n in expr.vars.names]
        kinds["interleaved"] += eliminated != sorted(eliminated)
        kinds["one retained"] += eliminated.count(False) == 1
    assert min(kinds.values()) >= 50, kinds
    for expr in exprs:
        wv = WeightVector(rng.randint(2, 8))
        assert expand_truncated(expr, wv).terms == reference_expand(expr, wv), expr


def random_free_expr(rng):
    """An expression with nothing to eliminate over 1-3 variables, with its
    weight vector: Laurent numerator exponents, factors whose negative
    exponents the weights outweigh, and optionally an empty numerator, no
    factors, or a term pair c*u - c*u*m that cancels against m's factor.
    Returns the expression, the weight vector and the features drawn."""
    names = [f"x{i}" for i in range(rng.randint(1, 3))]
    weights = [rng.randint(1, 2)] + [rng.randint(0, 2) for _ in names[1:]]

    def weight(mono):
        return sum(w * e for w, e in zip(weights, mono))

    factors, n_factors = [], rng.randint(0, 4)
    while len(factors) < n_factors:
        f = tuple(rng.randint(-2, 3) for _ in names)
        if weight(f) > 0:
            factors.append(f)
    numerator = [(rng.choice((-3, -1, 1, 2)), tuple(rng.randint(-2, 3) for _ in names))
                 for _ in range(rng.randint(0, 3))]
    wv = WeightVector(rng.randint(0, 8), dict(zip(names, weights)))
    features = set()
    if factors and rng.random() < 0.3:
        # u / (1 - m) - u m / (1 - m) = u: every higher term cancels
        c, u = rng.choice((-2, 1, 3)), tuple(rng.randint(-1, 2) for _ in names)
        m = rng.choice(factors)
        numerator += [(c, u), (-c, tuple(a + b for a, b in zip(u, m)))]
        features.add("cancelling terms")
    if not numerator:
        features.add("empty numerator")
    if not factors:
        features.add("no factors")
    if any(e < 0 for _, mono in numerator for e in mono):
        features.add("Laurent numerator")
    if any(weight(mono) > wv.bound for _, mono in numerator):
        features.add("term above the bound")
    if any(e < 0 for f in factors for e in f):
        features.add("negative factor exponent")
    return FactoredOmegaExpr(VarTable(names), numerator, factors), wv, features


def test_random_elimination_free_expansions_match_unpruned_reference():
    rng = random.Random(20211029)
    seen = Counter()
    for _ in range(400):
        expr, wv, features = random_free_expr(rng)
        seen.update(features)
        assert expand_truncated(expr, wv).terms == reference_expand(expr, wv), expr
    assert len(seen) == 6 and min(seen.values()) >= 20, seen


def test_zero_mode_last_coefficient_must_divide_exponent():
    # m settles at its only factor, coefficient 2: exponent -2 forces one
    # copy of x, exponent -1 admits none
    e = geometric(("x", "m"), [(1, 2)], {"m": "zero"},
                  [(1, (0, -2)), (1, (0, -1))])
    assert expand_truncated(e, WeightVector(5)).terms == {(1,): 1}


def test_nonneg_mode_negative_last_coefficient_bounds_from_above():
    # l = 3a - 2b >= 0: y's multiplicity b is bounded by 3a // 2
    e = geometric(("x", "y", "l"), [(1, 0, 3), (0, 1, -2)], {"l": "nonneg"})
    want = {(a, b): 1 for a in range(7) for b in range(7 - a) if 3 * a >= 2 * b}
    assert expand_truncated(e, WeightVector(6)).terms == want


def test_eliminated_variable_no_factor_touches_is_settled_by_numerator():
    # l (nonneg) and m (zero) appear only in the numerator: the terms with
    # l^-1 and m^1 are dropped, the term with l^1 is kept
    e = geometric(("x", "l", "m"), [(1, 0, 0)], {"l": "nonneg", "m": "zero"},
                  [(1, (0, 0, 0)), (5, (1, -1, 0)), (7, (0, 0, 1)), (2, (0, 1, 0))])
    assert expand_truncated(e, WeightVector(4)).terms == {(i,): 3 for i in range(5)}
