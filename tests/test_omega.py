import gc
import random
from collections import Counter

import pytest

from qtcatalan import catalan, dyck, omega
from qtcatalan.catalan import (F_REGIONS, H_REGIONS, gf_series3, gf_series4,
                               refined_poly3)
from qtcatalan.dyck import KVec3
from qtcatalan.omega import (CLOSED_FORM_IDS, F_BASE_WEIGHTS, H_BASE_WEIGHTS,
                             FactoredOmegaExpr, WeightVector, build_crude_F,
                             build_crude_H, check_gf_section, closed_form,
                             expand_truncated, series_equal, slice_term_bound,
                             slice_weight_vector, truncate_weighted)
from qtcatalan.polynomial import SparsePoly, VarTable

X3 = ("x1", "x2", "x3")


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
    oracle = gf_series3(3, region="P1C1", refined=True)
    wv = slice_weight_vector(oracle, X3, F_BASE_WEIGHTS, 3)
    forms = (build_crude_F("P1C1"), closed_form("F11"))
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
    oracle = gf_series3(1)
    with pytest.raises(ValueError, match="nonnegative integer"):
        slice_weight_vector(oracle, X3, {"q": 1, "t": 1}, 2.5)


def reference_slice_weight_vector(oracle, x_names, base, max_x_total, min_m=0):
    """slice_weight_vector by its definition: M is the largest base-weighted
    non-x degree of an oracle term, and at least min_m."""
    m = min_m
    for exps in oracle.terms:
        m = max(m, sum(base.get(n, 1) * e for n, e in zip(oracle.vars.names, exps)
                       if n not in x_names))
    return WeightVector(max_x_total * (m + 1) + m, {**base, **dict.fromkeys(x_names, m + 1)})


@pytest.mark.parametrize("section", omega.GF_SECTIONS)
def test_slice_weight_vector_matches_its_definition(section):
    family, _, region = section.partition(" ")
    three = family in ("F", "EQ1")
    x_names = X3 if three else ("x",)
    base = (F_BASE_WEIGHTS if three else H_BASE_WEIGHTS) if region else {"q": 1, "t": 1}
    oracle = (gf_series3 if three else gf_series4)(4, region=region or None,
                                                    refined=bool(region))
    empty = SparsePoly(oracle.vars, {})
    for poly in (oracle, empty):
        for min_m in (0, 3, slice_term_bound(closed_form(omega._SECTION_IDS[section]),
                                             x_names, base, 4)):
            assert (slice_weight_vector(poly, x_names, base, 4, min_m)
                    == reference_slice_weight_vector(poly, x_names, base, 4, min_m))
    # M = -1 on an empty oracle gives the bound -1
    with pytest.raises(ValueError, match="nonnegative integer, got -1"):
        slice_weight_vector(empty, x_names, base, 4, min_m=-1)


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
            # negative control: one factor exponent (q, weight 1) moved
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
    oracle = gf_series3(3)
    wv = slice_weight_vector(oracle, X3, {"q": 1, "t": 1}, 3)
    series = expand_truncated(closed_form("EQ1"), wv)
    assert series.constant_value() == 1
    for m in range(4):
        col = series.coeff({"q": 0, "t": 0, "x1": 0, "x2": 0, "x3": m})
        assert col.constant_value() == 1


def test_eq1_coefficient_is_catalan_poly():
    oracle = gf_series3(3)
    wv = slice_weight_vector(oracle, X3, {"q": 1, "t": 1}, 3)
    series = expand_truncated(closed_form("EQ1"), wv)
    from qtcatalan.catalan import catalan_poly3
    assert series.coeff({"x1": 1, "x2": 1, "x3": 1}) == catalan_poly3(KVec3(1, 1, 1))


def test_f11_coefficient_matches_filtered_refined_poly():
    oracle = gf_series3(3, region="P1C1", refined=True)
    wv = slice_weight_vector(oracle, X3, F_BASE_WEIGHTS, 3)
    series = expand_truncated(closed_form("F11"), wv)
    got = series.coeff({"x1": 2, "x2": 1, "x3": 0})
    want = refined_poly3(KVec3(2, 1, 0), "P1C1")
    assert got.vars == want.vars and got == want


@pytest.mark.parametrize("region", F_REGIONS)
def test_crude_f_equals_closed_and_enumeration(region):
    oracle = gf_series3(3, region=region, refined=True)
    wv = slice_weight_vector(oracle, X3, F_BASE_WEIGHTS, 3)
    crude = expand_truncated(build_crude_F(region), wv)
    closed = expand_truncated(closed_form("F" + region[1] + region[3]), wv)
    assert series_equal(crude, closed, wv).equal
    assert series_equal(closed, oracle, wv).equal


@pytest.mark.parametrize("region", H_REGIONS)
def test_crude_h_equals_closed_and_enumeration(region):
    oracle = gf_series4(2, region=region, refined=True)
    wv = slice_weight_vector(oracle, ("x",), H_BASE_WEIGHTS, 2)
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
    rebuilt = dyck._compile("_bounce4", "k, a, b, c", *dyck._lowered(
        "k, a, b, c", "Path4", dyck._H_PART_CUTS, dyck._H_PARTS))
    monkeypatch.setattr(catalan, "_bounce4", rebuilt)
    catalan._gf_rows.cache_clear()
    try:
        for region in ("P2C1", "P2C2", "P3C1", "P3C2"):
            oracle = gf_series4(2, region=region, refined=True)
            form = closed_form("H" + region[1] + region[3])
            bound = slice_term_bound(form, ("x",), H_BASE_WEIGHTS, 2)
            wv = slice_weight_vector(oracle, ("x",), H_BASE_WEIGHTS, 2, min_m=bound)
            assert expand_truncated(build_crude_H(region), wv) == oracle, region
            assert not series_equal(expand_truncated(form, wv), oracle, wv).equal, region
    finally:
        catalan._gf_rows.cache_clear()


def test_eq2_matches_enumeration_small():
    oracle = gf_series4(3)
    wv = slice_weight_vector(oracle, ("x",), {"q": 1, "t": 1}, 3)
    series = expand_truncated(closed_form("EQ2"), wv)
    assert series_equal(series, oracle, wv).equal


def test_closed_form_series_are_symmetric():
    oracle = gf_series3(3)
    wv = slice_weight_vector(oracle, X3, {"q": 1, "t": 1}, 3)
    eq1 = expand_truncated(closed_form("EQ1"), wv)
    assert eq1.is_symmetric("q", "t")
    oracle = gf_series4(3)
    wv = slice_weight_vector(oracle, ("x",), {"q": 1, "t": 1}, 3)
    eq2 = expand_truncated(closed_form("EQ2"), wv)
    assert eq2.is_symmetric("q", "t")


def test_slice_term_bound_covers_expansion():
    base = {"q": 1, "t": 1}
    form = closed_form("EQ2")
    bound = slice_term_bound(form, ("x",), base, 3)
    oracle = gf_series4(3)
    wv = slice_weight_vector(oracle, ("x",), base, 3, min_m=bound)
    series = expand_truncated(form, wv)
    xi = series.vars.index("x")
    qi, ti = series.vars.index("q"), series.vars.index("t")
    for exps in series.terms:
        if exps[xi] <= 3:
            assert exps[qi] + exps[ti] <= bound
    # the bound dominates whatever the oracle carries
    assert bound >= max(e[0] + e[1] for e in oracle.terms)


def test_slice_term_bound_needs_x_in_every_factor():
    crude = build_crude_F("P1C1")  # r2/r3 factors carry no x variable
    with pytest.raises(ValueError, match="without x content"):
        slice_term_bound(crude, X3, F_BASE_WEIGHTS, 3)


def test_f_forms_sum_to_eq1_after_y_collapse():
    # the four refined closed forms, summed and evaluated at y2 = y3 = 1,
    # give the same series as the unrefined closed form
    refined_oracle = gf_series3(4, refined=True)
    wv = slice_weight_vector(refined_oracle, X3, F_BASE_WEIGHTS, 4)
    total = None
    for form_id in ("F11", "F12", "F21", "F22"):
        part = expand_truncated(closed_form(form_id), wv)
        total = part if total is None else total + part
    assert series_equal(total, refined_oracle, wv).equal
    collapsed = total.eval_ones(["y2", "y3"])

    plain_oracle = gf_series3(4)
    wv1 = slice_weight_vector(plain_oracle, X3, {"q": 1, "t": 1}, 4)
    eq1 = expand_truncated(closed_form("EQ1"), wv1)
    # compare on the shared slice: both are exact for total x-degree <= 4
    xi = [collapsed.vars.index(x) for x in X3]
    slice_of = lambda p: {e: c for e, c in p.terms.items()
                          if sum(e[i] for i in xi) <= 4}
    assert slice_of(collapsed) == slice_of(eq1)


def test_expanded_path_terms_have_nonnegative_exponents():
    oracle = gf_series3(2, region="P1C2", refined=True)
    wv = slice_weight_vector(oracle, X3, F_BASE_WEIGHTS, 2)
    crude = expand_truncated(build_crude_F("P1C2"), wv)
    for exps in crude.terms:
        assert min(exps) >= 0


# ----------------------------------------------------------------------
# expand_truncated against an unpruned reference


def reference_expand(expr, wv):
    """Every multiplicity vector whose weight fits the bound, with the
    elimination modes applied to the finished exponents."""
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
        for n in range(rem // fwt[j] + 1):
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
    # the smallest bounds at which every region of the family has a term
    family, _, region = section.partition(" ")
    if family == "F":
        expr, wv = build_crude_F(region), WeightVector(16, F_BASE_WEIGHTS)
    else:
        expr, wv = build_crude_H(region), WeightVector(20, H_BASE_WEIGHTS)
    want = reference_expand(expr, wv)
    assert want
    assert expand_truncated(expr, wv).terms == want


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
