"""Property tests for SparsePoly producers and the truncated series tools.

Complements the seeded ring-law tests in ``test_polynomial.py``: every
operation that builds a polynomial must leave no zero coefficient, and the
comparison helpers must agree with their plain definitions.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from qtcatalan.omega import (FactoredOmegaExpr, SeriesDiff, WeightVector,  # noqa: E402
                             expand_truncated, series_equal)
from qtcatalan import polynomial  # noqa: E402
from qtcatalan.catalan import catalan_poly_k4  # noqa: E402
from qtcatalan.polynomial import SparsePoly, VarTable  # noqa: E402

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100)

NAMES = ("q", "t", "x")
V3 = VarTable(NAMES)

# zero coefficients are drawn on purpose: the constructor must drop them
polys = st.dictionaries(st.tuples(*[st.integers(-2, 3)] * 3), st.integers(-3, 3),
                        max_size=6).map(lambda d: SparsePoly(V3, d))
names = st.sampled_from(NAMES)


def assert_clean(p):
    assert type(p.terms) is dict
    assert all(c for c in p.terms.values()), p.terms
    assert all(len(e) == len(p.vars) for e in p.terms)


@SETTINGS
@given(polys, polys, names, names, st.integers(-2, 3), st.sets(names))
def test_no_producer_stores_a_zero_coefficient(a, b, u, v, k, ones):
    assert_clean(a)
    # a - a and a + (-a) cancel every term; a * (b - b) cancels all products
    for p in (a + b, a - b, -a, a * b, a - a, a + (-a), a * (b - b),
              a.swap_vars(u, v), a.coeff({u: k}), a.eval_ones(ones)):
        assert_clean(p)


# small Omega expressions over retained x, y and eliminated l (nonneg) and
# m (zero); every factor has positive retained degree, so expansion ends
_retained = st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any)
_factor = st.tuples(_retained, st.integers(-2, 2), st.integers(-1, 1)).map(
    lambda f: (*f[0], f[1], f[2]))
_mono = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-1, 2),
                  st.integers(-1, 1))
exprs = st.builds(
    lambda num, factors: FactoredOmegaExpr(VarTable(("x", "y", "l", "m")), num,
                                           factors, {"l": "nonneg", "m": "zero"}),
    st.lists(st.tuples(st.integers(-2, 2), _mono), min_size=1, max_size=4),
    st.lists(_factor, max_size=3))

# elimination-free ones over x, y, expanded by geometric division: the
# numerator may be empty, Laurent or carry zero coefficients
free_exprs = st.builds(
    lambda num, factors: FactoredOmegaExpr(VarTable(("x", "y")), num, factors),
    st.lists(st.tuples(st.integers(-2, 2),
                       st.tuples(st.integers(-1, 2), st.integers(-1, 2))), max_size=4),
    st.lists(_retained, max_size=3))


@SETTINGS
@given(st.one_of(exprs, free_exprs), st.integers(0, 5))
def test_expand_truncated_stores_no_zero_coefficient(expr, bound):
    assert_clean(expand_truncated(expr, WeightVector(bound)))


@SETTINGS
@given(polys, names, names)
def test_is_symmetric_is_equality_with_the_swap(p, u, v):
    assert p.is_symmetric(u, v) == (p.swap_vars(u, v) == p)


@SETTINGS
@given(polys, polys, st.booleans())
def test_series_equal_is_term_dict_equality(p, delta, near):
    # ``near`` makes r differ from p only by delta, so equal series occur
    r = p + delta if near else delta
    pt, rt = p.terms, r.terms
    diff = series_equal(p, r)
    assert diff.equal == (pt == rt)
    if diff.equal:
        assert diff == SeriesDiff(True)
    else:
        # the witness is the largest differing key, named in variable order
        key = max(key for key in pt.keys() | rt.keys() if pt.get(key, 0) != rt.get(key, 0))
        assert diff == SeriesDiff(False, dict(zip(NAMES, key)), pt.get(key, 0), rt.get(key, 0))
        assert list(diff.witness) == list(NAMES)


def reference_product(a, b):
    """Term dict of a * b by convolving exponent tuples, zeros dropped."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


@st.composite
def laurent_pairs(draw, max_size=8, low=-3, high=4, coeffs=st.integers(-3, 3)):
    """Two polynomials over the same table of 0 to 4 variables."""
    vars = VarTable(("q", "t", "x", "y")[:draw(st.integers(0, 4))])
    terms = st.dictionaries(st.tuples(*[st.integers(low, high)] * len(vars)),
                            coeffs, max_size=max_size)
    return SparsePoly(vars, draw(terms)), SparsePoly(vars, draw(terms))


# pairs whose few exponents make most products dense (see the rule in
# SparsePoly.__mul__), with coefficients past 2**64 of either sign
dense_pairs = laurent_pairs(max_size=12, low=-1, high=1,
                            coeffs=st.integers(-3, 3) | st.integers(-2**70, 2**70))


@SETTINGS
@given(laurent_pairs() | dense_pairs, st.integers(-3, 3))
def test_product_is_the_tuple_convolution(pair, k):
    a, b = pair
    zero = SparsePoly.zero(a.vars)
    # (a + b) * (a - b) cancels the cross terms a*b - b*a
    for x, y in ((a, b), (b, a), (a, zero), (zero, b), (a + b, a - b)):
        p = x * y
        assert_clean(p)
        assert p.terms == reference_product(x.terms, y.terms)
    assert (a + b) * (a - b) == a * a - b * b
    const = {(0,) * len(a.vars): k} if k else {}
    assert (a * k).terms == (k * a).terms == reference_product(a.terms, const)
    # an int on the left of a difference, as in a factor 1 - q
    assert_clean(k - a)
    assert (k - a).terms == ((-1) * a + k).terms == (-(a - k)).terms


QT = VarTable(("q", "t"))
X = VarTable(("x",))
BIG = 2**64 + 5
M = 10**6


@pytest.mark.parametrize("x, y, dense", [
    # spans of 2 * 10**6 in q and in t: 4 * 10**12 slots for 9 term pairs
    (SparsePoly(QT, {(M, 0): 1, (0, M): 2, (0, 0): 3}),
     SparsePoly(QT, {(M, 0): BIG, (0, M): -BIG, (0, 0): 1}), False),
    # one variable spanning 10**6 with two terms: the pair loop again
    (SparsePoly(X, {(M,): 1, (0,): 1}), SparsePoly(X, {(M,): -1, (0,): 1}), False),
    # the rule's edge, slots L = 4 and 5 for 2 * 2 term pairs
    (SparsePoly(X, {(2,): 1, (0,): 1}), SparsePoly(X, {(1,): 1, (0,): 1}), True),
    (SparsePoly(X, {(3,): 1, (0,): 1}), SparsePoly(X, {(1,): 1, (0,): 1}), False),
    # 2**14 (1 + x)**2: its x coefficient is the bound 2 * 128 * 128 = 2**15,
    # which takes a third byte for the sign
    (SparsePoly(X, {(1,): 128, (0,): 128}), SparsePoly(X, {(1,): 128, (0,): 128}), True),
    # BIG**2 (1 - q**2), past 2**128: the q terms -BIG**2 and +BIG**2 cancel
    (SparsePoly(QT, {(0, 0): BIG, (1, 0): BIG}),
     SparsePoly(QT, {(0, 0): BIG, (1, 0): -BIG}), True),
    # Laurent exponents; the three constant terms cancel
    (SparsePoly(QT, {(-1, 0): BIG, (0, -1): -BIG, (-1, -1): 7}),
     SparsePoly(QT, {(1, 0): BIG, (0, 1): BIG - 7, (1, 1): -BIG}), True),
    # no variables at all: one slot
    (SparsePoly(VarTable(()), {(): -BIG}), SparsePoly(VarTable(()), {(): BIG}), True),
], ids=("span_qt", "span_x", "edge_dense", "edge_pairs", "sign_byte", "big_cancel",
        "laurent", "no_vars"))
def test_product_takes_the_side_of_the_dense_rule(monkeypatch, x, y, dense):
    calls = []
    real = polynomial._dense_product
    monkeypatch.setattr(polynomial, "_dense_product",
                        lambda *args: calls.append(args) or real(*args))
    for p, want in ((x * y, reference_product(x.terms, y.terms)),
                    (y * x, reference_product(y.terms, x.terms))):
        assert_clean(p)
        assert p.terms == want
    assert len(calls) == (2 if dense else 0)


def test_k4_product_is_the_tuple_convolution():
    # dense: 17,689 slots of 3 bytes for 1,213 * 851 term pairs; each operand
    # is an integer of over 20,000 bytes, far past the Karatsuba cutoff of
    # CPython's integer product (70 digits of 30 bits)
    a, b = catalan_poly_k4(12), catalan_poly_k4(10)
    assert (a * b).terms == (b * a).terms == reference_product(a.terms, b.terms)


@SETTINGS
@given(laurent_pairs(max_size=5), st.integers(0, 4))
def test_power_is_repeated_multiplication(pair, n):
    a = pair[0]
    want = {(0,) * len(a.vars): 1}
    for _ in range(n):
        want = reference_product(want, a.terms)
    p = a ** n
    assert_clean(p)
    assert p.terms == want
