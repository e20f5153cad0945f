"""Truncated polynomial arithmetic, weighted order, parser round trips."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitney.errors import ParseError, VariableMismatchError
from whitney.ring import (INF, P, Q, R, SOURCE, TruncatedPoly,
                          monomials_upto, parse_expression)

SRC3 = (SOURCE, SOURCE, SOURCE)
DARBOUX1 = (P, Q, R)


def poly3(text, cap=8):
    return parse_expression(text, ["x1", "x2", "x3"], cap, SRC3)


def darboux(text, cap=8):
    return parse_expression(text, ["p1", "q1", "r"], cap, DARBOUX1)


# -- basic arithmetic ---------------------------------------------------------------


def test_product_low_degree():
    x1 = TruncatedPoly.var(0, 3, 3, SRC3[:3])
    x2 = TruncatedPoly.var(1, 3, 3, SRC3[:3])
    assert (x1 * x2).terms == {(1, 1, 0): Fraction(1)}


def test_monomial_composition():
    # substitute x1 <- t^2 into x1^2 at cap 4
    sq = parse_expression("x1^2", ["x1"], 4, (SOURCE,))
    t2 = parse_expression("t^2", ["t"], 4, (SOURCE,))
    assert sq.substitute([t2]).terms == {(4,): Fraction(1)}


def test_truncation_annihilates():
    cap = 5
    x2 = TruncatedPoly.var(1, 3, cap, SRC3)
    assert ((x2 ** cap) * x2).is_zero()


def test_arithmetic_caps():
    a = poly3("x1 + x2", cap=6)
    b = poly3("x3", cap=4)
    assert (a + b).cap == 4
    assert (a * b).cap == 4
    assert a.partial(0).cap == 5
    assert a.integral(0).cap == 7


def test_substitute_rejects_constant_term():
    h = poly3("x1", 4)
    one = poly3("1 + x1", 4)
    with pytest.raises(VariableMismatchError):
        h.substitute([one, poly3("x2", 4), poly3("x3", 4)])


def test_inverse_of_unit():
    u = poly3("1 + x1 + 2*x2", 6)
    prod = u * u.inverse()
    assert prod.same_jet(poly3("1", 6))
    with pytest.raises(ZeroDivisionError):
        poly3("x1", 6).inverse()


# -- ring axioms on random inputs ------------------------------------------------------


coeffs = st.integers(-4, 4).map(Fraction)


@st.composite
def random_poly(draw, nvars=3, cap=8, maxdeg=4):
    monos = monomials_upto(nvars, maxdeg)
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        m = draw(st.sampled_from(monos))
        c = draw(coeffs)
        if c:
            terms[m] = c
    return TruncatedPoly(nvars, cap, (SOURCE,) * nvars, terms)


@given(random_poly(), random_poly(), random_poly())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert ((a * b) * c).same_jet(a * (b * c))
    assert (a * (b + c)).same_jet(a * b + a * c)
    assert (a * b).same_jet(b * a)
    assert (a + b).same_jet(b + a)


@given(random_poly(), random_poly())
@settings(max_examples=40, deadline=None)
def test_derivative_is_a_derivation(a, b):
    lhs = (a * b).partial(0)
    rhs = a.partial(0) * b + a * b.partial(0)
    assert lhs.same_jet(rhs)


# -- calculus inverse pair --------------------------------------------------------------


def test_integral_examples():
    t = parse_expression("x2", ["x1", "x2"], 4, (SOURCE, SOURCE))
    sq = t * t
    assert sq.integral(1).terms == {(0, 3): Fraction(1, 3)}
    x1x2 = parse_expression("x1*x2", ["x1", "x2"], 4, (SOURCE, SOURCE))
    assert x1x2.integral(1).terms == {(1, 2): Fraction(1, 2)}
    zero = TruncatedPoly.zero(2, 4, (SOURCE, SOURCE))
    assert zero.integral(0).is_zero()


def test_derivative_examples():
    cube = parse_expression("1/3*x2^3", ["x1", "x2"], 5, (SOURCE, SOURCE))
    assert cube.partial(1).terms == {(0, 2): Fraction(1)}
    x1x2 = parse_expression("x1*x2", ["x1", "x2"], 5, (SOURCE, SOURCE))
    assert x1x2.partial(0).terms == {(0, 1): Fraction(1)}
    const = parse_expression("7", ["x1", "x2"], 5, (SOURCE, SOURCE))
    assert const.partial(0).is_zero()


@given(random_poly(nvars=2))
@settings(max_examples=40, deadline=None)
def test_integral_then_derivative_is_identity(a):
    assert a.integral(0).partial(0).same_jet(a)


@given(random_poly(nvars=2))
@settings(max_examples=40, deadline=None)
def test_derivative_then_integral(a):
    # identity on polynomials with zero constant term in the variable
    recovered = a.partial(0).integral(0)
    killed = a.set_vars_zero([0])
    assert (recovered + killed).same_jet(a.truncate(a.cap - 1))


# -- weighted order -----------------------------------------------------------------------


def test_weighted_order_values():
    assert darboux("r").weighted_order() == 2
    assert darboux("1").weighted_order() == 0
    assert darboux("p1*q1 + r^2").weighted_order() == 2
    assert darboux("0").weighted_order() == INF
    assert darboux("p1*q1 + r^2").scale(Fraction(7, 3)).weighted_order() == 2


def test_weighted_order_needs_darboux_tags():
    with pytest.raises(VariableMismatchError):
        poly3("x1").weighted_order()


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2),
       st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_weighted_order_of_product(a1, b1, c1, a2, b2, c2):
    cap = 20
    m1 = TruncatedPoly(3, cap, DARBOUX1, {(a1, b1, c1): Fraction(1)})
    m2 = TruncatedPoly(3, cap, DARBOUX1, {(a2, b2, c2): Fraction(2)})
    prod = m1 * m2
    # equality for monomials
    assert prod.weighted_order() == m1.weighted_order() + m2.weighted_order()


def test_weighted_vs_plain_filtration():
    # weighted order 2k forces plain order >= k, and plain order k forces
    # weighted order >= k, on monomial generators up to degree 6
    for mono in monomials_upto(3, 6):
        m = TruncatedPoly(3, 7, DARBOUX1, {mono: Fraction(1)})
        w = m.weighted_order()
        d = m.order()
        assert w >= d            # m_W^(r): weight dominates degree
        assert w <= 2 * d        # m_W^(2r) inside m_W^r


# -- parser and printer ---------------------------------------------------------------------


def test_parse_rational_literals():
    h = darboux("5/2*p1^3 - 3*q1 + 1/3")
    assert h.coefficient((3, 0, 0)) == Fraction(5, 2)
    assert h.coefficient((0, 1, 0)) == Fraction(-3)
    assert h.coefficient((0, 0, 0)) == Fraction(1, 3)


def test_parse_parentheses_and_unary_minus():
    h = darboux("-(p1 - q1)*(p1 + q1)")
    assert h.same_jet(darboux("q1^2 - p1^2"))


def test_parse_errors():
    with pytest.raises(ParseError):
        darboux("p1 +")
    with pytest.raises(ParseError):
        darboux("bogus")
    with pytest.raises(ParseError):
        darboux("(p1")
    with pytest.raises(ParseError):
        darboux("1/0")


def test_parse_deep_nesting_is_parse_error():
    depth = 3000
    with pytest.raises(ParseError, match="nested too deeply"):
        darboux("(" * depth + "p1" + ")" * depth)
    # moderate nesting still parses
    assert darboux("(" * 50 + "p1" + ")" * 50).same_jet(darboux("p1"))


def test_power_of_one_term_matches_generic_power():
    # a single term is raised in one step; the result is the generic
    # TruncatedPoly.__pow__ of the parsed base, zero above the cap included
    cases = ("x1", "(-2/3*x2)", "(x1*x3)", "(-x1^2*x2)", "5/2", "(1/2*x3)")
    for base in cases:
        for k in (0, 1, 2, 3, 4, 5, 9):
            assert poly3(f"{base}^{k}") == poly3(base) ** k, (base, k)
    assert poly3("x1^0") == poly3("1")
    assert poly3("x1^9").is_zero() and poly3("(2*x1*x2)^5").is_zero()
    assert poly3("x1^2^3") == poly3("x1^6")
    assert poly3("(x1 + x2)^3") == poly3("x1 + x2") ** 3


def test_huge_power_of_one_term_is_zero_at_once():
    start = time.perf_counter()
    assert poly3("x1^999999999").is_zero()
    assert poly3("7*(x2)^999999999 + x3").same_jet(poly3("x3"))
    assert time.perf_counter() - start < 0.5



def test_power_past_the_literal_limit_is_refused_at_once():
    # each of these powers has a coefficient longer than any literal int()
    # reads by default (4,300 digits): refused before it is built
    start = time.perf_counter()
    for text in ("3^10000000*x1", "3^4000^4000*x1", "(2+x1)^1000000"):
        with pytest.raises(ParseError):
            poly3(text)
    assert time.perf_counter() - start < 0.5
    # a base whose coefficients are all +-1 is not bounded this way
    assert poly3("(1+x1)^1000000000").coefficient((1, 0, 0)) == 1000000000

@given(random_poly(nvars=3, maxdeg=5))
@settings(max_examples=60, deadline=None)
def test_render_parse_round_trip(a):
    names = ["x1", "x2", "x3"]
    text = a.render(names)
    back = parse_expression(text, names, a.cap, SRC3)
    assert back == a


def test_render_canonical_order():
    h = poly3("x2 + x1 + x1^2")
    assert h.render(["x1", "x2", "x3"]) == "x1 + x2 + x1^2"
