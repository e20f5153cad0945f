"""Cross-checks of the jet solvers against the independent brute-force
implementations in oracles.py (separately coded, no shared solver)."""

import random
from fractions import Fraction

import pytest

from whitney.deformations import deformation_slice, rf_truncated
from whitney.integral_maps import complete_from_uv, owu_normal_form
from whitney.ring import TruncatedPoly, monomials_upto
from whitney.stability import (_inclusion_order_at, compute_conclusive_order,
                               fiber_quotient)

import oracles

# per-germ jet orders keeping the dense oracle runs fast; all <= 5
ORACLE_ORDERS = {
    "cusp23_lift": 5,
    "cusp25_lift": 5,
    "f_1_0": 5,
    "f_2_0": 4,
    "f_2_1": 4,
    "five_space": 4,
    "f_3_1": 3,
    "f_4_2": 2,
}


def bare_components(f):
    return [dict(c.terms) for c in f.components]


@pytest.mark.parametrize("name", sorted(ORACLE_ORDERS))
def test_vi_dimension_matches_oracle(germ_corpus, name):
    f = germ_corpus[name]
    order = ORACLE_ORDERS[name]
    max_working = min(f.cap - 1, order + 4)
    lib = deformation_slice(f, order, max_working_order=max_working)
    dim, stab = oracles.oracle_vi_dim(bare_components(f), f.n, f.source.dim,
                                      order, max_working)
    assert (lib.dim, lib.stabilized) == (dim, stab), name


@pytest.mark.parametrize("name", sorted(ORACLE_ORDERS))
def test_rf_dimension_matches_oracle(germ_corpus, name):
    f = germ_corpus[name]
    order = ORACLE_ORDERS[name]
    lib = rf_truncated(f, order)
    dim, _ = oracles.oracle_rf_dim(bare_components(f), f.n, f.source.dim,
                                   order, f.cap - 1)
    assert lib.dim == dim, name


@pytest.mark.parametrize("name", sorted(ORACLE_ORDERS))
def test_fiber_quotient_matches_oracle(germ_corpus, name):
    f = germ_corpus[name]
    lib = fiber_quotient(f)
    dims = []
    gens = []
    for degree in (f.cap - 1, f.cap):
        dim, gen = oracles.oracle_fiber_quotient(
            bare_components(f), f.n, f.source.dim, degree)
        dims.append(dim)
        gens.append(gen)
    assert lib.dim == dims[1], name
    assert lib.generated == gens[1], name
    # stabilization flag also covers the multiplicity check, so it can only
    # be stricter than bare dimension agreement
    if lib.stabilized:
        assert dims[0] == dims[1] and gens[0] == gens[1], name


@pytest.mark.parametrize("name", sorted(ORACLE_ORDERS))
def test_conclusive_order_matches_oracle(germ_corpus, name):
    f = germ_corpus[name]
    search_cap = 5
    lib = compute_conclusive_order(f, search_cap=search_cap)
    low = oracles.oracle_conclusive_order(bare_components(f), f.n,
                                          f.source.dim, f.cap - 1, search_cap)
    high = oracles.oracle_conclusive_order(bare_components(f), f.n,
                                           f.source.dim, f.cap, search_cap)
    oracle_value = low if (low is not None and low == high) else None
    assert lib.value == oracle_value, name


def assert_conclusive_order_matches_oracle(f, search_cap=None):
    """Both working degrees and the stabilized value, against the oracle."""
    lib = compute_conclusive_order(f, search_cap=search_cap)
    low, high = (oracles.oracle_conclusive_order(bare_components(f), f.n,
                                                 f.source.dim, degree,
                                                 lib.search_cap)
                 for degree in (lib.degree, lib.degree + 1))
    assert _inclusion_order_at(f, lib.degree, lib.search_cap) == low
    assert _inclusion_order_at(f, lib.degree + 1, lib.search_cap) == high
    oracle_value = low if (low is not None and low == high) else None
    assert lib.value == oracle_value
    assert lib.stable == (oracle_value is not None)


# (n, k, cap, search cap); search cap 8 cuts off the value 9 of f_3_1
NORMAL_FORM_ORDERS = [(3, 1, cap, None) for cap in (10, 11, 12, 13)] + [
    (4, 2, cap, None) for cap in (10, 11, 12, 13)] + [(3, 1, 12, 8)]


@pytest.mark.parametrize("n,k,cap,search_cap", NORMAL_FORM_ORDERS)
def test_conclusive_order_normal_forms_match_oracle(n, k, cap, search_cap):
    assert_conclusive_order_matches_oracle(owu_normal_form(n, k, cap=cap),
                                           search_cap)


def perturbed_germs(k, count, seed):
    """Re-completed degree->=3 perturbations of the graph data of f_2_k."""
    rng = random.Random(seed)
    base = owu_normal_form(2, k, cap=10)
    ch = base.source
    monos = [m for m in monomials_upto(2, 5) if sum(m) >= 3]
    for _ in range(count):
        du = {m: Fraction(rng.randint(-2, 2)) for m in rng.sample(monos, 3)}
        dv = {(m[0], m[1] + 1): Fraction(rng.randint(-2, 2))
              for m in rng.sample(monos, 3)}
        yield complete_from_uv(
            2, base.q_component(1) + TruncatedPoly(2, base.cap, ch.kinds, du),
            base.p_component(1) + TruncatedPoly(2, base.cap, ch.kinds, dv),
            source=ch)


@pytest.mark.parametrize("k", [0, 1])
def test_conclusive_order_perturbations_match_oracle(k):
    for g in perturbed_germs(k, count=3, seed=20 + k):
        assert_conclusive_order_matches_oracle(g)
