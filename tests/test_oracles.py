"""Cross-checks of the jet solvers against the independent brute-force
implementations in oracles.py (separately coded, no shared solver)."""

import random
from fractions import Fraction

import pytest

from whitney.deformations import deformation_slice, rf_truncated
from whitney.forms import source_chart
from whitney.integral_maps import IntegralMap, complete_from_uv, owu_normal_form
from whitney.ring import TruncatedPoly, monomials_upto
from whitney.stability import (_fiber_generation_at, _inclusion_order_at,
                               check_contact_stability, check_legendre_stability,
                               compute_conclusive_order, fiber_quotient,
                               local_multiplicity)

import oracles
import span_oracle

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


def legendre_swapped(f, i):
    """f with its i-th Darboux pair swapped, (p_i, q_i, r) -> (-q_i, p_i,
    r - p_i q_i), which keeps dr - sum p dq: for a normal form p_i = -x_i."""
    comps = list(f.components)
    p, q = comps[i], comps[f.n + i]
    comps[i], comps[f.n + i], comps[2 * f.n] = -q, p, comps[2 * f.n] - p * q
    return IntegralMap(f.n, comps, params=f.params, source=f.source,
                       provenance=f"{f.provenance} swapped {i + 1}")


def seeded_uv_germs(count, seed, params=(), cap=6):
    """Graph-data completions for n = 1, 2 with random terms of degree 2..3
    in every source variable, parameters included; v is a multiple of x_n,
    so the boundary compatibility holds."""
    rng = random.Random(seed)
    for index in range(count):
        n = 1 + index % 2
        ch = source_chart(n, params)
        xn = ch.var(n - 1, cap)

        def poly(lo, hi):
            monos = [m for m in monomials_upto(ch.dim, hi) if sum(m) >= lo]
            return TruncatedPoly(ch.dim, cap, ch.kinds, {
                m: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                for m in rng.sample(monos, min(3, len(monos)))})
        yield complete_from_uv(n, xn ** 2 + poly(2, 3), xn * (xn ** 2 + poly(1, 2)),
                               params=params, source=ch, provenance="seeded")


def test_rf_dimension_matches_oracle_off_the_corpus():
    # the closed form against the escalated dense chain-rule system: seeded
    # completions with and without a passive parameter, and normal forms
    # with a swapped Darboux pair (coordinate form through a p-component)
    cases = [(f, r) for f in seeded_uv_germs(6, 2029) for r in (2, 3, 4)]
    cases += [(f, r) for f in seeded_uv_germs(4, 2030, params=("lam",)) for r in (2, 3)]
    for n, k in ((1, 0), (2, 0), (2, 1), (3, 1)):
        f = owu_normal_form(n, k, cap=5)
        cases += [(legendre_swapped(f, i), r) for i in {0, n - 1} for r in (2, 3)]
    for f, r in cases:
        dim, _ = oracles.oracle_rf_dim(bare_components(f), f.n, f.source.dim,
                                       r, f.cap - 1)
        assert rf_truncated(f, r).dim == dim, (f.provenance, r)


def not_generated_germ():
    """complete_from_uv(2, x2^3, x2^2) at cap 7: from degree 4 on, its fiber
    quotient (dim 3) is not generated by 1 and the p-components."""
    ch = source_chart(2)
    x2 = ch.var(1, 7)
    return complete_from_uv(2, x2 ** 3, x2 ** 2, source=ch)


@pytest.mark.parametrize("name", sorted(ORACLE_ORDERS) + ["not_generated"])
def test_fiber_quotient_matches_oracle(germ_corpus, name):
    f = not_generated_germ() if name == "not_generated" else germ_corpus[name]
    oracle = {}
    for degree in range(1, f.cap + 1):
        oracle[degree] = oracles.oracle_fiber_quotient(
            bare_components(f), f.n, f.source.dim, degree)
    for degree in range(2, f.cap + 1):
        # one echelon at each degree gives the quotient there and one below
        for at, (algebra_dim, denominator_dim, generated) in zip(
                (degree - 1, degree), _fiber_generation_at(f, degree)):
            assert (algebra_dim - denominator_dim, generated) == oracle[at], \
                (name, degree, at)
    lib = fiber_quotient(f)
    assert (lib.dim, lib.generated) == oracle[f.cap], name
    # stabilization flag also covers the multiplicity check, so it can only
    # be stricter than bare dimension agreement
    if lib.stabilized:
        assert oracle[f.cap - 1] == oracle[f.cap], name
    if name == "not_generated":
        assert (lib.dim, lib.generated) == (3, False)


def dense_colength(f, degree):
    """dim of the source jets of degree <= ``degree`` modulo the truncated
    ideal of the components, with the oracle's arithmetic and echelon."""
    mlist = oracles.monos(f.source.dim, degree)
    mpos = {m: i for i, m in enumerate(mlist)}
    rows = []
    for comp in bare_components(f):
        for m in mlist:
            prod = oracles.pmul({m: Fraction(1)}, comp, degree)
            if prod:
                rows.append({mpos[mu]: c for mu, c in prod.items()})
    return len(mlist) - oracles.span_dim(rows)


@pytest.mark.parametrize("name", sorted(ORACLE_ORDERS))
def test_local_multiplicity_matches_dense_colength(germ_corpus, name):
    f = germ_corpus[name]
    colength = {d: dense_colength(f, d) for d in range(1, f.cap + 1)}
    for degree in range(2, f.cap + 1):
        assert local_multiplicity(f, degree) == (
            colength[degree], colength[degree - 1] == colength[degree]), \
            (name, degree)


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


# -- generator spans ----------------------------------------------------------------


def lifted_cusp(a, k):
    """The lifted (a, k)-cusp p = (k/a) t^(k-a), q = t^a, r = t^k."""
    ch = source_chart(1, names=["t"])
    t = ch.var(0, k + 1)
    return IntegralMap(1, [t ** (k - a) * Fraction(k, a), t ** a, t ** k],
                       source=ch, provenance=f"cusp({a},{k})")


def seeded_graph_germs(count, seed, cap=7):
    """n = 2 graph-data germs without the x1*x2 term of v; they fail at
    order 3."""
    rng = random.Random(seed)
    ch = source_chart(2)
    x1, x2 = ch.var(0, cap), ch.var(1, cap)

    def c():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    out = []
    for _ in range(count):
        u = x2 ** 2 * Fraction(rng.randint(1, 3), rng.randint(1, 3)) + x1 * x2 ** 2 * c()
        v = x2 ** 3 * Fraction(rng.randint(1, 3), rng.randint(1, 4)) + x1 ** 2 * x2 * c()
        out.append(complete_from_uv(2, u + x1 ** 2 * x2 * c(), v + x2 ** 4 * c(),
                                    source=ch, provenance="seeded"))
    return out


def test_generator_spans_match_span_oracle(germ_corpus):
    # pushforward, Hamiltonian and combined span dims of both checks against
    # spans of every unpruned monomial Hamiltonian field
    ch = source_chart(2)
    x1, x2 = ch.var(0, 8), ch.var(1, 8)
    split = complete_from_uv(2, x2 ** 3 * Fraction(1, 6) + x1 * x2, x2 ** 2,
                             source=ch, provenance="split")
    cases = [(germ_corpus[name], min(order, 4)) for name, order in ORACLE_ORDERS.items()
             if name != "f_4_2"]
    cases += [(germ_corpus["f_4_2"], 1), (split, 4), (split, 5)]
    cases += [(lifted_cusp(a, k), r) for a, k, r in ((2, 9, 5), (3, 10, 6), (2, 7, 5))]
    cases += [(f, 3) for f in seeded_graph_germs(4, 2026)]
    verdicts = set()
    for f, r in cases:
        comps = bare_components(f)
        for legendre, check in ((False, check_contact_stability),
                                (True, check_legendre_stability)):
            report = check(f, r)
            verdicts.add(report.verdict)
            got = tuple(report.dims[key] for key in
                        ("pushforward_span", "hamiltonian_span", "combined_span"))
            want = span_oracle.generator_dims(comps, f.n, f.source.dim, r, legendre)
            assert got == want, (f.provenance, r, legendre)
    assert verdicts == {"pass", "fail"}
