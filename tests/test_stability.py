"""Stability verdicts, fiber generation, conclusive orders, classification,
unfolding extension."""

import gc
import random
from fractions import Fraction

import pytest

from whitney import stability
from whitney.deformations import (DeformAmbient, _generating_kernel_rows,
                                  _projection_kernel_rows, _vi_rows, rf_truncated)
from whitney.errors import CapShortfallError, VariableMismatchError
from whitney.forms import source_chart
from whitney.integral_maps import (IntegralMap, complete_from_uv,
                                   integrality_violation, owu_normal_form)
from whitney.ring import TruncatedPoly, monomials_upto, parse_expression
from whitney.stability import (_composed_monomials, _hamiltonian_exponents,
                               _tf_rows, _wf_rows, check_contact_stability,
                               check_fiber_generation, check_generation_stable,
                               check_legendre_stability, classify_umbrella,
                               compute_conclusive_order, default_order,
                               extend_unfoldings, fiber_quotient,
                               local_multiplicity, pullback_algebra_span,
                               pullback_products)



rng = random.Random(60221023)


# -- contact / Legendre checks ---------------------------------------------------------


def test_flat_line_passes(flat_line):
    rep = check_contact_stability(flat_line, 2)
    assert rep.passed and rep.dims["deficiency"] == 0
    assert check_legendre_stability(flat_line, 2).passed


def test_f21_passes_contact_r3(f21):
    rep = check_contact_stability(f21, 3)
    assert rep.passed
    assert rep.dims["deformation_slice"] == rep.dims["combined_span"]


def test_cusp_fails_with_witness(cusp25):
    rep = check_contact_stability(cusp25, 4)
    assert rep.verdict == "fail"
    assert rep.dims["deficiency"] == 1
    assert len(rep.witnesses) == 1
    assert check_legendre_stability(cusp25, 4).verdict == "fail"


def test_cusp_witness_is_genuine_member(cusp25):
    # the emitted cokernel witness satisfies the membership identity exactly
    from whitney.deformations import DeformationField
    ch = cusp25.source
    t = ch.var(0, 10)
    v = DeformationField(cusp25, [t.scale(3), ch.zero(10),
                                  t ** 3 * Fraction(2, 1)])
    assert v.is_integral_deformation()
    # and its generating function pulls back from the target: e = 2t^3 is
    # (4/5) p1 o f, yet v is not a combination of pushforwards and
    # Hamiltonian fields at this order
    assert v.generating_function().same_jet((t ** 3).scale(2))


def test_five_space_passes(germ_corpus):
    five = germ_corpus["five_space"]
    assert check_legendre_stability(five, 4).passed
    assert check_contact_stability(five, 4).passed


def test_legendre_pass_implies_contact_pass(germ_corpus):
    # the Legendre Hamiltonians are a subset of the contact ones, so the
    # span inclusion is structural; verdict-level implication on the corpus
    for name in ("f_1_0", "f_2_0", "f_2_1", "five_space"):
        f = germ_corpus[name]
        rep_l = check_legendre_stability(f, 3)
        rep_c = check_contact_stability(f, 3)
        assert rep_l.dims["hamiltonian_span"] <= rep_c.dims["hamiltonian_span"]
        if rep_l.passed:
            assert rep_c.passed


def test_monotone_in_order(f21):
    # passing at a high order forces passing at every lower order
    assert check_contact_stability(f21, 5).passed
    for r in (4, 3, 2, 1):
        assert check_contact_stability(f21, r).passed


def test_scaling_invariance(f21):
    # composing with a linear source scaling leaves every verdict unchanged
    ch = f21.source
    scaled_comps = []
    scales = [Fraction(2), Fraction(-3, 2)]
    for comp in f21.components:
        subs = [ch.var(i, comp.cap).scale(scales[i]) for i in range(2)]
        scaled_comps.append(comp.substitute(subs))
    g = IntegralMap(2, scaled_comps, source=ch, provenance="f21_scaled")
    assert check_contact_stability(g, 3).passed
    assert check_legendre_stability(g, 3).passed
    assert classify_umbrella(g, 3).type_k == 1
    assert compute_conclusive_order(g).value == compute_conclusive_order(f21).value


def test_cap_shortfall_raises(f21):
    with pytest.raises(CapShortfallError):
        check_contact_stability(f21, 12)


def test_algebra_span_is_fresh_per_call(f21):
    # a caller may grow the span it was handed; the next call must not see it
    span = pullback_algebra_span(f21, 4)
    dim = span.dim
    outside = next(c for c in range(span.ambient_dim) if not span.contains({c: 1}))
    assert span.insert({outside: 1})
    assert pullback_algebra_span(f21, 4).dim == dim


def test_calls_leave_no_cyclic_garbage():
    # a call's working data must be freed by reference counting when it
    # returns, not kept alive by a reference cycle until a full collection
    f = owu_normal_form(2, 1, cap=8)
    x1, x2 = (f.source.var(i, 8) for i in range(2))
    calls = [
        ("pullback_products", lambda: pullback_products(f, 8)),
        ("_wf_rows", lambda: _wf_rows(f, 4, DeformAmbient(f, 4), False)),
        ("_tf_rows", lambda: _tf_rows(f, 4, DeformAmbient(f, 4))),
        ("_vi_rows", lambda: _vi_rows(f)(4)),
        ("_generating_kernel_rows", lambda: _generating_kernel_rows(f, 3)(4)),
        ("_projection_kernel_rows", lambda: _projection_kernel_rows(f)(4)),
        ("rf_truncated", lambda: rf_truncated(f, 3)),
        ("compute_conclusive_order", lambda: compute_conclusive_order(f)),
        ("fiber_quotient", lambda: fiber_quotient(f)),
        ("check_contact_stability", lambda: check_contact_stability(f, 3)),
        ("monomials_upto", lambda: monomials_upto(3, 5)),
        ("substitute", lambda: (x1 * x2 + x2 ** 3).substitute([x1 + x2, x1 * x2])),
        ("parse_expression", lambda: parse_expression(
            "(x1 + 2*x2)^3 - -x1*x2", f.source.names, 8, f.source.kinds)),
    ]
    gc.collect()
    gc.disable()
    try:
        for name, call in calls:
            call()
            assert gc.collect() == 0, name
    finally:
        gc.enable()


def test_composed_monomials_are_scaled_ring_products(germ_corpus):
    # d * M(e) from the int table is the truncated ring product of the
    # component powers times d, and the product is zero exactly off the live
    # exponents: checked on every live exponent (the ones the Hamiltonian
    # rows look up) and on every Hamiltonian exponent, one step above them
    for f in germ_corpus.values():
        order = 3 if f.n <= 2 else 2
        M = _composed_monomials(f, order)
        comps = [c.truncate(order) for c in f.components]
        live, exponents = _hamiltonian_exponents(f, order, legendre=False)
        for e in live | set(exponents):
            product = f.source.const(1, order)
            for comp, k in zip(comps, e):
                product = product * comp ** k
            table = M(e)
            assert product.is_zero() == (e not in live), (f.provenance, e)
            if product.is_zero():
                assert table is None, (f.provenance, e)
                continue
            d, terms = table
            assert d > 0 and all(sum(m) == deg for m, deg, _ in terms)
            assert {m: v for m, _, v in terms} == {
                m: d * c for m, c in product.terms.items()}, (f.provenance, e)


def _wf_parts(e, n):
    """(int factor, exponent of M) of each slot of the field of w^e along f,
    as the formula in ``_wf_rows`` gives them, zero factors included."""
    r_slot = 2 * n

    def moved(*steps):
        x = list(e)
        for slot, step in steps:
            x[slot] += step
        return tuple(x)
    for i in range(n):
        yield e[n + i], moved((n + i, -1))
        yield e[r_slot], moved((r_slot, -1), (i, 1))
        yield -e[i], moved((i, -1))
    yield 1 - sum(e[:n]), e


def test_hamiltonian_exponents_are_those_with_a_live_part(germ_corpus):
    # every exponent emitted has a part with a nonzero factor whose composed
    # monomial the memo table holds as nonzero, and no exponent of total
    # degree <= order + 2 outside the list has one
    cases = [(f, 3 if f.n <= 2 else 2) for f in germ_corpus.values()]
    cases.append((owu_normal_form(2, 1, cap=6), 4))
    for f, order in cases:
        M = _composed_monomials(f, order)
        for legendre in (False, True):
            _, emitted = _hamiltonian_exponents(f, order, legendre)
            assert emitted == sorted(set(emitted))
            for e in monomials_upto(2 * f.n + 1, order + 2):
                if not any(e) or (legendre and sum(e[:f.n]) > 1):
                    continue
                has_live = any(k and min(x) >= 0 and M(x) is not None
                               for k, x in _wf_parts(e, f.n))
                assert has_live == (e in emitted), (f.provenance, e, legendre)


def test_stability_check_builds_two_span_echelons(germ_corpus, monkeypatch):
    # one echelon takes the wf rows then the tf rows, and a small one the tf
    # rows alone; the fail path inserts its witnesses into the first
    built = []

    class CountingSpan(stability._SpanEchelon):
        def __init__(self, ambient):
            super().__init__(ambient)
            built.append(self)

    monkeypatch.setattr(stability, "_SpanEchelon", CountingSpan)
    for f, r, verdict in ((germ_corpus["f_2_1"], 3, "pass"),
                          (germ_corpus["cusp25_lift"], 4, "fail")):
        for check in (check_contact_stability, check_legendre_stability):
            built.clear()
            report = check(f, r)
            assert len(built) == 2 and report.verdict == verdict
            assert report.dims["combined_span"] + len(report.witnesses) == built[0].rank
            assert report.dims["pushforward_span"] == built[1].rank


# -- fiber generation -------------------------------------------------------------------


def test_fiber_quotients(germ_corpus):
    fq = fiber_quotient(germ_corpus["f_1_0"])
    assert (fq.dim, fq.generated, fq.stabilized) == (1, True, True)
    fq = fiber_quotient(germ_corpus["f_2_1"])
    assert fq.dim <= 3 and fq.generated and fq.stabilized
    # computed fact: the raw generation clause also holds for the unstable
    # cusp; the full condition fails through the umbrella gate
    fq = fiber_quotient(germ_corpus["cusp25_lift"])
    assert fq.dim == 2 and fq.generated


def test_one_echelon_per_multiplicity_and_fiber_quotient(germ_corpus,
                                                         monkeypatch):
    # both degrees of each stabilization flag are read off one echelon
    built, degrees = [], []

    class CountingEchelon(stability.Echelon):
        def __init__(self):
            super().__init__()
            built.append(self)

    products = stability.pullback_products

    def counting_products(f, degree):
        degrees.append(degree)
        return products(f, degree)

    monkeypatch.setattr(stability, "Echelon", CountingEchelon)
    monkeypatch.setattr(stability, "pullback_products", counting_products)
    f = germ_corpus["f_2_1"]
    assert local_multiplicity(f) == (2, True)
    assert len(built) == 1
    built.clear()
    fiber_quotient(f)
    assert len(built) == 2 and degrees == [f.cap]


def test_a2r_verdicts(germ_corpus):
    assert check_fiber_generation(germ_corpus["f_2_1"], 3).passed
    rep = check_fiber_generation(germ_corpus["cusp25_lift"], 4)
    assert rep.verdict == "fail"
    assert rep.sub_verdicts["umbrella_gate"] == "fail"
    assert rep.sub_verdicts["generated_by_1_and_p"] == "pass"
    assert check_fiber_generation(germ_corpus["f_1_0"], 2).passed


def test_a2r_quotient_dimension(germ_corpus):
    rep = check_fiber_generation(germ_corpus["f_1_0"], 2)
    assert rep.dims["fiber_quotient"] <= 2


def test_generation_stable_verdicts(germ_corpus):
    assert check_generation_stable(germ_corpus["f_2_1"], 3).passed
    assert check_generation_stable(germ_corpus["cusp25_lift"], 4).verdict == "fail"


def test_ca_evidence(germ_corpus):
    from whitney.stability import ca_evidence_report
    rep = ca_evidence_report(germ_corpus["f_2_1"], 6)
    assert rep.passed
    assert rep.sub_verdicts["closure_equals_algebra"] == "pass"
    # the cusp: the closure adds nothing, but a singular curve point can
    # never have codimension two, so the evidence fails there
    rep = ca_evidence_report(germ_corpus["cusp25_lift"], 7)
    assert rep.verdict == "fail"
    assert rep.sub_verdicts["closure_equals_algebra"] == "pass"
    assert rep.sub_verdicts["codimension_two_evidence"] == "fail"
    assert ca_evidence_report(germ_corpus["f_1_0"], 4).passed
    assert ca_evidence_report(germ_corpus["f_4_2"], 4).passed


# -- conclusive orders ----------------------------------------------------------------------


def test_conclusive_orders_small(germ_corpus):
    assert compute_conclusive_order(germ_corpus["f_1_0"]).value == 2
    assert compute_conclusive_order(germ_corpus["f_2_0"]).value == 3
    assert compute_conclusive_order(germ_corpus["cusp25_lift"]).value == 5
    assert compute_conclusive_order(germ_corpus["f_2_1"]).value == 7


def test_conclusive_order_right_left_invariance(germ_corpus):
    # the five-space germ is contactomorphic to the type-1 normal form and
    # the computed order agrees
    assert compute_conclusive_order(germ_corpus["five_space"]).value == 7


def test_conclusive_order_f42_inconclusive_at_desk_cap(germ_corpus):
    co = compute_conclusive_order(germ_corpus["f_4_2"])
    assert co.value is None and not co.stable


def test_conclusive_order_f42_full():
    # frozen computed value: 16, stable across working degrees 18 and 19
    f42 = owu_normal_form(4, 2, cap=19)
    co = compute_conclusive_order(f42)
    assert co.value == 16 and co.stable


def test_default_order(germ_corpus):
    r, caveat = default_order(germ_corpus["f_2_1"])
    assert r == 7 and caveat is None
    r, caveat = default_order(germ_corpus["f_4_2"])
    assert r == 3 and caveat is not None


# -- classification ---------------------------------------------------------------------------


def test_classification_matrix(germ_corpus):
    assert classify_umbrella(germ_corpus["f_1_0"], 2).type_k == 0
    assert classify_umbrella(germ_corpus["f_2_0"], 2).type_k == 0
    assert classify_umbrella(germ_corpus["f_2_1"], 3).type_k == 1
    assert classify_umbrella(germ_corpus["f_3_1"], 3).type_k == 1
    assert classify_umbrella(germ_corpus["f_4_2"], 3).type_k == 2
    assert classify_umbrella(germ_corpus["five_space"], 3).type_k == 1
    assert classify_umbrella(germ_corpus["cusp25_lift"], 4).verdict == "not-an-umbrella"


def test_multiplicities(germ_corpus):
    assert local_multiplicity(germ_corpus["f_2_1"]) == (2, True)
    assert local_multiplicity(germ_corpus["f_4_2"]) == (3, True)
    assert local_multiplicity(germ_corpus["f_1_0"]) == (1, True)


def test_type_zero_immersions_up_to_n4():
    for n in (1, 2, 3, 4):
        f = owu_normal_form(n, 0, cap=6)
        assert f.corank() == 0
        assert local_multiplicity(f) == (1, True)


def test_determinacy_spot_check(f21):
    # perturbing the graph data of the type-1 umbrella above degree k+1 = 2
    # and re-completing keeps it classified as type 1
    ch = f21.source
    monos = [m for m in monomials_upto(2, 5) if sum(m) >= 3]
    u0 = f21.q_component(1)
    v0 = f21.p_component(1)
    for _ in range(10):
        du = {m: Fraction(rng.randint(-2, 2)) for m in rng.sample(monos, 3)}
        # v-perturbations divisible by x2 keep the completion's boundary
        # compatibility (v(x', 0) stays zero)
        dv = {(m[0], m[1] + 1): Fraction(rng.randint(-2, 2))
              for m in rng.sample(monos, 3)}
        u = u0 + TruncatedPoly(2, 10, ch.kinds, du)
        v = v0 + TruncatedPoly(2, 10, ch.kinds, dv)
        g = complete_from_uv(2, u, v, source=ch)
        cl = classify_umbrella(g, 3)
        assert cl.type_k == 1, (du, dv)


# -- unfolding extension -------------------------------------------------------------------------


def _unfold_cusp(param, u_extra, v_extra, cap=10):
    ch = source_chart(1, (param,), names=["t"])
    t = ch.var(0, cap)
    lam = ch.var(1, cap)
    u = t ** 2 + lam * ch.parse(u_extra, cap) if u_extra else t ** 2
    v = t ** 3 * Fraction(5, 2) + lam * ch.parse(v_extra, cap) \
        if v_extra else t ** 3 * Fraction(5, 2)
    return complete_from_uv(1, u, v, params=(param,), source=ch)


def test_extension_of_cusp_family():
    # F deforms v by (3/2) lam t (the five-space family); F' is constant
    F = _unfold_cusp("lam", None, "3/2*t")
    Fc = _unfold_cusp("mu", None, None)
    ext = extend_unfoldings(F, Fc)
    assert ext.params == ("lam", "mu")
    assert integrality_violation(ext) is None
    F_back = _restrict(ext, "mu")
    assert all(a.same_jet(b) for a, b in zip(F_back.components, F.components))
    Fc_back = _restrict(ext, "lam")
    assert all(a.same_jet(b) for a, b in zip(Fc_back.components, Fc.components))


def _restrict(F, kill_param):
    """Set one parameter of a two-parameter unfolding to zero."""
    idx = F.source.names.index(kill_param)
    keep = [i for i in range(F.source.dim) if i != idx]
    names = tuple(F.source.names[i] for i in keep)
    params = tuple(p for p in F.params if p != kill_param)
    chart = source_chart(F.n, params, names=names[:F.n])
    comps = [c.set_vars_zero([idx]).project_vars(keep, chart.kinds)
             for c in F.components]
    return IntegralMap(F.n, comps, params=params, source=chart)


def test_extension_constant_pair():
    Fc1 = _unfold_cusp("lam", None, None)
    Fc2 = _unfold_cusp("mu", None, None)
    ext = extend_unfoldings(Fc1, Fc2)
    base = ext.restrict_params([Fraction(0), Fraction(0)])
    for comp, ref in zip(base.components, _unfold_cusp("z", None, None)
                         .restrict_params([Fraction(0)]).components):
        assert comp.same_jet(ref)


def test_extension_randomized_f21():
    f21 = owu_normal_form(2, 1, cap=9)
    monos = [m for m in monomials_upto(2, 4) if sum(m) >= 1]
    for trial in range(10):
        chF = source_chart(2, ("lam",))
        chG = source_chart(2, ("mu",))
        u0 = f21.q_component(1)
        v0 = f21.p_component(1)

        def perturb(ch, pname):
            lam_idx = 2
            du = {}
            for m in rng.sample(monos, 2):
                du[(m[0], m[1], 1)] = Fraction(rng.randint(-2, 2))
            dv = {}
            for m in rng.sample(monos, 2):
                # keep boundary compatibility: v-perturbation divisible by x2
                dv[(m[0], m[1] + 1, 1)] = Fraction(rng.randint(-2, 2))
            u = u0.extend(3, ch.kinds, [0, 1]) + TruncatedPoly(3, 9, ch.kinds, du)
            v = v0.extend(3, ch.kinds, [0, 1]) + TruncatedPoly(3, 9, ch.kinds, dv)
            return complete_from_uv(2, u, v, params=(pname,), source=ch)

        F = perturb(chF, "lam")
        G = perturb(chG, "mu")
        ext = extend_unfoldings(F, G)
        assert integrality_violation(ext) is None
        F_back = _restrict(ext, "mu")
        assert all(a.same_jet(b) for a, b in zip(F_back.components, F.components))
        G_back = _restrict(ext, "lam")
        assert all(a.same_jet(b) for a, b in zip(G_back.components, G.components))


def test_extension_rejects_mismatched_bases():
    F = _unfold_cusp("lam", None, "3/2*t")
    ch = source_chart(1, ("mu",), names=["t"])
    t = ch.var(0, 10)
    other = complete_from_uv(1, t ** 2, t ** 3, params=("mu",), source=ch)
    with pytest.raises(VariableMismatchError):
        extend_unfoldings(F, other)


def test_extension_rejects_shared_parameter_names():
    F = _unfold_cusp("lam", None, "3/2*t")
    G = _unfold_cusp("lam", None, None)
    with pytest.raises(VariableMismatchError):
        extend_unfoldings(F, G)
