"""Acceptance suite: one test per criterion, each printing a verdict line.

Everything is exact rational arithmetic; no tolerances appear anywhere.
Criterion 4 note: the conclusive order of the type-2 umbrella in four
variables is not reachable at desk-scale caps (the stabilized value, 16,
needs cap 19; ``test_conclusive_order_f42_full`` in test_stability.py
computes it in about 17 s), so its row of the verdict matrix runs at the
library's documented fallback order with the caveat recorded.
"""

import random
from fractions import Fraction

from whitney.contact import (ContactChart, contact_hamiltonian, reeb,
                             reeb_derivative, scaled_contact_hamiltonian,
                             scaled_reeb)
from whitney.deformations import (DeformAmbient, deformation_slice,
                                  generating_function_image, kernel_slice,
                                  module_mult, projection_kernel_slice,
                                  reeb_along, rf_truncated, vi_basis, wf_apply)
from whitney.forms import (DiffForm, FieldAlongMap, MapBetweenCharts,
                           source_chart)
from whitney.integral_maps import (IntegralMap, complete_from_uv,
                                   integrality_violation, lift_isotropic,
                                   owu_normal_form, project_isotropic)
from whitney.linalg import JetSubspace
from whitney.ring import TruncatedPoly, monomials_upto
from whitney.stability import (_tf_rows, check_contact_stability,
                               check_fiber_generation, check_generation_stable,
                               check_legendre_stability, classify_umbrella,
                               compute_conclusive_order, extend_unfoldings,
                               local_multiplicity)

import oracles
from conftest import corpus, cusp25_lift, five_space_germ

rng = random.Random(58)


def report(criterion, ok, detail):
    marker = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {marker} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def rand_poly(chart, cap, maxdeg=3, nterms=4, zero_const=False):
    monos = monomials_upto(chart.dim, maxdeg)
    terms = {}
    for _ in range(nterms):
        m = rng.choice(monos)
        c = Fraction(rng.randint(-4, 4))
        if c and not (zero_const and sum(m) == 0):
            terms[m] = c
    return TruncatedPoly(chart.dim, cap, chart.kinds, terms)


# -- criterion 1: integrality certificates -----------------------------------------------


def test_criterion_1_integrality():
    germs = corpus(cap=10)
    bad = [name for name, f in germs.items()
           if integrality_violation(f) is not None]
    five = germs["five_space"]
    pulled = five.pullback(five.target.alpha(11))
    report(1, not bad and pulled.is_zero(),
           f"f*alpha = 0 exactly at cap 10 on all {len(germs)} corpus germs; "
           "the five-space germ reproduces its defining relation identically")


# -- criterion 2: calculus identities (exact, randomized) ----------------------------------


def test_criterion_2_calculus_identities():
    failures = []

    # (a) v*(lifted form) = L_v form, degrees 0..2
    cc = ContactChart(1)
    src = source_chart(2)
    count = 0
    for degree in (0, 1, 2):
        for _ in range(7):
            f = MapBetweenCharts(src, cc.chart, [
                rand_poly(src, 8, zero_const=True) for _ in range(3)])
            v = FieldAlongMap(f, [rand_poly(src, 8, maxdeg=2) for _ in range(3)])
            idx_pool = {0: [()], 1: [(0,), (1,), (2,)],
                        2: [(0, 1), (0, 2), (1, 2)]}[degree]
            w = DiffForm(cc.chart, degree,
                         {idx: rand_poly(cc.chart, 8, maxdeg=2)
                          for idx in idx_pool})
            if not v.pullback_from_tangent(w.tangent_lift()).same_form(v.lie(w)):
                failures.append("lift-vs-Lie")
            count += 1
    assert count >= 20

    # (b) lift commutes with d
    for _ in range(20):
        w = DiffForm(cc.chart, 1, {(i,): rand_poly(cc.chart, 8, maxdeg=2)
                                   for i in range(3)})
        if not w.tangent_lift().exterior_derivative().same_form(
                w.exterior_derivative().tangent_lift()):
            failures.append("lift-vs-d")

    # (c) product law for Hamiltonian fields
    R = reeb(cc, 12)
    for _ in range(20):
        K = rand_poly(cc.chart, 12, maxdeg=3)
        H = rand_poly(cc.chart, 12, maxdeg=3)
        lhs = contact_hamiltonian(cc, K * H)
        for c in range(3):
            rhs = (K * contact_hamiltonian(cc, H).components[c]
                   + H * contact_hamiltonian(cc, K).components[c]
                   - (K * H) * R.components[c])
            if not lhs.components[c].same_jet(rhs):
                failures.append("product-law")

    # (d) Reeb identities for Hamiltonian fields
    alpha = cc.alpha(10)
    for _ in range(20):
        H = rand_poly(cc.chart, 10, maxdeg=3)
        X = contact_hamiltonian(cc, H)
        RH = reeb_derivative(cc, H)
        if not X.lie(alpha).same_form(alpha.mul_function(RH)):
            failures.append("lie-reeb-1")
        rhs = alpha.mul_function(RH) - DiffForm.function(
            H, cc.chart).exterior_derivative()
        if not X.interior(cc.d_alpha(10)).same_form(rhs):
            failures.append("lie-reeb-2")

    # (e) e(H * v) = f*H e(v) and (f) module associativity
    f21 = owu_normal_form(2, 1, cap=10)
    tgt = f21.target.chart
    for _ in range(20):
        H = rand_poly(tgt, 10, maxdeg=2)
        K = rand_poly(tgt, 10, maxdeg=2)
        v = wf_apply(f21, rand_poly(tgt, 10, maxdeg=2))
        out = module_mult(H, v)
        lhs = out.generating_function()
        rhs = f21.pullback_function(H) * v.generating_function()
        if not lhs.same_jet(rhs.truncate(lhs.cap)):
            failures.append("mult-generating")
        a = module_mult(K * H, v)
        b = module_mult(K, module_mult(H, v))
        capm = min(a.cap, b.cap)
        if not all(x.truncate(capm).same_jet(y.truncate(capm))
                   for x, y in zip(a.components, b.components)):
            failures.append("mult-assoc")

    # (g) independence of the contact form: the correction field of the
    # rescaled form, along f, matches the plain one divided by the scale
    cc2 = f21.target
    for _ in range(20):
        lam = rand_poly(tgt, 10, maxdeg=2, zero_const=True) + 1
        H = rand_poly(tgt, 10, maxdeg=2)
        Xp = scaled_contact_hamiltonian(cc2, lam, H)
        Rp = scaled_reeb(cc2, lam)
        X = contact_hamiltonian(cc2, H)
        inv = lam.inverse()
        for c in range(tgt.dim):
            plain = X.components[c]
            if c == cc2.r_index:
                plain = plain - H.truncate(plain.cap)
            plain = plain * inv
            scaled = Xp.components[c] - H * Rp.components[c]
            capc = min(plain.cap, scaled.cap, 8)
            lhsv = f21.pullback_function(scaled.truncate(capc))
            rhsv = f21.pullback_function(plain.truncate(capc))
            if not lhsv.same_jet(rhsv):
                failures.append("indep")
    report(2, not failures,
           "Cartan/lift, lift-commutes-with-d, product law, Reeb identities, "
           "module generating identity, associativity and contact-form "
           "independence: all exact over 20+ randomized inputs each"
           + (f"; failures: {sorted(set(failures))}" if failures else ""))


# -- criterion 3: normal-form pipeline -------------------------------------------------------


def test_criterion_3_normal_form_pipeline():
    ok = True
    notes = []
    f = owu_normal_form(2, 1, cap=10)
    names = f.source.names
    if not (f.p_component(0).render(names) == "1/3*x2^3"
            and f.r_component.render(names) == "1/3*x1*x2^3"):
        ok, notes = False, notes + ["f_2_1 completion"]
    for name, germ in corpus(cap=10).items():
        if germ.n > 3:
            continue
        g = project_isotropic(germ)
        back = lift_isotropic(germ.n, g.p_components, g.q_components,
                              source=germ.source)
        if not all(a.same_jet(b) for a, b in zip(back.components,
                                                 germ.components)):
            ok, notes = False, notes + [f"round trip {name}"]
    ch = source_chart(1, names=["t"])
    t = ch.var(0, 12)
    lifted = lift_isotropic(1, [t ** 7 + t ** 8], [t ** 3], source=ch)
    if lifted.r_component.render(("t",)) != "3/10*t^10 + 3/11*t^11":
        ok, notes = False, notes + ["remark curve"]
    report(3, ok, "completion of the type-1 umbrella, project/lift round "
                  "trips and the cubic-curve lift are exact"
                  + (f"; {notes}" if notes else ""))


# -- criterion 4: stability verdict matrix ----------------------------------------------------


def _order_for(name, n, build):
    """max(ceil(n/2) + 1, conclusive order), escalating the cap until the
    order stabilizes; None marks the documented desk-scale fallback."""
    base = (n + 1) // 2 + 1
    for cap in (10, 12, 13):
        co = compute_conclusive_order(build(cap))
        if co.conclusive:
            return max(base, co.value), co.value
    return base, None


def test_criterion_4_stability_matrix():
    makers = {
        "f_1_0": (1, lambda cap: owu_normal_form(1, 0, cap=cap)),
        "f_2_0": (2, lambda cap: owu_normal_form(2, 0, cap=cap)),
        "f_2_1": (2, lambda cap: owu_normal_form(2, 1, cap=cap)),
        "f_3_1": (3, lambda cap: owu_normal_form(3, 1, cap=cap)),
        "f_4_2": (4, lambda cap: owu_normal_form(4, 2, cap=cap)),
        "five_space": (2, five_space_germ),
        "cusp25_lift": (1, cusp25_lift),
        "cusp23_lift": (1, lambda cap: corpus(cap)["cusp23_lift"]),
    }
    expected_pass = {"f_1_0", "f_2_0", "f_2_1", "f_3_1", "f_4_2",
                     "five_space", "cusp23_lift"}
    ok = True
    lines = []
    for name, (n, build) in sorted(makers.items()):
        order, r0 = _order_for(name, n, build)
        f = build(order + 4)
        contact = check_contact_stability(f, order)
        legendre = check_legendre_stability(f, order)
        a2r = check_fiber_generation(f, order, contact_report=contact)
        aprime = check_generation_stable(f, order, contact_report=contact)
        verdicts = (contact.verdict, legendre.verdict, a2r.verdict,
                    aprime.verdict)
        agree = len(set(verdicts)) == 1
        should_pass = name in expected_pass
        got_pass = contact.passed and legendre.passed
        row_ok = agree and (got_pass == should_pass)
        if name == "cusp25_lift":
            row_ok = row_ok and bool(contact.witnesses) and bool(
                legendre.witnesses) and contact.dims["deficiency"] > 0
        fallback = " (fallback order: conclusive order beyond desk cap)" \
            if r0 is None else ""
        lines.append(f"{name}: r={order} cap={f.cap} -> {verdicts[0]}"
                     f"/{verdicts[1]}/{verdicts[2]}/{verdicts[3]}{fallback}")
        ok = ok and row_ok
    report(4, ok, "verdict matrix with cross-condition agreement "
                  "(contact/legendre/order-r generation/stable generation): "
                  + "; ".join(lines))


# -- criterion 5: classification and determinacy spot check -----------------------------------


def test_criterion_5_classification():
    ok = True
    notes = []
    expected = {"f_1_0": 0, "f_2_0": 0, "f_2_1": 1, "f_3_1": 1, "f_4_2": 2}
    germs = corpus(cap=10)
    for name, k in expected.items():
        f = germs[name]
        cl = classify_umbrella(f, 3 if f.n > 1 else 2)
        mult, stable = local_multiplicity(f)
        if cl.type_k != k or mult != k + 1 or not stable:
            ok, notes = False, notes + [f"{name}: got {cl.verdict}"]
    f21 = germs["f_2_1"]
    ch = f21.source
    monos = [m for m in monomials_upto(2, 5) if sum(m) >= 3]
    for trial in range(10):
        du = {m: Fraction(rng.randint(-2, 2)) for m in rng.sample(monos, 3)}
        dv = {(m[0], m[1] + 1): Fraction(rng.randint(-2, 2))
              for m in rng.sample(monos, 3)}
        g = complete_from_uv(2, f21.q_component(1) + TruncatedPoly(2, 10, ch.kinds, du),
                             f21.p_component(1) + TruncatedPoly(2, 10, ch.kinds, dv),
                             source=ch)
        cl = classify_umbrella(g, 3)
        if cl.type_k != 1:
            ok, notes = False, notes + [f"perturbation {trial}: {cl.verdict}"]
    report(5, ok, "umbrella types recovered on the corpus (multiplicity k+1, "
                  "cap-stable) and 10 degree->=k+2 re-completed perturbations "
                  "all classify as type 1" + (f"; {notes}" if notes else ""))


# -- criterion 6: deformation-module bookkeeping ----------------------------------------------


def test_criterion_6_module_structure():
    ok = True
    notes = []
    flat = owu_normal_form(1, 0, cap=8)
    f21 = owu_normal_form(2, 1, cap=10)
    for f, r in ((flat, 3), (f21, 4)):
        sl = vi_basis(f, r)
        img = generating_function_image(f, r, sl)
        rf = rf_truncated(f, r)
        ker_t = kernel_slice(f, r, truncated=True)
        if not img.equals(rf):
            ok, notes = False, notes + [f"surjectivity {f.provenance}"]
        if sl.dim != img.dim + ker_t.dim:
            ok, notes = False, notes + [f"dimension bookkeeping {f.provenance}"]
    amb = DeformAmbient(f21, 4)
    tf_span = JetSubspace.from_rows(amb.dim, _tf_rows(f21, 4, amb))
    if not tf_span.contains_subspace(kernel_slice(f21, 4)):
        ok, notes = False, notes + ["kernel inside pushforward span"]
    for f in (flat, f21):
        pk = projection_kernel_slice(f, 3)
        ambf = DeformAmbient(f, 3)
        if pk.dim != 1 or not pk.contains(ambf.field_to_row(reeb_along(f))):
            ok, notes = False, notes + [f"projection kernel {f.provenance}"]
    report(6, ok, "jet-level exactness (surjectivity onto the function-side "
                  "solve, dimension bookkeeping), vanishing-e slice inside "
                  "the pushforward span, projection kernel = Reeb line"
                  + (f"; {notes}" if notes else ""))


# -- criterion 7: oracle equivalence -----------------------------------------------------------


def test_criterion_7_oracle_equivalence():
    germs = corpus(cap=10)
    orders = {"cusp23_lift": 5, "cusp25_lift": 5, "f_1_0": 5, "f_2_0": 4,
              "f_2_1": 4, "five_space": 4, "f_3_1": 3, "f_4_2": 2}
    mismatches = []
    for name, f in sorted(germs.items()):
        order = orders[name]
        comps = [dict(c.terms) for c in f.components]
        max_working = min(f.cap - 1, order + 4)
        lib = deformation_slice(f, order, max_working_order=max_working)
        dim, stab = oracles.oracle_vi_dim(comps, f.n, f.source.dim, order,
                                          max_working)
        if (lib.dim, lib.stabilized) != (dim, stab):
            mismatches.append(f"vi {name}")
        if rf_truncated(f, order).dim != oracles.oracle_rf_dim(
                comps, f.n, f.source.dim, order, f.cap - 1)[0]:
            mismatches.append(f"rf {name}")
        from whitney.stability import fiber_quotient
        fq = fiber_quotient(f)
        odim, ogen = oracles.oracle_fiber_quotient(comps, f.n, f.source.dim,
                                                   f.cap)
        if (fq.dim, fq.generated) != (odim, ogen):
            mismatches.append(f"quotient {name}")
        lib_co = compute_conclusive_order(f, search_cap=5)
        low = oracles.oracle_conclusive_order(comps, f.n, f.source.dim,
                                              f.cap - 1, 5)
        high = oracles.oracle_conclusive_order(comps, f.n, f.source.dim,
                                               f.cap, 5)
        oracle_value = low if (low is not None and low == high) else None
        if lib_co.value != oracle_value:
            mismatches.append(f"order {name}")
    report(7, not mismatches,
           "deformation slice, function-side solve, fiber quotient and "
           "conclusive order agree with the independent dense oracle on all "
           "8 corpus germs" + (f"; {mismatches}" if mismatches else ""))


# -- criterion 8: unfolding extension ------------------------------------------------------------


def test_criterion_8_unfolding_extension():
    f21 = owu_normal_form(2, 1, cap=9)
    monos = [m for m in monomials_upto(2, 4) if sum(m) >= 1]
    ok = True
    notes = []

    def restrict(F, kill):
        idx = F.source.names.index(kill)
        keep = [i for i in range(F.source.dim) if i != idx]
        params = tuple(p for p in F.params if p != kill)
        chart = source_chart(F.n, params,
                             names=tuple(F.source.names[i] for i in keep[:F.n]))
        comps = [c.set_vars_zero([idx]).project_vars(keep, chart.kinds)
                 for c in F.components]
        return IntegralMap(F.n, comps, params=params, source=chart)

    for trial in range(10):
        def perturb(pname):
            ch = source_chart(2, (pname,))
            du = {(m[0], m[1], 1): Fraction(rng.randint(-2, 2))
                  for m in rng.sample(monos, 2)}
            dv = {(m[0], m[1] + 1, 1): Fraction(rng.randint(-2, 2))
                  for m in rng.sample(monos, 2)}
            u = f21.q_component(1).extend(3, ch.kinds, [0, 1]) \
                + TruncatedPoly(3, 9, ch.kinds, du)
            v = f21.p_component(1).extend(3, ch.kinds, [0, 1]) \
                + TruncatedPoly(3, 9, ch.kinds, dv)
            return complete_from_uv(2, u, v, params=(pname,), source=ch)

        F = perturb("lam")
        G = perturb("mu")
        ext = extend_unfoldings(F, G)
        if integrality_violation(ext) is not None:
            ok, notes = False, notes + [f"trial {trial}: not integral"]
            continue
        F_back = restrict(ext, "mu")
        G_back = restrict(ext, "lam")
        if not all(a.same_jet(b) for a, b in zip(F_back.components, F.components)):
            ok, notes = False, notes + [f"trial {trial}: lam-axis restriction"]
        if not all(a.same_jet(b) for a, b in zip(G_back.components, G.components)):
            ok, notes = False, notes + [f"trial {trial}: mu-axis restriction"]
    report(8, ok, "additive extension of 10 randomized unfolding pairs of the "
                  "type-1 umbrella restricts exactly to both inputs"
                  + (f"; {notes}" if notes else ""))
