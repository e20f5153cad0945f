"""Deformation fields: certificates, generating functions, module structure,
jet slices and the function-side solve."""

import hashlib
import json
import random
from fractions import Fraction
from math import comb, gcd

import pytest

from whitney.contact import contact_hamiltonian, scaled_contact_hamiltonian, scaled_reeb
from whitney.deformations import (DeformAmbient, DeformationField,
                                  _generating_kernel_rows, _projection_kernel_rows,
                                  _vi_rows, deformation_slice,
                                  generating_function_image,
                                  interior_with_alpha, kernel_slice, module_mult,
                                  projection_kernel_slice, reeb_along, rf_truncated,
                                  tf_apply, vi_basis, wf_apply, _system)
from whitney.errors import UncertifiedFieldError, VariableMismatchError

from whitney.integral_maps import IntegralMap, owu_normal_form
from whitney.linalg import JetSubspace, SolutionSpace
from whitney.ring import TruncatedPoly, monomials_upto
from whitney import deformations, linalg, stability
from whitney.stability import (_tf_rows, _wf_rows, check_contact_stability,
                               check_legendre_stability, local_multiplicity,
                               pullback_algebra_span)

import oracles


rng = random.Random(7734)


def rand_target_poly(f, cap=10, maxdeg=3, nterms=4):
    chart = f.target.chart
    monos = monomials_upto(chart.dim, maxdeg)
    terms = {}
    for _ in range(nterms):
        m = rng.choice(monos)
        c = Fraction(rng.randint(-3, 3))
        if c:
            terms[m] = c
    return TruncatedPoly(chart.dim, cap, chart.kinds, terms)


def rand_source_field(f, cap=10, maxdeg=3):
    monos = monomials_upto(f.source.dim, maxdeg)
    out = []
    for _ in range(f.n):
        terms = {}
        for _ in range(3):
            m = rng.choice(monos)
            c = Fraction(rng.randint(-3, 3))
            if c:
                terms[m] = c
        out.append(TruncatedPoly(f.source.dim, cap, f.source.kinds, terms))
    return out


def fields_same(a, b):
    return all(x.same_jet(y) for x, y in zip(a.components, b.components))


# -- certificates -----------------------------------------------------------------------


def test_hamiltonian_fields_are_members(f21):
    for _ in range(8):
        H = rand_target_poly(f21)
        v = wf_apply(f21, H)
        assert v.is_integral_deformation()


def test_pushforwards_are_members(f21):
    for _ in range(8):
        xi = rand_source_field(f21)
        v = tf_apply(f21, xi)
        assert v.is_integral_deformation()
        assert v.generating_function().is_zero()


def test_explicit_non_member(flat_line):
    ch = flat_line.source
    bad = DeformationField(flat_line, [ch.const(1, 8), ch.zero(8), ch.zero(8)])
    violation = bad.violation()
    assert violation is not None
    assert violation["total_degree"] == 1


# -- generating functions ----------------------------------------------------------------


def test_generating_function_of_hamiltonian_field(f21):
    # e(X_H o f) = f*H, here H = p1 q1 pulled to (x2^3/3) x1
    H = f21.target.chart.parse("p1*q1", 10)
    v = wf_apply(f21, H)
    e = v.generating_function()
    assert e.render(f21.source.names) == "1/3*x1*x2^3"
    for _ in range(6):
        H = rand_target_poly(f21)
        v = wf_apply(f21, H)
        assert v.generating_function().same_jet(
            f21.pullback_function(H).truncate(v.cap))


def test_generating_function_of_reeb(f21):
    assert reeb_along(f21).generating_function().constant_term() == 1


def test_wf_linearity(f21):
    H = rand_target_poly(f21)
    K = rand_target_poly(f21)
    lhs = wf_apply(f21, H + K)
    rhs = wf_apply(f21, H) + wf_apply(f21, K)
    assert fields_same(lhs, rhs)


def test_interior_route_agrees(f21):
    for _ in range(6):
        v = wf_apply(f21, rand_target_poly(f21))
        direct = v.generating_function()
        via_forms = interior_with_alpha(v)
        assert direct.same_jet(via_forms.truncate(min(direct.cap, via_forms.cap)))


# -- module multiplication -----------------------------------------------------------------


def test_constant_multiplication(f21):
    v = wf_apply(f21, rand_target_poly(f21))
    c3 = f21.target.chart.const(3, 10)
    out = module_mult(c3, v)
    assert fields_same(out, v.scale(3))


def test_module_mult_generating_identity(f21):
    # e(H * v) = f*H e(v)
    for _ in range(8):
        H = rand_target_poly(f21)
        v = wf_apply(f21, rand_target_poly(f21))
        out = module_mult(H, v)
        lhs = out.generating_function()
        rhs = f21.pullback_function(H) * v.generating_function()
        assert lhs.same_jet(rhs.truncate(lhs.cap))


def test_module_mult_associativity(f21):
    for _ in range(20):
        K = rand_target_poly(f21, maxdeg=2)
        H = rand_target_poly(f21, maxdeg=2)
        v = wf_apply(f21, rand_target_poly(f21, maxdeg=2))
        lhs = module_mult(K * H, v)
        rhs = module_mult(K, module_mult(H, v))
        cap = min(lhs.cap, rhs.cap)
        assert all(a.truncate(cap).same_jet(b.truncate(cap))
                   for a, b in zip(lhs.components, rhs.components))


def test_module_mult_additive(f21):
    K = rand_target_poly(f21)
    H = rand_target_poly(f21)
    v = wf_apply(f21, rand_target_poly(f21))
    lhs = module_mult(K + H, v)
    rhs = module_mult(K, v) + module_mult(H, v)
    assert fields_same(lhs, rhs)


def test_module_mult_preserves_membership_flat(flat_line):
    # H = r against the Reeb field on the flat line
    H = flat_line.target.chart.var(2, 8)
    v = reeb_along(flat_line)
    out = module_mult(H, v)
    assert out.is_integral_deformation()


def test_module_mult_requires_certificate(flat_line):
    ch = flat_line.source
    bad = DeformationField(flat_line, [ch.const(1, 8), ch.zero(8), ch.zero(8)])
    with pytest.raises(UncertifiedFieldError):
        module_mult(flat_line.target.chart.const(1, 8), bad)


def test_module_mult_contact_form_independent(f21):
    # H * v computed with the rescaled form lam alpha agrees: the correction
    # field (X'_H - H R') o f equals ((X_H - H R)/lam) o f
    cc = f21.target
    for _ in range(6):
        lam_raw = rand_target_poly(f21, maxdeg=2)
        lam = lam_raw - lam_raw.constant_term() + 1
        H = rand_target_poly(f21, maxdeg=2)
        Xp = scaled_contact_hamiltonian(cc, lam, H)
        Rp = scaled_reeb(cc, lam)
        X = contact_hamiltonian(cc, H)
        lam_inv = lam.inverse()
        for c in range(cc.chart.dim):
            scaled_corr = Xp.components[c] - H * Rp.components[c]
            plain_corr = (X.components[c]
                          - H * (1 if c == cc.r_index else 0)) * lam_inv
            if c == cc.r_index:
                plain_corr = (X.components[c] - H) * lam_inv
            lhs = f21.pullback_function(scaled_corr.truncate(
                min(scaled_corr.cap, 8)))
            rhs = f21.pullback_function(plain_corr.truncate(
                min(plain_corr.cap, 8)))
            assert lhs.same_jet(rhs)


# -- jet slices -----------------------------------------------------------------------------


def test_low_order_columns_are_a_prefix(f21):
    # a slice is projected by keeping the first columns of the working-order
    # system: the degree <= r coordinates must come first, in order-r layout
    for r, R in ((2, 3), (3, 6)):
        low, high = DeformAmbient(f21, r), DeformAmbient(f21, R)
        assert high.monomials[:len(low.monomials)] == low.monomials
        assert all(sum(m) > r for m in high.monomials[len(low.monomials):])
        assert all(low.column(c, m) == high.column(c, m)
                   for m in low.monomials for c in range(low.ncomps))


def _deform_labels(f, R):
    amb = DeformAmbient(f, R)
    return lambda col: (col % amb.ncomps, amb.monomials[col // amb.ncomps])


def _dense_vi(f, R):
    comps = [dict(c.terms) for c in f.components]
    rows, _, mlist, ncomps = oracles._vi_matrix(comps, f.n, f.source.dim, R)
    return [{(col % ncomps, mlist[col // ncomps]): v for col, v in row.items()}
            for row in rows]


def _dense_e_rows(f, R, e_order):
    """coefficients of degree <= min(R, e_order) of e(v) = s - sum p_i xi_i"""
    n, nv = f.n, f.source.dim
    rows = {mu: {(2 * n, mu): Fraction(1)}
            for mu in oracles.monos(nv, min(R, e_order))}
    for i in range(n):
        for m in oracles.monos(nv, R):
            for t, c in f.p_component(i).terms.items():
                mu = tuple(a + b for a, b in zip(m, t))
                if mu in rows:
                    rows[mu][(n + i, m)] = -c
    return list(rows.values())


def _normalized(rows):
    out = set()
    for row in rows:
        row = {k: Fraction(v) for k, v in row.items() if v}
        if row:
            lead = row[min(row)]
            out.add(frozenset((k, v / lead) for k, v in row.items()))
    return out


def test_order_R_rows_reappear_at_order_R_plus_1(germ_corpus):
    # every builder gives only the rows new at order R, over columns that do
    # not depend on R; the rows up to R must then be the whole order-R
    # system, written here densely from its defining formulas.  This is the
    # precondition for growing one echelon across an escalation.
    for name, f in germ_corpus.items():
        order = 2
        top = 5 if f.n <= 2 else 3
        builders = (
            (_vi_rows(f), _dense_vi, _deform_labels),
            (_generating_kernel_rows(f, order),
             lambda f, R: _dense_vi(f, R) + _dense_e_rows(f, R, order), _deform_labels),
            (_generating_kernel_rows(f, f.cap),
             lambda f, R: _dense_vi(f, R) + _dense_e_rows(f, R, R), _deform_labels),
            (_projection_kernel_rows(f),
             lambda f, R: _dense_vi(f, R) + [
                 {(c, m): 1} for c in range(2 * f.n)
                 for m in oracles.monos(f.source.dim, R)], _deform_labels),
        )
        for k, (new_rows, dense, labels) in enumerate(builders):
            system, ncols = [], 0
            for R in range(top + 1):
                rows, width = new_rows(R)
                assert width >= ncols and all(max(row) < width for row in rows if row)
                system += rows
                ncols = width
                label = labels(f, R)
                got = _normalized({label(c): v for c, v in row.items()}
                                  for row in system)
                assert got == _normalized(dense(f, R)), (name, k, R)


def _count_builds(monkeypatch):
    """Count the constraint echelons built (every Echelon that is neither a
    JetSubspace nor a stability span), the builders made (each grades its
    system when it is made), the working orders whose equations are built,
    and the tables graded after the first equations were built."""
    seen = {"echelons": 0, "spans": 0, "builders": 0, "orders": [], "late_grades": 0}

    def counting(cls, key):
        init = cls.__init__

        def wrapped(self, *args, **kwargs):
            seen[key] += 1
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", wrapped)
    counting(linalg.Echelon, "echelons")
    counting(linalg.JetSubspace, "spans")
    counting(stability._SpanEchelon, "spans")
    graded = deformations._graded

    def counting_graded(*args):
        seen["late_grades"] += bool(seen["orders"])
        return graded(*args)
    monkeypatch.setattr(deformations, "_graded", counting_graded)
    make = deformations._vi_rows

    def wrapped(*args):
        seen["builders"] += 1
        build = make(*args)

        def rows(R):
            seen["orders"].append(R)
            return build(R)
        return rows
    for module in (deformations, stability):
        monkeypatch.setattr(module, "_vi_rows", wrapped)
    return seen


def test_one_constraint_echelon_and_one_build_per_equation_degree(
        monkeypatch, f21, cusp25):
    seen = _count_builds(monkeypatch)

    def run(call):
        seen.update(echelons=0, spans=0, builders=0, orders=[], late_grades=0)
        result = call()
        # one echelon takes every equation degree, each built once, from
        # tables graded once, before the first equations
        assert seen["echelons"] - seen["spans"] == 1
        assert seen["builders"] == 1 and seen["late_grades"] == 0
        top = max(seen["orders"])
        assert seen["orders"] == list(range(top + 1))
        return result, top

    for f, r in ((f21, 3), (cusp25, 4)):
        data, top = run(lambda: deformation_slice(f, r))
        assert top == data.working_order > r
        for call in (lambda: vi_basis(f, r), lambda: kernel_slice(f, r),
                     lambda: projection_kernel_slice(f, r)):
            _, top = run(call)
            assert top > r
        for check in (check_contact_stability, check_legendre_stability):
            report, top = run(lambda: check(f, r))
            assert top == report.generator_bounds["slice_working_order"]
    # the fail path projects the escalated space: the cusp fails at order 4
    report, top = run(lambda: check_contact_stability(cusp25, 4))
    assert report.verdict == "fail" and top > 4


# -- integer rows ----------------------------------------------------------------------------


def _forbid_row_from_fractions(monkeypatch):
    def forbidden(entries):
        raise AssertionError("verdict-path rows are built in ints")
    for module in (deformations, stability):
        monkeypatch.setattr(module, "row_from_fractions", forbidden)


def test_checks_build_no_fraction_rows(monkeypatch, germ_corpus):
    # passing germs with rational coefficients keep the dims that the
    # Fraction-row builders gave (slice, tf, wf contact, wf Legendre, combined)
    _forbid_row_from_fractions(monkeypatch)
    cusp23, f42 = germ_corpus["cusp23_lift"], owu_normal_form(4, 2, cap=6)
    cases = ((f42, 2, (95, 50, 80, 76, 95)), (f42, 3, (210, 120, 175, 158, 210)),
             (cusp23, 5, (13, 6, 13, 12, 13)))
    for f, r, (slice_dim, tf, wf_contact, wf_legendre, combined) in cases:
        for check, wf in ((check_contact_stability, wf_contact),
                          (check_legendre_stability, wf_legendre)):
            report = check(f, r)
            assert report.verdict == "pass"
            assert report.dims == {"deformation_slice": slice_dim,
                                   "pushforward_span": tf, "hamiltonian_span": wf,
                                   "combined_span": combined, "deficiency": 0}
    assert local_multiplicity(f42) == (3, True)
    assert local_multiplicity(cusp23) == (1, True)


def test_builder_rows_are_primitive_int_rows(monkeypatch, germ_corpus):
    # the coefficients 5/2 (cusp25), 1/6 (f_4_2) and 3/2 (five_space) need a
    # common denominator; every row reaches the echelon as ints of content 1
    # with no zero entry, which the content reducer alone does not ensure
    _forbid_row_from_fractions(monkeypatch)
    for name, r in (("cusp25_lift", 5), ("f_4_2", 2), ("five_space", 3)):
        f = germ_corpus[name]
        ambient = DeformAmbient(f, r)
        rows = _tf_rows(f, r, ambient) + _wf_rows(f, r, ambient, False)
        rows += _wf_rows(f, r, ambient, True)
        builders = (_vi_rows(f), _generating_kernel_rows(f, r),
                    _generating_kernel_rows(f, f.cap), _projection_kernel_rows(f))
        for R in range(r + 2):
            for build in builders:
                rows += build(R)[0]
        for row in rows:
            assert row and all(type(v) is int and v for v in row.values()), name
            assert gcd(*row.values()) == 1, name


# sha256 of the rows below as the builders made them before they graded
# their tables once per system: any change of a row, of the row order or of
# the column count changes it
BUILDER_ROWS_SHA256 = "5140aa931e6400581b3304d6834a0b571136709e0fa1e2490483516c9cb2d26e"


def test_builder_rows_match_pinned_digest(germ_corpus):
    digest = hashlib.sha256()
    cases = (("cusp25_lift", germ_corpus["cusp25_lift"], 5),
             ("f_4_2", owu_normal_form(4, 2, cap=6), 2),
             ("five_space", germ_corpus["five_space"], 3))
    for name, f, r in cases:
        systems = (("vi", _vi_rows(f)), ("ker_r", _generating_kernel_rows(f, r)),
                   ("ker_cap", _generating_kernel_rows(f, f.cap)),
                   ("proj", _projection_kernel_rows(f)))
        for label, build in systems:
            for R in range(r + 3):
                rows, ncols = build(R)
                digest.update(repr((name, label, R, ncols,
                                    [sorted(row.items()) for row in rows])).encode())
        amb = DeformAmbient(f, r)
        for label, rows in (("tf", _tf_rows(f, r, amb)),
                            ("wf", _wf_rows(f, r, amb, False)),
                            ("wf_legendre", _wf_rows(f, r, amb, True))):
            digest.update(repr((name, label,
                                [sorted(row.items()) for row in rows])).encode())
    assert digest.hexdigest() == BUILDER_ROWS_SHA256


# -- an independent oracle for the Hamiltonian rows -----------------------------------------


def _target_monomial(f, e, cap):
    chart = f.target.chart
    H = chart.const(1, cap)
    for i, k in enumerate(e):
        H = H * chart.var(i, cap) ** k
    return H


def test_wf_rows_match_hamiltonian_fields_of_monomials():
    # the contact Hamiltonian field of every target monomial H of degree
    # <= r + 2 (affine in p for Legendre), in lex order, pulled back along f
    # through contact_hamiltonian and the ring: its nonzero truncated rows,
    # then the Reeb row, are exactly _wf_rows.  This route shares no code
    # with the composed monomial tables, the slot formula or the pruning of
    # exponents without a live part, so it checks all three
    for (n, k), r in (((1, 0), 4), ((2, 1), 4), ((3, 1), 3)):
        f = owu_normal_form(n, k, cap=r + 1)
        ambient = DeformAmbient(f, r)
        for legendre in (False, True):
            expected = []
            for e in sorted(monomials_upto(2 * n + 1, r + 2)):
                if any(e) and not (legendre and sum(e[:n]) > 1):
                    row = ambient.field_to_row(
                        wf_apply(f, _target_monomial(f, e, r + 2)))
                    if row:
                        expected.append(row)
            expected.append(ambient.field_to_row(reeb_along(f)))
            assert _wf_rows(f, r, ambient, legendre) == expected, (n, k, legendre)


def test_hamiltonian_fields_are_the_module_orbit_of_reeb(f21):
    # wf(H) = H * R for the Reeb field R along f, and wf(KH) = K * wf(H): the
    # Hamiltonian rows are the orbit of one generator under the module
    # multiplication on infinitesimal integral deformations; and K * tf(xi)
    # = tf((K o f) xi), because e(tf xi) = 0, so tf + wf is a module
    local = random.Random(20261017)

    def rand_poly(chart, maxdeg):
        monos = monomials_upto(chart.dim, maxdeg)
        return TruncatedPoly(chart.dim, 10, chart.kinds, {
            local.choice(monos): Fraction(local.randint(-3, 3)) for _ in range(4)})

    for f in (f21, owu_normal_form(1, 0, cap=10)):
        reeb = reeb_along(f)
        for _ in range(4):
            H, K = rand_poly(f.target.chart, 2), rand_poly(f.target.chart, 2)
            assert fields_same(wf_apply(f, H), module_mult(H, reeb))
            assert fields_same(wf_apply(f, K * H), module_mult(K, wf_apply(f, H)))
            xi = [rand_poly(f.source, 3) for _ in range(f.n)]
            Kf = f.pullback_function(K)
            assert fields_same(module_mult(K, tf_apply(f, xi)),
                               tf_apply(f, [Kf * x for x in xi]))


def test_flat_line_slice_dims(flat_line):
    assert vi_basis(flat_line, 0).dim == 3
    assert vi_basis(flat_line, 2).dim == 7


def test_wf_images_reduce_into_slice(f21):
    sl = vi_basis(f21, 3)
    amb = DeformAmbient(f21, 3)
    for _ in range(6):
        v = wf_apply(f21, rand_target_poly(f21, maxdeg=3))
        assert sl.contains(amb.field_to_row(v))
    for _ in range(6):
        v = tf_apply(f21, rand_source_field(f21, maxdeg=3))
        assert sl.contains(amb.field_to_row(v))


def test_slice_round_trip_fields(f21):
    amb = DeformAmbient(f21, 3)
    sl = vi_basis(f21, 3)
    for row in sl.basis_rows()[:5]:
        v = amb.row_to_field(row)
        assert amb.field_to_row(v) == row


def test_exactness_bookkeeping(f21, flat_line):
    for f, r in ((flat_line, 3), (f21, 4)):
        sl = vi_basis(f, r)
        img = generating_function_image(f, r, sl)
        rf = rf_truncated(f, r)
        ker_trunc = kernel_slice(f, r, truncated=True)
        assert img.equals(rf)
        assert sl.dim == img.dim + ker_trunc.dim


def test_genuine_kernel_inside_pushforward_span(f21):
    ker = kernel_slice(f21, 4)
    amb = DeformAmbient(f21, 4)
    tf_span = JetSubspace.from_rows(amb.dim, _tf_rows(f21, 4, amb))
    assert tf_span.contains_subspace(ker)


def test_cusp_kernel_escapes_pushforward_span(cusp25):
    ker = kernel_slice(cusp25, 4)
    amb = DeformAmbient(cusp25, 4)
    tf_span = JetSubspace.from_rows(amb.dim, _tf_rows(cusp25, 4, amb))
    assert not tf_span.contains_subspace(ker)


def test_projection_kernel_is_reeb_line(f21, cusp25, flat_line):
    for f in (f21, cusp25, flat_line):
        pk = projection_kernel_slice(f, 3)
        assert pk.dim == 1
        amb = DeformAmbient(f, 3)
        assert pk.contains(amb.field_to_row(reeb_along(f)))


def test_rf_flat_line_is_everything(flat_line):
    rf = rf_truncated(flat_line, 3)
    assert rf.dim == len(monomials_upto(1, 3))


def test_rf_f21_equals_pullback_algebra(f21):
    rf = rf_truncated(f21, 6)
    algebra = pullback_algebra_span(f21, 6)
    assert rf.equals(algebra)


def test_rf_cusp_equals_pullback_algebra(cusp25):
    # computed fact: for the (2,5)-cusp lift the chain-rule closure of the
    # pullback algebra adds nothing at order 7 (the instability is witnessed
    # on the kernel side instead)
    rf = rf_truncated(cusp25, 7)
    algebra = pullback_algebra_span(cusp25, 7)
    assert rf.contains_subspace(algebra)
    assert rf.equals(algebra)


def test_subspace_serialization(f21):
    doc = rf_truncated(f21, 3).to_doc()
    assert doc["dim"] == len(doc["rows"])
    assert doc["ambient_dim"] == len(monomials_upto(2, 3))
    for row in doc["rows"]:
        assert all(isinstance(k, str) and isinstance(v, str)
                   for k, v in row.items())
    # deterministic: serializing twice gives the same document
    assert rf_truncated(f21, 3).to_doc() == doc


# sha256 of json.dumps([name, r, rf_truncated(f, r).to_doc()]) over the corpus
# (names sorted) at r <= 8/6/4/3 for n = 1/2/3/4, as the escalated chain-rule
# system gave them before the closed form
RF_DOCS_SHA256 = "bbef673098cefd3550aaa8ed25ccff4b612d7b91b6ae3a8c24e9ff344156dce8"


def test_rf_docs_match_pinned_digest(germ_corpus):
    digest = hashlib.sha256()
    top = {1: 8, 2: 6, 3: 4, 4: 3}
    for name, f in sorted(germ_corpus.items()):
        for r in range(top[f.n] + 1):
            digest.update(json.dumps([name, r, rf_truncated(f, r).to_doc()],
                                     sort_keys=True).encode())
    assert digest.hexdigest() == RF_DOCS_SHA256


def test_rf_refuses_a_germ_not_in_coordinate_form(f21):
    # x1 -> x1 + x2^2 leaves no component of f_2_1 a multiple of a source
    # variable, so the closed form has no variable to integrate in
    x1, x2 = (f21.source.var(i, f21.cap) for i in range(2))
    sheared = IntegralMap(2, [c.substitute([x1 + x2 ** 2, x2]) for c in f21.components],
                          source=f21.source, provenance="sheared f_2_1")
    with pytest.raises(VariableMismatchError):
        rf_truncated(sheared, 3)


def test_rf_builds_no_solution_space(monkeypatch, f21, cusp25):
    def forbidden(*args):
        raise AssertionError("rf_truncated solves no constraint system")
    monkeypatch.setattr(linalg.SolutionSpace, "__init__", forbidden)
    assert rf_truncated(f21, 6).equals(pullback_algebra_span(f21, 6))
    assert rf_truncated(cusp25, 7).dim == pullback_algebra_span(cusp25, 7).dim


# -- closed-form slice dimensions ------------------------------------------------------------


def _closed_form_slice_dims(n, r):
    """(D + O, D, D): the projected slice dims at working orders r, r + 1
    and r + 2, with D the genuine jet image and O the over-count of the
    one-shot system (argument below)."""
    D = (n + 1) * comb(n + r, n) + comb(n + r, n - 1)
    O = 0 if n == 1 or r == 0 else (
        (n - 1) * comb(n + r - 1, n - 1) - comb(n + r - 1, n - 2))
    return D + O, D, D


def test_projected_slice_dims_have_a_closed_form(germ_corpus):
    # Every corpus germ is in coordinate form: n - 1 of its q-components are
    # multiples of distinct source variables, say q_j = x_j for j != k.  The
    # membership identity ds - sum p_i dxi_i - sum phi_i dq_i = 0 then reads,
    # in dx_j (j != k), phi_j = d_j s - sum p_i d_j xi_i - phi_k d_j q_k, and
    # in dx_k, d_k s = sum p_i d_k xi_i + phi_k d_k q_k.  So xi, phi_k and
    # s_0 = s restricted to x_k = 0 parametrise the genuine solutions freely,
    # and the other phi_j and s follow.  The r-jet of a solution holds the
    # r-jets of xi and phi_k, the degree <= r part of s_0, and, through
    # phi_j = d_j s_0 + ..., its degree r + 1 part: every other term it reads
    # comes from those.  The genuine jet image has dim
    #     D = (n + 1) C(n + r, n) + C(n + r, n - 1)
    # (xi_1..xi_n and phi_k of degree <= r, s_0 in n - 1 variables of degree
    # <= r + 1).  At working order r no equation has degree r, so the
    # degree-r parts of the phi_j (j != k) are free, where the genuine image
    # holds only the d_j s_0 of degree-(r + 1) parts of s_0: the over-count is
    #     O = (n - 1) C(n + r - 1, n - 1) - C(n + r - 1, n - 2).
    # From working order r + 1 on, the equations of degree r pin them, and
    # every truncated solution is the truncation of the genuine solution
    # with the same xi, phi_k and s_0, so the projection is D at r + 1 and
    # again at r + 2.  The same structure gives rf_truncated its closed form.
    top = {1: 7, 2: 5, 3: 3, 4: 2}
    for name, f in germ_corpus.items():
        for r in range(top[f.n] + 1):
            new_rows, low = _vi_rows(f), DeformAmbient(f, r).dim
            space = SolutionSpace(*_system(new_rows, r))
            dims = [space.projected_dim(low)]
            for R in (r + 1, r + 2):
                space.extend(*new_rows(R))
                dims.append(space.projected_dim(low))
            assert tuple(dims) == _closed_form_slice_dims(f.n, r), (name, r)
