"""Independent generator spans of a contact or Legendre stability check.

Built only from the bare polynomial helpers and the Fraction row echelon of
``oracles.py``, and written from the defining formulas, with no pruning:

* the pushforwards x^m d_j f of the monomial source fields, |m| <= r;
* the contact Hamiltonian fields X_H o f of every target monomial H of
  degree <= r + 2 (at most one p factor in Legendre mode), where in the
  coordinates (p, q, r) with alpha = dr - sum p_i dq_i

      X_H = sum (H_{q_i} + p_i H_r) d/dp_i - sum H_{p_i} d/dq_i
            + (H - sum p_i H_{p_i}) d/dr,

  so that alpha(X_H) = H.

Components are dicts of exponent tuples over Fraction, in the slot order
(p_1..p_n, q_1..q_n, r) of the target and of the deformation fields, and a
row is the dict (slot, source monomial) -> coefficient of degree <= r.
"""

from fractions import Fraction

from oracles import monos, padd, pdiff, pmul, pscale, span_dim


def _row(field, r):
    return {(slot, m): c for slot, comp in enumerate(field)
            for m, c in comp.items() if sum(m) <= r}


def _composer(comps, nv, r):
    """Target polynomial -> its pullback along f, truncated at degree r."""
    powers = {(0,) * len(comps): {(0,) * nv: Fraction(1)}}

    def monomial(e):
        if e not in powers:
            k = max(i for i, a in enumerate(e) if a)
            prev = e[:k] + (e[k] - 1,) + e[k + 1:]
            powers[e] = pmul(monomial(prev), comps[k], r)
        return powers[e]

    def compose(poly):
        out = {}
        for e, c in poly.items():
            out = padd(out, pscale(monomial(e), c))
        return out
    return compose


def tf_rows(comps, n, nv, r):
    rows = []
    for j in range(n):
        partials = [pdiff(c, j) for c in comps]
        for m in monos(nv, r):
            xm = {m: Fraction(1)}
            rows.append(_row([pmul(xm, d, r) for d in partials], r))
    return rows


def wf_rows(comps, n, nv, r, legendre):
    compose = _composer(comps, nv, r)
    big = r + 4           # no target product here exceeds degree r + 3
    rows = []
    for e in monos(2 * n + 1, r + 2):
        if legendre and sum(e[:n]) > 1:
            continue
        H = {e: Fraction(1)}
        p = [{tuple(int(k == i) for k in range(2 * n + 1)): Fraction(1)}
             for i in range(n)]
        H_r = pdiff(H, 2 * n)
        field = [padd(pdiff(H, n + i), pmul(p[i], H_r, big)) for i in range(n)]
        field += [pscale(pdiff(H, i), -1) for i in range(n)]
        s = H
        for i in range(n):
            s = padd(s, pscale(pmul(p[i], pdiff(H, i), big), -1))
        field.append(s)
        rows.append(_row([compose(c) for c in field], r))
    return rows


def generator_dims(comps, n, nv, r, legendre):
    """(pushforward span, Hamiltonian span, combined span) dims at order r."""
    tf = tf_rows(comps, n, nv, r)
    wf = wf_rows(comps, n, nv, r, legendre)
    return span_dim(tf), span_dim(wf), span_dim(tf + wf)
