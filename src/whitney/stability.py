"""Jet-level stability verdicts for integral map-germs.

Every check here is a finite, exact linear-algebra computation on truncated
jets, and every verdict is qualified by the jet order r and the cap used:
"fail" means a strictly positive deficiency at this order, "inconclusive"
means the cap was too small to stabilize the answer.  The jet slice of the
deformation space is an outer approximation (see ``deformations.vi_basis``),
which the reports record as a caveat.

Checks provided:

* contact / Legendre infinitesimal stability at order r: the jet slice of
  deformations must be filled by pushforwards of source fields plus contact
  (resp. fibration-lowerable) Hamiltonian fields along f;
* generation of the fiber quotient of the pullback algebra by the classes
  of 1 and the p-components, at a fixed order and in the stabilized form;
* the conclusive order: the smallest r such that every pullback-algebra
  element of vanishing r-jet is a pullback from the (n+2)-nd power of the
  target maximal ideal;
* umbrella type classification by local multiplicity, gated on the contact
  verdict;
* the additive extension of two integral unfoldings in graph form over the
  joined parameter space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from operator import add
from typing import Dict, List, Optional, Tuple

from .deformations import (DeformAmbient, PolyAmbient, _denominator, _escalate,
                           _int_terms, _primitive, _scatter, _system, _vi_rows,
                           materialize_slice)
from .errors import CapShortfallError, VariableMismatchError
from .forms import source_chart
from .integral_maps import IntegralMap, complete_from_uv
from .linalg import (Echelon, JetSubspace, Row, SolutionSpace, annihilates,
                     row_from_fractions)
from .ring import TruncatedPoly

OUTER_APPROX_CAVEAT = (
    "jet slice is the projection of the membership system solved at the "
    "working order; an outer approximation of the genuine jet image, pinned "
    "when two consecutive working orders agree")


# -- reports ----------------------------------------------------------------------


@dataclass
class StabilityReport:
    germ: str
    mode: str
    order: int
    cap: int
    verdict: str                      # pass | fail | inconclusive
    dims: Dict[str, int] = field(default_factory=dict)
    sub_verdicts: Dict[str, str] = field(default_factory=dict)
    generator_bounds: Dict[str, int] = field(default_factory=dict)
    witnesses: List[str] = field(default_factory=list)
    caveats: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_doc(self) -> dict:
        return {
            "germ": self.germ,
            "mode": self.mode,
            "order": self.order,
            "cap": self.cap,
            "verdict": self.verdict,
            "dims": dict(sorted(self.dims.items())),
            "sub_verdicts": dict(sorted(self.sub_verdicts.items())),
            "generator_bounds": dict(sorted(self.generator_bounds.items())),
            "witnesses": list(self.witnesses),
            "caveats": list(self.caveats),
        }

    def render_text(self) -> str:
        lines = [f"germ: {self.germ}",
                 f"mode: {self.mode}",
                 f"order: {self.order}",
                 f"cap: {self.cap}",
                 f"verdict: {self.verdict}"]
        for key, val in sorted(self.dims.items()):
            lines.append(f"dim {key}: {val}")
        for key, val in sorted(self.sub_verdicts.items()):
            lines.append(f"{key}: {val}")
        for key, val in sorted(self.generator_bounds.items()):
            lines.append(f"bound {key}: {val}")
        for w in self.witnesses:
            lines.append(f"cokernel witness: {w}")
        for c in self.caveats:
            lines.append(f"caveat: {c}")
        return "\n".join(lines)


def _germ_label(f: IntegralMap) -> str:
    return f"{f.provenance}[n={f.n}]"


# -- pullback algebra spans ----------------------------------------------------------


class _SpanEchelon:
    """Echelon of generator rows in which every stored row pivots on its
    lowest-degree monomial, the local degree ordering of standard bases for
    germs: the columns of an ambient laid out monomial-major over graded
    ascending monomials go in reversed (c -> dim-1-c).  Stored rows never
    change, so at each rank checkpoint the order->=k part of the span so far
    is spanned by the rows of pivot degree >= k, and the projection of the
    span to degree < k has rank the number of pivots of degree < k."""

    def __init__(self, ambient):
        self._ambient = ambient
        self._ech = Echelon()

    def insert(self, row: Row) -> bool:
        top = self._ambient.dim - 1
        return self._ech.insert({top - c: v for c, v in row.items()})

    @property
    def rank(self) -> int:
        return self._ech.rank

    def pivot_degrees(self) -> List[int]:
        """Pivot degree of each stored row, in insertion order."""
        amb = self._ambient
        top, width = amb.dim - 1, amb.dim // len(amb.monomials)
        return [sum(amb.monomials[(top - c) // width]) for c in self._ech.pivots]


def pullback_products(f: IntegralMap, degree: int):
    """All distinct products of components truncated at ``degree``.

    Returns (n_factors, n_base_factors, poly) triples, where base factors
    count q- and r-components (pullbacks from the fibration base).  Zero
    truncations are pruned together with their whole multiplicative cone.
    """
    if f.cap < degree:
        raise CapShortfallError(
            f"products to degree {degree} need cap >= {degree}, f has {f.cap}")
    comps = [c.truncate(degree) if c.cap > degree else c for c in f.components]
    usable = [i for i, c in enumerate(comps) if not c.is_zero()]
    one = f.source.const(1, degree)
    out = [(0, 0, one)]
    # depth-first in preorder: a frame (next slot, n_factors, n_base_factors,
    # product) multiplies by components from its slot on, and a new product
    # is expanded before its parent moves to the next slot
    stack = [(0, 0, 0, one)]
    while stack:
        pos, nfac, base_fac, prod = stack.pop()
        if pos == len(usable):
            continue
        stack.append((pos + 1, nfac, base_fac, prod))
        i = usable[pos]
        nxt = prod * comps[i]
        if nxt.is_zero():
            continue
        nb = base_fac + (1 if i >= f.n else 0)
        out.append((nfac + 1, nb, nxt))
        stack.append((pos, nfac + 1, nb, nxt))
    return out


def pullback_algebra_span(f: IntegralMap, degree: int) -> JetSubspace:
    """Truncation of the pullback algebra of target functions."""
    amb = PolyAmbient(f.source.dim, degree)
    return JetSubspace.from_rows(amb.dim, (
        amb.poly_to_row(poly) for _, _, poly in pullback_products(f, degree)))


# -- local multiplicity --------------------------------------------------------------


def local_multiplicity(f: IntegralMap, degree: Optional[int] = None):
    """dim of source functions modulo the ideal of the components, at jet
    scale, with a cap+1 stabilization flag (the degree-(d-1) system is the
    projection of the degree-d one, so its rank is a pivot count)."""
    degree = f.cap if degree is None else degree
    if degree < 2:
        raise CapShortfallError("multiplicity needs degree >= 2")
    amb = PolyAmbient(f.source.dim, degree)
    L = _denominator(f.components)
    rows: Dict = {}
    for c, comp in enumerate(f.components):
        terms = _int_terms(comp, L)
        for m in amb.monomials:
            _scatter(rows, terms, m, degree,
                     lambda mu: ((c, m), amb.mono_pos[mu]))
    ech = _SpanEchelon(amb)
    for row in rows.values():
        ech.insert(_primitive(row))
    high = amb.dim - ech.rank
    low = (math.comb(f.source.dim + degree - 1, f.source.dim)
           - sum(d < degree for d in ech.pivot_degrees()))
    return high, low == high


# -- contact / Legendre infinitesimal stability ----------------------------------------


def _tf_rows(f: IntegralMap, order: int, ambient: DeformAmbient):
    """Rows of pushforwards of monomial source fields, truncated, from the
    int terms of L times the partials (L a common denominator).  Each
    partial keeps, for every k <= order, its terms of degree <= k in their
    own order, so x^m meets only those of degree <= order - |m|."""
    rows: Dict = {}
    partials = [[comp.partial(j) for j in range(f.n)] for comp in f.components]
    L = _denominator(d for row in partials for d in row)
    upto = [[_terms_upto(_int_terms(d, L), order) for d in row] for row in partials]
    for j in range(f.n):
        for m in ambient.monomials:
            room = order - sum(m)
            for c in range(2 * f.n + 1):
                terms = upto[c][j][room]
                if terms:
                    _scatter(rows, terms, m, order,
                             lambda mu: ((j, m), ambient.column(c, mu)))
    return [_primitive(r) for r in rows.values()]


def _terms_upto(terms, top: int):
    """For each k <= top, the (monomial, value) pairs of degree <= k."""
    return [[t for t in terms if sum(t[0]) <= k] for k in range(top + 1)]


def _hamiltonian_exponents(f: IntegralMap, order: int, legendre: bool):
    """(live, exponents): the set of the target exponents x whose composed
    monomial M(x) is nonzero, and in lexicographic order the exponents e != 0
    of the monomial Hamiltonians whose field along f has a part M(x) with x
    live (see ``_wf_rows``).

    The lowest form of a product is the product of the lowest forms, nonzero
    since a polynomial ring is a domain, of degree sum_c x_c ord(c).  So x
    is live exactly when it puts no exponent on a component that is zero or
    truncates to zero at the jet order, and sum_c x_c ord(c) <= order.
    Components vanish at the origin, so each ord(c) >= 1, the set is
    finite, and lowering an entry of a live x keeps it live.

    The parts of e are M(x) for x = e - u_c (c a p- or q-slot), e - u_r +
    u_{p_i} and e, so e is one step above a live x: x + u_c, x + u_r -
    u_{p_i} (x_{p_i} >= 1) or x.  Each such part has a nonzero factor but
    the r slot of e = x when sum_i e_{p_i} = 1, and then the xi_i part of
    the p_i with e_{p_i} = 1 is live.  So these are exactly the exponents
    with a live part; their degree is at most order + 1, inside the
    Hamiltonian degree bound order + 2.  Legendre keeps those affine in p.
    """
    prefixes = [((), 0)]            # (prefix, its weighted order)
    for comp in f.components:
        w = comp.order()
        if w > order:
            prefixes = [(x + (0,), s) for x, s in prefixes]
        else:
            prefixes = [(x + (k,), s + k * w) for x, s in prefixes
                        for k in range((order - s) // w + 1)]
    live = {x for x, _ in prefixes}
    n, r_slot = f.n, 2 * f.n
    found = set()
    for x in live:
        found.add(x)
        for c in range(r_slot):
            found.add(x[:c] + (x[c] + 1,) + x[c + 1:])
        for i in range(n):
            if x[i]:
                found.add(x[:i] + (x[i] - 1,) + x[i + 1:r_slot] + (x[r_slot] + 1,))
    found.discard((0,) * (r_slot + 1))
    return live, sorted(e for e in found if not legendre or sum(e[:n]) <= 1)


def _int_product(a, b, top: int):
    """The product of two int tables (d, [(monomial, degree, int)]), each
    standing for its terms divided by d, truncated at degree top: (d_a d_b,
    the nonzero terms in the order ``TruncatedPoly.__mul__`` gives), or None
    when it truncates to zero."""
    (da, ta), (db, tb) = a, b
    if len(ta) > len(tb):
        ta, tb = tb, ta
    out: Dict[Tuple[int, ...], int] = {}
    for m1, d1, c1 in ta:
        room = top - d1
        for m2, d2, c2 in tb:
            if d2 <= room:
                mono = tuple(map(add, m1, m2))
                out[mono] = out.get(mono, 0) + c1 * c2
    terms = [(mono, sum(mono), v) for mono, v in out.items() if v]
    return (da * db, terms) if terms else None


def _composed_monomial(table: Dict, comps: List, top: int, e: Tuple[int, ...]):
    """The int table (prod d_c^e_c, int terms) of the product of component
    powers comps**e truncated at degree top, or None when that is zero.
    ``table`` memoizes every exponent reached and must hold the zero
    exponent; a missing one comes from its predecessor along the first
    positive slot."""
    chain = []
    while e not in table:
        i = next(i for i, k in enumerate(e) if k)
        chain.append((e, i))
        e = e[:i] + (e[i] - 1,) + e[i + 1:]
    val = table[e]
    for key, i in reversed(chain):
        if val is not None:
            val = _int_product(val, comps[i], top)
        table[key] = val
    return val


def _composed_monomials(f: IntegralMap, order: int):
    """Lookup target exponent tuple e -> the int table (d, [(monomial,
    degree, int)]) of d times the product of component powers, truncated at
    the jet order (None when zero), memoized per call.  Each component is
    scaled by the common denominator d_c of its coefficients and truncated
    once, and d is prod d_c^e_c, so no product touches a Fraction."""
    comps = []
    for c in f.components:
        d = _denominator([c])
        comps.append((d, [(m, sum(m), v) for m, v in _int_terms(c, d)
                          if sum(m) <= order]))
    table = {(0,) * (2 * f.n + 1): (1, [((0,) * f.source.dim, 0, 1)])}
    return partial(_composed_monomial, table, comps, order)


def _wf_rows(f: IntegralMap, order: int, ambient: DeformAmbient, legendre: bool):
    """Rows of Hamiltonian fields along f for monomial Hamiltonians.

    Components of the field of H = w^e along f, written with the composed
    monomial table M:
      phi_i slot: e_{q_i} M(e - u_{q_i}) + e_r M(e - u_r + u_{p_i})
      xi_i  slot: -e_{p_i} M(e - u_{p_i})
      r    slot: (1 - sum_i e_{p_i}) M(e)

    M(x) is nonzero exactly when x is live, a weight rule (see
    ``_hamiltonian_exponents``), so only exponents with a live part are
    visited, and a dead part, which adds no entry, is skipped without a
    lookup.

    M comes as int tables (d, d M), and a row is built as L times its
    rational row, L the lcm of its live parts' d (a dead part counted d = 1,
    so L is the same).  A positive multiple of a row content-reduces to the
    same primitive row, so d = prod d_c^e_c, not the least denominator of
    M(e), changes no row.
    """
    n = f.n
    ncomps = 2 * n + 1
    r_slot = 2 * n
    live, exponents = _hamiltonian_exponents(f, order, legendre)
    M = _composed_monomials(f, order)
    ints = {}
    rows = []

    def int_part(e):
        # M(e) as (d, [(slot-0 column, int coefficient of d * M(e))])
        if e not in ints:
            d, terms = M(e)
            ints[e] = (d, [(ambient.mono_pos[m] * ncomps, v) for m, _, v in terms])
        return ints[e]

    for e in exponents:
        e_r = e[r_slot]
        p_total = sum(e[:n])
        parts = []              # (slot, int factor, exponent x of M(x))
        # phi_i slots
        for i in range(n):
            if e[n + i]:
                parts.append((i, e[n + i], e[:n + i] + (e[n + i] - 1,) + e[n + i + 1:]))
            if e_r:
                parts.append((i, e_r, e[:i] + (e[i] + 1,) + e[i + 1:r_slot] + (e_r - 1,)))
        # xi_i slots
        for i in range(n):
            if e[i]:
                parts.append((n + i, -e[i], e[:i] + (e[i] - 1,) + e[i + 1:]))
        # r slot
        if p_total != 1:
            parts.append((r_slot, 1 - p_total, e))
        parts = [(slot, k, int_part(x)) for slot, k, x in parts if x in live]
        # one scale per row: the lcm of its parts' denominators
        L = math.lcm(*(d for _, _, (d, _) in parts))
        entries: Dict[int, int] = {}
        for slot, k, (d, terms) in parts:
            k *= L // d
            for base, v in terms:
                col = base + slot
                entries[col] = entries.get(col, 0) + k * v
        if entries:
            rows.append(_primitive(entries))
    # the constant Hamiltonian H = 1 contributes the Reeb field along f
    rows.append({ambient.column(r_slot, (0,) * f.source.dim): 1})
    return rows


def _stability_check(f: IntegralMap, order: int, legendre: bool) -> StabilityReport:
    if f.params:
        raise VariableMismatchError("stability checks need a parameter-free germ")
    if f.cap < order + 1:
        raise CapShortfallError(
            f"stability check at order {order} needs cap >= {order + 1}")
    ambient = DeformAmbient(f, order)
    new_rows = _vi_rows(f)
    constraints, _ = _system(new_rows, order)
    tf_rows = _tf_rows(f, order, ambient)
    wf_rows = _wf_rows(f, order, ambient, legendre)
    # structural guard: every generator satisfies the membership equations
    if not annihilates(constraints, tf_rows + wf_rows):
        raise CapShortfallError("generator escaped the jet slice; cap too small?")
    space = SolutionSpace(constraints, ambient.dim)     # grown by _escalate
    outer_dim = space.dim
    # the wf rows go into total first, so the rank at that checkpoint is the
    # Hamiltonian span; the tf rows follow, into total and into a tf-only
    # echelon for the pushforward span
    total, tf_span = _SpanEchelon(ambient), _SpanEchelon(ambient)
    for row in wf_rows:
        total.insert(row)
    wf_dim = total.rank
    for row in tf_rows:
        total.insert(row)
        tf_span.insert(row)
    combined_dim = total.rank
    if outer_dim == combined_dim:
        # the one-shot slice already agrees with the span: projection can
        # only sit between them, so the verdict is pinched to pass
        R, dim, stabilized = order, outer_dim, True
    else:
        R, dim, stabilized = _escalate(space, new_rows, order, f.cap - 1,
                                       ambient.dim)
    deficiency = dim - combined_dim
    if deficiency == 0:
        verdict = "pass"
    elif stabilized:
        verdict = "fail"
    else:
        verdict = "inconclusive"
    witnesses = []
    if verdict == "fail":
        # greedy, so the witnesses are independent modulo the combined span
        materialized = materialize_slice(space, ambient.dim)
        for vec in materialized.basis_rows():
            if total.insert(vec):
                witnesses.append(ambient.row_to_field(vec))
                if len(witnesses) == deficiency:
                    break
    mode = "legendre" if legendre else "contact"
    report = StabilityReport(
        germ=_germ_label(f),
        mode=mode,
        order=order,
        cap=f.cap,
        verdict=verdict,
        dims={
            "deformation_slice": dim,
            "pushforward_span": tf_span.rank,
            "hamiltonian_span": wf_dim,
            "combined_span": combined_dim,
            "deficiency": deficiency,
        },
        sub_verdicts={
            "slice_stabilized": "yes" if stabilized else "no",
        },
        generator_bounds={
            "source_field_degree": order,
            "hamiltonian_degree": order + 2,
            "slice_working_order": R,
        },
        witnesses=[repr(w) for w in witnesses],
        caveats=[OUTER_APPROX_CAVEAT],
    )
    if legendre:
        report.sub_verdicts["hamiltonians"] = "affine in p (lowerable through the fibration)"
    return report


def check_contact_stability(f: IntegralMap, order: int) -> StabilityReport:
    """Jet-order test of infinitesimal contact stability: the deformation
    slice must equal the span of pushforwards and Hamiltonian fields."""
    return _stability_check(f, order, legendre=False)


def check_legendre_stability(f: IntegralMap, order: int) -> StabilityReport:
    """Same with Hamiltonians restricted to those affine in p, the fields
    lowerable through the fibration (p, q, r) -> (q, r)."""
    return _stability_check(f, order, legendre=True)


# -- fiber generation conditions ----------------------------------------------------


def _fiber_generation_at(f: IntegralMap, degree: int
                         ) -> List[Tuple[int, int, bool]]:
    """(algebra dim, denominator dim, generated by 1 and the p-components)
    of the fiber quotient of the pullback algebra truncated at ``degree``-1
    and at ``degree``.

    The products go into one echelon in three phases: the denominator
    (products with a base factor), then 1 and the p-components (the
    products of at most one factor and no base factor), then the rest.
    1 and the p_i are products themselves, so the final rank is the algebra
    dim, and the quotient is generated exactly when the last phase adds no
    pivot.  The degree-(d-1) products are the degree-d ones truncated, so
    their dims are pivot counts at the same checkpoints."""
    amb = PolyAmbient(f.source.dim, degree)
    products = pullback_products(f, degree)
    ech = _SpanEchelon(amb)
    ranks = []
    for phase in range(3):
        for nfac, base_fac, poly in products:
            if (0 if base_fac else 1 if nfac <= 1 else 2) == phase:
                ech.insert(amb.poly_to_row(poly))
        ranks.append(ech.rank)
    degrees = ech.pivot_degrees()
    dims = [[sum(d <= bound for d in degrees[:rank]) for rank in ranks]
            for bound in (degree - 1, degree)]
    return [(algebra, denominator, algebra == generators)
            for denominator, generators, algebra in dims]


def _gated_verdict(f: IntegralMap, order: int,
                   contact_report: Optional[StabilityReport], generated: bool,
                   stabilized: bool = True) -> Tuple[str, str]:
    """(verdict, gate) of a generation condition gated on the umbrella check,
    the contact verdict at the same order."""
    if contact_report is None:
        contact_report = check_contact_stability(f, order)
    gate = contact_report.verdict
    if not stabilized or gate == "inconclusive":
        return "inconclusive", gate
    return ("pass" if generated and gate == "pass" else "fail"), gate


def check_fiber_generation(f: IntegralMap, order: int,
                           contact_report: Optional[StabilityReport] = None
                           ) -> StabilityReport:
    """Order-r generation condition on the fiber quotient of the pullback
    algebra (CLI mode "a2r").

    The quotient of the truncated pullback algebra by (base ideal) *
    (pullback algebra) + (elements of vanishing (r+1)-jet) must be generated
    by the classes of 1 and the p-components, and f must pass the umbrella
    gate (the contact check at the same order): both clauses of the
    condition.
    """
    degree = order + 1
    if f.cap < degree:
        raise CapShortfallError(
            f"fiber generation at order {order} needs cap >= {degree}")
    algebra_dim, denominator_dim, generated = _fiber_generation_at(f, degree)[1]
    verdict, gate = _gated_verdict(f, order, contact_report, generated)
    report = StabilityReport(
        germ=_germ_label(f),
        mode="a2r",
        order=order,
        cap=f.cap,
        verdict=verdict,
        dims={
            "algebra_slice": algebra_dim,
            "denominator": denominator_dim,
            "fiber_quotient": algebra_dim - denominator_dim,
        },
        sub_verdicts={
            "generated_by_1_and_p": "pass" if generated else "fail",
            "umbrella_gate": gate,
        },
        caveats=["umbrella gate decided by the contact check at the same order"],
    )
    return report


@dataclass
class FiberQuotient:
    dim: int
    generated: bool
    stabilized: bool
    degree: int


def fiber_quotient(f: IntegralMap, degree: Optional[int] = None) -> FiberQuotient:
    """Dimension of the stabilized fiber quotient and its generation verdict
    (raw algebra facts; the stability condition additionally needs the
    umbrella gate)."""
    degree = f.cap if degree is None else degree
    if degree < 2:
        raise CapShortfallError("fiber quotient needs degree >= 2")
    _, mult_stable = local_multiplicity(f, degree)
    (a0, d0, gen0), (a1, d1, gen1) = _fiber_generation_at(f, degree)
    return FiberQuotient(dim=a1 - d1, generated=gen1,
                         stabilized=(a0 - d0 == a1 - d1 and gen0 == gen1
                                     and mult_stable),
                         degree=degree)


def check_generation_stable(f: IntegralMap, order: int,
                            contact_report: Optional[StabilityReport] = None
                            ) -> StabilityReport:
    """Stabilized generation condition (library only; no CLI mode reaches
    it): the clauses of "a2r" with the quotient computed at the working cap
    and required to be cap-stable."""
    fq = fiber_quotient(f)
    verdict, gate = _gated_verdict(f, order, contact_report, fq.generated,
                                   fq.stabilized)
    return StabilityReport(
        germ=_germ_label(f),
        mode="a_prime",
        order=order,
        cap=f.cap,
        verdict=verdict,
        dims={"fiber_quotient": fq.dim},
        sub_verdicts={
            "generated_by_1_and_p": "pass" if fq.generated else "fail",
            "stabilized": "yes" if fq.stabilized else "no",
            "umbrella_gate": gate,
        },
    )


# -- conclusive order -----------------------------------------------------------------


@dataclass
class ConclusiveOrder:
    value: Optional[int]
    stable: bool
    degree: int
    search_cap: int

    @property
    def conclusive(self) -> bool:
        return self.value is not None and self.stable


def _inclusion_order_at(f: IntegralMap, degree: int, search_cap: int) -> Optional[int]:
    amb = PolyAmbient(f.source.dim, degree)
    # the target products (n+2 factors or more) go in first, so dim A>=k -
    # dim T>=k counts the later rows of pivot degree >= k
    products = pullback_products(f, degree)
    ech = _SpanEchelon(amb)
    for in_target in (True, False):
        for nfac, _, poly in products:
            if (nfac >= f.n + 2) == in_target:
                ech.insert(amb.poly_to_row(poly))
        if in_target:
            target_rank = ech.rank
    order = max(ech.pivot_degrees()[target_rank:], default=0)
    return order if order <= search_cap else None


def compute_conclusive_order(f: IntegralMap, search_cap: Optional[int] = None
                             ) -> ConclusiveOrder:
    """Smallest r with: every truncated pullback-algebra element of order
    >= r+1 lies among pullbacks from the (n+2)-nd target ideal power.

    Computed at working degree cap-1 and re-checked at cap; reported as
    inconclusive when not found below the search cap or unstable under the
    cap increase.
    """
    degree = f.cap - 1
    if degree < 2:
        raise CapShortfallError("conclusive order needs cap >= 3")
    if search_cap is None:
        search_cap = degree - 1
    search_cap = min(search_cap, degree - 1)
    low = _inclusion_order_at(f, degree, search_cap)
    high = _inclusion_order_at(f, degree + 1, search_cap)
    return ConclusiveOrder(
        value=low if (low is not None and low == high) else None,
        stable=(low is not None and low == high),
        degree=degree,
        search_cap=search_cap,
    )


def default_order(f: IntegralMap, search_cap: Optional[int] = None):
    """max(ceil(n/2) + 1, conclusive order); falls back to the first term
    with a caveat when the conclusive order is not reachable at this cap."""
    base = math.ceil(Fraction(f.n, 2)) + 1
    co = compute_conclusive_order(f, search_cap)
    if co.conclusive:
        return max(base, co.value), None
    return base, ("conclusive order not reached below search cap "
                  f"{co.search_cap} at degree {co.degree}; using the "
                  "dimension-based default")


def singular_locus_evidence(f: IntegralMap):
    """Jet-level evidence that the singular locus has codimension >= 2.

    For an immersion the locus is empty.  For n = 1 a singular point has
    codimension one, so the evidence fails.  Otherwise the 2x2 minors of
    the source Jacobian must contain two equations with independent linear
    parts at the origin.
    """
    if f.corank() == 0:
        return True, "immersion: singular locus empty"
    if f.n == 1:
        return False, "singular point of a curve has codimension one"
    ech = Echelon()
    for minor in f.singular_locus_minors():
        linear = minor.homogeneous_part(1)
        if linear.is_zero():
            continue
        ech.insert(row_from_fractions(
            {i: linear.coefficient(tuple(1 if j == i else 0
                                         for j in range(f.source.dim)))
             for i in range(f.source.dim)}))
        if ech.rank >= 2:
            return True, "two minors with independent linear parts"
    return False, "minor ideal linear parts have rank < 2 at this jet"


def ca_evidence_report(f: IntegralMap, order: int) -> StabilityReport:
    """Library-only evidence report (no CLI mode reaches it) for the closure
    condition: the chain-rule closure R_f (``rf_truncated``: needs n - 1
    components that are multiples of distinct source variables, else raises
    ``VariableMismatchError``) adds nothing to the pullback algebra at this
    order, and the singular locus looks codimension >= 2 at jet level.  The
    analytic half of the genuine condition (a complex representative whose
    singular locus has codimension >= 2) is not decidable from jets, so the
    verdict is labeled evidence, never the condition itself.
    """
    from .deformations import rf_truncated
    closure = rf_truncated(f, order)
    algebra = pullback_algebra_span(f, order)
    closure_equal = closure.equals(algebra)
    codim_ok, codim_note = singular_locus_evidence(f)
    return StabilityReport(
        germ=_germ_label(f),
        mode="ca-evidence",
        order=order,
        cap=f.cap,
        verdict="pass" if (closure_equal and codim_ok) else "fail",
        dims={
            "chain_rule_closure": closure.dim,
            "pullback_algebra": algebra.dim,
        },
        sub_verdicts={
            "closure_equals_algebra": "pass" if closure_equal else "fail",
            "codimension_two_evidence": "pass" if codim_ok else "fail",
            "codimension_note": codim_note,
        },
        caveats=["evidence only: the analytic clause of the closure "
                 "condition is not decidable at jet level"],
    )


# -- umbrella classification ------------------------------------------------------------


@dataclass
class Classification:
    type_k: Optional[int]
    multiplicity: Optional[int]
    stabilized: bool
    verdict: str                      # type k | not-an-umbrella | inconclusive
    contact_report: StabilityReport

    def to_doc(self) -> dict:
        return {
            "verdict": self.verdict,
            "type": self.type_k,
            "multiplicity": self.multiplicity,
            "multiplicity_stabilized": self.stabilized,
            "contact": self.contact_report.to_doc(),
        }


def classify_umbrella(f: IntegralMap, order: int,
                      contact_report: Optional[StabilityReport] = None
                      ) -> Classification:
    """Type k = local multiplicity - 1, gated on the contact verdict at the
    given order; germs failing the gate are not umbrellas at this order."""
    if contact_report is None:
        contact_report = check_contact_stability(f, order)
    if contact_report.verdict != "pass":
        return Classification(None, None, False, "not-an-umbrella",
                              contact_report)
    mult, stable = local_multiplicity(f)
    if not stable:
        return Classification(None, mult, False, "inconclusive", contact_report)
    return Classification(mult - 1, mult, True, f"type {mult - 1}", contact_report)


# -- unfolding extension -------------------------------------------------------------------


def _graph_data(F: IntegralMap) -> Tuple[TruncatedPoly, TruncatedPoly]:
    """Extract (u, v) from an unfolding in graph form (q_i = x_i, i < n)."""
    for i in range(F.n - 1):
        expected = F.source.var(i, F.q_component(i).cap)
        if not F.q_component(i).same_jet(expected):
            raise VariableMismatchError(
                "unfolding is not in graph form: q_%d != x_%d" % (i + 1, i + 1))
    return F.q_component(F.n - 1), F.p_component(F.n - 1)


def extend_unfoldings(F: IntegralMap, Fprime: IntegralMap) -> IntegralMap:
    """Extend two integral unfoldings of one germ over the joined parameters.

    Both inputs must be in graph form over disjoint parameter lists and
    restrict to the same germ at parameter zero.  The extension adds the
    graph data (U + U' - u, V + V' - v) and re-completes, with derivatives
    and integrals in the source variables only, so the restrictions to
    either parameter axis recover the inputs exactly.
    """
    if F.n != Fprime.n:
        raise VariableMismatchError("unfoldings of germs of different dimension")
    n = F.n
    if set(F.params) & set(Fprime.params):
        raise VariableMismatchError("parameter names must be disjoint")
    U, V = _graph_data(F)
    Up, Vp = _graph_data(Fprime)
    base = F.restrict_params([Fraction(0)] * len(F.params))
    base_p = Fprime.restrict_params([Fraction(0)] * len(Fprime.params))
    if base != base_p:
        raise VariableMismatchError("unfoldings disagree at parameter zero")
    params = F.params + Fprime.params
    chart = source_chart(n, params, names=F.source.names[:n])
    nv = chart.dim

    def embed(poly: TruncatedPoly, param_names) -> TruncatedPoly:
        index_map = list(range(n)) + [n + params.index(p) for p in param_names]
        return poly.extend(nv, chart.kinds, index_map)

    u0, v0 = _graph_data(base)
    u0e = embed(u0, ())
    Ue, Ve = embed(U, F.params), embed(V, F.params)
    Upe, Vpe = embed(Up, Fprime.params), embed(Vp, Fprime.params)
    v0e = embed(v0, ())
    U_tilde = Ue + Upe - u0e
    V_tilde = Ve + Vpe - v0e
    return complete_from_uv(n, U_tilde, V_tilde, params=params,
                            provenance="extended_unfolding", source=chart)
