"""Infinitesimal integral deformations of an integral map-germ.

A ``DeformationField`` over f holds components (phi_1..phi_n, xi_1..xi_n, s)
in the source variables: the candidate velocity of a deformation of f.  It
is a genuine infinitesimal *integral* deformation when the pullback of the
lifted contact form vanishes, equivalently

    d(e(v)) + sum xi_i d(p_i o f) - sum phi_i d(q_i o f) = 0,

with generating function e(v) = s - sum (p_i o f) xi_i.  That identity is
checked exactly within cap and cached as a certificate.

Jet-level spaces: for jets of degree <= r the membership identity is only
visible in its 1-form coefficients of degree < r, and the one-shot solve at
the slice order over-counts (a jet can satisfy the visible equations without
extending).  Every jet slice is therefore computed on one path.  A system
builder gives the linear system at a working order R, whose first columns
are the coordinates of degree <= r; ``_escalate`` raises R until the
projected dimension repeats (the chain is monotone decreasing and bounded
below by the genuine jet image, so two equal consecutive values pin it);
``_project_solutions`` then solves the last system built and projects.  The
builders are the membership system with its two kernel variants
(``vi_basis``, ``kernel_slice``, ``projection_kernel_slice``) and the
chain-rule system of ``rf_truncated`` (function jets h with dh inside the
truncated module spanned by the differentials of f's components).  All of
them, and the spanning sets of the stability module, write their sparse
rows through ``_scatter``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Dict, Optional, Sequence, Tuple

from .contact import contact_hamiltonian
from .errors import (CapShortfallError, UncertifiedFieldError,
                     VariableMismatchError)
from .forms import DiffForm, FieldAlongMap
from .integral_maps import IntegralMap
from .linalg import Echelon, JetSubspace, Row, SolutionSpace, row_from_fractions
from .ring import TruncatedPoly, monomials_upto


class DeformationField:
    """Vector field along an integral map, in (phi, xi, s) fiber layout."""

    def __init__(self, base: IntegralMap, components: Sequence[TruncatedPoly]):
        if len(components) != 2 * base.n + 1:
            raise VariableMismatchError("expected 2n+1 fiber components")
        for comp in components:
            base.source.check_poly(comp)
        self.base = base
        self.components = tuple(components)
        self.cap = min(min(c.cap for c in components), base.cap)
        self._violation = None
        self._checked = False

    def xi(self, i: int) -> TruncatedPoly:
        return self.components[self.base.n + i]

    @property
    def s(self) -> TruncatedPoly:
        return self.components[2 * self.base.n]

    def as_field(self) -> FieldAlongMap:
        return FieldAlongMap(self.base.as_map(), self.components)

    def __add__(self, other: "DeformationField") -> "DeformationField":
        if other.base is not self.base and other.base != self.base:
            raise VariableMismatchError("fields along different maps")
        return DeformationField(self.base, [a + b for a, b in
                                            zip(self.components, other.components)])

    def scale(self, c) -> "DeformationField":
        return DeformationField(self.base, [p.scale(c) for p in self.components])

    # -- certificate -----------------------------------------------------------

    def lifted_form_pullback(self) -> DiffForm:
        """v* of the tangent lift of the contact form, as a source 1-form."""
        f = self.base
        alpha = f.target.alpha(self.cap + 1)
        lifted = alpha.tangent_lift()
        return self.as_field().pullback_from_tangent(lifted, active=f.active)

    def violation(self):
        """None for a certified member of the deformation space; otherwise
        the lowest-degree offending term of the pulled-back lifted form."""
        if not self._checked:
            pulled = self.lifted_form_pullback()
            self._violation = None if pulled.is_zero() else pulled.lowest_term()
            self._checked = True
        return self._violation

    def is_integral_deformation(self) -> bool:
        return self.violation() is None

    def require_certified(self, what: str):
        if not self.is_integral_deformation():
            raise UncertifiedFieldError(
                f"{what} requires a certified integral deformation; "
                f"violation {self.violation()}")

    # -- generating function -----------------------------------------------------

    def generating_function(self) -> TruncatedPoly:
        """e(v) = i_v alpha = s - sum (p_i o f) xi_i."""
        f = self.base
        e = self.s
        for i in range(f.n):
            e = e - f.p_component(i) * self.xi(i)
        return e

    def __repr__(self):
        names = self.base.source.names
        labels = ([f"phi{i + 1}" for i in range(self.base.n)]
                  + [f"xi{i + 1}" for i in range(self.base.n)] + ["s"])
        body = "; ".join(f"{l} = {c.render(names)}"
                         for l, c in zip(labels, self.components))
        return f"DeformationField({body})"


def interior_with_alpha(v: DeformationField) -> TruncatedPoly:
    """i_v alpha computed through the forms layer (cross-check route)."""
    f = v.base
    return v.as_field().interior(f.target.alpha(v.cap + 1),
                                 active=f.active).coefficient(())


def tf_apply(f: IntegralMap, xi: Sequence[TruncatedPoly]) -> DeformationField:
    """Push a source vector field through the differential of f."""
    if len(xi) != f.n:
        raise VariableMismatchError("source field needs n components")
    comps = []
    for c in range(2 * f.n + 1):
        total = None
        for j in range(f.n):
            term = xi[j] * f.components[c].partial(j)
            total = term if total is None else total + term
        comps.append(total)
    return DeformationField(f, comps)


def wf_apply(f: IntegralMap, H: TruncatedPoly) -> DeformationField:
    """Evaluate the contact Hamiltonian field of H along f."""
    XH = contact_hamiltonian(f.target, H)
    comps = [f.pullback_function(c) for c in XH.components]
    return DeformationField(f, comps)


def reeb_along(f: IntegralMap, cap: Optional[int] = None) -> DeformationField:
    cap = f.cap if cap is None else cap
    comps = [f.source.zero(cap) for _ in range(2 * f.n)]
    comps.append(f.source.const(1, cap))
    return DeformationField(f, comps)


def module_mult(H: TruncatedPoly, v: DeformationField) -> DeformationField:
    """The module multiplication H * v = f*H v + e(v) (X_H - H R) o f.

    Requires a certified v; the result is certified again (and the
    construction guarantees it within cap).
    """
    v.require_certified("module multiplication")
    f = v.base
    f.target.chart.check_poly(H)
    fH = f.pullback_function(H)
    e = v.generating_function()
    cc = f.target
    XH = contact_hamiltonian(cc, H)
    # X_H - H R only changes the dr slot
    correction = list(XH.components)
    correction[cc.r_index] = correction[cc.r_index] - H.truncate(
        min(H.cap, correction[cc.r_index].cap))
    comps = []
    for c in range(2 * f.n + 1):
        comps.append(fH * v.components[c] + e * f.pullback_function(correction[c]))
    out = DeformationField(f, comps)
    out.require_certified("module multiplication result")
    return out


# -- jet ambient and linear systems ---------------------------------------------


class DeformAmbient:
    """Coordinates on the space of component jets of degree <= order.

    Column index is monomial-major with graded ascending monomials, so the
    largest column of a vector is its highest-degree coefficient; the
    constraint systems pivot on those (the generator spans of ``stability``
    reverse the columns and pivot on the lowest-degree one).
    """

    def __init__(self, f: IntegralMap, order: int):
        if f.params:
            raise VariableMismatchError("jet spaces need a parameter-free germ")
        self.f = f
        self.order = order
        self.ncomps = 2 * f.n + 1
        self.monomials = monomials_upto(f.source.dim, order)
        self.mono_pos = {m: i for i, m in enumerate(self.monomials)}
        self.dim = self.ncomps * len(self.monomials)

    def column(self, comp: int, mono: Tuple[int, ...]) -> int:
        return self.mono_pos[mono] * self.ncomps + comp

    def field_to_row(self, v: DeformationField) -> Row:
        """Truncate the field to the jet order and vectorize."""
        entries: Dict[int, Fraction] = {}
        for c, poly in enumerate(v.components):
            for mono, coeff in poly.terms.items():
                if sum(mono) <= self.order:
                    entries[self.column(c, mono)] = coeff
        return row_from_fractions(entries)

    def row_to_field(self, row: Row) -> DeformationField:
        polys = []
        for c in range(self.ncomps):
            terms = {}
            for col, val in row.items():
                if col % self.ncomps == c:
                    terms[self.monomials[col // self.ncomps]] = Fraction(val)
            polys.append(TruncatedPoly(self.f.source.dim, self.order,
                                       self.f.source.kinds, terms))
        return DeformationField(self.f, polys)


class PolyAmbient:
    """Coordinates on the space of function jets of degree <= order."""

    def __init__(self, nvars: int, order: int):
        self.order = order
        self.monomials = monomials_upto(nvars, order)
        self.mono_pos = {m: i for i, m in enumerate(self.monomials)}
        self.dim = len(self.monomials)

    def poly_to_row(self, h: TruncatedPoly) -> Row:
        entries = {self.mono_pos[m]: c for m, c in h.terms.items()
                   if sum(m) <= self.order}
        return row_from_fractions(entries)


def _scatter(rows: Dict, terms, shift: Tuple[int, ...], bound: int, place,
             scale=1) -> None:
    """Add ``scale * x**shift * terms`` into the sparse matrix ``rows`` (row
    key -> {column: value}), dropping monomials of degree > bound.

    ``terms`` holds (monomial, coefficient) pairs and ``place(mu)`` names the
    (row key, column) that the shifted monomial mu lands in: an equation
    key and a fixed unknown for a constraint system, or a fixed generator
    and a coordinate column for a spanning set."""
    for mono, coeff in terms:
        mu = tuple(a + b for a, b in zip(mono, shift))
        if sum(mu) <= bound:
            key, col = place(mu)
            row = rows.setdefault(key, {})
            row[col] = row.get(col, 0) + scale * coeff


def _vi_constraint_rows(f: IntegralMap, order: int, ambient: DeformAmbient):
    """Sparse rows of the membership system: for v of jet degree <= order,
    the coefficients of degree < order of

        d(s) - sum (p_i o f) d(xi_i) - sum phi_i d(q_i o f)

    must vanish.  Equations are indexed by (dx_j, monomial mu)."""
    n = f.n
    cap_needed = order + 1
    if f.cap < cap_needed:
        raise CapShortfallError(
            f"jet system at order {order} needs cap >= {cap_needed}, f has {f.cap}")
    eqs: Dict = {}
    unit = (((0,) * f.source.dim, 1),)
    p_terms = [f.p_component(i).terms.items() for i in range(n)]
    dq = [[f.q_component(i).partial(j).terms.items() for j in range(n)]
          for i in range(n)]
    for m in ambient.monomials:
        # d(s): sum_j m_j x^{m - e_j} dx_j
        col = ambient.column(2 * n, m)
        for j in range(n):
            if m[j]:
                low = m[:j] + (m[j] - 1,) + m[j + 1:]
                _scatter(eqs, unit, low, order - 1, lambda mu: ((j, mu), col), m[j])
        # -(p_i o f) d(xi_i)
        for i in range(n):
            col = ambient.column(n + i, m)
            for j in range(n):
                if m[j]:
                    low = m[:j] + (m[j] - 1,) + m[j + 1:]
                    _scatter(eqs, p_terms[i], low, order - 1,
                             lambda mu: ((j, mu), col), -m[j])
        # -phi_i d(q_i o f)
        for i in range(n):
            col = ambient.column(i, m)
            for j in range(n):
                _scatter(eqs, dq[i][j], m, order - 1,
                         lambda mu: ((j, mu), col), -1)
    return [row_from_fractions(r) for r in eqs.values()]


def _e_vanishing_rows(f: IntegralMap, order: int, ambient: DeformAmbient):
    """Rows forcing the generating function e(v) = s - sum (p_i o f) xi_i to
    vanish in all coefficients of degree <= order."""
    n = f.n
    eqs: Dict = {}
    unit = (((0,) * f.source.dim, 1),)
    for m in ambient.monomials:
        col = ambient.column(2 * n, m)
        _scatter(eqs, unit, m, order, lambda mu: (mu, col))
        for i in range(n):
            col = ambient.column(n + i, m)
            _scatter(eqs, f.p_component(i).terms.items(), m, order,
                     lambda mu: (mu, col), -1)
    return [row_from_fractions(r) for r in eqs.values()]


# A jet system is (rows, ncols, low_dim): constraint rows over the unknowns at
# a working order R, whose first low_dim columns are the coordinates of the
# projection to degree <= r.  Both layouts below order monomials graded
# ascending, so the degree <= r monomials of order R are, in the same order,
# the monomials of order r: the projection keeps a prefix of the columns.


def _slice_system(f: IntegralMap, order: int, working_order: int,
                  variant: str = "full", e_degree: Optional[int] = None):
    """The membership system at the working order, with the extra rows of a
    kernel variant, projected to the slice order."""
    ambient = DeformAmbient(f, working_order)
    rows = _vi_constraint_rows(f, working_order, ambient)
    if variant == "generating_kernel":
        rows.extend(_e_vanishing_rows(
            f, working_order if e_degree is None else e_degree, ambient))
    elif variant == "projection_kernel":
        for c in range(2 * f.n):
            for m in ambient.monomials:
                rows.append({ambient.column(c, m): 1})
    elif variant != "full":
        raise ValueError(f"unknown slice variant {variant!r}")
    return rows, ambient.dim, DeformAmbient(f, order).dim


def _rf_system(f: IntegralMap, order: int, working_order: int):
    """Constraint rows for jets h of degree <= working_order with
    dh = sum a_c d(f_c) below it, projected to degree <= order.

    Columns: the h block first, then one coefficient block per component
    (degree <= working_order - 1)."""
    R = working_order
    h_amb = PolyAmbient(f.source.dim, R)
    a_amb = PolyAmbient(f.source.dim, max(R - 1, 0))
    ncomps = 2 * f.n + 1
    eqs: Dict = {}
    unit = (((0,) * f.source.dim, 1),)
    for pos, m in enumerate(h_amb.monomials):
        for j in range(f.n):
            if m[j]:
                low = m[:j] + (m[j] - 1,) + m[j + 1:]
                _scatter(eqs, unit, low, R - 1, lambda mu: ((j, mu), pos), m[j])
    dcomps = [[f.components[c].partial(j).terms.items() for j in range(f.n)]
              for c in range(ncomps)]
    for c in range(ncomps):
        for apos, am in enumerate(a_amb.monomials):
            col = h_amb.dim + c * a_amb.dim + apos
            for j in range(f.n):
                _scatter(eqs, dcomps[c][j], am, R - 1,
                         lambda mu: ((j, mu), col), -1)
    rows = [row_from_fractions(r) for r in eqs.values()]
    return rows, h_amb.dim + ncomps * a_amb.dim, PolyAmbient(f.source.dim, order).dim


def _projected_dim(rows, ncols: int, low_dim: int) -> int:
    """dim of the projection of the solution space to the first low_dim
    columns, by rank arithmetic: no basis is ever materialized."""
    ech = Echelon()
    for row in rows:
        ech.insert(row)
    rank_constraints = ech.rank
    for col in range(low_dim):
        ech.insert({col: 1})
    return ech.rank - rank_constraints


def _escalate(system_at, order: int, max_working_order: int, dim: int):
    """(R, dim, stabilized, system): raise the working order R from the slice
    order, whose projected dimension ``dim`` is known, until the projected
    dimension of ``system_at(R)`` repeats (monotone decreasing, so two equal
    consecutive values pin it) or R reaches max_working_order.  ``system``
    is the last system built, None if R never rose."""
    R, system = order, None
    while R < max_working_order:
        R += 1
        system = system_at(R)
        nxt = _projected_dim(*system)
        if nxt == dim:
            return R, dim, True, system
        dim = nxt
    return R, dim, False, system


def _project_solutions(rows, ncols: int, low_dim: int) -> JetSubspace:
    """Reduced basis of the projection of the solution space to the first
    low_dim columns."""
    out = JetSubspace(low_dim)
    for vec in SolutionSpace(rows, ncols).basis_iter():
        out.insert({c: v for c, v in vec.items() if c < low_dim})
    return out


@dataclass
class SliceData:
    """Dimension data of a projected jet slice of the deformation space."""
    order: int
    working_order: int
    stabilized: bool
    dim: int


def deformation_slice(f: IntegralMap, order: int,
                      max_working_order: Optional[int] = None) -> SliceData:
    """Projected jet slice of the deformation space at the given order,
    escalated from the slice order to at most ``max_working_order``
    (default cap - 1)."""
    if max_working_order is None:
        max_working_order = f.cap - 1
    if max_working_order < order:
        raise CapShortfallError(
            f"slice at order {order} needs cap >= {order + 1}, f has {f.cap}")
    system_at = partial(_slice_system, f, order)
    R, dim, stabilized, _ = _escalate(system_at, order, max_working_order,
                                      _projected_dim(*system_at(order)))
    return SliceData(order, R, stabilized, dim)


def materialize_slice(f: IntegralMap, order: int, working_order: int) -> JetSubspace:
    """Reduced basis, in order-r jet coordinates, of the projected slice."""
    return _project_solutions(*_slice_system(f, order, working_order))


def _stabilized_slice(f: IntegralMap, order: int, builder, **variant) -> JetSubspace:
    """Escalate the system of ``builder`` from the slice order and project
    the solutions of the last system built."""
    system_at = partial(builder, f, order, **variant)
    system = system_at(order)
    _, _, _, last = _escalate(system_at, order, f.cap - 1, _projected_dim(*system))
    return _project_solutions(*(last or system))


def vi_basis(f: IntegralMap, order: int) -> JetSubspace:
    """Reduced basis of the jet slice of the deformation space at the given
    order (stabilized projection from the working order)."""
    return _stabilized_slice(f, order, _slice_system)


def kernel_slice(f: IntegralMap, order: int, truncated: bool = False) -> JetSubspace:
    """Jet slice of the deformations with vanishing generating function.

    ``truncated=True`` only kills the coefficients of e up to the slice
    order (the kernel of the truncated generating-function map on the
    slice); the default kills e through the working order, the jet image
    of the genuine kernel.
    """
    return _stabilized_slice(f, order, _slice_system, variant="generating_kernel",
                             e_degree=order if truncated else None)


def projection_kernel_slice(f: IntegralMap, order: int) -> JetSubspace:
    """Jet slice of the members killed by forgetting the Reeb direction
    (phi = xi = 0).  Generated by constants times the Reeb field along f."""
    return _stabilized_slice(f, order, _slice_system, variant="projection_kernel")


def rf_truncated(f: IntegralMap, order: int) -> JetSubspace:
    """Jets h of degree <= order with dh inside the truncated module spanned
    by the differentials of f's components (projected from a stabilized
    working order, as for the deformation slice)."""
    if f.cap < order + 1:
        raise CapShortfallError(
            f"rf system at order {order} needs cap >= {order + 1}, f has {f.cap}")
    return _stabilized_slice(f, order, _rf_system)


def generating_function_image(f: IntegralMap, order: int,
                              slice_space: Optional[JetSubspace] = None) -> JetSubspace:
    """Span of truncated generating functions of the jet slice."""
    if slice_space is None:
        slice_space = vi_basis(f, order)
    ambient = DeformAmbient(f, order)
    h_amb = PolyAmbient(f.source.dim, order)
    out = JetSubspace(h_amb.dim)
    for row in slice_space.basis_rows():
        v = ambient.row_to_field(row)
        e = v.generating_function()
        out.insert(h_amb.poly_to_row(e))
    return out
