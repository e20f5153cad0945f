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
extending).  Every jet slice is therefore computed on one path, as one
system grown one equation degree at a time.  A builder gives the equations
that are new at a working order R, over columns that do not depend on R and
whose first ones are the coordinates of degree <= r: a call ``f -> (R ->
(rows, ncols))`` that grades its system's polynomials once, to the highest
working order cap - 1, and then walks only the slices that can land at R
(``_form_rows``).  The builders are the membership system (degree R - 1 of
the 1-form) and its two kernel variants (plus degree R of the generating
function, or phi = xi = 0 in degree R); ``rf_truncated`` needs none.  One
``SolutionSpace`` takes the system at the slice order and ``_escalate``
extends it order by order until the projected dimension, read off its
pivots, repeats (the chain is monotone decreasing and bounded below by the
genuine jet image, so two equal consecutive values pin it);
``materialize_slice`` projects the solutions of that same space.  All
builders, and the spanning sets of the stability module, write their sparse
rows through ``_scatter``.

Rows are built in Python ints, though the ring keeps Fractions: a builder
takes one common denominator L of the coefficients its system uses, the int
terms of L times each polynomial (``_graded``, ``_int_terms``), and divides
each finished row by its content (``_primitive``), which gives the same rows.
The composed monomials of the Hamiltonian rows in ``stability`` are int
tables too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from operator import add
from typing import Dict, Optional, Sequence, Tuple

from .contact import contact_hamiltonian
from .errors import (CapShortfallError, UncertifiedFieldError,
                     VariableMismatchError)
from .forms import DiffForm, FieldAlongMap
from .integral_maps import IntegralMap
from .linalg import (JetSubspace, Row, SolutionSpace, _reduce_content,
                     row_from_fractions)
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
        terms, src = [{} for _ in range(self.ncomps)], self.f.source
        for col, val in row.items():
            terms[col % self.ncomps][self.monomials[col // self.ncomps]] = Fraction(val)
        return DeformationField(self.f, [TruncatedPoly(src.dim, self.order, src.kinds, t)
                                         for t in terms])


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

    ``terms`` holds (monomial, int) pairs and ``place(mu)`` names the
    (row key, column) that the shifted monomial mu lands in: an equation
    key and a fixed unknown for a constraint system, or a fixed generator
    and a coordinate column for a spanning set.  Terms are dropped on their
    own degree, against ``bound - |shift|``, before mu is built."""
    room = bound - sum(shift)
    for mono, coeff in terms:
        if sum(mono) <= room:
            key, col = place(tuple(map(add, mono, shift)))
            row = rows.setdefault(key, {})
            row[col] = row.get(col, 0) + scale * coeff


def _denominator(polys) -> int:
    """The least common denominator of the coefficients of ``polys``."""
    return lcm(*(c.denominator for poly in polys for c in poly.terms.values()))


def _int_terms(poly: TruncatedPoly, scale: int):
    """(monomial, int) pairs of ``scale * poly``, for a ``scale`` that every
    coefficient's denominator divides."""
    return [(mono, scale // c.denominator * c.numerator)
            for mono, c in poly.terms.items()]


def _primitive(row: Dict[int, int]) -> Row:
    """An int row with its zero entries dropped and its content divided out:
    what ``row_from_fractions`` makes of any positive multiple of it."""
    return _reduce_content({c: v for c, v in row.items() if v})


def _graded(poly: TruncatedPoly, top: int, scale: int):
    """The int terms of ``scale * poly`` of degree <= top, grouped by degree
    (degree -> terms, nonempty degrees only).  ``scale`` is +-L for one
    common denominator L of the system (its constant unknown gets L), so
    each row is L times its rational row, and the same after content
    reduction: a positive multiple of a row and the row itself have one
    primitive integer vector, with the same sign."""
    out: Dict[int, list] = {}
    for mono, coeff in _int_terms(poly, scale):
        if sum(mono) <= top:
            out.setdefault(sum(mono), []).append((mono, coeff))
    return out


def _form_rows(f: IntegralMap, n: int, factors, shift: int = 0):
    """Builder ``R -> rows``: sparse rows, keyed (dx_j, monomial mu), of the
    coefficients of degree R' - 1 (R' = R + shift) of the 1-form
    sum g d(x^m) + x^m w over the unknowns of degree <= R, one per monomial
    m (graded order) and (slot, g, w) of ``factors``, in the ``DeformAmbient``
    column ``pos * (2 f.n + 1) + slot`` of the pos-th m: a function g or a
    1-form w = (w_1..w_n), the other None, graded to cap - 1 once per system.  An
    unknown is made when a working order first reaches its degree a, and
    meets only the slice of degree R' - a of g and R' - 1 - a of w, so each
    equation is built once; empty slices never reach ``_scatter``."""
    made, nvars, width = [], f.source.dim, 2 * f.n + 1

    def rows(R: int):
        if f.cap < R + 1:
            raise CapShortfallError(
                f"jet system at order {R} needs cap >= {R + 1}, f has {f.cap}")
        start = len(made) // len(factors)
        if start < comb(nvars + R, nvars):
            monomials = monomials_upto(nvars, R)
            made.extend((pos * width + slot, monomials[pos], sum(monomials[pos]), g, w)
                        for pos in range(start, len(monomials)) for slot, g, w in factors)
        eqs: Dict = {}
        top, R = R, R + shift
        for col, m, a, g, w in made:
            if a > top:
                break
            if g is not None:
                terms = g.get(R - a)
                if terms:
                    for j in range(n):
                        if m[j]:
                            _scatter(eqs, terms, m[:j] + (m[j] - 1,) + m[j + 1:],
                                     R - 1, lambda mu: ((j, mu), col), m[j])
            elif a < R:
                for j in range(n):
                    terms = w[j].get(R - 1 - a)
                    if terms:
                        _scatter(eqs, terms, m, R - 1, lambda mu: ((j, mu), col))
        return [_primitive(r) for r in eqs.values()]
    return rows


def _vi_rows(f: IntegralMap):
    """Builder ``R -> (rows, ncols)`` of the membership system: for v of jet
    degree <= R, the coefficients of degree R - 1 of

        d(s) - sum (p_i o f) d(xi_i) - sum phi_i d(q_i o f).

    They involve only unknowns of degree <= R, and reappear unchanged in the
    system at every higher order."""
    if f.params:
        raise VariableMismatchError("jet spaces need a parameter-free germ")
    n, top, ncomps = f.n, f.cap - 1, 2 * f.n + 1
    p = [f.p_component(i) for i in range(n)]
    dq = [[f.q_component(i).partial(j) for j in range(n)] for i in range(n)]
    L = _denominator(p + [g for row in dq for g in row])
    factors = [(2 * n, _graded(f.source.const(1, top), top, L), None)]
    factors += [(n + i, _graded(g, top, -L), None) for i, g in enumerate(p)]
    factors += [(i, None, [_graded(g, top, -L) for g in row])
                for i, row in enumerate(dq)]
    rows = _form_rows(f, n, factors)
    return lambda R: (rows(R), ncomps * comb(n + R, n))


def _generating_kernel_rows(f: IntegralMap, e_order: int):
    """Builder of the membership system plus the vanishing of the
    coefficients of degree <= e_order of e(v) = s - sum (p_i o f) xi_i: at
    order R <= e_order the degree-R ones are new."""
    vi, n, top = _vi_rows(f), f.n, f.cap - 1
    p = [f.p_component(i) for i in range(n)]
    L = _denominator(p)
    # the degree-R coefficients of x^m (1 or -p_i) are those of degree
    # (R + 1) - 1 of the one-slot 1-form x^m (1 or -p_i) dx_1
    factors = [(2 * n, None, [_graded(f.source.const(1, top), top, L)])]
    factors += [(n + i, None, [_graded(g, top, -L)]) for i, g in enumerate(p)]
    e_rows = _form_rows(f, 1, factors, 1)

    def rows(R: int):
        built, ncols = vi(R)
        return (built + e_rows(R) if R <= e_order else built), ncols
    return rows


def _projection_kernel_rows(f: IntegralMap):
    """Builder of the membership system plus phi = xi = 0 in degree R."""
    vi, n = _vi_rows(f), f.n

    def rows(R: int):
        built, ncols = vi(R)
        return built + [{pos * (2 * n + 1) + c: 1}
                        for pos in range(comb(n + R - 1, n), comb(n + R, n))
                        for c in range(2 * n)], ncols
    return rows


def _system(new_rows, order: int):
    """(rows, ncols) of the system at the slice order: the new rows of every
    working order up to it."""
    built = [new_rows(R) for R in range(order + 1)]
    return [row for rows, _ in built for row in rows], built[-1][1]


def _escalate(space: SolutionSpace, new_rows, order: int,
              max_working_order: int, low_dim: int):
    """(R, dim, stabilized): grow ``space``, the system at the slice order,
    by ``new_rows(R)`` for R = order + 1, ... until the projected dimension
    repeats (monotone decreasing, so two equal consecutive values pin it) or
    R reaches max_working_order.  ``space`` is left at order R."""
    R, dim = order, space.projected_dim(low_dim)
    while R < max_working_order:
        R += 1
        space.extend(*new_rows(R))
        nxt = space.projected_dim(low_dim)
        if nxt == dim:
            return R, dim, True
        dim = nxt
    return R, dim, False


def materialize_slice(space: SolutionSpace, low_dim: int) -> JetSubspace:
    """Reduced basis of the projection of the solutions of ``space`` to the
    first low_dim columns: in order-r jet coordinates, the projected slice."""
    out = JetSubspace(low_dim)
    for vec in space.basis_iter():
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
    new_rows = _vi_rows(f)
    R, dim, stabilized = _escalate(SolutionSpace(*_system(new_rows, order)), new_rows,
                                   order, max_working_order, DeformAmbient(f, order).dim)
    return SliceData(order, R, stabilized, dim)


def _stabilized_slice(f: IntegralMap, order: int, new_rows) -> JetSubspace:
    """Grow the system of ``new_rows`` from the slice order until its
    projection to the order-r jets stabilizes, and project its solutions."""
    space, low_dim = SolutionSpace(*_system(new_rows, order)), DeformAmbient(f, order).dim
    _escalate(space, new_rows, order, f.cap - 1, low_dim)
    return materialize_slice(space, low_dim)


def vi_basis(f: IntegralMap, order: int) -> JetSubspace:
    """Reduced basis of the jet slice of the deformation space at the given
    order (stabilized projection from the working order)."""
    return _stabilized_slice(f, order, _vi_rows(f))


def kernel_slice(f: IntegralMap, order: int, truncated: bool = False) -> JetSubspace:
    """Jet slice of the deformations with vanishing generating function.

    ``truncated=True`` only kills the coefficients of e up to the slice
    order (the kernel of the truncated generating-function map on the
    slice); the default kills e through the working order, the jet image
    of the genuine kernel.
    """
    e_order = order if truncated else f.cap
    return _stabilized_slice(f, order, _generating_kernel_rows(f, e_order))


def projection_kernel_slice(f: IntegralMap, order: int) -> JetSubspace:
    """Jet slice of the members killed by forgetting the Reeb direction
    (phi = xi = 0).  Generated by constants times the Reeb field along f."""
    return _stabilized_slice(f, order, _projection_kernel_rows(f))


def rf_truncated(f: IntegralMap, order: int) -> JetSubspace:
    """R_f at the given order: the jets h of degree <= order with
    dh = sum a_c d(f_c) below every working degree (parameters passive).

    Closed form: n - 1 components are nonzero multiples c x_j of distinct
    source variables, and x_k is the one left (any one if none is).  Such an
    a_c solves the dx_j equation alone, so the one condition left is
    d_k h in J + m^R, J = (d_k f_c).  Hence R_f,r = {h free of x_k, of
    degree <= r} + I_k(J mod m^r), with I_k the integral in x_k from 0; it
    is injective, so the I_k of the truncated x^m d_k f_c span the second
    summand.  No escalation: h at order r extends to every R by adding I_k
    of the part of degree >= r of sum a_c d_k f_c.  Other germs raise
    ``VariableMismatchError``.  Normal forms, graph-data completions, n = 1
    germs and swapped Darboux pairs (p_1 = -x_1) qualify."""
    if f.cap < order + 1:
        raise CapShortfallError(
            f"rf at order {order} needs cap >= {order + 1}, f has {f.cap}")
    taken = {m.index(1) for c in f.components if len(c.terms) == 1
             for m in c.terms if sum(m) == 1 and m.index(1) < f.n}
    left = [j for j in range(f.n) if j not in taken] or [0]
    if len(left) > 1:
        raise VariableMismatchError(
            f"rf needs {f.n - 1} components that are multiples of distinct "
            f"source variables; {f.provenance} has {len(taken)}")
    k, src, amb = left[0], f.source, PolyAmbient(f.source.dim, order)
    out = JetSubspace.from_rows(amb.dim, ({pos: 1} for m, pos in amb.mono_pos.items()
                                          if not m[k]))
    for g in (comp.partial(k) for comp in f.components):
        for m in monomials_upto(src.dim, order - 1):
            xm = TruncatedPoly(src.dim, order - 1, src.kinds, {m: Fraction(1)})
            out.insert(amb.poly_to_row((xm * g).integral(k)))
    return out


def generating_function_image(f: IntegralMap, order: int,
                              slice_space: Optional[JetSubspace] = None) -> JetSubspace:
    """Span of truncated generating functions of the jet slice."""
    if slice_space is None:
        slice_space = vi_basis(f, order)
    ambient, h_amb = DeformAmbient(f, order), PolyAmbient(f.source.dim, order)
    return JetSubspace.from_rows(h_amb.dim, (
        h_amb.poly_to_row(ambient.row_to_field(row).generating_function())
        for row in slice_space.basis_rows()))
