"""Integral map-germs of corank at most one into the standard contact space.

An ``IntegralMap`` stores 2n+1 components (p1..pn, q1..qn, r) as truncated
polynomials in n source variables (plus optional passive deformation
parameters).  Construction always certifies the integrality identity
  d(r o f) = sum (p_i o f) d(q_i o f)
exactly within cap, with the exterior differential taken in the source
variables only, and rejects corank >= 2.

Graph data (u, v) is completed to a full integral map by the integral
formulas
  p_i o f = int_0^{x_n} (v_{x_i} u_{x_n} - v_{x_n} u_{x_i}) dx_n,
  r  o f = int_0^{x_n}  v u_{x_n} dx_n,
which satisfy the identity exactly provided the boundary products
v(x',0) du/dx_i(x',0) vanish; that compatibility is a checked precondition.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Optional, Sequence, Tuple

from .contact import ContactChart
from .errors import (CompletionError, CorankError, NotClosedError,
                     NotIntegralError, VariableMismatchError)
from .forms import Chart, DiffForm, MapBetweenCharts, source_chart
from .linalg import Echelon, row_from_fractions
from .ring import TruncatedPoly


class IntegralMap:
    """Certified integral map-germ in Darboux component layout."""

    def __init__(self, n: int, components: Sequence[TruncatedPoly],
                 params: Sequence[str] = (), provenance: str = "user",
                 source: Optional[Chart] = None):
        if len(components) != 2 * n + 1:
            raise VariableMismatchError(f"expected {2 * n + 1} components")
        self.n = n
        self.params = tuple(params)
        self.provenance = provenance
        first = components[0]
        if source is None:
            source = source_chart(n, self.params)
        if source.dim != first.nvars:
            raise VariableMismatchError("components do not match the source chart")
        self.source = source
        self.target = ContactChart(n)
        self.components = tuple(components)
        self.cap = min(c.cap for c in components)
        for comp in components:
            source.check_poly(comp)
        for comp in components:
            if comp.constant_term() != 0:
                raise NotIntegralError("components must vanish at the origin")
        violation = integrality_violation(self)
        if violation is not None:
            raise NotIntegralError(
                f"candidate is not integral: lowest offending term {violation}",
                violation=violation)
        if self.corank() > 1:
            raise CorankError("germ has corank >= 2; library scope is corank <= 1")

    # -- component accessors -----------------------------------------------

    def p_component(self, i: int) -> TruncatedPoly:
        return self.components[i]

    def q_component(self, i: int) -> TruncatedPoly:
        return self.components[self.n + i]

    @property
    def r_component(self) -> TruncatedPoly:
        return self.components[2 * self.n]

    @property
    def active(self) -> Tuple[int, ...]:
        """Indices of true source variables (parameters are passive)."""
        return tuple(range(self.n))

    def as_map(self) -> MapBetweenCharts:
        return MapBetweenCharts(self.source, self.target.chart, self.components)

    def pullback_function(self, h: TruncatedPoly) -> TruncatedPoly:
        return self.as_map().pullback_function(h)

    def pullback(self, form: DiffForm) -> DiffForm:
        return self.as_map().pullback(form, active=self.active)

    # -- certificates ---------------------------------------------------------

    def corank(self) -> int:
        """n minus the rank of the differential at the origin."""
        ech = Echelon()
        unit = [0] * self.source.dim
        for j in self.active:
            entries = {}
            for c, comp in enumerate(self.components):
                mono = list(unit)
                mono[j] = 1
                val = comp.coefficient(tuple(mono))
                if val:
                    entries[c] = val
            ech.insert(row_from_fractions(entries))
        return self.n - ech.rank

    def singular_locus_minors(self):
        """2x2 minors of the source Jacobian, the jet-level equations of the
        singular locus."""
        rows = []
        for comp in self.components:
            rows.append([comp.partial(j) for j in self.active])
        minors = []
        m = len(self.components)
        for a in range(m):
            for b in range(a + 1, m):
                for i in range(self.n):
                    for j in range(i + 1, self.n):
                        minors.append(rows[a][i] * rows[b][j] - rows[a][j] * rows[b][i])
        return minors

    def restrict_params(self, values: Sequence[Fraction]) -> "IntegralMap":
        """Specialize all parameters to rational constants (usually zero)."""
        if len(values) != len(self.params):
            raise VariableMismatchError("one value per parameter required")
        if any(v != 0 for v in values):
            raise VariableMismatchError("only restriction to parameter 0 is supported")
        base = source_chart(self.n, names=self.source.names[:self.n])
        drop = range(self.n, self.source.dim)
        comps = []
        for comp in self.components:
            comps.append(comp.set_vars_zero(drop).project_vars(
                range(self.n), base.kinds))
        return IntegralMap(self.n, comps, provenance=self.provenance, source=base)

    def __eq__(self, other):
        if not isinstance(other, IntegralMap):
            return NotImplemented
        return (self.n == other.n and self.params == other.params
                and self.components == other.components)

    def __hash__(self):
        return hash((self.n, self.params, self.components))

    def __repr__(self):
        names = self.source.names
        parts = [f"{label} = {comp.render(names)}" for label, comp in
                 zip(component_labels(self.n), self.components)]
        return f"IntegralMap(n={self.n}, cap={self.cap}: " + "; ".join(parts) + ")"


def component_labels(n: int):
    return ([f"p{i + 1}" for i in range(n)]
            + [f"q{i + 1}" for i in range(n)] + ["r"])


def integrality_violation(f: IntegralMap):
    """f* alpha computed exactly; None for a certificate, else the lowest
    offending term of the 1-form."""
    alpha = f.target.alpha(f.cap + 1)
    pulled = f.pullback(alpha)
    if pulled.is_zero():
        return None
    return pulled.lowest_term()


def check_integral(n: int, components: Sequence[TruncatedPoly],
                   params: Sequence[str] = ()):
    """Certificate/violation interface that never raises on failure."""
    try:
        f = IntegralMap(n, components, params=params)
    except NotIntegralError as err:
        return {"ok": False, "violation": err.violation}
    return {"ok": True, "map": f}


def complete_from_uv(n: int, u: TruncatedPoly, v: TruncatedPoly,
                     params: Sequence[str] = (), provenance: str = "completed",
                     source: Optional[Chart] = None) -> IntegralMap:
    """Complete graph data q_n = u, p_n = v to an integral map.

    The q_i (i < n) are the source coordinates; p_i and r come from the
    completion integrals.  Parameters are passive: all derivatives and
    integrals act on the source variables only.
    """
    if source is None:
        source = source_chart(n, params)
    source.check_poly(u)
    source.check_poly(v)
    xn = n - 1
    residuals = []
    v0 = v.set_vars_zero([xn])
    for i in range(n - 1):
        res = v0 * u.partial(i).set_vars_zero([xn])
        if not res.is_zero():
            residuals.append((i, res))
    if residuals:
        shown = ", ".join(
            f"v(x',0)*du/dx{i + 1}(x',0) = {res.render(source.names)}"
            for i, res in residuals)
        raise CompletionError(
            f"completion impossible, boundary compatibility fails: {shown}",
            residuals=residuals)
    if u.constant_term() != 0 or v.constant_term() != 0:
        raise CompletionError("graph data must vanish at the origin")
    u_n = u.partial(xn)
    v_n = v.partial(xn)
    p_comps = []
    for i in range(n - 1):
        integrand = v.partial(i) * u_n - v_n * u.partial(i)
        p_comps.append(integrand.integral(xn))
    p_comps.append(v)
    q_comps = [source.var(i, u.cap) for i in range(n - 1)] + [u]
    r_comp = (v * u_n).integral(xn)
    return IntegralMap(n, p_comps + q_comps + [r_comp], params=params,
                       provenance=provenance, source=source)


def owu_normal_form(n: int, k: int, cap: int = 10) -> IntegralMap:
    """The open Whitney umbrella of type k in dimension n, 0 <= k <= n/2.

    Graph data:
      u = x_n^{k+1}/(k+1)! + x_1 x_n^{k-1}/(k-1)! + ... + x_{k-1} x_n
      v = x_k x_n^k/k!   + ... + x_{2k-1} x_n
    """
    if k < 0 or 2 * k > n:
        raise ValueError(f"type k={k} out of range 0 <= k <= n/2 for n={n}")
    chart = source_chart(n)
    xn = chart.var(n - 1, cap)
    u = xn ** (k + 1) * Fraction(1, factorial(k + 1))
    for j in range(1, k):
        u = u + chart.var(j - 1, cap) * xn ** (k - j) * Fraction(1, factorial(k - j))
    v = chart.zero(cap)
    for j in range(k, 2 * k):
        v = v + chart.var(j - 1, cap) * xn ** (2 * k - j) * Fraction(1, factorial(2 * k - j))
    return complete_from_uv(n, u, v, provenance=f"normal_form({n},{k})",
                            source=chart)


class IsotropicMap:
    """Map to the symplectic side (p, q) with generating function e.

    Certified: g* (sum dp_i wedge dq_i) = 0 and de = g*(sum p_i dq_i)
    within cap, e(0) = 0.
    """

    def __init__(self, n: int, p_components: Sequence[TruncatedPoly],
                 q_components: Sequence[TruncatedPoly], e: TruncatedPoly,
                 params: Sequence[str] = (), source: Optional[Chart] = None):
        if len(p_components) != n or len(q_components) != n:
            raise VariableMismatchError("need n p-components and n q-components")
        self.n = n
        self.params = tuple(params)
        if source is None:
            source = source_chart(n, params)
        self.source = source
        self.p_components = tuple(p_components)
        self.q_components = tuple(q_components)
        self.e = e
        self.cap = min(c.cap for c in list(p_components) + list(q_components) + [e])
        beta = _liouville_pullback(source, self.p_components,
                                   self.q_components, self.cap)
        de = DiffForm.function(e, source).exterior_derivative(self._active())
        if not de.same_form(beta):
            raise NotIntegralError("e is not a generating function: de != g*(p dq)")
        dbeta = beta.exterior_derivative(self._active())
        if not dbeta.is_zero():
            raise NotIntegralError("map is not isotropic: g*(dp wedge dq) != 0")

    def _active(self):
        return tuple(range(self.n))

    def __repr__(self):
        names = self.source.names
        parts = [f"p{i + 1} = {c.render(names)}" for i, c in enumerate(self.p_components)]
        parts += [f"q{i + 1} = {c.render(names)}" for i, c in enumerate(self.q_components)]
        parts.append(f"e = {self.e.render(names)}")
        return f"IsotropicMap(n={self.n}: " + "; ".join(parts) + ")"


def _liouville_pullback(source: Chart, p_components: Sequence[TruncatedPoly],
                        q_components: Sequence[TruncatedPoly],
                        cap: int) -> DiffForm:
    """g*(sum p_i dq_i) as a source 1-form in the n active variables, for
    components certified within ``cap``."""
    n = len(p_components)
    coeffs = {}
    for j in range(n):
        total = source.zero(cap - 1)
        for i in range(n):
            total = total + p_components[i] * q_components[i].partial(j)
        coeffs[(j,)] = total
    return DiffForm(source, 1, coeffs)


def project_isotropic(f: IntegralMap) -> IsotropicMap:
    """Drop the Reeb direction: g = (p o f, q o f) with e = r o f."""
    return IsotropicMap(f.n, [f.p_component(i) for i in range(f.n)],
                        [f.q_component(i) for i in range(f.n)],
                        f.r_component, params=f.params, source=f.source)


def lift_isotropic(n: int, p_components: Sequence[TruncatedPoly],
                   q_components: Sequence[TruncatedPoly],
                   params: Sequence[str] = (),
                   source: Optional[Chart] = None) -> IntegralMap:
    """Lift an isotropic map to the integral map with r = e, where
    de = g*(p dq), e(0) = 0, found by path integration."""
    if source is None:
        source = source_chart(n, params)
    comps = list(p_components) + list(q_components)
    for c in comps:
        source.check_poly(c)
    cap = min(c.cap for c in comps)
    beta = _liouville_pullback(source, p_components, q_components, cap)
    e = primitive_of_closed(beta, range(n))
    if e.cap > cap:
        e = e.truncate(cap)
    return IntegralMap(n, list(p_components) + list(q_components) + [e],
                       params=params, provenance="lifted", source=source)


def primitive_of_closed(beta: DiffForm, active: Sequence[int]) -> TruncatedPoly:
    """Primitive of a closed source 1-form vanishing at the origin.

    Integrates the last active coordinate first, then the x'-only residue,
    coordinate by coordinate.  Raises NotClosedError if the residue fails to
    be independent of the already-integrated variables within cap.
    """
    chart = beta.chart
    cap = beta.cap + 1
    e = chart.zero(cap)
    residual = beta
    for j in reversed(list(active)):
        coeff = residual.coefficient((j,))
        restricted = coeff
        for later in active:
            if later > j:
                restricted = restricted.set_vars_zero([later])
        if not restricted.same_jet(coeff):
            raise NotClosedError(
                "1-form is not closed within cap: residue keeps integrated variables")
        piece = restricted.integral(j)
        e = e + piece
        dpiece = DiffForm.function(piece, chart).exterior_derivative(active)
        residual = residual - dpiece
    if not residual.is_zero():
        raise NotClosedError("1-form is not closed within cap: residue survives")
    return e
