"""Differential forms with truncated polynomial coefficients.

Charts are named, ordered variable lists with kind tags.  Forms are stored
densely by strictly increasing index tuple with sparse polynomial
coefficients; antisymmetry is canonical.  The module provides the exterior
derivative, wedge product, pullback along a map, the interior product and
Lie derivative along a map, and the tangent lift of a form to the tangent
chart (base variables followed by their paired fiber variables).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from . import ring
from .errors import ChartMismatchError, VariableMismatchError
from .ring import TruncatedPoly

IndexTuple = Tuple[int, ...]


class Chart:
    """Ordered list of named, kind-tagged variables.

    A tangent chart pairs each base variable with a fiber variable: variable
    ``i`` of the base corresponds to fiber variable ``base_dim + i``.
    """

    def __init__(self, name: str, names: Sequence[str], kinds: Sequence[str],
                 base_dim: Optional[int] = None):
        if len(names) != len(kinds):
            raise VariableMismatchError("names and kinds must align")
        if len(set(names)) != len(names):
            raise VariableMismatchError("variable names must be unique")
        if base_dim is not None and len(names) != 2 * base_dim:
            raise VariableMismatchError("tangent chart must double the base dimension")
        self.name = name
        self.names = tuple(names)
        self.kinds = tuple(kinds)
        self.base_dim = base_dim  # set only for tangent charts

    @property
    def dim(self) -> int:
        return len(self.names)

    def __eq__(self, other):
        if not isinstance(other, Chart):
            return NotImplemented
        return (self.name, self.names, self.kinds, self.base_dim) == (
            other.name, other.names, other.kinds, other.base_dim)

    def __hash__(self):
        return hash((self.name, self.names, self.kinds, self.base_dim))

    def __repr__(self):
        return f"Chart({self.name!r}, {', '.join(self.names)})"

    # -- polynomial factories ---------------------------------------------

    def zero(self, cap: int) -> TruncatedPoly:
        return TruncatedPoly.zero(self.dim, cap, self.kinds)

    def const(self, value, cap: int) -> TruncatedPoly:
        return TruncatedPoly.const(value, self.dim, cap, self.kinds)

    def var(self, index: int, cap: int) -> TruncatedPoly:
        return TruncatedPoly.var(index, self.dim, cap, self.kinds)

    def parse(self, text: str, cap: int) -> TruncatedPoly:
        return ring.parse_expression(text, self.names, cap, self.kinds)

    def check_poly(self, h: TruncatedPoly):
        if h.nvars != self.dim or h.kinds != self.kinds:
            raise ChartMismatchError(f"polynomial does not live on chart {self.name}")

    def tangent(self) -> "Chart":
        """Tangent chart: base variables then paired fiber variables.

        On a Darboux chart (p, q, r) the fiber variables are written
        (phi, xi, s), matching the pairing p->phi, q->xi, r->s.
        """
        fiber_names = []
        for name, kind in zip(self.names, self.kinds):
            if kind == ring.P:
                fiber_names.append("phi" + name[1:])
            elif kind == ring.Q:
                fiber_names.append("xi" + name[1:])
            elif kind == ring.R:
                fiber_names.append("s")
            else:
                fiber_names.append("d" + name)
        return Chart(
            self.name + "_tangent",
            self.names + tuple(fiber_names),
            self.kinds + (ring.FIBER,) * self.dim,
            base_dim=self.dim,
        )


def source_chart(n: int, params: Sequence[str] = (), names: Optional[Sequence[str]] = None) -> Chart:
    """Chart of n source variables plus passive parameters."""
    if names is None:
        names = [f"x{i + 1}" for i in range(n)]
    all_names = tuple(names) + tuple(params)
    kinds = (ring.SOURCE,) * n + (ring.PARAM,) * len(params)
    return Chart(f"source{n}", all_names, kinds)


def darboux_chart(n: int) -> Chart:
    """Standard contact chart with variables p1..pn, q1..qn, r."""
    names = [f"p{i + 1}" for i in range(n)] + [f"q{i + 1}" for i in range(n)] + ["r"]
    kinds = (ring.P,) * n + (ring.Q,) * n + (ring.R,)
    return Chart(f"darboux{n}", names, kinds)


BIG_CAP = 10 ** 9


class DiffForm:
    """Exterior form of fixed degree on a chart.

    The form carries its own truncation cap: the degree through which its
    coefficients are trustworthy.  The cap is the minimum over all
    contributing polynomials, including ones that happen to vanish, so that
    a sum never silently keeps terms one summand could not see.
    """

    def __init__(self, chart: Chart, degree: int,
                 coeffs: Dict[IndexTuple, TruncatedPoly],
                 cap: Optional[int] = None):
        if degree < 0:
            raise ChartMismatchError("form degree must be nonnegative")
        self.chart = chart
        self.degree = degree
        horizon = BIG_CAP if cap is None else cap
        for poly in coeffs.values():
            horizon = min(horizon, poly.cap)
        self.cap = horizon
        clean = {}
        for idx, poly in coeffs.items():
            idx = tuple(idx)
            if len(idx) != degree or list(idx) != sorted(set(idx)):
                raise ChartMismatchError(f"index tuple {idx} not strictly increasing")
            if idx and idx[-1] >= chart.dim:
                raise ChartMismatchError(f"index tuple {idx} outside chart dimension")
            chart.check_poly(poly)
            if poly.cap > horizon:
                poly = poly.truncate(horizon)
            if not poly.is_zero():
                clean[idx] = poly
        self.coeffs = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart, degree: int, cap: Optional[int] = None) -> "DiffForm":
        return cls(chart, degree, {}, cap=cap)

    @classmethod
    def function(cls, h: TruncatedPoly, chart: Chart) -> "DiffForm":
        return cls(chart, 0, {(): h}, cap=h.cap)

    @classmethod
    def d_var(cls, chart: Chart, index: int, cap: int) -> "DiffForm":
        return cls(chart, 1, {(index,): chart.const(1, cap)}, cap=cap)

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, idx: IndexTuple) -> TruncatedPoly:
        got = self.coeffs.get(tuple(idx))
        if got is None:
            cap = self.cap if self.cap < BIG_CAP else 10 ** 6
            return self.chart.zero(cap)
        return got

    def _check_same(self, other: "DiffForm"):
        if self.chart != other.chart:
            raise ChartMismatchError("forms live on different charts")
        if self.degree != other.degree:
            raise ChartMismatchError("forms have different degrees")

    def __add__(self, other: "DiffForm") -> "DiffForm":
        self._check_same(other)
        coeffs = dict(self.coeffs)
        for idx, poly in other.coeffs.items():
            if idx in coeffs:
                coeffs[idx] = coeffs[idx] + poly
            else:
                coeffs[idx] = poly
        return DiffForm(self.chart, self.degree, coeffs,
                        cap=min(self.cap, other.cap))

    def __neg__(self) -> "DiffForm":
        return DiffForm(self.chart, self.degree,
                        {idx: -p for idx, p in self.coeffs.items()},
                        cap=self.cap)

    def __sub__(self, other: "DiffForm") -> "DiffForm":
        return self + (-other)

    def scale(self, c) -> "DiffForm":
        return DiffForm(self.chart, self.degree,
                        {idx: p.scale(c) for idx, p in self.coeffs.items()},
                        cap=self.cap)

    def mul_function(self, h: TruncatedPoly) -> "DiffForm":
        self.chart.check_poly(h)
        return DiffForm(self.chart, self.degree,
                        {idx: h * p for idx, p in self.coeffs.items()},
                        cap=min(self.cap, h.cap))

    def same_form(self, other: "DiffForm") -> bool:
        """Jet equality coefficient-by-coefficient up to the common cap."""
        self._check_same(other)
        cap = min(self.cap, other.cap)
        for idx in set(self.coeffs) | set(other.coeffs):
            a = self.coeffs.get(idx)
            b = other.coeffs.get(idx)
            if a is None:
                a = self.chart.zero(cap)
            if b is None:
                b = other.chart.zero(cap)
            if not a.truncate(min(cap, a.cap)).same_jet(b.truncate(min(cap, b.cap))):
                return False
        return True

    def lowest_term(self):
        """Lowest-degree term of the form, graded by coefficient degree plus
        form degree (the natural weight under scaling)."""
        best = None
        for idx, poly in sorted(self.coeffs.items()):
            for mono, coeff in poly.sorted_terms():
                key = (sum(mono) + len(idx), idx, mono)
                if best is None or key < best[0]:
                    best = (key, idx, mono, coeff)
        if best is None:
            return None
        return {"total_degree": best[0][0], "indices": best[1],
                "monomial": best[2], "coefficient": best[3]}

    # -- exterior calculus -----------------------------------------------------

    def exterior_derivative(self, active: Optional[Sequence[int]] = None) -> "DiffForm":
        """d, optionally restricted to the listed (active) variables.

        The restricted version is the relative differential used for
        parameterized families: parameters ride along as constants.
        """
        if active is None:
            active = range(self.chart.dim)
        coeffs: Dict[IndexTuple, TruncatedPoly] = {}
        for idx, poly in self.coeffs.items():
            for j in active:
                if j in idx:
                    continue
                dpoly = poly.partial(j)
                if dpoly.is_zero():
                    continue
                new_idx, sign = _insert_index(idx, j)
                term = dpoly if sign > 0 else -dpoly
                if new_idx in coeffs:
                    coeffs[new_idx] = coeffs[new_idx] + term
                else:
                    coeffs[new_idx] = term
        return DiffForm(self.chart, self.degree + 1, coeffs, cap=self.cap - 1)

    def wedge(self, other: "DiffForm") -> "DiffForm":
        if self.chart != other.chart:
            raise ChartMismatchError("wedge of forms on different charts")
        coeffs: Dict[IndexTuple, TruncatedPoly] = {}
        for idx1, p1 in self.coeffs.items():
            for idx2, p2 in other.coeffs.items():
                merged, sign = _merge_indices(idx1, idx2)
                if merged is None:
                    continue
                term = p1 * p2
                if sign < 0:
                    term = -term
                if merged in coeffs:
                    coeffs[merged] = coeffs[merged] + term
                else:
                    coeffs[merged] = term
        return DiffForm(self.chart, self.degree + other.degree, coeffs,
                        cap=min(self.cap, other.cap))

    # -- tangent lift ------------------------------------------------------------

    def tangent_lift(self) -> "DiffForm":
        """Lift to the tangent chart.

        For a coefficient a dx_I the lift is
        (sum_j da/dx_j dot_x_j) dx_I + a * sum_m dx_i1 ^ .. ^ d(dot_x_im) ^ ..,
        the unique form whose pullback along any field v along any map f
        equals the Lie derivative L_v of the original form.
        """
        tchart = self.chart.tangent()
        d = self.chart.dim
        index_map = list(range(d))
        coeffs: Dict[IndexTuple, TruncatedPoly] = {}

        def add(idx, poly):
            if poly.is_zero():
                return
            if idx in coeffs:
                coeffs[idx] = coeffs[idx] + poly
            else:
                coeffs[idx] = poly
        # the derivative part costs one degree of jet information

        for idx, poly in self.coeffs.items():
            lifted_poly = poly.extend(2 * d, tchart.kinds, index_map)
            # derivative part: (sum_j da/dx_j * fiber_j) dx_I
            deriv_sum = tchart.zero(lifted_poly.cap - 1)
            for j in range(d):
                da = poly.partial(j)
                if da.is_zero():
                    continue
                da_l = da.extend(2 * d, tchart.kinds, index_map)
                deriv_sum = deriv_sum + da_l * tchart.var(d + j, da_l.cap)
            add(idx, deriv_sum)
            # fiber part: a * sum over slots of I with the differential of
            # slot m replaced by its fiber variable; the fiber index exceeds
            # every base index, so it sorts to the end past p-1-m factors
            for m, i_m in enumerate(idx):
                rest = idx[:m] + idx[m + 1:]
                new_idx = rest + (d + i_m,)
                term = lifted_poly if (len(rest) - m) % 2 == 0 else -lifted_poly
                add(new_idx, term)
        return DiffForm(tchart, self.degree, coeffs, cap=self.cap - 1)

    # -- printing ----------------------------------------------------------------

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        chunks = []
        for idx in sorted(self.coeffs):
            poly = self.coeffs[idx]
            basis = "∧".join(f"d{self.chart.names[i]}" for i in idx)
            body = poly.render(self.chart.names)
            if basis:
                chunks.append(f"({body}) {basis}")
            else:
                chunks.append(body)
        return " + ".join(chunks)

    def __repr__(self):
        return f"DiffForm({self.chart.name}, deg {self.degree}: {self.render()})"


def _insert_index(idx: IndexTuple, j: int) -> Tuple[IndexTuple, int]:
    """Insert j into a strictly increasing tuple, tracking the wedge sign."""
    pos = 0
    while pos < len(idx) and idx[pos] < j:
        pos += 1
    if pos < len(idx) and idx[pos] == j:
        raise ValueError("index already present")
    sign = -1 if pos % 2 else 1
    return idx[:pos] + (j,) + idx[pos:], sign


def _merge_indices(idx1: IndexTuple, idx2: IndexTuple):
    """Concatenate two increasing tuples; None if they collide."""
    if set(idx1) & set(idx2):
        return None, 0
    merged = idx1 + idx2
    # bubble count for shuffle parity
    arr = list(merged)
    sign = 1
    for i in range(len(arr)):
        for j in range(len(arr) - 1 - i):
            if arr[j] > arr[j + 1]:
                arr[j], arr[j + 1] = arr[j + 1], arr[j]
                sign = -sign
    return tuple(arr), sign


class MapBetweenCharts:
    """Germ of a map between charts: one component per target variable."""

    def __init__(self, source: Chart, target: Chart, components: Sequence[TruncatedPoly],
                 require_origin: bool = True):
        if len(components) != target.dim:
            raise ChartMismatchError("one component per target variable required")
        for comp in components:
            source.check_poly(comp)
            if require_origin and comp.constant_term() != 0:
                raise ChartMismatchError("map components must vanish at the origin")
        self.source = source
        self.target = target
        self.components = tuple(components)

    @classmethod
    def identity(cls, chart: Chart, cap: int) -> "MapBetweenCharts":
        return cls(chart, chart, [chart.var(i, cap) for i in range(chart.dim)])

    def pullback_function(self, h: TruncatedPoly) -> TruncatedPoly:
        self.target.check_poly(h)
        allow = any(c.constant_term() != 0 for c in self.components)
        return h.substitute(self.components, allow_constant_terms=allow)

    def pullback(self, form: DiffForm, active: Optional[Sequence[int]] = None) -> DiffForm:
        """f* of a form; d of the components restricted to active variables."""
        if form.chart != self.target:
            raise ChartMismatchError("form does not live on the map's target chart")
        result = DiffForm.zero(self.source, form.degree, cap=form.cap)
        dcomps: Dict[int, DiffForm] = {}
        for idx, poly in form.coeffs.items():
            piece = DiffForm.function(self.pullback_function(poly), self.source)
            for i in idx:
                d = dcomps.get(i)
                if d is None:
                    d = dcomps[i] = _d_component(self, i, active)
                piece = piece.wedge(d)
                if piece.is_zero():
                    break
            result = result + piece
        return result


class FieldAlongMap:
    """Vector field along a map: a section of the target tangent over the source."""

    def __init__(self, base: MapBetweenCharts, components: Sequence[TruncatedPoly]):
        if len(components) != base.target.dim:
            raise ChartMismatchError("one fiber component per target variable required")
        for comp in components:
            base.source.check_poly(comp)
        self.base = base
        self.components = tuple(components)

    def __add__(self, other: "FieldAlongMap") -> "FieldAlongMap":
        if other.base.source != self.base.source or other.base.target != self.base.target:
            raise ChartMismatchError("fields along different maps")
        return FieldAlongMap(self.base, [a + b for a, b in
                                         zip(self.components, other.components)])

    def scale(self, c) -> "FieldAlongMap":
        return FieldAlongMap(self.base, [p.scale(c) for p in self.components])

    # -- interior product and Lie derivative --------------------------------------

    def interior(self, form: DiffForm, active: Optional[Sequence[int]] = None) -> DiffForm:
        """i_v form: plug the field into the first slot, push source fields
        through the base map into the rest."""
        if form.chart != self.base.target:
            raise ChartMismatchError("form does not live on the field's target chart")
        if form.degree < 1:
            raise ChartMismatchError("interior product needs degree >= 1")
        result = DiffForm.zero(self.base.source, form.degree - 1, cap=form.cap)
        for idx, poly in form.coeffs.items():
            pulled = self.base.pullback_function(poly)
            for m, i_m in enumerate(idx):
                comp = self.components[i_m]
                if comp.is_zero():
                    continue
                coeff = pulled * comp
                if m % 2:
                    coeff = -coeff
                rest = idx[:m] + idx[m + 1:]
                piece = DiffForm.function(coeff, self.base.source)
                for i in rest:
                    piece = piece.wedge(_d_component(self.base, i, active))
                    if piece.is_zero():
                        break
                result = result + piece
        return result

    def lie(self, form: DiffForm, active: Optional[Sequence[int]] = None) -> DiffForm:
        """L_v = d i_v + i_v d (degree 0 handled as i_v d)."""
        term = self.interior(form.exterior_derivative(), active)
        if form.degree >= 1:
            term = term + self.interior(form, active).exterior_derivative(active)
        return term

    def pullback_from_tangent(self, form: DiffForm,
                              active: Optional[Sequence[int]] = None) -> DiffForm:
        """v* of a form on the tangent chart of the target.

        Substitutes base variables by the map components and fiber variables
        by the field components; coefficients of the tangent-chart form are
        treated as exactly known polynomials.
        """
        tchart = self.base.target.tangent()
        if form.chart != tchart:
            raise ChartMismatchError("form does not live on the target tangent chart")
        as_map = MapBetweenCharts(self.base.source, tchart,
                                  self.base.components + self.components,
                                  require_origin=False)
        return as_map.pullback(form, active)


def _d_component(f: MapBetweenCharts, i: int, active: Optional[Sequence[int]]) -> DiffForm:
    if active is None:
        active = range(f.source.dim)
    comp = f.components[i]
    return DiffForm(f.source, 1, {(j,): comp.partial(j) for j in active})
