"""Exact sparse linear algebra over the rationals.

Rows are sparse integer vectors (dict column -> int, content gcd 1).  All
elimination is fraction-free: a reduction step forms ``p*row - a*pivot_row``
with integer cross-multiplication and divides out the content, so no
rational arithmetic and no rounding ever occurs.

The pivot of a row is its *largest* column index.  Ambient orderings in this
package place high-degree monomials at high indices.  Constraint systems keep
that order (reversed, they ranked about ten times slower); the generator
spans of ``stability`` reverse their columns, so that each stored row pivots
on its lowest-degree monomial and truncation degrees are read off pivots.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, Iterable, List, Tuple

from .ring import _frac_str

Row = Dict[int, int]


def row_from_fractions(entries: Dict[int, Fraction]) -> Row:
    """Clear denominators and reduce content; sign left as-is."""
    items = [(c, v) for c, v in entries.items() if v != 0]
    if not items:
        return {}
    denom_lcm = 1
    for _, v in items:
        d = v.denominator
        denom_lcm = denom_lcm * d // gcd(denom_lcm, d)
    row = {c: int(v * denom_lcm) for c, v in items}
    return _reduce_content(row)


def _reduce_content(row: Row) -> Row:
    if not row:
        return row
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        row = {c: v // g for c, v in row.items()}
    return row


def _pivot(row: Row) -> int:
    return max(row)


def _eliminate(row: Row, prow: Row, col: int) -> Row:
    """Return the content-reduced combination cancelling ``col`` from ``row``."""
    a = row.get(col)
    if not a:
        return row
    p = prow[col]
    out = {c: p * v for c, v in row.items()}
    for c, v in prow.items():
        cur = out.get(c, 0) - a * v
        if cur:
            out[c] = cur
        else:
            out.pop(c, None)
    return _reduce_content(out)


class Echelon:
    """A set of independent sparse rows kept in echelon form (pivot = max col)."""

    def __init__(self):
        self.pivots: Dict[int, Row] = {}

    def reduce(self, row: Row) -> Row:
        """Fully reduce ``row`` against the stored pivot rows."""
        while row:
            col = _pivot(row)
            prow = self.pivots.get(col)
            if prow is None:
                return row
            row = _eliminate(row, prow, col)
        return row

    def insert(self, row: Row) -> bool:
        """Reduce and store; returns True if the row enlarged the span."""
        row = self.reduce(dict(row))
        if not row:
            return False
        row = _reduce_content(row)
        col = _pivot(row)
        if row[col] < 0:
            row = {c: -v for c, v in row.items()}
        self.pivots[col] = row
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def back_substitute(self):
        """Make every pivot column appear only in its own row (canonical form).

        The scan over every pair of pivots is kept on purpose: its callers
        (``JetSubspace.to_doc`` and ``SolutionSpace.basis_iter``) run it a
        few times per verdict, too rarely for a column index to pay for
        itself.
        """
        for col in sorted(self.pivots, reverse=True):
            prow = self.pivots[col]
            for other_col, other in list(self.pivots.items()):
                if other_col == col:
                    continue
                if col in other:
                    self.pivots[other_col] = _eliminate(other, prow, col)


class JetSubspace:
    """Finite-dimensional subspace of a truncated coefficient space.

    Stored as a canonically reduced basis of sparse integer rows over an
    ambient space of fixed dimension.  Supports the subspace calculus needed
    by the jet computations: membership and containment, both exact.
    """

    def __init__(self, ambient_dim: int):
        self.ambient_dim = ambient_dim
        self._ech = Echelon()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_rows(cls, ambient_dim: int, rows: Iterable[Row]) -> "JetSubspace":
        sub = cls(ambient_dim)
        for row in rows:
            sub.insert(row)
        return sub

    def insert(self, row: Row) -> bool:
        for c in row:
            if not 0 <= c < self.ambient_dim:
                raise ValueError(f"column {c} outside ambient of dim {self.ambient_dim}")
        return self._ech.insert(row)

    # -- queries -------------------------------------------------------------

    @property
    def dim(self) -> int:
        return self._ech.rank

    def contains(self, row: Row) -> bool:
        return not self._ech.reduce(dict(row))

    def contains_subspace(self, other: "JetSubspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return all(self.contains(r) for r in other.basis_rows())

    def equals(self, other: "JetSubspace") -> bool:
        return (
            self.dim == other.dim
            and self.contains_subspace(other)
        )

    def basis_rows(self) -> List[Row]:
        pivots = self._ech.pivots
        return [pivots[c] for c in sorted(pivots, reverse=True)]

    # -- serialization ----------------------------------------------------------

    def to_doc(self) -> dict:
        """Matrix-of-rationals document: pivot-normalized rows, deterministic."""
        self._ech.back_substitute()
        rows_doc = []
        for row in self.basis_rows():
            pivot_val = row[_pivot(row)]
            entries = {
                str(c): _frac_str(Fraction(v, pivot_val))
                for c, v in sorted(row.items())
            }
            rows_doc.append(entries)
        return {"ambient_dim": self.ambient_dim, "dim": self.dim, "rows": rows_doc}


def annihilates(constraints: Iterable[Row], rows: Iterable[Row]) -> bool:
    """True when every row has zero dot product with every constraint: one
    sparse transposed product through a column -> (constraint, value) index."""
    by_col: Dict[int, List[Tuple[int, int]]] = {}
    for k, con in enumerate(constraints):
        for c, v in con.items():
            by_col.setdefault(c, []).append((k, v))
    for row in rows:
        acc: Dict[int, int] = {}
        for c, v in row.items():
            for k, a in by_col.get(c, ()):
                acc[k] = acc.get(k, 0) + a * v
        if any(acc.values()):
            return False
    return True


class SolutionSpace:
    """Solution space of a homogeneous system, kept in constraint form.

    For large jet systems the explicit basis is expensive to echelonize, but
    cheap operations suffice downstream: the dimension, projected dimensions
    and lazy enumeration of a basis for witness extraction.  Membership of
    candidate solutions is tested on the original constraints with
    ``annihilates``.
    """

    def __init__(self, constraint_rows: Iterable[Row], ncols: int):
        self._ech = Echelon()
        self.extend(constraint_rows, ncols)

    def extend(self, rows: Iterable[Row], ncols: int) -> None:
        """Add equations, over ``ncols`` >= the current number of unknowns;
        the new unknowns are the trailing columns.  Stored rows are kept."""
        self.ncols = ncols
        for row in rows:
            self._ech.insert(row)
        self._substituted = False

    @property
    def dim(self) -> int:
        return self.ncols - self._ech.rank

    def projected_dim(self, low: int) -> int:
        """dim of the projection of the solutions to the first ``low``
        columns, ``low - #(pivots < low)``.  Proof: it is ``low - rank C +
        rank C_high``, C_high being the constraints C on the columns >= low.
        Pivots are the largest columns, so a row that pivots below ``low``
        lies inside the low block, and the rows that pivot at or above it
        keep distinct pivots outside it and stay independent there: rank
        C_high = #(pivots >= low)."""
        return low - sum(1 for col in self._ech.pivots if col < low)

    def basis_iter(self):
        """Yield one sparse integer basis vector per free column."""
        if not self._substituted:
            self._ech.back_substitute()
            self._substituted = True
        contributions: Dict[int, List] = {}
        for col, prow in self._ech.pivots.items():
            p = prow[col]
            for c, a in prow.items():
                if c != col:
                    contributions.setdefault(c, []).append((col, -Fraction(a, p)))
        for f in range(self.ncols):
            if f in self._ech.pivots:
                continue
            vec: Dict[int, Fraction] = {f: Fraction(1)}
            for col, val in contributions.get(f, ()):
                vec[col] = val
            yield row_from_fractions(vec)
