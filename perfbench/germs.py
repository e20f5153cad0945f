"""Seeded op inputs for the benchmark workloads, with their expected answers.

Every op index gets its own germ, drawn from a ``random.Random`` seeded by
(workload, seed, index), so the same seed gives the same inputs and no two
ops of one run share a germ: the package's process-global memo tables
(keyed by the germ) never serve one op from another op's work.

Perturbations follow the recipe of acceptance criterion 5: ``u`` gains
monomials of degree >= k+2 and ``v`` gains monomials multiplied by x_n, so
the boundary condition of the completion holds and corank <= 1 is
automatic.  The expected answers below were checked against the library and
the independent oracle on many seeds; a mismatch counts as an op error.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from whitney import germdoc
from whitney.forms import source_chart
from whitney.integral_maps import complete_from_uv, owu_normal_form
from whitney.ring import TruncatedPoly, monomials_upto

COEFFS = (-2, -1, 1, 2)

UMBRELLAS = {"f_2_0": (2, 0), "f_2_1": (2, 1), "f_3_1": (3, 1), "f_4_2": (4, 2)}
VERDICT_FAMILIES = ("f_2_0", "f_2_1", "f_3_1", "f_4_2",
                    "cusp25", "cusp23", "five_space")
# umbrella type reported by classify; cusp25 is the fail path (contact
# deficiency 1 with one witness, so not an umbrella)
UMBRELLA_TYPE = {"f_2_0": 0, "f_2_1": 1, "f_3_1": 1, "f_4_2": 2,
                 "cusp23": 0, "five_space": 1, "cusp25": None}
MODES = ("contact", "legendre", "a2r", "classify")
# jet orders a family runs at, in turn.  The type-2 umbrella runs at 5 and
# 6 only: its r = 5 ops (about 0.5 s) are then about a tenth of all ops,
# which puts latency_p90_s inside their cluster instead of in the gap
# below it, where it would jump with the germs of a run
ORDERS = {"f_4_2": (5, 6, 5)}
DEFAULT_ORDERS = (4, 5, 6)

# (family, cap) slots of the conclusive-order workload and the value of
# compute_conclusive_order on every perturbation of that family
CONCLUSIVE_SLOTS = (("f_2_0", 10), ("f_2_1", 11), ("f_3_1", 10), ("f_2_0", 12),
                    ("f_2_1", 10), ("f_3_1", 11), ("f_2_0", 11), ("f_2_1", 12))
CONCLUSIVE_VALUE = {("f_2_0", 10): 3, ("f_2_0", 11): 3, ("f_2_0", 12): 3,
                    ("f_2_1", 10): 7, ("f_2_1", 11): 7, ("f_2_1", 12): 7,
                    ("f_3_1", 10): None, ("f_3_1", 11): 9}

CALCULUS_KINDS = ("complete", "roundtrip", "module", "extend")
CALCULUS_UMBRELLAS = ((2, 1), (3, 1), (4, 2))
CALCULUS_CAPS = (12, 13, 14, 15, 16)


def _base_graph(family: str, cap: int):
    """(n, lo, u, v, chart): unperturbed graph data of a family and the
    lowest degree its perturbations of u may have."""
    if family in UMBRELLAS:
        n, k = UMBRELLAS[family]
        f = owu_normal_form(n, k, cap=cap)
        return n, k + 2, f.q_component(n - 1), f.p_component(n - 1), f.source
    if family in ("cusp23", "cusp25"):
        ch = source_chart(1, names=["t"])
        t = ch.var(0, cap)
        if family == "cusp23":
            return 1, 3, t ** 2, t * Fraction(3, 2), ch
        return 1, 4, t ** 2, t ** 3 * Fraction(5, 2), ch
    if family == "five_space":
        # the five-space front with its Darboux pairs swapped, which puts it
        # in graph form over x1 = lam, x2 = t
        ch = source_chart(2, names=["lam", "t"])
        lam, t = ch.var(0, cap), ch.var(1, cap)
        return 2, 3, t ** 2, t ** 3 * Fraction(5, 2) + lam * t * Fraction(3, 2), ch
    raise ValueError(f"unknown family {family!r}")


class _Draw:
    """Random choices of one op.  The supports of all perturbations come
    from the op index alone, so every seed runs the same sparsity patterns
    (and about the same amount of work); the seed picks the coefficients."""

    def __init__(self, workload: str, seed: int, index: int, attempt: int):
        self._shape = random.Random(f"{workload}/{index}")
        self._value = random.Random(f"{workload}/{seed}/{index}/{attempt}")

    def support(self, monos, count: int):
        return self._shape.sample(monos, min(count, len(monos)))

    def poly(self, chart, cap: int, monos) -> TruncatedPoly:
        return TruncatedPoly(chart.dim, cap, chart.kinds,
                             {m: Fraction(self._value.choice(COEFFS)) for m in monos})


def _perturbation(draw: _Draw, n: int, lo: int, cap: int, chart, nterms: int = 2):
    """(du, dv): monomials of degree lo..lo+1 in u, the same multiplied by
    x_n in v."""
    monos = [m for m in monomials_upto(n, lo + 1) if sum(m) >= lo]
    du = draw.poly(chart, cap, draw.support(monos, nterms))
    dv = draw.poly(chart, cap, [m[:-1] + (m[-1] + 1,)
                                for m in draw.support(monos, nterms)])
    return du, dv


def _target_poly(draw: _Draw, f, maxdeg: int = 2, nterms: int = 3):
    tgt = f.target.chart
    monos = [m for m in monomials_upto(tgt.dim, maxdeg) if sum(m)]
    return draw.poly(tgt, f.cap, draw.support(monos, nterms))


def _poly_key(*polys) -> Tuple:
    return tuple((p.cap, tuple(sorted(p.terms.items()))) for p in polys)


# -- op inputs ------------------------------------------------------------------------


@dataclass
class VerdictOp:
    index: int
    family: str
    mode: str
    order: int
    germ: object                  # the certified IntegralMap behind the document
    doc: str                      # germ document path
    out: str                      # report path

    @property
    def argv(self) -> List[str]:
        return ["check", self.doc, "--mode", self.mode, "--order",
                str(self.order), "--json", "--out", self.out]


@dataclass
class ConclusiveOp:
    index: int
    family: str
    cap: int
    germ: object

    @property
    def expected(self) -> Optional[int]:
        return CONCLUSIVE_VALUE[(self.family, self.cap)]


@dataclass
class CalculusOp:
    index: int
    kind: str
    n: int
    cap: int
    data: Dict[str, object] = field(default_factory=dict)


class Generator:
    """Makes the input of op ``index`` of one workload run.

    Inputs are made in index order; a germ that repeats an earlier one of
    the same run gets new coefficients, so every op of a run has a
    distinct germ.
    """

    def __init__(self, workload: str, seed: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self._seen = set()
        self._make = {"verdicts": self._verdict,
                      "conclusive-order": self._conclusive,
                      "calculus": self._calculus}[workload]

    def make(self, index: int):
        for attempt in range(1000):
            draw = _Draw(self.workload, self.seed, index, attempt)
            op, key = self._make(draw, index)
            if key not in self._seen:
                self._seen.add(key)
                self._finish(op)
                return op
        raise RuntimeError(f"no fresh germ for op {index}")

    def _path(self, index: int, suffix: str) -> str:
        return os.path.join(self.workdir, f"op{index}.{suffix}")

    def _finish(self, op):
        """Write the documents an op reads; nothing is written for a
        candidate that repeats an earlier germ."""
        if isinstance(op, VerdictOp):
            _write_doc(op.doc, germdoc.integral_map_doc(op.germ))
        elif isinstance(op, CalculusOp) and op.kind == "roundtrip":
            _write_doc(op.data["uv"], op.data.pop("uv_doc"))

    # -- verdicts: one cli check per op --------------------------------------------

    def _verdict(self, draw, index):
        # a family recurs every 7 ops, and 7, 4 and 3 are coprime: each
        # family meets every (mode, order slot) pair once per 84 ops, and
        # heavy ops are spread evenly over a run
        family = VERDICT_FAMILIES[index % len(VERDICT_FAMILIES)]
        mode = MODES[index % len(MODES)]
        orders = ORDERS.get(family, DEFAULT_ORDERS)
        order = orders[(index // len(VERDICT_FAMILIES)) % len(orders)]
        cap = order + 2
        n, lo, u, v, chart = _base_graph(family, cap)
        du, dv = _perturbation(draw, n, lo, cap, chart)
        germ = complete_from_uv(n, u + du, v + dv, source=chart,
                                provenance=family)
        op = VerdictOp(index, family, mode, order, germ,
                       self._path(index, "germ"), self._path(index, "json"))
        return op, (family, cap) + _poly_key(du, dv)

    # -- conclusive order: one library call per op ------------------------------------

    def _conclusive(self, draw, index):
        family, cap = CONCLUSIVE_SLOTS[index % len(CONCLUSIVE_SLOTS)]
        n, lo, u, v, chart = _base_graph(family, cap)
        du, dv = _perturbation(draw, n, lo, cap, chart)
        germ = complete_from_uv(n, u + du, v + dv, source=chart,
                                provenance=family)
        return ConclusiveOp(index, family, cap, germ), (family, cap) + _poly_key(du, dv)

    # -- calculus: ring, forms and certificates without any solve ------------------------

    def _calculus(self, draw, index):
        kind = CALCULUS_KINDS[index % len(CALCULUS_KINDS)]
        n, k = CALCULUS_UMBRELLAS[index % len(CALCULUS_UMBRELLAS)]
        cap = CALCULUS_CAPS[index % len(CALCULUS_CAPS)]
        base = owu_normal_form(n, k, cap=cap)
        chart = base.source
        u0, v0 = base.q_component(n - 1), base.p_component(n - 1)
        du, dv = _perturbation(draw, n, k + 2, cap, chart)
        u, v = u0 + du, v0 + dv
        op = CalculusOp(index, kind, n, cap)
        key = (kind, n, cap) + _poly_key(du, dv)
        if kind == "complete":
            op.data = {"u": u, "v": v, "chart": chart}
        elif kind == "roundtrip":
            doc = {"n": str(n), "cap": str(cap), "complete": "true",
                   "u": u.render(chart.names), "v": v.render(chart.names)}
            op.data = {"uv": self._path(index, "uv.germ"), "uv_doc": doc,
                       "full": self._path(index, "full.germ"),
                       "iso": self._path(index, "iso.germ"),
                       "lifted": self._path(index, "lifted.germ")}
        elif kind == "module":
            f = complete_from_uv(n, u, v, source=chart)
            H = _target_poly(draw, f)
            if (index // len(CALCULUS_KINDS)) % 2:
                xi = [draw.poly(chart, cap, [m])
                      for m in draw.support(monomials_upto(n, 2), n)]
                op.data = {"f": f, "H": H, "xi": xi}
            else:
                op.data = {"f": f, "H": H, "H0": _target_poly(draw, f)}
        else:
            op.data = {"F": _unfolding(draw, n, k, u, v, "lam"),
                       "G": _unfolding(draw, n, k, u, v, "mu")}
        return op, key


def _unfolding(draw: _Draw, n: int, k: int, u, v, param: str):
    """Graph-form unfolding of (u, v) over one parameter: terms linear in the
    parameter, the v terms multiplied by x_n."""
    chart = source_chart(n, (param,))
    cap = u.cap
    embed = list(range(n))
    monos = [m for m in monomials_upto(n, k + 2) if sum(m)]
    dU = draw.poly(chart, cap, [m + (1,) for m in draw.support(monos, 2)])
    dV = draw.poly(chart, cap, [m[:-1] + (m[-1] + 1, 1)
                                for m in draw.support(monos, 2)])
    return complete_from_uv(n, u.extend(n + 1, chart.kinds, embed) + dU,
                            v.extend(n + 1, chart.kinds, embed) + dV,
                            params=(param,), source=chart,
                            provenance=f"unfolding_{param}")


def _write_doc(path: str, doc: Dict[str, str]):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(germdoc.doc_to_text(doc))
