"""What one op of each workload runs, and how its answer is checked.

``execute`` is the timed call into ``whitney``.  ``collect`` reads what the
op left behind (report files) right after it, outside the timer.  ``check``
runs after the timed phase and returns the list of mismatches of one op
against its family's expected answer and, where one exists, the
independent oracle in ``tests/oracles.py``.

Package functions are looked up through their modules at call time, so the
span wrappers of a traced run see these calls.
"""

from __future__ import annotations

import importlib.util
import json
import os
from typing import List

import whitney.cli
import whitney.deformations
import whitney.integral_maps
import whitney.stability
from whitney.deformations import DeformationField
from whitney.forms import source_chart
from whitney.integral_maps import IntegralMap

from germs import UMBRELLA_TYPE, CalculusOp, ConclusiveOp, VerdictOp

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# slice dims of verdict ops up to this n are compared with the dense oracle,
# which grows too slow for the n = 4 umbrella
ORACLE_MAX_N = 3


def _load_oracles():
    path = os.path.join(ROOT, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("whitney_bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load_oracles()


def execute(op):
    if isinstance(op, VerdictOp):
        return whitney.cli.main(op.argv)
    if isinstance(op, ConclusiveOp):
        return whitney.stability.compute_conclusive_order(op.germ)
    d = op.data
    if op.kind == "complete":
        return whitney.integral_maps.complete_from_uv(op.n, d["u"], d["v"],
                                                      source=d["chart"])
    if op.kind == "roundtrip":
        return [whitney.cli.main(["complete", d["uv"], "--out", d["full"]]),
                whitney.cli.main(["project", d["full"], "--out", d["iso"]]),
                whitney.cli.main(["lift", d["iso"], "--out", d["lifted"]])]
    if op.kind == "module":
        if "xi" in d:
            v = whitney.deformations.tf_apply(d["f"], d["xi"])
        else:
            v = whitney.deformations.wf_apply(d["f"], d["H0"])
        return v, whitney.deformations.module_mult(d["H"], v)
    return whitney.stability.extend_unfoldings(d["F"], d["G"])


def collect(op, result):
    if isinstance(op, VerdictOp):
        with open(op.out, encoding="utf-8") as fh:
            return result, json.load(fh)
    if isinstance(op, CalculusOp) and op.kind == "roundtrip":
        texts = []
        for key in ("full", "lifted"):
            with open(op.data[key], encoding="utf-8") as fh:
                texts.append(fh.read())
        return result, texts
    return result


def check(op, answer) -> List[str]:
    if isinstance(op, VerdictOp):
        return _check_verdict(op, *answer)
    if isinstance(op, ConclusiveOp):
        return _check_conclusive(op, answer)
    return _CALCULUS_CHECKS[op.kind](op, answer)


# -- verdicts -----------------------------------------------------------------------


def _check_verdict(op: VerdictOp, code: int, report: dict) -> List[str]:
    k = UMBRELLA_TYPE[op.family]
    umbrella = k is not None
    want_code = 0 if umbrella else 1
    bad = []
    if code != want_code:
        bad.append(f"exit code {code}, expected {want_code}")
    if op.mode == "classify":
        want = f"type {k}" if umbrella else "not-an-umbrella"
        if report.get("verdict") != want or report.get("type") != k:
            bad.append(f"classified {report.get('verdict')!r}, expected {want!r}")
        return bad
    want = "pass" if umbrella else "fail"
    if report.get("verdict") != want or report.get("order") != op.order:
        bad.append(f"verdict {report.get('verdict')!r} at order "
                   f"{report.get('order')}, expected {want!r} at {op.order}")
    if op.mode == "a2r":
        if report.get("sub_verdicts", {}).get("umbrella_gate") != want:
            bad.append("umbrella gate disagrees with the family")
        return bad
    dims = report.get("dims", {})
    want_def = 0 if umbrella else 1
    if dims.get("deficiency") != want_def or len(report.get("witnesses", ())) != want_def:
        bad.append(f"deficiency {dims.get('deficiency')} with "
                   f"{len(report.get('witnesses', ()))} witnesses, expected {want_def}")
    f = op.germ
    if f.n <= ORACLE_MAX_N:
        comps = [dict(c.terms) for c in f.components]
        dim, stable = oracles.oracle_vi_dim(comps, f.n, f.source.dim, op.order,
                                            f.cap - 1)
        if dims.get("deformation_slice") != dim:
            bad.append(f"slice dim {dims.get('deformation_slice')}, oracle {dim}")
        # a slice pinched at the slice order skips the escalation, so its
        # stabilized flag is comparable only after an escalation
        working = report.get("generator_bounds", {}).get("slice_working_order")
        flag = report.get("sub_verdicts", {}).get("slice_stabilized") == "yes"
        if working != op.order and flag != stable:
            bad.append(f"slice stabilized {flag}, oracle {stable}")
    return bad


# -- conclusive order ----------------------------------------------------------------


def _check_conclusive(op: ConclusiveOp, co) -> List[str]:
    bad = []
    if co.value != op.expected:
        bad.append(f"conclusive order {co.value}, expected {op.expected}")
    f = op.germ
    comps = [dict(c.terms) for c in f.components]
    low = oracles.oracle_conclusive_order(comps, f.n, f.source.dim, co.degree,
                                          co.search_cap)
    high = oracles.oracle_conclusive_order(comps, f.n, f.source.dim,
                                           co.degree + 1, co.search_cap)
    oracle_value = low if (low is not None and low == high) else None
    if co.value != oracle_value:
        bad.append(f"conclusive order {co.value}, oracle {oracle_value}")
    return bad


# -- calculus ------------------------------------------------------------------------


def _check_complete(op: CalculusOp, f) -> List[str]:
    """Integrality d(r) = sum p_i d(q_i) below the cap, recomputed with the
    oracle's bare polynomial arithmetic, and the graph data in place."""
    n, o = op.n, oracles
    comps = [dict(c.terms) for c in f.components]
    p, q, r = comps[:n], comps[n:2 * n], comps[2 * n]
    bad = []
    if not (f.q_component(n - 1).same_jet(op.data["u"])
            and f.p_component(n - 1).same_jet(op.data["v"])):
        bad.append("graph data not kept")
    top = f.cap - 1
    for j in range(n):
        lhs = o.pdiff(r, j)
        for i in range(n):
            lhs = o.padd(lhs, o.pscale(o.pmul(p[i], o.pdiff(q[i], j), top), -1))
        if o.ptrunc(lhs, top):
            bad.append(f"d(r) - p dq has a dx{j + 1} term")
    return bad


def _check_roundtrip(op: CalculusOp, answer) -> List[str]:
    codes, (full, lifted) = answer
    bad = [] if codes == [0, 0, 0] else [f"exit codes {codes}"]
    if full != lifted:
        bad.append("lift(project(f)) differs from f")
    return bad


def _check_module(op: CalculusOp, answer) -> List[str]:
    """The product is certified again from scratch, and its generating
    function is f*H times that of the factor."""
    v, out = answer
    f, H = op.data["f"], op.data["H"]
    bad = []
    if not DeformationField(f, out.components).is_integral_deformation():
        bad.append("H * v fails the membership certificate")
    lhs = out.generating_function()
    rhs = f.pullback_function(H) * v.generating_function()
    if not lhs.same_jet(rhs.truncate(min(lhs.cap, rhs.cap))):
        bad.append("e(H * v) != f*H e(v)")
    return bad


def _restrict(F: IntegralMap, kill: str) -> IntegralMap:
    idx = F.source.names.index(kill)
    keep = [i for i in range(F.source.dim) if i != idx]
    params = tuple(p for p in F.params if p != kill)
    chart = source_chart(F.n, params,
                         names=tuple(F.source.names[i] for i in keep[:F.n]))
    comps = [c.set_vars_zero([idx]).project_vars(keep, chart.kinds)
             for c in F.components]
    return IntegralMap(F.n, comps, params=params, source=chart)


def _check_extend(op: CalculusOp, ext) -> List[str]:
    bad = []
    for kill, original in (("mu", op.data["F"]), ("lam", op.data["G"])):
        back = _restrict(ext, kill)
        if not all(a.same_jet(b) for a, b in zip(back.components,
                                                   original.components)):
            bad.append(f"extension at {kill} = 0 is not its input")
    return bad


_CALCULUS_CHECKS = {"complete": _check_complete, "roundtrip": _check_roundtrip,
                    "module": _check_module, "extend": _check_extend}
