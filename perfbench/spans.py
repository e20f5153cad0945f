"""Span tracing of the ``whitney`` layers, installed from the benchmark.

Wrappers go around the public functions and methods listed in ``WRAPS``.
A module-level function is replaced in every ``whitney`` module namespace
that holds it (``whitney.cli.check_contact_stability`` is the same object as
``whitney.stability.check_contact_stability``); a method is replaced on its
class, together with any alias of it there (``__rmul__ = __mul__``).  A
listed name that no longer exists is reported as missing, not as an error.

Each span records its name, start, end, parent span and op id in flat
arrays held in memory; self time (span time minus the time of its child
spans) is derived from them when the run ends.  Counters are read from the
returned values and stored rows inside short ``trace.hook`` spans, so their
cost is charged to no layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from array import array
from time import perf_counter
from typing import Dict, List

# (metric prefix, module, attribute path)
WRAPS = (
    ("linalg.satisfies", "whitney.linalg", "SolutionSpace.satisfies"),
    ("linalg.solution_space", "whitney.linalg", "SolutionSpace.__init__"),
    ("linalg.intersection", "whitney.linalg", "JetSubspace.intersection"),
    ("linalg.back_substitute", "whitney.linalg", "Echelon.back_substitute"),
    ("linalg.basis_iter", "whitney.linalg", "SolutionSpace.basis_iter"),
    ("linalg.insert", "whitney.linalg", "Echelon.insert"),
    ("linalg.reduce", "whitney.linalg", "Echelon.reduce"),
    ("deformations.slice", "whitney.deformations", "deformation_slice"),
    ("deformations.materialize", "whitney.deformations", "materialize_slice"),
    ("deformations.rf", "whitney.deformations", "rf_truncated"),
    ("deformations.module_mult", "whitney.deformations", "module_mult"),
    ("stability.check", "whitney.stability", "check_contact_stability"),
    ("stability.check", "whitney.stability", "check_legendre_stability"),
    ("stability.fiber", "whitney.stability", "check_fiber_generation"),
    ("stability.multiplicity", "whitney.stability", "local_multiplicity"),
    ("stability.conclusive_order", "whitney.stability", "compute_conclusive_order"),
    ("stability.algebra_span", "whitney.stability", "pullback_algebra_span"),
    ("stability.algebra_span", "whitney.stability", "pullback_power_span"),
    ("stability.algebra_span", "whitney.stability", "base_ideal_span"),
    ("stability.products", "whitney.stability", "pullback_products"),
    ("ring.mul", "whitney.ring", "TruncatedPoly.__mul__"),
    ("ring.substitute", "whitney.ring", "TruncatedPoly.substitute"),
    ("ring.parse", "whitney.ring", "parse_expression"),
    ("forms.pullback", "whitney.forms", "MapBetweenCharts.pullback"),
    ("forms.tangent_lift", "whitney.forms", "DiffForm.tangent_lift"),
    ("forms.lie", "whitney.forms", "FieldAlongMap.lie"),
    ("contact.hamiltonian", "whitney.contact", "contact_hamiltonian"),
    ("integral_maps.certify", "whitney.integral_maps", "IntegralMap.__init__"),
    ("integral_maps.complete", "whitney.integral_maps", "complete_from_uv"),
    ("integral_maps.lift", "whitney.integral_maps", "lift_isotropic"),
    ("germdoc.parse", "whitney.germdoc", "parse_germ_document"),
    ("germdoc.to_map", "whitney.germdoc", "GermDocument.to_integral_map"),
    ("cli.main", "whitney.cli", "main"),
)
GENERATORS = {"linalg.basis_iter"}
HOOK = "trace.hook"

# per-layer metrics reported by a traced run: name -> unit
METRICS = {
    "linalg.satisfies.calls": "count",
    "linalg.satisfies.self_s": "s",
    "linalg.solution_space.self_s": "s",
    "linalg.intersection.calls": "count",
    "linalg.intersection.self_s": "s",
    "linalg.back_substitute.calls": "count",
    "linalg.back_substitute.self_s": "s",
    "linalg.basis_iter.self_s": "s",
    "linalg.insert.calls": "count",
    "linalg.insert.self_s": "s",
    "linalg.insert.useful_ratio": "ratio",
    "linalg.reduce.self_s": "s",
    "linalg.rank_max": "count",
    "linalg.pivot_nnz_max": "count",
    "linalg.coeff_bits_max": "bits",
    "deformations.slice.calls": "count",
    "deformations.slice.self_s": "s",
    "deformations.slice.escalations": "count",
    "deformations.materialize.self_s": "s",
    "deformations.rf.self_s": "s",
    "deformations.module_mult.self_s": "s",
    "stability.check.calls": "count",
    "stability.check.self_s": "s",
    "stability.fiber.self_s": "s",
    "stability.multiplicity.self_s": "s",
    "stability.conclusive_order.self_s": "s",
    "stability.algebra_span.calls": "count",
    "stability.algebra_span.self_s": "s",
    "stability.products.self_s": "s",
    "ring.mul.calls": "count",
    "ring.mul.self_s": "s",
    "ring.substitute.self_s": "s",
    "ring.parse.self_s": "s",
    "forms.pullback.calls": "count",
    "forms.pullback.self_s": "s",
    "forms.tangent_lift.self_s": "s",
    "forms.lie.self_s": "s",
    "contact.hamiltonian.self_s": "s",
    "integral_maps.certify.calls": "count",
    "integral_maps.certify.self_s": "s",
    "integral_maps.complete.self_s": "s",
    "integral_maps.lift.self_s": "s",
    "germdoc.parse.self_s": "s",
    "germdoc.to_map.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
}

# the traced run checks that each workload runs the layers it is meant to
# exercise and that the layers it is meant to bypass see exactly zero calls
MUST_FIRE = {
    "verdicts": ("linalg", "deformations", "stability", "germdoc", "cli"),
    "conclusive-order": ("stability", "linalg", "ring"),
    "calculus": ("ring", "forms", "contact", "integral_maps", "germdoc", "cli",
                 "deformations"),
}
MUST_BE_ZERO = {
    "verdicts": (),
    "conclusive-order": ("deformations.slice", "deformations.materialize",
                         "deformations.rf", "deformations.module_mult",
                         "linalg.satisfies", "linalg.solution_space"),
    # Echelon.insert still runs on calculus: the corank certificate of every
    # constructed map ranks its (2n+1)-column differential at the origin
    "calculus": ("linalg.satisfies", "linalg.solution_space",
                 "linalg.intersection", "linalg.back_substitute",
                 "linalg.basis_iter", "deformations.slice",
                 "deformations.materialize", "deformations.rf"),
}


def _bits(rows) -> int:
    return max((abs(v).bit_length() for row in rows for v in row.values()),
               default=0)


class Tracer:
    """Flat, in-memory span store with a stack of open spans."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.nid = array("i")
        self.parent = array("q")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self.op = -1
        self.calls: Dict[str, int] = {}
        self.counters: Dict[str, float] = {}
        self.missing_counters = set()
        self._restore = []
        self.missing: List[str] = []
        self.installed = set()

    def intern(self, name: str) -> int:
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
        return got

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.nid.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self.op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def bump(self, key: str, value: float = 1):
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key: str, value: float):
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name: str, fn, hook):
        nid = self.intern(name)
        hook_id = self.intern(HOOK)
        calls = self.calls
        calls.setdefault(name, 0)
        tracer = self

        if name in GENERATORS:
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                calls[name] += 1
                gen = fn(*args, **kwargs)
                while True:
                    idx = tracer.open(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(idx)
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                h = tracer.open(hook_id)
                try:
                    hook(tracer, args, result)
                except (AttributeError, KeyError, TypeError, StopIteration):
                    tracer.missing_counters.add(name)
                finally:
                    tracer.close(h)
            return result
        return traced

    def install(self):
        """Wrap every listed name that exists; remember what to restore."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "whitney" or key.startswith("whitney.")]
        for name, modname, path in WRAPS:
            try:
                owner = importlib.import_module(modname)
                parts = path.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                orig = owner.__dict__[parts[-1]] if isinstance(owner, type) \
                    else getattr(owner, parts[-1])
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{modname}.{path}")
                continue
            wrapped = self._wrap(name, orig, HOOKS.get(name))
            self.installed.add(name)
            if isinstance(owner, type):
                for attr, value in list(owner.__dict__.items()):
                    if value is orig:
                        self._restore.append((owner, attr, orig))
                        setattr(owner, attr, wrapped)
            else:
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._restore.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results -----------------------------------------------------------------

    def self_times(self, op_scale: Dict[int, float]) -> Dict[str, float]:
        """Span time minus the time of direct child spans, times the
        reference-speed factor of the span's op, summed by name; hook spans
        are charged to no layer."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {name: 0.0 for name in self.names}
        names, nid, op_id = self.names, self.nid, self.op_id
        for i in range(n):
            out[names[nid[i]]] += (end[i] - start[i] - child[i]) * op_scale[op_id[i]]
        out.pop(HOOK, None)
        return out

    def write(self, path: str, meta: dict):
        """Spans as five native-order arrays after a one-line JSON header."""
        arrays = (self.nid, self.parent, self.op_id, self.start, self.end)
        header = dict(meta, names=self.names, spans=len(self.start),
                      byteorder=sys.byteorder,
                      arrays=["nid", "parent", "op", "start", "end"],
                      typecodes=[a.typecode for a in arrays])
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in arrays:
                arr.tofile(fh)


# -- counter hooks: read returned values and stored rows ------------------------------


def _insert_hook(tracer: Tracer, args, useful):
    tracer.bump("linalg.insert.useful", 1 if useful else 0)
    if useful:
        pivots = args[0].pivots
        row = pivots[next(reversed(pivots))]       # the row just stored
        tracer.peak("linalg.rank_max", len(pivots))
        tracer.peak("linalg.pivot_nnz_max", len(row))
        tracer.peak("linalg.coeff_bits_max", _bits([row]))


def _back_substitute_hook(tracer: Tracer, args, _result):
    tracer.peak("linalg.coeff_bits_max", _bits(args[0].pivots.values()))


def _slice_hook(tracer: Tracer, _args, data):
    tracer.bump("deformations.slice.escalations", data.working_order - data.order)


HOOKS = {
    "linalg.insert": _insert_hook,
    "linalg.back_substitute": _back_substitute_hook,
    "deformations.slice": _slice_hook,
}
COUNTER_OWNER = {
    "linalg.insert.useful_ratio": "linalg.insert",
    "linalg.rank_max": "linalg.insert",
    "linalg.pivot_nnz_max": "linalg.insert",
    "linalg.coeff_bits_max": "linalg.insert",
    "deformations.slice.escalations": "deformations.slice",
}


def layer_metrics(tracer: Tracer, overhead: float, op_scale: Dict[int, float]):
    """(metrics, missing): every name of METRICS with its value; a metric
    whose wrapped name or counter is gone reads 0 and is listed missing."""
    selfs = tracer.self_times(op_scale)
    counters = dict(tracer.counters)
    inserts = tracer.calls.get("linalg.insert", 0)
    counters["linalg.insert.useful_ratio"] = (
        counters.get("linalg.insert.useful", 0) / inserts if inserts else 0.0)
    metrics, missing = {}, []
    for key, unit in METRICS.items():
        if key == "trace.overhead_frac":
            value = overhead
        elif key.endswith(".calls"):
            owner = key[:-len(".calls")]
            value = tracer.calls.get(owner, 0)
        elif key.endswith(".self_s"):
            owner = key[:-len(".self_s")]
            value = selfs.get(owner, 0.0)
        else:
            owner = COUNTER_OWNER[key]
            value = counters.get(key, 0)
        if key != "trace.overhead_frac" and (
                owner not in tracer.installed or owner in tracer.missing_counters):
            missing.append(key)
        metrics[key] = {"value": value, "unit": unit}
    return metrics, missing


def self_check(workload: str, tracer: Tracer) -> List[str]:
    """Violations of MUST_FIRE and MUST_BE_ZERO; a name that is not
    installed is skipped (it shows as missing instead)."""
    problems = []
    for layer in MUST_FIRE[workload]:
        names = [n for n in tracer.installed if n.split(".")[0] == layer]
        if names and not any(tracer.calls.get(n, 0) for n in names):
            problems.append(f"layer {layer} never ran on {workload}")
    for name in MUST_BE_ZERO[workload]:
        if name in tracer.installed and tracer.calls.get(name, 0):
            problems.append(f"{name} ran {tracer.calls[name]} times on "
                            f"{workload}, which should bypass it")
    return problems
