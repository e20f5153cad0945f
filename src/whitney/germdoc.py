"""Flat key/value germ documents.

The on-disk format for map-germs is a plain text document of ``key = value``
lines with ``#`` comments; expression values use the ring grammar (exact
rationals ``a/b``, named variables, ``+ - * ^``, parentheses).  Exactly one
of the component set {p1..pn, q1..qn, r}, the graph data {u, v} with
``complete = true``, or the isotropic component set {p1..pn, q1..qn} with
``isotropic = true`` must be present.  Optional keys: ``vars`` (source
variable names, default x1..xn), ``params`` (passive deformation
parameters), ``cap`` (default 10), ``order`` (requested jet order).
"""

from __future__ import annotations

import json
from itertools import chain, islice
from typing import Dict, Optional, Tuple

from .errors import ParseError
from .forms import Chart, source_chart
from .integral_maps import (IntegralMap, complete_from_uv, component_labels,
                            lift_isotropic)
from .ring import TruncatedPoly

DEFAULT_CAP = 10


def check_cap(cap: int) -> int:
    """The one rule for a truncation cap, from a document or the CLI."""
    if cap < 2:
        raise ParseError("cap must be at least 2")
    return cap


class GermDocument:
    def __init__(self, n: int, cap: int, var_names: Tuple[str, ...],
                 params: Tuple[str, ...], kind: str,
                 expressions: Dict[str, str], order: Optional[int] = None):
        self.n = n
        self.cap = cap
        self.var_names = var_names
        self.params = params
        self.kind = kind                     # full | uv | isotropic
        self.expressions = expressions
        self.order = order

    @property
    def chart(self) -> Chart:
        return source_chart(self.n, self.params, names=self.var_names)

    def _parse(self, key: str, cap: int) -> TruncatedPoly:
        try:
            return self.chart.parse(self.expressions[key], cap)
        except (ParseError, ValueError) as err:
            # int() refuses non-decimal digits and over-long literals
            raise ParseError(f"in component {key}: {err}") from err

    def to_integral_map(self, cap: Optional[int] = None) -> IntegralMap:
        cap = self.cap if cap is None else cap
        if self.kind == "full":
            comps = [self._parse(label, cap) for label in component_labels(self.n)]
            return IntegralMap(self.n, comps, params=self.params,
                               source=self.chart)
        if self.kind == "uv":
            return complete_from_uv(self.n, self._parse("u", cap),
                                    self._parse("v", cap), params=self.params,
                                    source=self.chart)
        if self.kind == "isotropic":
            p = [self._parse(f"p{i + 1}", cap) for i in range(self.n)]
            q = [self._parse(f"q{i + 1}", cap) for i in range(self.n)]
            return lift_isotropic(self.n, p, q, params=self.params,
                                  source=self.chart)
        raise ParseError(f"document kind {self.kind!r} has no integral map")

    def isotropic_components(self, cap: Optional[int] = None):
        cap = self.cap if cap is None else cap
        if self.kind not in ("isotropic", "full"):
            raise ParseError("document does not carry isotropic components")
        p = [self._parse(f"p{i + 1}", cap) for i in range(self.n)]
        q = [self._parse(f"q{i + 1}", cap) for i in range(self.n)]
        return p, q


def _integer(entries: Dict[str, str], key: str) -> int:
    """Pop the integer value of ``key`` from the document entries."""
    value = entries.pop(key)
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"{key} must be an integer, got {value!r}") from None


def parse_germ_document(text: str) -> GermDocument:
    entries: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        if key in entries:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value.strip()
    if "n" not in entries:
        raise ParseError("missing required key 'n'")
    n = _integer(entries, "n")
    if n < 1:
        raise ParseError("n must be positive")
    cap = DEFAULT_CAP
    if "cap" in entries:
        cap = check_cap(_integer(entries, "cap"))
    order = None
    if "order" in entries:
        order = _integer(entries, "order")
    var_names: Tuple[str, ...] = ()
    if "vars" in entries:
        var_names = tuple(v.strip() for v in entries.pop("vars").split(",") if v.strip())
        if len(var_names) != n:
            raise ParseError(f"'vars' must name exactly {n} variables")
    params: Tuple[str, ...] = ()
    if "params" in entries:
        params = tuple(v.strip() for v in entries.pop("params").split(",") if v.strip())
    flags = {}
    for flag in ("complete", "isotropic"):
        if flag in entries:
            flags[flag] = entries.pop(flag).lower() in ("true", "1", "yes")
    keys = set(entries)
    # a full or isotropic document has at least 2n component keys; the count
    # is compared before any label is built, so a huge n costs nothing
    short = len(keys) < 2 * n
    if flags.get("complete"):
        if keys != {"u", "v"}:
            raise ParseError("completion form needs exactly the keys u and v")
        kind = "uv"
    elif flags.get("isotropic"):
        if short or keys - {"e"} != set(component_labels(n)[:-1]):
            raise ParseError("isotropic form needs exactly p1..pn, q1..qn (and optional e)")
        kind = "isotropic"
    elif keys == {"u", "v"}:
        kind = "uv"
    elif not short and keys == set(component_labels(n)):
        kind = "full"
    else:
        # the first few missing labels, made lazily
        labels = chain((f"{s}{i + 1}" for s in "pq" for i in range(n)), "r")
        missing = ", ".join(islice((x for x in labels if x not in keys), 3))
        raise ParseError(
            "expected the full component set p1..pn, q1..qn, r "
            f"(first missing: {missing}), or u/v with complete = true")
    var_names = var_names or tuple(f"x{i + 1}" for i in range(n))
    return GermDocument(n, cap, var_names, params, kind, dict(entries), order)


def load_germ(path: str) -> GermDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ParseError(f"cannot read germ document {path}: {err}") from None
    return parse_germ_document(text)


# -- serialization ------------------------------------------------------------------


def integral_map_doc(f: IntegralMap) -> Dict[str, str]:
    names = f.source.names
    doc = {"n": str(f.n), "cap": str(f.cap)}
    if names != tuple(f"x{i + 1}" for i in range(f.n)) + f.params:
        doc["vars"] = ", ".join(names[:f.n])
    if f.params:
        doc["params"] = ", ".join(f.params)
    for label, comp in zip(component_labels(f.n), f.components):
        doc[label] = comp.render(names)
    return doc


def isotropic_map_doc(n, p_components, q_components, e, source) -> Dict[str, str]:
    names = source.names
    doc = {"n": str(n), "isotropic": "true"}
    doc["cap"] = str(min(c.cap for c in list(p_components) + list(q_components)))
    if names[:n] != tuple(f"x{i + 1}" for i in range(n)):
        doc["vars"] = ", ".join(names[:n])
    for i, comp in enumerate(p_components):
        doc[f"p{i + 1}"] = comp.render(names)
    for i, comp in enumerate(q_components):
        doc[f"q{i + 1}"] = comp.render(names)
    doc["e"] = e.render(names)
    return doc


def doc_to_text(doc: Dict[str, str]) -> str:
    return "\n".join(f"{key} = {value}" for key, value in doc.items()) + "\n"


def doc_to_json(doc: Dict[str, str]) -> str:
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"
