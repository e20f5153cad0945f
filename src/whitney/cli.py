"""Command-line front end.

Subcommands: normal-form, complete, check, classify, lift, project, extend,
front.  Reports are deterministic: identical inputs give byte-identical
output.  Exit codes: 0 pass/ok, 1 fail, 2 malformed input or range error,
3 inconclusive at this cap/order, 4 internal error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from typing import List, Optional, Tuple

from . import germdoc
from .errors import CapShortfallError, WhitneyError
from .integral_maps import (IntegralMap, lift_isotropic, owu_normal_form,
                            project_isotropic)
from .stability import (check_contact_stability, check_fiber_generation,
                        check_legendre_stability, classify_umbrella,
                        default_order, extend_unfoldings)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_MALFORMED = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4


def _write(text: str, out: Optional[str]):
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            raise WhitneyError(f"cannot write {out}: {err}") from None
    else:
        sys.stdout.write(text)


def _emit_doc(doc, as_json: bool, out: Optional[str]):
    text = germdoc.doc_to_json(doc) if as_json else germdoc.doc_to_text(doc)
    _write(text, out)


def _load_map(path: str, cap: Optional[int]) -> IntegralMap:
    doc = germdoc.load_germ(path)
    return doc.to_integral_map(cap=cap)


def cmd_normal_form(args) -> int:
    if args.n < 1 or args.k < 0 or 2 * args.k > args.n:
        raise WhitneyError(f"normal-form needs n >= 1 and 0 <= k <= n/2, got "
                           f"n = {args.n}, k = {args.k}")
    f = owu_normal_form(args.n, args.k, cap=args.cap)
    _emit_doc(germdoc.integral_map_doc(f), args.json, args.out)
    return EXIT_PASS


def cmd_complete(args) -> int:
    doc = germdoc.load_germ(args.germ)
    if doc.kind != "uv":
        raise WhitneyError("complete expects a document with u, v components")
    f = doc.to_integral_map(cap=args.cap)
    _emit_doc(germdoc.integral_map_doc(f), args.json, args.out)
    return EXIT_PASS


def _report_exit(report) -> int:
    return {"pass": EXIT_PASS, "fail": EXIT_FAIL}.get(report.verdict,
                                                      EXIT_INCONCLUSIVE)


def cmd_check(args) -> int:
    doc = germdoc.load_germ(args.germ)
    if doc.params:
        raise WhitneyError("checks need a germ without deformation parameters")
    f = doc.to_integral_map(cap=args.cap)
    order = args.order if args.order is not None else doc.order
    if order is not None and order < 0:
        raise WhitneyError(f"jet order must be >= 0, got {order}")
    caveat = None
    if order is None:
        order, caveat = default_order(f)
    if args.mode == "classify":
        cl = classify_umbrella(f, order)
        payload = cl.to_doc()
        if caveat:
            payload["order_caveat"] = caveat
        if args.json:
            _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
        else:
            lines = [f"verdict: {cl.verdict}",
                     f"multiplicity: {cl.multiplicity}",
                     f"multiplicity_stabilized: {cl.stabilized}",
                     f"order: {order}", f"cap: {f.cap}"]
            if caveat:
                lines.append(f"caveat: {caveat}")
            _write("\n".join(lines) + "\n", args.out)
        if cl.verdict == "inconclusive":
            return EXIT_INCONCLUSIVE
        return EXIT_PASS if cl.type_k is not None else EXIT_FAIL
    checker = {
        "contact": check_contact_stability,
        "legendre": check_legendre_stability,
        "a2r": check_fiber_generation,
    }[args.mode]
    report = checker(f, order)
    if caveat:
        report.caveats.append(caveat)
    if args.json:
        _write(json.dumps(report.to_doc(), indent=2, sort_keys=True) + "\n", args.out)
    else:
        _write(report.render_text() + "\n", args.out)
    return _report_exit(report)


def cmd_classify(args) -> int:
    args.mode = "classify"
    return cmd_check(args)


def cmd_project(args) -> int:
    f = _load_map(args.germ, args.cap)
    g = project_isotropic(f)
    doc = germdoc.isotropic_map_doc(g.n, g.p_components, g.q_components, g.e,
                                    g.source)
    _emit_doc(doc, args.json, args.out)
    return EXIT_PASS


def cmd_lift(args) -> int:
    doc = germdoc.load_germ(args.germ)
    if doc.kind not in ("isotropic", "full"):
        raise WhitneyError("lift expects an isotropic document (p and q components)")
    p, q = doc.isotropic_components(cap=args.cap)
    f = lift_isotropic(doc.n, p, q, params=doc.params, source=doc.chart)
    _emit_doc(germdoc.integral_map_doc(f), args.json, args.out)
    return EXIT_PASS


def cmd_extend(args) -> int:
    F = _load_map(args.first, args.cap)
    Fp = _load_map(args.second, args.cap)
    out = extend_unfoldings(F, Fp)
    _emit_doc(germdoc.integral_map_doc(out), args.json, args.out)
    return EXIT_PASS


# the largest CSV a front sample may write, counted before any work
FRONT_MAX_ROWS = 10 ** 6


def _parse_param_grid(grid_arg: Optional[str], params) -> List[Tuple[float, float, int]]:
    """Grid argument: 'name=start:stop:count' pairs joined by ';'.  Returns
    (start, step, count) per parameter, value i being start + step * i; an
    unnamed parameter stays at 0."""
    grids = {name: (0.0, 0.0, 1) for name in params}
    if grid_arg:
        for piece in grid_arg.split(";"):
            piece = piece.strip()
            if not piece:
                continue
            if "=" not in piece:
                raise WhitneyError(f"bad --param-grid entry {piece!r}")
            name, rng = piece.split("=", 1)
            name = name.strip()
            if name not in grids:
                raise WhitneyError(f"unknown parameter {name!r}")
            parts = rng.split(":")
            if len(parts) != 3:
                raise WhitneyError("--param-grid wants name=start:stop:count")
            try:
                start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
            except ValueError:
                raise WhitneyError(f"bad --param-grid entry {piece!r}: start and "
                                   f"stop must be numbers, count an integer") from None
            if not (math.isfinite(start) and math.isfinite(stop)):
                raise WhitneyError("--param-grid start and stop must be finite")
            if count < 1:
                raise WhitneyError("--param-grid count must be >= 1")
            # x + -0.0 == x, so a single value is start exactly
            step = (stop - start) / (count - 1) if count > 1 else -0.0
            grids[name] = (start, step, count)
    return [grids[name] for name in params]


def cmd_front(args) -> int:
    doc = germdoc.load_germ(args.germ)
    f = doc.to_integral_map(cap=args.cap)
    if f.n > 2:
        raise WhitneyError("front sampling is limited to n <= 2")
    m = args.samples
    span = args.range
    if m < 2:
        raise WhitneyError("--samples must be >= 2")
    if not math.isfinite(span):
        raise WhitneyError("--range must be finite")
    param_grids = _parse_param_grid(args.param_grid, f.params)
    count = m ** f.n * math.prod(grid[2] for grid in param_grids)
    if count > FRONT_MAX_ROWS:
        raise WhitneyError(f"front would write {count} rows, more than "
                           f"{FRONT_MAX_ROWS}; lower --samples or the grid counts")
    axis = [-span + 2 * span * i / (m - 1) for i in range(m)]
    grids = [[start + step * i for i in range(k)] for start, step, k in param_grids]
    polys = [f.q_component(i) for i in range(f.n)] + [f.r_component]
    rows = [",".join([f"q{i + 1}" for i in range(f.n)] + ["r"] + list(f.params))]
    # the parameters vary slowest, the last source coordinate fastest
    for values in itertools.product(*grids, *[axis] * f.n):
        point = list(values[len(grids):] + values[:len(grids)])
        try:
            sample = [poly.evaluate_float(point) for poly in polys]
        except OverflowError:
            sample = [math.inf]
        if not all(map(math.isfinite, sample)):
            raise WhitneyError(f"front sample at {point} is not finite; "
                               f"lower --range or the grid")
        rows.append(",".join(f"{v:.12g}" for v in sample + point[f.n:]))
    _write("\n".join(rows) + "\n", args.out)
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whitney",
        description="Exact calculus and stability checks for singular "
                    "Legendre map-germs in the standard contact space.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *germs, cap=None):
        for name in germs:
            p.add_argument(name, help="germ document file")
        p.add_argument("--cap", type=int, default=cap,
                       help="override the truncation cap")
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("normal-form", help="emit an open Whitney umbrella normal form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    common(p, cap=germdoc.DEFAULT_CAP)
    p.set_defaults(func=cmd_normal_form)

    p = sub.add_parser("complete", help="complete graph data (u, v) to an integral map")
    common(p, "germ")
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("check", help="run a stability check")
    common(p, "germ")
    p.add_argument("--mode", choices=["contact", "legendre", "a2r", "classify"],
                   default="contact")
    p.add_argument("--order", type=int, default=None, help="jet order r")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("classify", help="classify as an open Whitney umbrella")
    common(p, "germ")
    p.add_argument("--order", type=int, default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("lift", help="lift an isotropic map to an integral map")
    common(p, "germ")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("project", help="project an integral map to its isotropic map")
    common(p, "germ")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("extend", help="extend two integral unfoldings over joined parameters")
    common(p, "first", "second")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("front", help="sample the front projection to CSV")
    common(p, "germ")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--range", type=float, default=1.0)
    p.add_argument("--param-grid", default=None,
                   help="parameter grids, e.g. 'lam=-1:1:5'")
    p.set_defaults(func=cmd_front)

    return parser


# built once per process: parse_args leaves the parser as it was and returns
# a fresh namespace on every call
_PARSER = build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.cap is not None:
            germdoc.check_cap(args.cap)
        return args.func(args)
    except CapShortfallError as err:
        sys.stderr.write(f"inconclusive: {err}\n")
        return EXIT_INCONCLUSIVE
    except WhitneyError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_MALFORMED
    except Exception as err:
        # a bug, not a verdict: one line, never the "fail" code
        sys.stderr.write(f"internal error: {type(err).__name__}: {err}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
