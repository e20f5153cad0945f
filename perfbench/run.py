"""Time-to-verdict benchmark of the ``whitney`` package.

Run from the repository root (standard library only):

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Workloads (see ``provenance.json`` for why each exists):

* ``verdicts``: one ``whitney check --json --out`` call per op, through
  ``whitney.cli.main``, over the four check modes;
* ``conclusive-order``: one ``compute_conclusive_order`` call per op;
* ``calculus``: completion, a document round trip through the CLI, module
  multiplication with its certificate, or the extension of two unfoldings.

Each workload is a closed loop with one client: the next op starts only
after the previous one returned, in this single-threaded process.  Every op
gets its own seeded germ (``germs.py``); inputs are made and their documents
written before the timed phase.  Answers are checked after it
(``workloads.py``): any op that raised, exited with an unexpected code or
disagreed with its expected answer or the oracle counts as failed.

Times are reported in reference seconds: each op's wall time scaled by a
reference probe timed around it (``speed.py``), which takes out the drift
of a shared machine's CPU speed; the printed lines show wall values too.
``--trace 0`` measures for ``--seconds`` of op time and at least MIN_OPS
ops and reports the end-to-end metrics.  ``--trace 1`` runs a fixed number
of ops untraced and as many again with span wrappers installed
(``spans.py``), and reports per-layer self times and counters of the
traced ops; the spans are written to ``.bench_work/traces/<workload>.spans``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import spans
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

WORKLOADS = ("verdicts", "conclusive-order", "calculus")
MIN_OPS = 100          # latency_p90_s keeps ten samples beyond it
STOP_FACTOR = 3        # ...unless they take 3x --seconds of wall time
SETUP_REPS = 5         # setup_s is the median of this many set-ups
# ops per pass of a traced run: whole cycles of each workload's op schedule
TRACE_OPS = {"verdicts": 84, "conclusive-order": 48, "calculus": 240}

END_TO_END = {"ops_per_s": "1/s", "latency_p50_s": "s", "latency_p90_s": "s",
              "setup_s": "s", "peak_rss_mib": "MiB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def timed_op(workloads, op):
    """(seconds, answer) of one op; the answer is the exception it raised."""
    start = perf_counter()
    try:
        result = workloads.execute(op)
    except (Exception, SystemExit) as err:
        return perf_counter() - start, err
    elapsed = perf_counter() - start
    try:
        return elapsed, workloads.collect(op, result)
    except (OSError, ValueError) as err:
        return elapsed, err


def check_all(workloads, ops, answers):
    """Number of failed ops; the first few mismatches go to stderr."""
    failed = 0
    for op, answer in zip(ops, answers):
        if isinstance(answer, BaseException):
            problems = ["raised " + "".join(
                traceback.format_exception_only(type(answer), answer)).strip()]
        else:
            try:
                problems = workloads.check(op, answer)
            except Exception:
                problems = ["check raised " + traceback.format_exc(limit=3)]
        if problems:
            failed += 1
            if failed <= 10:
                sys.stderr.write(f"op {op.index} ({type(op).__name__}): "
                                 + "; ".join(problems) + "\n")
    return failed


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Loop:
    """Closed loop with one client: runs ops one after the other and times
    the reference probe before the first op and after every op."""

    def __init__(self, workloads):
        self.workloads = workloads
        self.walls, self.scaled, self.answers = [], [], []
        gc.collect()
        self._before = speed.probe()

    def run(self, op):
        elapsed, answer = timed_op(self.workloads, op)
        after = speed.probe()
        self.walls.append(elapsed)
        self.scaled.append(elapsed * speed.factor(self._before, after))
        self.answers.append(answer)
        self._before = after


def measure(args, workloads, gen, ops, setup_s):
    """--seconds of op time in reference seconds and at least MIN_OPS ops.

    Counting reference seconds keeps the set of ops a run reaches the same
    whatever the machine's speed state, so the op mix behind the
    percentiles does not change with it.  peak_rss_mib is the high-water
    mark once the first MIN_OPS ops are done: the package's memo tables
    grow with every germ."""
    loop = Loop(workloads)
    busy = wall = 0.0
    rss = None
    while (busy < args.seconds or len(loop.walls) < MIN_OPS) \
            and wall < STOP_FACTOR * args.seconds:
        i = len(loop.walls)
        if i == len(ops):
            ops.append(gen.make(i))            # outside the timer
        loop.run(ops[i])
        busy += loop.scaled[-1]
        wall += loop.walls[-1]
        if i + 1 == MIN_OPS:
            rss = peak_rss_mib()
    failed = check_all(workloads, ops, loop.answers)
    values, raw = {}, {}
    for out, times in ((values, loop.scaled), (raw, loop.walls)):
        out["ops_per_s"] = len(times) / sum(times)
        out["latency_p50_s"] = statistics.median(times)
        out["latency_p90_s"] = statistics.quantiles(times, n=10)[8]
    values["setup_s"], raw["setup_s"] = setup_s
    values["peak_rss_mib"] = raw["peak_rss_mib"] = rss or peak_rss_mib()
    n = len(loop.walls)
    beyond = sum(1 for x in loop.scaled if x > values["latency_p90_s"])
    print(f"workload {args.workload}  seed {args.seed}  ops {n}  "
          f"op time {busy:.3f} s [{wall:.3f}]  samples beyond p90 {beyond}")
    print("  times in reference seconds (see speed.py), wall values in brackets")
    for key, unit in END_TO_END.items():
        print(f"  {key:<16} {values[key]:.6g} {unit}  [{raw[key]:.6g}]")
    print(f"  {'error_rate':<16} {failed / n:.6g} ({failed}/{n})")
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return n, failed, metrics


def trace(args, workloads, ops):
    """Untraced pass over ops[:N], traced pass over ops[N:]; per-layer
    metrics come from the traced pass only, in reference seconds."""
    n = len(ops) // 2
    untraced = Loop(workloads)
    for op in ops[:n]:
        untraced.run(op)
    tracer = spans.Tracer()
    traced = Loop(workloads)
    tracer.install()
    try:
        for op in ops[n:]:
            tracer.op = op.index
            traced.run(op)
    finally:
        tracer.uninstall()
    failed = check_all(workloads, ops, untraced.answers + traced.answers)
    overhead = sum(traced.scaled) / sum(untraced.scaled) - 1
    op_scale = {op.index: s / w for op, w, s in zip(ops[n:], traced.walls, traced.scaled)}
    metrics, missing = spans.layer_metrics(tracer, overhead, op_scale)
    problems = spans.self_check(args.workload, tracer)
    path = os.path.join(WORK, "traces", f"{args.workload}.spans")
    tracer.write(path, {"workload": args.workload, "seed": args.seed,
                        "op_scale": op_scale})
    print(f"workload {args.workload}  seed {args.seed}  traced ops {n}  "
          f"wall untraced {sum(untraced.walls):.3f} s, traced {sum(traced.walls):.3f} s  "
          f"spans {len(tracer.start)} -> {os.path.relpath(path, ROOT)}")
    for key, entry in metrics.items():
        print(f"  {key:<36} {entry['value']:.6g} {entry['unit']}")
    if tracer.missing or missing:
        print("  missing: " + ", ".join(tracer.missing + missing))
    for problem in problems:
        print(f"  self-check FAILED: {problem}")
    if not problems:
        print("  self-check: every exercised layer ran, every bypassed "
              "name saw zero calls")
    return len(ops), failed, metrics, not problems


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "whitney", "__init__.py")):
        sys.stderr.write(f"perfbench: no whitney package under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    start = perf_counter()
    import whitney
    import germs
    import workloads
    import_s = perf_counter() - start
    if os.path.dirname(os.path.abspath(whitney.__file__)) != os.path.join(SRC, "whitney"):
        sys.stderr.write(f"perfbench: imported whitney from {whitney.__file__}\n")
        return 2

    rundir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        if args.trace:
            os.makedirs(rundir)
            gen = germs.Generator(args.workload, args.seed, rundir)
            ops = [gen.make(i) for i in range(2 * TRACE_OPS[args.workload])]
            attempted, failed, metrics, ok = trace(args, workloads, ops)
        else:
            # import time is scaled by the first probe, each set-up by the
            # probes around it
            first = before = speed.probe()
            walls, scaled = [], []
            for rep in range(SETUP_REPS):
                repdir = os.path.join(rundir, f"setup{rep}")
                begin = perf_counter()
                os.makedirs(repdir)
                gen = germs.Generator(args.workload, args.seed, repdir)
                ops = [gen.make(i) for i in range(MIN_OPS)]
                walls.append(perf_counter() - begin)
                after = speed.probe()
                scaled.append(walls[-1] * speed.factor(before, after))
                before = after
            setup_s = (import_s * speed.factor(first, first) + statistics.median(scaled),
                       import_s + statistics.median(walls))
            attempted, failed, metrics = measure(args, workloads, gen, ops, setup_s)
            ok = True
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    print(json.dumps({"correct": ok and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own child process, one after the other."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            sys.stderr.write(f"perfbench: workload {name} exited {child.returncode}\n")
            return child.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, entry in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = entry
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
