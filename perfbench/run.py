"""Benchmark of ybalg requests, one workload per process, one thread.

    python3 perfbench/run.py --workload shuffle-laurent --seed 1 \\
        --seconds 20 --trace 0

Each operation is one full `ybalg` request made in-process through
`ybalg.cli.main`: the session file is loaded afresh, `verify` or `compute`
runs with cold memo caches, and the output is rendered.  A fixed
standard-library reference loop is timed just before every operation, and
the operation's time is divided by the mean of the reference times just
before and just after it, so the reported ratio (`op_ref`) follows the
program and not the machine's drifting speed; the cyclic garbage collector
runs between operations, outside the timed intervals.  The outputs of
each round are checked against the oracle when the round ends, and planted
errors against the checks; checking is not part of the measured time, and
no output is kept past its round.  A run attempts whole rounds of the workload's seeded
stream until `--seconds` of measured time have passed.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics.  With `--trace 1` the run takes the first TRACE_ROUNDS
rounds, runs them untraced and then traced, and reports the per-layer
metrics instead.  Result and trace files are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 15
REFERENCE_REPEATS = 4
TAIL_BEYOND = 10
TRACE_ROUNDS = 2
PLANTED_PER_CLASS = 2


class _RefPoly:
    """Sparse integer polynomial for the reference loop."""

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = {e: v for e, v in c.items() if v}

    def __mul__(self, other):
        out = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + v1 * v2
        return _RefPoly(out)

    def dense(self):
        return [self.c.get(i, 0) for i in range(max(self.c) + 1)]


def _ref_gcd(a, b):
    """Euclid on Fraction coefficient lists, low degree first."""
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    while b:
        a = a[:]
        while len(a) >= len(b) and any(a):
            if a[-1] == 0:
                a.pop()
                continue
            f = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, bc in enumerate(b):
                a[shift + i] -= f * bc
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
        while b and b[-1] == 0:
            b.pop()
    return a


def reference_work():
    """Fixed pure-Python work of the program's kind: products and Euclidean
    gcds of small integer polynomials with Fractions, and sparse
    accumulation keyed by tuple words.  It never changes, so its time
    measures the machine's speed at that moment."""
    acc = {}
    for rep in range(REFERENCE_REPEATS):
        for a in range(1, 4):
            for b in range(1, 4):
                num = (_RefPoly({0: a, 1: 1}) * _RefPoly({0: -b, 1: 1})
                       * _RefPoly({0: 1, 2: 1}))
                den = _RefPoly({0: a, 1: 1}) * _RefPoly({0: b + 3, 1: 1})
                g = _ref_gcd(num.dense(), den.dense())
                for w in range(16):
                    key = ((w & 1, w >> 1 & 1, w >> 2 & 1, w >> 3), (a, b))
                    acc[key] = acc.get(key, 0) + len(g) + w + rep
    return sum(acc.values())


def purge_program():
    """Forget every imported ybalg module, so the next import is fresh."""
    for name in [m for m in sys.modules
                 if m == "ybalg" or m.startswith("ybalg.")]:
        del sys.modules[name]


def load_program():
    """Import ybalg.cli from this checkout's src."""
    cli = importlib.import_module("ybalg.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError("ybalg was imported from %s, not %s"
                          % (cli.__file__, SRC))
    return cli


def setup(workload, seed, workdir):
    """Build the first round, then time importing the program and loading
    the first request's session; the timing is repeated and its median
    reported.  Building rounds and writing session files is the benchmark's
    own work and is not timed.  Returns (cli module, build(index) for later
    rounds, first round, setup_s)."""
    import workloads
    sessions = workloads.SessionWriter(workdir)
    first = workloads.build_round(workload, seed, 0, sessions)
    times = []
    for rep in range(SETUP_REPEATS):
        purge_program()
        gc.collect()
        t0 = time.perf_counter()
        cli = load_program()
        cli.load_session(first[0].argv[1])
        times.append(time.perf_counter() - t0)
    gc.collect()

    def build(index):
        return workloads.build_round(workload, seed, index, sessions)
    return cli, build, first, statistics.median(times)


def run_op(main, op):
    """One request: (seconds, reference seconds, exit code, stdout)."""
    gc.collect()
    r0 = time.perf_counter()
    reference_work()
    r1 = time.perf_counter()
    buf, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        try:
            code = main(list(op.argv))
        except SystemExit as e:
            code = e.code
    t1 = time.perf_counter()
    return t1 - t0, r1 - r0, code, buf.getvalue()


class OutputCheck:
    """Checks outputs, outside the timed intervals.  The first few outputs
    of each request class also get planted errors, which the check must
    catch."""

    def __init__(self):
        import checks
        self.checks = checks
        self.checker = checks.Checker()
        self.planted_per_label = Counter()
        self.problems = []
        self.planted = 0
        self.seconds = 0.0

    def __call__(self, op, code, out):
        t0 = time.perf_counter()
        found = self.checker.check(op, code, out)
        self.problems.extend("%s: %s" % (op.label, p) for p in found)
        if not found and self.planted_per_label[op.label] < PLANTED_PER_CLASS:
            self.planted_per_label[op.label] += 1
            for label, pcode, pout in self.checks.plants(op, code, out):
                self.planted += 1
                if not self.checker.check(op, pcode, pout):
                    self.problems.append("%s: planted %s error not caught"
                                         % (op.label, label))
        self.seconds += time.perf_counter() - t0


def run_ops(main, ops, check, records, failures, tracer=None):
    """Run each request once, back to back, then check their outputs; append
    (position in ops, label, seconds, ref) to records.

    Only these requests' outputs are kept until they are checked, so the
    run's memory does not grow with its number of operations; checking
    after the last request, not between requests, keeps the reference loop
    after each request next to it."""
    outputs = []
    for n, op in enumerate(ops):
        span = tracer.begin_op() if tracer is not None else None
        try:
            dt, ref, code, out = run_op(main, op)
        except Exception as e:  # a traceback is a failed request
            failures.append("%s: %s: %s" % (op.label, type(e).__name__, e))
            if tracer is not None:
                tracer.end_op(span, 0)
            continue
        if tracer is not None:
            tracer.end_op(span, len(out.encode()))
        outputs.append((op, code, out))
        records.append((n, op.label, dt, ref))
    for op, code, out in outputs:
        check(op, code, out)


def ratios(records):
    """Each operation's time over the mean of the reference times measured
    just before it and just after it (before the next operation).

    The machine's speed changes within seconds, so the references on both
    sides of an operation describe the speed it ran at better than its own
    reference alone, or than a wider window."""
    refs = [ref for _, _, _, ref in records]
    out = []
    for i, (_, _, dt, _) in enumerate(records):
        around = refs[i:i + 2]
        out.append(dt / (sum(around) / len(around)))
    return out


def min_ops(percentile):
    """Fewest operations that leave TAIL_BEYOND above the percentile."""
    return math.ceil((TAIL_BEYOND + 1) / (1 - percentile))


def tail(values, percentile):
    """Nearest-rank percentile of the values."""
    ordered = sorted(values)
    return ordered[math.ceil(percentile * len(ordered)) - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "ybalg")):
        print("perfbench: no ybalg sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    workdir = os.path.join(OUT, "work-%s-%d" % (tag, os.getpid()))
    os.makedirs(workdir)
    try:
        return measure(args, tag, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, tag, workdir):
    import workloads
    cli, build, first, setup_s = setup(args.workload, args.seed, workdir)
    summary = {"workload": args.workload, "seed": args.seed,
               "round_ops": len(first), "setup_s": setup_s}
    records, failures = [], []
    check = OutputCheck()

    if args.trace:
        # a fixed number of rounds, so that counts repeat exactly per seed
        import layers
        ops = first + [op for r in range(1, TRACE_ROUNDS) for op in build(r)]
        run_ops(cli.main, ops, check, records, failures)
        untraced = {r[0]: x for r, x in zip(records, ratios(records))}
        tracer = layers.Tracer()
        tracer.install()
        traced = []
        try:
            run_ops(cli.main, ops, check, traced, failures, tracer=tracer)
        finally:
            tracer.uninstall()
        overhead = statistics.median(x / untraced[r[0]]
                                     for r, x in zip(traced, ratios(traced))
                                     if r[0] in untraced)
        per_name = tracer.fold()
        metrics = tracer.metrics(per_name, overhead)
        summary.update(traced_rounds=TRACE_ROUNDS, spans=len(tracer.s_name))
        with open(os.path.join(OUT, "trace-%s.json" % tag), "w") as fh:
            json.dump({"summary": summary, "metrics": metrics,
                       "per_span_name": per_name}, fh, indent=1,
                      sort_keys=True)
    else:
        # checking outputs is not part of the measured time
        deadline = time.perf_counter() + args.seconds
        rounds = 0
        percentile = workloads.TAIL_PERCENTILE[args.workload]
        while (not rounds or time.perf_counter() - check.seconds < deadline
               or len(records) + len(failures) < min_ops(percentile)):
            run_ops(cli.main, build(rounds) if rounds else first, check,
                    records, failures)
            rounds += 1
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not records:
            print("perfbench: every request failed, first: %s" % failures[0],
                  file=sys.stderr)
            return 1
        op_ref = ratios(records)
        metrics = {"setup_s": metric(setup_s, "s"),
                   "op_ref": metric(statistics.median(op_ref), "ref"),
                   "op_tail_ref": metric(tail(op_ref, percentile), "ref"),
                   "peak_rss_mb": metric(peak_rss_mb, "MB")}
        by_class = {}
        for r, x in zip(records, op_ref):
            by_class.setdefault(r[1], []).append(x)
        summary.update(
            rounds=rounds, ops=len(op_ref), check_s=check.seconds,
            op_ms=statistics.median(dt for _, _, dt, _ in records) * 1000,
            ref_ms=statistics.median(r for _, _, _, r in records) * 1000,
            op_ref_by_class={k: statistics.median(v)
                             for k, v in sorted(by_class.items())},
            per_op=[[label, dt, ref] for _, label, dt, ref in records])

    problems = check.problems
    # `correct` speaks of the requests that returned; the others are `failed`
    result = {"correct": not problems and check.planted > 0,
              "attempted": len(records) + len(failures),
              "failed": len(failures), "metrics": metrics}
    summary.update(planted_errors_caught=check.planted,
                   problems=problems[:20], failures=failures[:20])
    with open(os.path.join(OUT, "result-%s.json" % tag), "w") as fh:
        json.dump({"summary": summary, "result": result}, fh, indent=1,
                  sort_keys=True)
    for line in problems[:20] + failures[:20]:
        print("perfbench: %s" % line)
    if not args.trace:
        print("perfbench: %s seed %d: %d ops in %d rounds, op_ms median %.2f,"
              " ref_ms median %.3f" % (args.workload, args.seed,
                                       summary["ops"], rounds,
                                       summary["op_ms"], summary["ref_ms"]))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
