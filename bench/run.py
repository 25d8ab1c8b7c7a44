#!/usr/bin/env python3
"""Benchmark of the uniserial exact-arithmetic pipeline.

    python3 bench/run.py --workload verify|ext_table|cli_session \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One single-threaded process drives a closed loop: each op starts
after the previous one returns.  A pass runs every op of the workload once;
a run makes a fixed number of passes, chosen from ``--seconds`` and the
nominal pass time below, so that every run of a workload measures the same
work.  Every outcome is checked exactly after the pass.

``--trace 0`` reports the end-to-end metrics.  The host's speed changes
under the benchmark (on the shared VM it was built on, by 1.6x, every few
seconds or for minutes), so a timer signal runs a fixed probe every 50 ms,
inside ops too.  Each op's time, less the probes inside it, is divided by
the host's slowness around it (probe time over its reference value), which
gives the op's time at the reference speed.

``--trace 1`` makes untraced passes, then the same number of traced passes,
and reports the per-layer metrics of the traced ones (medians over passes)
and the tracing overhead, both from wall times.
Spans and elimination systems of the traced passes go to
``bench/out/trace-<workload>-seed<N>.jsonl``.

The last line of standard output is the result object; the line before it
records the environment, sample counts, the tail percentile, known defects
and (traced) the elimination-system size histogram.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
MODULES = ("linalg", "weyl", "gradedrep", "quiverrep", "abcat", "species", "itext", "weylcat", "cli")

# Nominal seconds per pass, probes included, on a 2-core x86-64 host, Python
# 3.11, fractions backend.  Fixed constants, so a faster program makes a run
# shorter rather than changing the work it measures.
PASS_SECONDS = {"verify": 13.5, "ext_table": 3.8, "cli_session": 0.9}
SETUP_REPEATS = 7
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it
# host_probe() seconds on that host at its faster speed.  The host's speed
# switches between two levels about 1.6x apart every few seconds, and stays
# at one level for minutes at times; op times are reported at this speed.
PROBE_REF_S = 0.00145
PROBE_EVERY_S = 0.05
PROBE_WINDOW_S = 0.1  # at least four probes around every op


def import_package():
    """Fresh import of every uniserial module; returns {name: module}."""
    for name in [m for m in sys.modules if m == "uniserial" or m.startswith("uniserial.")]:
        del sys.modules[name]
    return {m: importlib.import_module("uniserial." + m) for m in MODULES}


def setup(workload, seed, workdir):
    """(modules, ops, pass_check): import plus input generation."""
    import workloads

    mods = import_package()
    ops, pass_check = workloads.build(workload, mods, random.Random(seed), workdir)
    return mods, ops, pass_check


def host_probe():
    """Seconds for a fixed 8x9 Fraction elimination that shares no code with the package.

    The garbage collector is off while it runs, so the program's heap cannot
    change what the probe measures.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        n = 8
        rows = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + 2 * j) % 4) for j in range(n + 1)] for i in range(n)]
        for c in range(n):
            rows[c] = [x / rows[c][c] for x in rows[c]]
            for i in range(n):
                if i != c and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
        return time.perf_counter() - t0
    finally:
        gc.enable()


class HostProbe:
    """Times host_probe() every PROBE_EVERY_S from a timer signal, also inside ops.

    Python runs the handler between bytecodes of the main thread, so a probe
    can land inside an op; run_pass takes its time out of the op's wall time.
    """

    def __init__(self):
        self.starts = []  # perf_counter() at each probe start, increasing
        self.seconds = []  # its duration

    def _tick(self, _signum, _frame):
        self.starts.append(time.perf_counter())
        self.seconds.append(host_probe())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowness(self, t0, t1):
        """Mean probe time from PROBE_WINDOW_S before t0 to PROBE_WINDOW_S after t1, over PROBE_REF_S."""
        lo = bisect.bisect_left(self.starts, t0 - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + PROBE_WINDOW_S)
        return statistics.fmean(self.seconds[lo:hi]) / PROBE_REF_S

    def scaled(self, t0, t1):
        """Seconds from t0 to t1, less the probes inside, at the reference host speed."""
        inside = sum(self.seconds[bisect.bisect_left(self.starts, t0):bisect.bisect_left(self.starts, t1)])
        return (t1 - t0 - inside) / self.slowness(t0, t1)


def run_pass(ops, tracer=None):
    """(spans, outcomes) of one pass: (start, end) of each op; an escaping exception is the outcome."""
    spans = []
    outcomes = []
    clock = time.perf_counter
    for op in ops:
        if tracer is not None:
            span = tracer.open_span("bench.op", "bench")
        t0 = clock()
        try:
            result = op.run()
        except Exception as exc:  # an escaping exception is a checked outcome
            result = exc
        spans.append((t0, clock()))
        if tracer is not None:
            tracer.close_span(span)
        outcomes.append(result)
    return spans, outcomes


class Verdicts:
    """Counts of attempted, failed and known-defect ops across passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known = {}
        self.reasons = []

    def add_pass(self, ops, outcomes, pass_check):
        self.attempted += len(ops)
        known_here = 0
        reasons = [op.judge(r) for op, r in zip(ops, outcomes)]
        reasons += ["fail:" + r for r in pass_check(outcomes)]
        for r in reasons:
            if r.startswith("known:"):
                self.known[r[6:]] = self.known.get(r[6:], 0) + 1
                known_here += 1
            elif r != "ok":
                self.failed += 1
                self.reasons.append(r[5:])
        return known_here


def tail(latencies):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    xs = sorted(latencies)
    k = max(0, len(xs) - TAIL_BEYOND - 1)
    return xs[k], 100.0 * (k + 1) / len(xs)


def environment(seed):
    import uniserial.linalg as linalg

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "backend": linalg._Q.__module__.split(".")[0],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASS_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "uniserial", "__init__.py")):
        print("bench: no uniserial package under %s; run from a source checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir):
    passes = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
    verdicts = Verdicts()
    detail = {"workload": args.workload}

    if not args.trace:
        clock = time.perf_counter
        setups, spans = [], []
        with HostProbe() as probe:
            for _ in range(SETUP_REPEATS):
                t0 = clock()
                mods, ops, pass_check = setup(args.workload, args.seed, workdir)
                setups.append((t0, clock()))
            for _ in range(passes):
                pass_spans, outcomes = run_pass(ops)
                verdicts.add_pass(ops, outcomes, pass_check)
                spans += pass_spans
            # let the probes after the last op run
            time.sleep(PROBE_WINDOW_S + PROBE_EVERY_S)
        latencies = [probe.scaled(t0, t1) for t0, t1 in spans]
        tail_s, tail_pct = tail(latencies)
        metrics = {
            "setup_s": metric(statistics.median(probe.scaled(t0, t1) for t0, t1 in setups), "s"),
            "ops_per_s": metric(len(latencies) / sum(latencies), "1/s"),
            "op_p50_s": metric(statistics.median(latencies), "s"),
            "op_tail_s": metric(tail_s, "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        slowness = sorted(probe.slowness(t0, t1) for t0, t1 in spans)
        detail.update(passes=passes, samples=len(latencies), op_tail_percentile=round(tail_pct, 2),
                      host_slowness={"min": slowness[0], "median": statistics.median(slowness), "max": slowness[-1]})
    else:
        from tracer import Tracer

        mods, ops, pass_check = setup(args.workload, args.seed, workdir)
        each = max(1, passes // 3)
        plain = []
        for _ in range(each):
            pass_spans, outcomes = run_pass(ops)
            verdicts.add_pass(ops, outcomes, pass_check)
            plain.append(sum(t1 - t0 for t0, t1 in pass_spans))
        tracer = Tracer(mods)
        traced, summaries = [], []
        tracer.install()
        try:
            for _ in range(each):
                tracer.new_pass()
                first_span, first_system = len(tracer.spans), len(tracer.systems)
                pass_spans, outcomes = run_pass(ops, tracer)
                summary = tracer.summary(first_span, first_system)
                summary["cli.known_defects"] = verdicts.add_pass(ops, outcomes, pass_check)
                summaries.append(summary)
                traced.append(sum(t1 - t0 for t0, t1 in pass_spans))
        finally:
            tracer.uninstall()
        metrics = {}
        for name in summaries[0]:
            unit = "s" if name.endswith("_s") else ("ratio" if name.endswith(("ratio", "density")) else "count")
            metrics[name] = metric(statistics.median(s[name] for s in summaries), unit)
        metrics["trace.overhead_ratio"] = metric(statistics.median(traced) / statistics.median(plain), "ratio")
        trace_file = os.path.join(OUT, "trace-%s-seed%d.jsonl" % (args.workload, args.seed))
        tracer.write(trace_file)
        detail.update(passes_untraced=each, passes_traced=each, spans=len(tracer.spans),
                      trace_file=os.path.relpath(trace_file, ROOT),
                      histogram=tracer.histogram(first_system))
    detail.update(
        env=environment(args.seed),
        ops_per_pass=len(ops),
        attempted=verdicts.attempted,
        failed=verdicts.failed,
        known_defects=verdicts.known,
        failed_ratio=(verdicts.failed + sum(verdicts.known.values())) / verdicts.attempted,
        failures=verdicts.reasons[:5],
    )
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": verdicts.failed == 0, "attempted": verdicts.attempted,
                      "failed": verdicts.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
