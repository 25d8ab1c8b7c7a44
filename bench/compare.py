#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 bench/compare.py BASE NEW

BASE and NEW are files holding the standard output of any number of
``bench/run.py`` runs, one after another.  For every workload and metric it
prints each side's median and quartiles and the change of the medians as a
share of the base median, marked against the bound in BENCHMARK.json.  A
comparison whose two sides ran on different scalar backends or Python
versions is flagged: its times are not comparable.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """{workload: {"env": set of (python, backend), "metrics": {name: [values]}}}."""
    runs = {}
    detail = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if "env" in obj:
                detail = obj
            elif "metrics" in obj and detail is not None:
                side = runs.setdefault(detail["workload"], {"env": set(), "metrics": {}})
                side["env"].add((detail["env"]["python"], detail["env"]["backend"]))
                for name, m in obj["metrics"].items():
                    side["metrics"].setdefault(name, []).append(m["value"])
                detail = None
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    known = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(argv[0]), load(argv[1])
    for workload in sorted(set(base) & set(new)):
        b, n = base[workload], new[workload]
        flag = "" if b["env"] == n["env"] else "  DIFFERENT ENVIRONMENTS %s vs %s: not comparable" % (
            sorted(b["env"]), sorted(n["env"]))
        print("%s%s" % (workload, flag))
        for name in sorted(set(b["metrics"]) & set(n["metrics"])):
            bq, nq = quartiles(b["metrics"][name]), quartiles(n["metrics"][name])
            m = known.get(name, {})
            change = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            worse = change > 0 if m.get("better") == "lower" else change < 0
            mark = ""
            if "bound" in m and worse and abs(change) > m["bound"]:
                mark = "  WORSE THAN BOUND %.2f" % m["bound"]
            elif bq[0] <= nq[1] <= bq[2]:
                mark = "  within base quartiles"
            print("  %-34s base %.5g [%.5g, %.5g] (%d)  new %.5g [%.5g, %.5g] (%d)  %+.1f%%%s" % (
                name, bq[1], bq[0], bq[2], len(b["metrics"][name]), nq[1], nq[0], nq[2],
                len(n["metrics"][name]), 100 * change, mark))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
