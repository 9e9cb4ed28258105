#!/usr/bin/env python3
"""Compares two perfbench results against BENCHMARK.json's bounds.

Usage (from the repository root):

    python3 scripts/bench_compare.py PARENT CHANGE [--benchmark BENCHMARK.json]

PARENT and CHANGE are each a perfbench result: a file holding the output
of `perfbench/run.py` (or a committed BENCH_<workload>.json, which keeps
its stamp line and its result line), or the result line itself. The last
line that parses as a JSON object with "metrics" is the result.

Prints every end-to-end metric BENCHMARK.json declares, parent and change
side by side with the relative change and the metric's bound, then the
failed/attempted counts. Exits 1 when a metric worsens by more than its
bound, when a metric the parent reports is missing from the change, or
when the change fails a larger share of its operations (or reports
itself incorrect); exits 2 on unreadable input; else 0.
"""

import argparse
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_result(source):
    """The result object of a perfbench run: from a file, or the line."""
    text = source
    if os.path.exists(source):
        with open(source) as f:
            text = f.read()
    for line in reversed(text.splitlines()):
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict) and isinstance(obj.get("metrics"), dict):
            return obj
    raise ValueError("no perfbench result line in %r" % source[:80])


def worsening(parent, change, better):
    """How much worse change is than parent, relative to parent (<= 0
    when no worse). A zero parent makes any worsening infinite."""
    worse_by = change - parent if better == "lower" else parent - change
    if worse_by <= 0:
        return worse_by / abs(parent) if parent else 0.0
    return worse_by / abs(parent) if parent else math.inf


def failure_share(result):
    attempted = result.get("attempted", 0)
    return result.get("failed", 0) / attempted if attempted else 0.0


def compare(parent, change, end_to_end, out):
    """Writes the comparison table to out; returns the regressions."""
    regressions = []
    header = ("metric", "unit", "better", "parent", "change", "delta",
              "bound", "verdict")
    rows = []
    for metric in end_to_end:
        name = metric["name"]
        p = parent["metrics"].get(name)
        c = change["metrics"].get(name)
        if p is None and c is None:
            continue
        bound = metric["bound"]
        row = [name, metric.get("unit", ""), metric["better"],
               "-" if p is None else "%.6g" % p["value"],
               "-" if c is None else "%.6g" % c["value"], "-",
               "%g%%" % (100 * bound)]
        if c is None:
            verdict = "MISSING"
            regressions.append("%s: missing from the change" % name)
        elif p is None:
            verdict = "new"
        else:
            worse = worsening(p["value"], c["value"], metric["better"])
            if p["value"]:
                row[5] = "%+.1f%%" % (
                    100 * (c["value"] - p["value"]) / abs(p["value"]))
            if worse > bound:
                verdict = "WORSE"
                regressions.append("%s: worse by more than %g%%" %
                                   (name, 100 * bound))
            elif worse < 0:
                verdict = "better"
            else:
                verdict = "ok"
        rows.append(row + [verdict])

    widths = [max(len(r[i]) for r in rows + [header])
              for i in range(len(header))]
    for r in [header] + rows:
        out.write("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip()
                  + "\n")

    for label, result in (("parent", parent), ("change", change)):
        out.write("%s: %s of %s operations failed, correct=%s\n" %
                  (label, result.get("failed", 0), result.get("attempted", 0),
                   str(result.get("correct", True)).lower()))
    if not change.get("correct", True):
        regressions.append("the change reports incorrect results")
    if failure_share(change) > failure_share(parent):
        regressions.append("the change fails a larger share of operations")
    return regressions


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="parent result file or line")
    parser.add_argument("change", help="change result file or line")
    parser.add_argument("--benchmark",
                        default=os.path.join(ROOT, "BENCHMARK.json"),
                        help="benchmark declaration (default: the repo's)")
    args = parser.parse_args()
    try:
        parent = load_result(args.parent)
        change = load_result(args.change)
        with open(args.benchmark) as f:
            end_to_end = json.load(f)["end_to_end"]
    except (OSError, ValueError, KeyError) as e:
        print("bench_compare: %s" % e, file=sys.stderr)
        return 2
    regressions = compare(parent, change, end_to_end, sys.stdout)
    for r in regressions:
        print("REGRESSION: " + r)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
