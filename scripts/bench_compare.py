#!/usr/bin/env python3
"""Compares two perfbench results against BENCHMARK.json's bounds.

Usage (from the repository root):

    python3 scripts/bench_compare.py PARENT CHANGE [--benchmark BENCHMARK.json]
    python3 scripts/bench_compare.py --pairs --parent P1 ... PN \
        --change C1 ... CN [--benchmark BENCHMARK.json]

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

With --pairs it reads N parent and N change results, run i of each side
being one pair (alternate the sides' runs so that drift on the host hits
both), and prints for every end-to-end metric each side's median and
quartiles, the change of the medians and in how many pairs the change
read lower than its parent. The medians are then judged against the
bounds as above, and the failure shares are those of all runs summed.
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


def judge(name, metric, p, c, regressions):
    """The delta and verdict cells for parent value p against change
    value c (either may be None); appends any regression."""
    if c is None:
        regressions.append("%s: missing from the change" % name)
        return "-", "MISSING"
    if p is None:
        return "-", "new"
    delta = "%+.1f%%" % (100 * (c - p) / abs(p)) if p else "-"
    worse = worsening(p, c, metric["better"])
    if worse > metric["bound"]:
        regressions.append("%s: worse by more than %g%%" %
                           (name, 100 * metric["bound"]))
        return delta, "WORSE"
    return delta, "better" if worse < 0 else "ok"


def write_table(header, rows, out):
    widths = [max(len(r[i]) for r in rows + [header])
              for i in range(len(header))]
    for r in [header] + rows:
        out.write("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip()
                  + "\n")


def judge_outcomes(parent, change, out, regressions):
    """Writes each side's failed/attempted line; appends the change's
    incorrectness or larger failure share to regressions."""
    for label, result in (("parent", parent), ("change", change)):
        out.write("%s: %s of %s operations failed, correct=%s\n" %
                  (label, result.get("failed", 0), result.get("attempted", 0),
                   str(result.get("correct", True)).lower()))
    if not change.get("correct", True):
        regressions.append("the change reports incorrect results")
    if failure_share(change) > failure_share(parent):
        regressions.append("the change fails a larger share of operations")


def value(result, name):
    metric = result["metrics"].get(name)
    return None if metric is None else metric["value"]


def compare(parent, change, end_to_end, out):
    """Writes the comparison table to out; returns the regressions."""
    regressions = []
    rows = []
    for metric in end_to_end:
        name = metric["name"]
        p = value(parent, name)
        c = value(change, name)
        if p is None and c is None:
            continue
        delta, verdict = judge(name, metric, p, c, regressions)
        rows.append([name, metric.get("unit", ""), metric["better"],
                     "-" if p is None else "%.6g" % p,
                     "-" if c is None else "%.6g" % c, delta,
                     "%g%%" % (100 * metric["bound"]), verdict])
    write_table(("metric", "unit", "better", "parent", "change", "delta",
                 "bound", "verdict"), rows, out)
    judge_outcomes(parent, change, out, regressions)
    return regressions


def quantile(sorted_values, q):
    """The q-quantile of sorted_values, interpolating linearly between
    the two nearest ranks (the inclusive method)."""
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (pos - lo) * (sorted_values[hi] -
                                             sorted_values[lo])


def summed_outcomes(results):
    """One result's correct/attempted/failed fields for a side's runs."""
    return {"correct": all(r.get("correct", True) for r in results),
            "attempted": sum(r.get("attempted", 0) for r in results),
            "failed": sum(r.get("failed", 0) for r in results)}


def compare_pairs(parents, changes, end_to_end, out):
    """Writes the paired comparison table to out; returns the
    regressions. parents[i] and changes[i] are pair i."""
    regressions = []
    rows = []
    pairs = len(parents)
    for metric in end_to_end:
        name = metric["name"]
        ps = [value(r, name) for r in parents]
        cs = [value(r, name) for r in changes]
        if all(v is None for v in ps + cs):
            continue
        side = []
        for values in (ps, cs):
            if None in values:
                side.append((None, "-", "-"))
                continue
            q1, median, q3 = (quantile(sorted(values), q)
                              for q in (0.25, 0.5, 0.75))
            side.append((median, "%.6g" % median, "%.6g-%.6g" % (q1, q3)))
        lower = "-"
        if side[0][0] is not None and side[1][0] is not None:
            lower = "%d/%d" % (sum(c < p for p, c in zip(ps, cs)), pairs)
        delta, verdict = judge(name, metric, side[0][0], side[1][0],
                               regressions)
        rows.append([name, metric.get("unit", ""), metric["better"],
                     side[0][1], side[0][2], side[1][1], side[1][2], lower,
                     delta, "%g%%" % (100 * metric["bound"]), verdict])
    out.write("%d pairs; medians judged against the bounds\n" % pairs)
    write_table(("metric", "unit", "better", "parent", "parent q1-q3",
                 "change", "change q1-q3", "lower", "delta", "bound",
                 "verdict"), rows, out)
    judge_outcomes(summed_outcomes(parents), summed_outcomes(changes), out,
                   regressions)
    return regressions


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?", help="parent result file or line")
    parser.add_argument("change", nargs="?", help="change result file or line")
    parser.add_argument("--pairs", action="store_true",
                        help="compare N parent runs with N change runs")
    parser.add_argument("--parent", nargs="+", dest="parents", default=[],
                        metavar="RESULT", help="--pairs: the parent runs")
    parser.add_argument("--change", nargs="+", dest="changes", default=[],
                        metavar="RESULT", help="--pairs: the change runs")
    parser.add_argument("--benchmark",
                        default=os.path.join(ROOT, "BENCHMARK.json"),
                        help="benchmark declaration (default: the repo's)")
    args = parser.parse_args()
    if args.pairs:
        if args.parent or args.change:
            parser.error("--pairs takes its runs from --parent and --change")
        if not args.parents or len(args.parents) != len(args.changes):
            parser.error("--pairs needs as many --change runs as --parent "
                         "runs, at least one")
    elif args.parent is None or args.change is None or args.parents or \
            args.changes:
        parser.error("give PARENT and CHANGE, or --pairs with --parent and "
                     "--change")
    try:
        if args.pairs:
            parents = [load_result(r) for r in args.parents]
            changes = [load_result(r) for r in args.changes]
        else:
            parent = load_result(args.parent)
            change = load_result(args.change)
        with open(args.benchmark) as f:
            end_to_end = json.load(f)["end_to_end"]
    except (OSError, ValueError, KeyError) as e:
        print("bench_compare: %s" % e, file=sys.stderr)
        return 2
    if args.pairs:
        regressions = compare_pairs(parents, changes, end_to_end, sys.stdout)
    else:
        regressions = compare(parent, change, end_to_end, sys.stdout)
    for r in regressions:
        print("REGRESSION: " + r)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
