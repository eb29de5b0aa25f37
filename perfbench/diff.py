"""Compare two sets of benchmark run records, metric by metric.

    python3 perfbench/diff.py BASE NEW

BASE and NEW are run records written by run.py (perfbench/results/*.json),
each given as a file or a directory of them, for example the results
directories of a parent and a child checkout.  For every workload it
prints each metric's median over the records on either side, the delta and
the delta as a share of the base median; traced records give the per-layer
metrics, untraced ones the end-to-end metrics.  Records written by
different benchmark code (their bench_digest differs) are refused.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(path):
    """Run records under path, a record file or a directory of them."""
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def medians(records):
    """{(workload, trace): {metric: (median, unit, runs)}}."""
    values = {}
    for rec in records:
        group = values.setdefault((rec["workload"], rec["trace"]), {})
        for name, m in rec["metrics"].items():
            group.setdefault(name, (m["unit"], []))[1].append(m["value"])
    return {key: {name: (statistics.median(xs), unit, len(xs))
                  for name, (unit, xs) in group.items()}
            for key, group in values.items()}


def diff_lines(base, new):
    """Table lines for every (workload, trace) group present on both sides."""
    b, n = medians(base), medians(new)
    lines = []
    for key in sorted(b.keys() & n.keys()):
        workload, trace = key
        lines.append("== %s (%s)" % (workload, "per-layer" if trace else "end-to-end"))
        lines.append("%-36s %8s %14s %14s %14s %9s" % (
            "metric", "unit", "base p50", "new p50", "delta", "delta%"))
        for name, (bv, unit, bruns) in b[key].items():
            if name not in n[key]:
                lines.append("%-36s %8s %14.6g %14s" % (name, unit, bv, "missing"))
                continue
            nv = n[key][name][0]
            share = "%+8.1f%%" % (100 * (nv - bv) / bv) if bv else "%9s" % "-"
            lines.append("%-36s %8s %14.6g %14.6g %+14.6g %s" % (
                name, unit, bv, nv, nv - bv, share))
        lines.append("runs: base %d, new %d" % (
            sum(1 for r in base if (r["workload"], r["trace"]) == key),
            sum(1 for r in new if (r["workload"], r["trace"]) == key)))
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    if not base or not new:
        print("diff.py: no run records found", file=sys.stderr)
        return 2
    digests = {r.get("bench_digest") for r in base + new}
    if len(digests) != 1:
        print("diff.py: records come from different benchmark code", file=sys.stderr)
        return 2
    lines = diff_lines(base, new)
    if not lines:
        print("diff.py: no workload is present on both sides", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
