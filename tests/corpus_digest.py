"""One SHA-256 over every result the reduction gives on a fixed corpus.

    python3 tests/corpus_digest.py [--src DIR] [--only NAME ...]
                                   [--expect HEX] [--list]

A refactor or speed-up that claims bit-identical results runs this in the
parent checkout and in its own and compares the two lines it prints.  The
corpus is 82 inputs: perfbench's three workloads at seed 1 (het20 rows
permuted and signed by random.Random(1), dense-hyp full n = 12 draws,
bigint-columnar n = 4 draws with ~300-digit entries), the het20 file as
given, full n = 8 and n = 20 draws with entries in (0, 100), columnar
n = 10 and n = 16 draws with entries in (0, 1000) and full n = 8 draws with
entries in (-10^50, 10^50).  Each input is reduced by cubify under
automatic options and under each of the 16 explicit option sets (method,
both variants, pre-hyperplanar pass), hashing the reduced rows, the
transform, r_history and the cycle count; and by hyperplanar_pass under
both variants with and without sublattice reduction, hashing the output
rows and every trace record.

--src imports cubify from DIR (a checkout's src/ directory) instead of the
src/ next to this script, so one copy of the script serves both trees.
--only restricts the run to the named inputs (see --list) and prints the
digest of that subset.  --expect HEX compares the digest with HEX: on a
match the script prints the digest and exits 0, on a mismatch it prints
both and exits 1.  A full run takes 40-50 s on one core of a shared
x86_64 host under Python 3.11.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HET20 = ROOT / "data" / "heterogeneous_20x20.txt"

#: generator seed of matrix i of a perfbench workload at seed 1
STRIDE = 1_000_000


def _het20(cb, i):
    base = importlib.import_module(cb.__name__ + ".cli").load_matrix(HET20).rows
    if i is None:
        return base
    n = len(base)
    rng = random.Random(1)
    for _ in range(i + 1):
        order = rng.sample(range(n), n)
        signs = [rng.choice((1, -1)) for _ in range(n)]
    return [[s * x for x in base[k]] for k, s in zip(order, signs)]


def corpus():
    """(name, cb -> rows) for every input, in digest order."""
    def gen(family, n, entries, seed):
        return lambda cb: cb.generate(cb.GeneratorSpec(family, n, entries,
                                                       seed=seed)).rows

    inputs = [("het20", lambda cb: _het20(cb, None))]
    inputs += [("het20-%d" % i, lambda cb, i=i: _het20(cb, i))
               for i in range(10)]
    inputs += [("dense-hyp-%d" % i, gen("full", 12, (0, 100), STRIDE + i))
               for i in range(20)]
    inputs += [("bigint-columnar-%d" % i,
                gen("columnar", 4, (10 ** 299, 10 ** 300 - 1), STRIDE + i))
               for i in range(20)]
    inputs += [("full-8-%d" % s, gen("full", 8, (0, 100), s)) for s in range(10)]
    inputs += [("full-20-%d" % s, gen("full", 20, (0, 100), s)) for s in range(5)]
    for n in (10, 16):
        inputs += [("columnar-%d-%d" % (n, s), gen("columnar", n, (0, 1000), s))
                   for s in range(5)]
    inputs += [("full-8-e50-%d" % s, gen("full", 8, (-10 ** 50, 10 ** 50), s))
               for s in range(6)]
    return inputs


def option_sets(cb):
    """None (automatic) and the 16 explicit option sets."""
    return [None] + [
        cb.CubifyOptions(method=method, lagrange=lag, simplification=simp,
                         pre_hyperplanar=pre)
        for method, lag, simp, pre in itertools.product(
            (1, 2), cb.Variant, cb.Variant, (False, True))]


def results(cb, rows):
    """repr of every result the corpus hashes for one input."""
    for opts in option_sets(cb):
        reduced, report = cb.cubify(rows, opts)
        yield repr((reduced.rows, report.transform, tuple(report.r_history),
                    report.cycles))
    for variant, sub in itertools.product(cb.Variant, (True, False)):
        trace = []
        out = cb.hyperplanar_pass(rows, variant, reduce_sublattice=sub,
                                  trace=trace)
        yield repr((out.rows, [(t.normal, t.before, t.after) for t in trace]))


def digest(cb, names=None):
    """The SHA-256 hex digest over the named inputs (all when None)."""
    h = hashlib.sha256()
    for name, make in corpus():
        if names is None or name in names:
            h.update(name.encode())
            for text in results(cb, make(cb)):
                h.update(text.encode())
    return h.hexdigest()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--src", type=Path, default=ROOT / "src",
                   help="directory cubify is imported from")
    p.add_argument("--only", action="append", metavar="NAME",
                   help="hash only this input (repeatable)")
    p.add_argument("--expect", metavar="HEX",
                   help="exit 1 unless the digest is HEX")
    p.add_argument("--list", action="store_true", help="list the input names")
    args = p.parse_args(argv)
    if args.list:
        print("\n".join(name for name, _ in corpus()))
        return 0
    known = {name for name, _ in corpus()}
    unknown = sorted(set(args.only or ()) - known)
    if unknown:
        p.error("unknown input %s" % ", ".join(unknown))
    sys.path.insert(0, str(args.src.resolve()))
    import cubify
    got = digest(cubify, args.only and set(args.only))
    if args.expect is not None and got != args.expect.lower():
        print("digest   %s\nexpected %s" % (got, args.expect))
        return 1
    print(got)
    return 0


if __name__ == "__main__":
    sys.exit(main())
