"""cubify benchmark: time the public entry points, check every output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's inputs are built from the seed (see WORKLOADS; the reducers
only ever see the built matrices).  The run reduces them in turn for S
seconds with cubify(b), lll_reduce(b) and verify_problems(...), checks each
output outside the timed calls, prints a table of metrics with units and
sample counts, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1 they are its per-layer
metrics, taken from a run that spends under half its time untraced and then
replays the same matrices with the wrappers of tracer.py installed.

Times are in reference seconds: wall seconds scaled by the speed of the
shared host while the call ran (see speed.py).  Every run writes a record
to perfbench/results/, and a traced run also its spans; diff.py compares
two sets of records.  The package is imported from the src/ directory next
to this one, never from an installed copy.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from speed import Clock
from tracer import Tracer, installed_wrappers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HET20 = ROOT / "data" / "heterogeneous_20x20.txt"
RESULTS = HERE / "results"

#: set-ups per untraced run, one before the timed pass and the rest spread
#: through it: setup_s, their median, then samples the same stretches of the
#: shared machine as the other timings
SETUP_REPEATS = 8
#: dimension of the dense-hyp matrices; at n = 20 a matrix takes ~1.1 s and
#: at n = 16 ~0.5 s, too few per run for a median that is steady from seed
#: to seed; at n = 12 (~0.25 s) the hyperplanar share is still ~92 %
DENSE_DIM = 12
#: matrix i of a generated workload uses generator seed seed * STRIDE + i
STRIDE = 1_000_000


def ensure_source():
    """Put the checkout's src/ first on sys.path; False when it is missing."""
    if not (SRC / "cubify" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


# -- workloads --------------------------------------------------------------

def _dense_hyp(cb, seed, count):
    t0 = time.perf_counter()
    mats = [cb.generate(cb.GeneratorSpec("full", DENSE_DIM, (0, 100),
                                         seed=seed * STRIDE + i))
            for i in range(count)]
    return mats, {"bench.generate_s": time.perf_counter() - t0}


def _het20(cb, seed, count):
    cli = importlib.import_module("cubify.cli")
    t0 = time.perf_counter()
    base = cli.load_matrix(HET20).rows
    load_s = time.perf_counter() - t0
    n = len(base)
    rng = random.Random(seed)
    mats = []
    for i in range(count):
        if seed == 0 and i == 0:
            order, signs = range(n), [1] * n    # the file as given
        else:
            order = rng.sample(range(n), n)
            signs = [rng.choice((1, -1)) for _ in range(n)]
        mats.append(cb.Basis([[s * x for x in base[k]]
                              for k, s in zip(order, signs)]))
    return mats, {"cli.load_s": load_s}


def _bigint_columnar(cb, seed, count):
    t0 = time.perf_counter()
    mats = [cb.generate(cb.GeneratorSpec("columnar", 4, (10 ** 299, 10 ** 300 - 1),
                                         seed=seed * STRIDE + i))
            for i in range(count)]
    return mats, {"bench.generate_s": time.perf_counter() - t0}


_PHASES = ("cubifier.pre_hyperplanar_s", "cubifier.directional_s",
           "cubifier.hyperplanar_s", "cubifier.self_s")


def _hyperplanar_share(m):
    total = sum(m[p] for p in _PHASES)
    return m["cubifier.hyperplanar_s"] / total if total else 0.0


@dataclass(frozen=True)
class Workload:
    build: object           # (package, seed, count) -> (matrices, setup layers)
    pool: int               # distinct matrices per run; the run cycles them
    load_check: object      # (per-layer metrics, cubify_over_lll) -> (ok, text)
    kernels: dict = field(default_factory=dict)   # call -> speed.py kernel


WORKLOADS = {
    # full family: classifies random, method 2; the hyperplanar pass with
    # sublattice Lagrange is ~92 % of cubify time
    "dense-hyp": Workload(_dense_hyp, 200, lambda m, ratio: (
        _hyperplanar_share(m) >= 0.85,
        "hyperplanar share %.3f >= 0.85" % _hyperplanar_share(m))),
    # the paper's 20x20 under seeded signed row permutations: the only
    # large_heterogeneous input, dominated by the pre-hyperplanar pass that
    # runs without sublattice reduction
    "het20": Workload(_het20, 48, lambda m, ratio: (
        m["cubifier.pre_hyperplanar_s"] >= max(m[p] for p in _PHASES),
        "pre_hyperplanar %.4f s is the largest phase"
        % m["cubifier.pre_hyperplanar_s"])),
    # columnar n = 4 with ~300-digit entries: small_columnar, method 1;
    # directional Lagrange dominates and LLL is slower than cubify
    "bigint-columnar": Workload(_bigint_columnar, 96, lambda m, ratio: (
        m["directional.lagrange_s"] >= max(m["cubifier.pre_hyperplanar_s"],
                                          m["cubifier.hyperplanar_s"],
                                          m["directional.simplify_s"])
        and ratio < 1,
        "directional.lagrange %.4f s is the largest phase, cubify_over_lll "
        "%.3f < 1" % (m["directional.lagrange_s"], ratio)),
        # LLL's Fractions grow to thousands of bits: big-integer arithmetic
        kernels={"lll": "bigint"}),
}


@dataclass
class Setup:
    """The package and inputs a run uses, and what each set-up cost."""
    cb: object
    mats: list
    layers: dict                                # layer seconds, first set-up
    seconds: list = field(default_factory=list)     # reference seconds
    wall_seconds: list = field(default_factory=list)


def _import_and_build(name, seed):
    wl = WORKLOADS[name]
    cb = importlib.import_module("cubify")
    importlib.import_module("cubify.cli")
    mats, layers = wl.build(cb, seed, wl.pool)
    return cb, mats, layers


def setup(name, seed, clock=None, into=None):
    """Import the package afresh and build the inputs.

    Returns a new Setup, or only adds the time to into when given; the
    package and matrices already in use stay valid either way.
    """
    for mod in [m for m in sys.modules if m == "cubify" or m.startswith("cubify.")]:
        del sys.modules[mod]
    (cb, mats, layers), wall, ref = (clock or Clock()).call(
        "setup", _import_and_build, name, seed)
    if into is None:
        into = Setup(cb, mats, {k: v * ref / wall for k, v in layers.items()})
    into.seconds.append(ref)
    into.wall_seconds.append(wall)
    return into


# -- measurement ------------------------------------------------------------

@dataclass
class Tally:
    """What one pass over the matrices measured and checked.

    The *_s lists hold reference seconds, the *_wall lists wall seconds.
    """
    cubify_s: list = field(default_factory=list)
    lll_s: list = field(default_factory=list)
    verify_s: list = field(default_factory=list)
    cubify_wall: list = field(default_factory=list)
    lll_wall: list = field(default_factory=list)
    verify_wall: list = field(default_factory=list)
    reports: list = field(default_factory=list)
    report_scale: list = field(default_factory=list)  # reference / wall
    r_log: list = field(default_factory=list)       # log10(R_in / R_out)
    s_log: list = field(default_factory=list)
    r_vs_lll_log: list = field(default_factory=list)  # log10(R_out / R_lll)
    outputs: list = field(default_factory=list)     # per call, for replays
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    bits_max: int = 0
    digest: object = field(default_factory=hashlib.sha256)

    def fail(self, what):
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(what)


def _rhombicity(cb, b):
    return cb.rhombicity(cb.metric_tensor(b))


def _output_text(reduced, report, lll_out):
    return repr((reduced.rows, report.transform, lll_out.rows)).encode()


def reduce_checked(cb, b, i, first, tally, clock):
    """Reduce matrix b with both reducers, timing the calls on clock, then check.

    first marks the matrix's first use in the run: its outputs feed the
    quality metrics and the output digest.
    """
    tally.attempted += 2
    cub = lll_out = r_lll = None
    try:
        (reduced, report), wall, ref = clock.call("cubify", cb.cubify, b)
        tally.cubify_s.append(ref)
        tally.cubify_wall.append(wall)
        tally.reports.append(report)
        tally.report_scale.append(ref / wall)
        problems, wall, ref = clock.call("verify", cb.verify_problems,
                                         b, reduced, report)
        tally.verify_s.append(ref)
        tally.verify_wall.append(wall)
        if problems or report.r_out > report.r_in:
            tally.fail("matrix %d: cubify %s" % (i, problems or "raised R"))
        else:
            cub = reduced, report
    except Exception as exc:  # a crash is a failed reduction, not a dead run
        tally.fail("matrix %d: cubify raised %r" % (i, exc))
    try:
        out, wall, ref = clock.call("lll", cb.lll_reduce, b)
        tally.lll_s.append(ref)
        tally.lll_wall.append(wall)
        same, _ = cb.lattice_equal(b, out)
        r_lll = _rhombicity(cb, out)
        if not same or r_lll > _rhombicity(cb, b):
            tally.fail("matrix %d: lll output %s" % (
                i, "raised R" if same else "spans another lattice"))
        else:
            lll_out = out
    except Exception as exc:
        tally.fail("matrix %d: lll raised %r" % (i, exc))
    if cub is None or lll_out is None:
        tally.outputs.append(None)
        return
    reduced, report = cub
    text = _output_text(reduced, report, lll_out)
    tally.outputs.append(hashlib.sha256(text).digest())
    if first:
        tally.digest.update(text)
        tally.r_log.append(math.log10(report.r_in) - math.log10(report.r_out))
        tally.s_log.append(math.log10(report.s_in) - math.log10(report.s_out))
        tally.r_vs_lll_log.append(math.log10(report.r_out) - math.log10(r_lll))
        tally.bits_max = max(tally.bits_max, *(
            abs(x).bit_length() for rows in (reduced.rows, report.transform)
            for row in rows for x in row))


def untraced_pass(cb, mats, seconds, clock=None, between=None, every=math.inf):
    """Reduce the matrices in turn, cycling, until seconds pass (>= one).

    between, when given, is called between two matrices every `every`
    seconds.
    """
    wrapped = installed_wrappers()
    if wrapped:
        raise RuntimeError("untraced timing with wrappers installed: %s" % wrapped)
    tally = Tally()
    clock = clock or Clock()
    now = time.perf_counter()
    deadline, next_call = now + seconds, now + every
    i = 0
    while True:
        reduce_checked(cb, mats[i % len(mats)], i, i < len(mats), tally, clock)
        i += 1
        now = time.perf_counter()
        if now >= deadline:
            return tally
        if now >= next_call:
            between()
            next_call = now + every


def traced_pass(cb, mats, calls, expected, tally, clock):
    """Replay the first calls matrices under the tracer.

    Returns (tracer, cubify reference seconds per call, cubify wall
    seconds per call).  Outputs must equal the untraced pass's (expected,
    per call); a mismatch or an exception counts as a failed reduction.
    """
    cub_s, cub_wall = [], []
    with Tracer() as tr:
        for i in range(calls):
            b = mats[i % len(mats)]
            tally.attempted += 2
            try:
                (reduced, report), sec = tr.root("run.cubify", i, cb.cubify, b)
                cub_s.append(clock.scale("cubify", sec))
                cub_wall.append(sec)
                tr.root("run.verify", i, cb.verify_problems, b, reduced, report)
                lll_out, _ = tr.root("run.lll", i, cb.lll_reduce, b)
            except Exception as exc:
                tally.fail("matrix %d: traced run raised %r" % (i, exc))
                continue
            got = hashlib.sha256(_output_text(reduced, report, lll_out)).digest()
            if got != expected[i]:
                tally.fail("matrix %d: traced outputs differ" % i)
    left = installed_wrappers()
    if left:
        raise RuntimeError("wrappers left installed: %s" % left)
    return tr, cub_s, cub_wall


# -- metrics ----------------------------------------------------------------

def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def end_to_end(tally, st):
    """{name: (value, unit, samples)} for the end-to-end metrics."""
    cub, lll, ver = tally.cubify_s, tally.lll_s, tally.verify_s
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": (_median(st.seconds), "s", len(st.seconds)),
        "cubify_matrices_per_s": (len(cub) / sum(cub) if cub else 0.0, "1/s", len(cub)),
        "lll_s_p50": (_median(lll), "s", len(lll)),
        "cubify_over_lll": (sum(cub) / sum(lll) if lll else 0.0, "ratio", len(lll)),
        "verify_s_p50": (_median(ver), "s", len(ver)),
        "r_factor_log10": (_mean(tally.r_log), "log10", len(tally.r_log)),
        "s_factor_log10": (_mean(tally.s_log), "log10", len(tally.s_log)),
        "r_vs_lll_geomean": (10 ** _mean(tally.r_vs_lll_log), "ratio",
                             len(tally.r_vs_lll_log)),
        "verified_fraction": ((tally.attempted - tally.failed) / tally.attempted,
                              "ratio", tally.attempted),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }


#: per-layer metrics read off the spans: name -> (span layer, field)
_SPAN_METRICS = {
    "hyperplanar.normal_s": ("hyperplanar.normal", "total"),
    "hyperplanar.solve_s": ("hyperplanar.solve", "total"),
    "hyperplanar.sublattice_lagrange_s": ("hyperplanar.sublattice_lagrange", "total"),
    "hyperplanar.self_s": ("hyperplanar", "self"),
    "directional.lagrange_s": ("directional.lagrange", "total"),
    "directional.lagrange_calls": ("directional.lagrange", "calls"),
    "directional.simplify_s": ("directional.simplify", "total"),
    "exact.solve_s": ("exact.solve", "total"),
    "exact.det_s": ("exact.det", "total"),
    "exact.det_calls": ("exact.det", "calls"),
    "lll.gs_data_s": ("lll.gs_data", "total"),
}
_COUNT_METRICS = ("hyperplanar.screenings", "hyperplanar.accepted",
                  "state.copies", "state.replaces")
_SETUP_LAYERS = ("bench.generate_s", "cli.load_s")


def per_layer(tally, traced, st):
    """({name: (value, unit, samples)}, [absent names]) for the layers.

    Times and counts are per cubify call: phase times come from the
    untraced reports, span times and counts from the traced replay
    (traced is traced_pass's result).  Times are in reference seconds:
    phase times scaled like their cubify call (cubify's own timings include
    the kernel samples taken inside the call, under a tenth of it), span
    times by the replay's cubify reference over wall seconds.  A layer whose binding is missing
    or never ran is absent; it reads 0.
    """
    tr, traced_cub_s, traced_wall = traced
    span_scale = sum(traced_cub_s) / sum(traced_wall) if traced_wall else 1.0
    reps = tally.reports
    n_rep, n_tr = len(reps), len(traced_cub_s)
    out = {}
    absent = []

    def phase(key):
        return _mean([r.timings.get(key, 0.0) * scale
                      for r, scale in zip(reps, tally.report_scale)])

    total = phase("total")
    phases = {"pre_hyperplanar": phase("pre_hyperplanar"),
              "directional": phase("directional"),
              "hyperplanar": phase("hyperplanar")}
    for key, value in phases.items():
        out["cubifier.%s_s" % key] = (value, "s", n_rep)
    out["cubifier.self_s"] = (total - sum(phases.values()), "s", n_rep)
    out["cubifier.cycles"] = (_mean([r.cycles for r in reps]), "count", n_rep)

    totals = tr.layer_totals()
    for name, (layer, what) in _SPAN_METRICS.items():
        calls, secs, own = totals.get(layer, (0, 0.0, 0.0))
        if not calls:
            absent.append(name)
        if what == "calls":
            value, unit = calls, "count"
        else:
            value, unit = (secs if what == "total" else own) * span_scale, "s"
        out[name] = (value / n_tr if n_tr else 0.0, unit, n_tr)
    for name in _COUNT_METRICS:
        if name == "hyperplanar.accepted":
            # zero accepted shears is a measurement when the pass ran
            ran = tr.accepted_counted and "hyperplanar" in totals
        else:
            ran = tr.counts[name] > 0
        if not ran:
            absent.append(name)
        out[name] = (tr.counts[name] / n_tr if n_tr else 0.0, "count", n_tr)
    screenings = tr.counts["hyperplanar.screenings"]
    if not screenings:
        absent.append("hyperplanar.accept_ratio")
    out["hyperplanar.accept_ratio"] = (
        tr.counts["hyperplanar.accepted"] / screenings if screenings else 0.0,
        "ratio", n_tr)
    out["exact.output_bits_max"] = (tally.bits_max, "bits", len(tally.r_log))
    for name in _SETUP_LAYERS:
        if name not in st.layers:
            absent.append(name)
        out[name] = (st.layers.get(name, 0.0), "s", 1)
    untraced = sum(tally.cubify_s[:n_tr])
    out["trace.overhead_fraction"] = (
        sum(traced_cub_s) / untraced - 1 if untraced else 0.0, "ratio", n_tr)
    return out, absent


# -- the run ----------------------------------------------------------------

def bench_digest():
    """SHA-256 over the measuring code, to pair comparable records."""
    h = hashlib.sha256()
    for name in ("run.py", "speed.py", "tracer.py"):
        h.update(name.encode() + b"\0" + (HERE / name).read_bytes())
    return h.hexdigest()


def measure(workload, seed, seconds, trace):
    """One run; returns (record, tracer or None) for run() to write out."""
    clock = Clock(WORKLOADS[workload].kernels)
    st = setup(workload, seed, clock)
    tr = None
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "python": platform.python_version(),
              "nproc": os.cpu_count(), "machine": platform.machine(),
              "bench_digest": bench_digest()}
    if not trace:
        tally = untraced_pass(st.cb, st.mats, seconds, clock,
                              between=lambda: setup(workload, seed, clock, st),
                              every=seconds / SETUP_REPEATS)
        metrics, absent = end_to_end(tally, st), []
    else:
        # the replay takes a little longer than the untraced part
        tally = untraced_pass(st.cb, st.mats, seconds * 0.45, clock)
        calls = len(tally.outputs)
        traced = traced_pass(st.cb, st.mats, calls, tally.outputs, tally, clock)
        tr = traced[0]
        metrics, absent = per_layer(tally, traced, st)
        lll = sum(tally.lll_s)
        ok, text = WORKLOADS[workload].load_check(
            {k: v[0] for k, v in metrics.items()},
            sum(tally.cubify_s) / lll if lll else math.inf)
        record["load_check"] = {"ok": ok, "detail": text}
        record["missing_bindings"] = tr.missing
    record.update({
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_fraction": tally.failed / tally.attempted,
        "errors": tally.errors, "absent": absent,
        "distinct_matrices": len(tally.r_log),
        "output_sha256": tally.digest.hexdigest(),
        "call_seconds": {"cubify": tally.cubify_s, "lll": tally.lll_s,
                         "verify": tally.verify_s, "setup": st.seconds},
        "wall_seconds": {"cubify": tally.cubify_wall, "lll": tally.lll_wall,
                         "verify": tally.verify_wall, "setup": st.wall_seconds},
        "call_kernels": clock.kernels,
        "kernel_medians": clock.medians(),
        "kernel_seconds": clock.samples,
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in metrics.items()},
    })
    return record, tr


def _table(record):
    lines = ["workload %s  seed %s  trace %s  distinct matrices %d"
             % (record["workload"], record["seed"], record["trace"],
                record["distinct_matrices"])]
    lines.append("%-36s %16s  %-6s %8s" % ("metric", "value", "unit", "samples"))
    for name, m in record["metrics"].items():
        value = "absent" if name in record["absent"] else "%.6g" % m["value"]
        lines.append("%-36s %16s  %-6s %8d" % (name, value, m["unit"], m["samples"]))
    # the median, and the highest percentile with at least ten raw samples
    # above it
    for call in ("cubify", "lll", "verify"):
        xs = record["call_seconds"][call]
        if xs:
            lines.append("%s call p50 %.6g s (%d samples)" % (
                call, statistics.median(xs), len(xs)))
        if len(xs) >= 20:
            q = int(100 * (1 - 10 / len(xs)))
            lines.append("%s call p%d %.6g s (%d samples)" % (
                call, q, statistics.quantiles(xs, n=100)[q - 1], len(xs)))
    lines.append("times in reference seconds (wall seconds scaled by the "
                 "speed.py kernel around each call; %s): kernel medians %s "
                 "over %d samples" % (
                     ", ".join("%s by %s" % kv for kv in record["call_kernels"].items())
                     or "all calls by mixed",
                     ", ".join("%s %.6g s" % kv for kv in record["kernel_medians"].items()),
                     len(record["kernel_seconds"])))
    lines.append("failed_fraction %.6g (%d of %d reductions)"
                 % (record["failed_fraction"], record["failed"], record["attempted"]))
    lines.extend("  failure: %s" % e for e in record["errors"])
    lines.append("output sha256 %s" % record["output_sha256"])
    if "load_check" in record:
        lines.append("layer check: %s (%s)" % (
            "PASS" if record["load_check"]["ok"] else "FAIL",
            record["load_check"]["detail"]))
    return "\n".join(lines)


def run(workload, seed, seconds, trace):
    record, tr = measure(workload, seed, seconds, trace)
    RESULTS.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (workload, seed, trace)
    if tr is not None:
        spans = RESULTS / (stem + ".spans.jsonl.gz")
        tr.write(spans)
        record["spans_file"] = spans.name
    (RESULTS / (stem + ".json")).write_text(json.dumps(record, indent=1) + "\n")
    print(_table(record))
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in record["metrics"].items()}}))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not ensure_source():
        print("run.py: no cubify sources at %s" % SRC, file=sys.stderr)
        return 2
    run(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
