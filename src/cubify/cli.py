"""Command line front end: reduce, compare, bench, verify.

Matrix files are plain text: one row per line, whitespace-separated signed
decimal integers, blank lines and lines starting with '#' ignored.  All JSON
output carries {"schema": "cubify-report/1"}, validates against the schema
cubify-report-1.schema.json shipped beside this module, and serializes
integers beyond the 53-bit safe range as decimal strings so consumers in
double-precision JSON land never lose digits.  verify takes exactly the
reduce documents the schema accepts whose integers fit the digit limit.

Exit codes: 0 success, 1 parse error, a file that cannot be read or
written (non-UTF-8 text, and JSON nested too deeply or holding an integer
literal past the interpreter's int-to-str digit limit, included) or an
output integer past that limit, 2 singular input (or argparse usage
error), 3 generation failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import re
import reprlib
import sys

from .bench import (ALGORITHMS, FAMILIES, LLL_ALPHA, BatteryVerificationError,
                    GenerationError, GeneratorSpec, measure, run_battery)
from .cubifier import (CubifyOptions, MatrixClass, ReductionReport, classify,
                       cubify, default_options, verify_problems)
from .directional import Variant
from .exact import Basis, SingularBasisError

SCHEMA = "cubify-report/1"
#: the report format: a draft-07 JSON Schema that every JSON document
#: validates against; verify reads it at the first report, not at import
SCHEMA_PATH = os.path.join(os.path.dirname(__file__),
                           "cubify-report-1.schema.json")
_SAFE = 2 ** 53 - 1


class MatrixParseError(ValueError):

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = "line %d, column %d: %s" % (line, column, message)
        super().__init__(message)


_TOKEN = re.compile(r"\S+")
_DECIMAL = re.compile(r"[+-]?[0-9]+")


def parse_matrix_text(text) -> list:
    """Rows of ints from matrix text; raises MatrixParseError with position."""
    rows = []
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        row = []
        for tok in _TOKEN.finditer(raw):
            # int() alone would also take '1_0' and non-ASCII digits; it
            # raises by itself past the interpreter's digit limit
            try:
                if not _DECIMAL.fullmatch(tok[0]):
                    raise ValueError
                row.append(int(tok[0]))
            except ValueError:
                raise MatrixParseError("not an integer: %r" % tok[0],
                                       lineno, tok.start() + 1) from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise MatrixParseError(
                "row has %d entries, expected %d" % (len(row), width),
                lineno, 1)
        rows.append(row)
        last = lineno
    if not rows:
        raise MatrixParseError("no matrix rows found", 1, 1)
    if len(rows) != width:
        raise MatrixParseError(
            "matrix is %dx%d, expected square" % (len(rows), width),
            last, 1)
    return rows


def load_matrix(path) -> Basis:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MatrixParseError("cannot read %s: %s" % (path, exc)) from None
    return Basis(parse_matrix_text(text))


def format_matrix(b) -> str:
    rows = b.rows if isinstance(b, Basis) else b
    return "\n".join(" ".join(str(x) for x in row) for row in rows) + "\n"


def matrix_digest(b) -> str:
    return hashlib.sha256(format_matrix(b).encode()).hexdigest()


def _jint(v: int):
    return v if -_SAFE <= v <= _SAFE else str(v)


def _options_doc(opts: CubifyOptions) -> dict:
    return {k: v.value if isinstance(v, Variant) else v
            for k, v in dataclasses.asdict(opts).items()}


def _input_doc(basis, path=None) -> dict:
    doc = {"sha256": matrix_digest(basis), "dim": len(basis)}
    if path is not None:
        doc["path"] = str(path)
    return doc


def report_document(report: ReductionReport, basis, path=None) -> dict:
    """The reduce command's JSON document for a reduction report."""
    return {
        "schema": SCHEMA,
        "command": "reduce",
        "input": _input_doc(basis, path),
        "classification": report.matrix_class.value,
        "auto": report.auto,
        "options": _options_doc(report.options),
        "r_in": _jint(report.r_in),
        "r_out": _jint(report.r_out),
        "s_in": _jint(report.s_in),
        "s_out": _jint(report.s_out),
        "cycles": report.cycles,
        "r_history": [_jint(r) for r in report.r_history],
        "pre_pass_applied": report.pre_pass_applied,
        "max_cycles_exhausted": report.max_cycles_exhausted,
        "transform": [[_jint(x) for x in row] for row in report.transform],
        "timings": {k: float(v) for k, v in report.timings.items()},
        "verified": True,
    }


@functools.cache
def _schema() -> dict:
    with open(SCHEMA_PATH, encoding="utf-8") as fh:
        return json.load(fh)


#: each type the schema names: what JSON loads it as, and how to say it
_TYPES = {"object": (dict, "a JSON object"), "array": (list, "an array"),
          "string": (str, "a string"), "boolean": (bool, "a boolean"),
          "integer": (int, "an integer"), "number": ((int, float), "a number")}


def _has_type(v, name) -> bool:
    if name == "integer" and isinstance(v, float):
        return v.is_integer()       # draft-07's integer takes 3.0
    # only "boolean" takes a bool
    return (isinstance(v, _TYPES[name][0])
            and isinstance(v, bool) == (name == "boolean"))


#: the draft-07 keywords that test a value itself: whether v passes the
#: keyword's argument (a keyword passes a value of a type it does not test)
_TESTS = {
    "type": _has_type,
    "enum": lambda v, members: any(_TESTS["const"](v, m) for m in members),
    # draft-07 equality with a scalar: true is not 1, and 1.0 is 1
    "const": lambda v, c: v == c and isinstance(v, bool) == isinstance(c, bool),
    "minimum": lambda v, low: not _has_type(v, "number") or v >= low,
    "pattern": lambda v, p: not isinstance(v, str) or re.search(p, v),
    "minItems": lambda v, n: not isinstance(v, list) or len(v) >= n,
    "maxItems": lambda v, n: not isinstance(v, list) or len(v) <= n,
    "oneOf": lambda v, fs: [_schema_error(v, f) for f in fs].count(None) == 1,
}
#: every keyword _schema_error reads; "definitions" holds what "$ref" names
KEYWORDS = ("$ref", *_TESTS, "items", "required", "properties",
            "additionalProperties")


def _schema_error(v, schema, where="report"):
    """Why v, named where, fails schema (a part of the shipped one), or None.

    Reads KEYWORDS as draft-07 does: "pattern" matches by search, so "12\\n"
    is a bigint ("$" also matches before a final newline).
    """
    if "$ref" in schema:        # draft-07 ignores the keywords beside it
        target = _schema()
        for key in schema["$ref"].split("/")[1:]:
            target = target[key]
        return _schema_error(v, target, where)
    for key, passes in _TESTS.items():
        if key in schema and not passes(v, schema[key]):
            fault = ("not " + _TYPES[schema[key]][1] if key == "type"
                     else "failing %s %s" % (key, json.dumps(schema[key])))
            return "%s is %s, %s" % (where, reprlib.repr(v), fault)
    if isinstance(v, list) and "items" in schema:
        for i, x in enumerate(v):
            error = _schema_error(x, schema["items"], "%s[%d]" % (where, i))
            if error:
                return error
    if isinstance(v, dict):
        missing = [k for k in schema.get("required", ()) if k not in v]
        if missing:
            return "%s lacks %s" % (where, ", ".join(missing))
        known = schema.get("properties", {})
        for k, x in v.items():
            sub = known.get(k, schema.get("additionalProperties"))
            error = sub and _schema_error(x, sub, "%s.%s" % (where, k))
            if error:
                return error
    return None


def report_from_document(doc) -> ReductionReport:
    """Rebuild a reduction report from a reduce command's JSON document.

    Raises ValueError, naming a fault, unless the schema accepts doc, its
    command is "reduce" and its integers fit the int-to-str digit limit.
    """
    error = _schema_error(doc, _schema()["definitions"]["reduce"])
    if error:
        raise ValueError(error)
    # int() reads each value the schema types integer or bigint
    opts = doc["options"]
    return ReductionReport(
        r_in=int(doc["r_in"]), r_out=int(doc["r_out"]),
        s_in=int(doc["s_in"]), s_out=int(doc["s_out"]),
        cycles=int(doc["cycles"]),
        matrix_class=MatrixClass(doc["classification"]),
        options=CubifyOptions(
            method=int(opts["method"]), lagrange=opts["lagrange"],
            simplification=opts["simplification"],
            pre_hyperplanar=opts["pre_hyperplanar"],
            max_cycles=int(opts["max_cycles"])),
        auto=doc["auto"],
        transform=tuple(tuple(map(int, row)) for row in doc["transform"]),
        timings=doc["timings"],
        r_history=[int(r) for r in doc["r_history"]],
        pre_pass_applied=doc["pre_pass_applied"],
        max_cycles_exhausted=doc["max_cycles_exhausted"])


def _emit(doc):
    print(json.dumps(doc, indent=2, sort_keys=True))


def _resolve_options(args, basis):
    """Auto options for the input, overridden by whichever flags were given."""
    overrides = {}
    if args.method not in (None, "auto"):
        overrides["method"] = int(args.method)
    if args.lagrange is not None:
        overrides["lagrange"] = Variant(args.lagrange)
    if args.simplify is not None:
        overrides["simplification"] = Variant(args.simplify)
    if args.pre_hyperplanar:
        overrides["pre_hyperplanar"] = True
    if args.max_cycles is not None:
        overrides["max_cycles"] = args.max_cycles
    if not overrides:
        return None
    base = default_options(classify(basis))
    return dataclasses.replace(base, **overrides)


def cmd_reduce(args) -> int:
    basis = load_matrix(args.input)
    options = _resolve_options(args, basis)
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        # fail before the reduction, not after it
        raise MatrixParseError("cannot write %s: no such directory" % args.out)
    reduced, report = cubify(basis, options)
    # format every integer before writing anything
    matrix = format_matrix(reduced)
    doc = report_document(report, basis, path=args.input)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(matrix)
        except OSError as exc:
            raise MatrixParseError("cannot write %s: %s" % (args.out, exc)) \
                from None
    if args.json:
        _emit(doc)
    else:
        print("class: %s%s" % (report.matrix_class.value,
                               " (auto)" if report.auto else ""))
        print("options: method %d, lagrange %s, simplification %s%s" % (
            report.options.method, report.options.lagrange.value,
            report.options.simplification.value,
            ", pre-hyperplanar" if report.pre_pass_applied else ""))
        print("R: %d -> %d" % (report.r_in, report.r_out))
        print("S: %d -> %d" % (report.s_in, report.s_out))
        print("cycles: %d" % report.cycles)
        print("time: %.3fs" % report.timings.get("total", 0.0))
        if not args.out:
            print(matrix, end="")
    return 0


def cmd_compare(args) -> int:
    basis = load_matrix(args.input)
    # measure raises unless each output checks out against its transform
    cub, lll = measure(basis, ALGORITHMS)
    docs = {rec.algorithm: {"r_out": _jint(rec.r_out), "s_out": _jint(rec.s_out),
                            "verified": True, "seconds": rec.seconds}
            for rec in (cub, lll)}
    docs["cubify"].update({"cycles": cub.report.cycles,
                           "options": _options_doc(cub.report.options)})
    docs["lll"]["alpha"] = str(LLL_ALPHA)

    if args.json:
        _emit({"schema": SCHEMA, "command": "compare",
               "input": _input_doc(basis, args.input),
               "classification": cub.report.matrix_class.value,
               "r_in": _jint(cub.r_in), "s_in": _jint(cub.s_in),
               "cubify": docs["cubify"], "lll": docs["lll"]})
    else:
        print("input:  R %d, S %d" % (cub.r_in, cub.s_in))
        for name in ALGORITHMS:
            d = docs[name]
            print("%-7s R %s, S %s, %.3fs" % (
                name + ":", d["r_out"], d["s_out"], d["seconds"]))
    return 0


def cmd_bench(args) -> int:
    spec = GeneratorSpec(family=args.family, dim=args.dim,
                         entry_range=(args.min, args.max), seed=args.seed)
    algorithms = ALGORITHMS if args.algorithm == "both" else (args.algorithm,)
    result = run_battery(spec, args.count, algorithms)
    if args.json:
        _emit({
            "schema": SCHEMA,
            "command": "bench",
            "generator": {"family": spec.family, "dim": spec.dim,
                          "entry_range": list(spec.entry_range),
                          "seed": spec.seed},
            "count": args.count,
            "algorithms": list(algorithms),
            "summary": result.summary(),
            "flags": list(result.flags),
            "records": [{"algorithm": rec.algorithm, "seed": rec.seed,
                         "r_in": _jint(rec.r_in), "r_out": _jint(rec.r_out),
                         "s_in": _jint(rec.s_in), "s_out": _jint(rec.s_out),
                         "seconds": rec.seconds}
                        for rec in result.records],
        })
    else:
        print("%s %dx%d, %d matrices, seeds %d..%d" % (
            spec.family, spec.dim, spec.dim, args.count,
            spec.seed, spec.seed + args.count - 1))
        for alg in algorithms:
            print("%-7s mean R factor %.2f, mean S factor %.2f, %.3fs/matrix" % (
                alg + ":", result.mean_r_factor(alg),
                result.mean_s_factor(alg), result.mean_seconds(alg)))
        for flag in result.flags:
            print("flag: %s" % flag)
    return 0


def cmd_verify(args) -> int:
    original = load_matrix(args.original)
    reduced = load_matrix(args.reduced)
    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: bad JSON or UTF-8, or an integer literal past the
        # int-to-str digit limit; the decoder recurses once per nesting level
        raise MatrixParseError("cannot read report %s: %s" % (args.report, exc)) \
            from None
    try:
        report = report_from_document(doc)
    except ValueError as exc:
        raise MatrixParseError("malformed report %s: %s" % (args.report, exc)) \
            from None
    problems = verify_problems(original, reduced, report)
    if args.json:
        _emit({"schema": SCHEMA, "command": "verify",
               "ok": not problems, "problems": problems})
    else:
        if problems:
            for p in problems:
                print("problem: %s" % p)
        else:
            print("ok")
    return 0 if not problems else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubify",
        description="Exact lattice basis reduction driven by rhombicity.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduce one matrix file")
    p.add_argument("input")
    p.add_argument("--method", choices=("auto", "1", "2"), default="auto")
    p.add_argument("--lagrange", choices=[v.value for v in Variant])
    p.add_argument("--simplify", choices=[v.value for v in Variant])
    p.add_argument("--pre-hyperplanar", action="store_true")
    p.add_argument("--max-cycles", type=int, metavar="K")
    p.add_argument("--out", metavar="PATH",
                   help="write the reduced matrix to this file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("compare", help="reduce with cubify and LLL, report both")
    p.add_argument("input")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("bench", help="run a seeded reduction battery")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min", type=int, default=0, metavar="LO")
    p.add_argument("--max", type=int, default=100, metavar="HI")
    p.add_argument("--algorithm", choices=ALGORITHMS + ("both",),
                   default="both")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="check a reduced matrix against its report")
    p.add_argument("original")
    p.add_argument("reduced")
    p.add_argument("report")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "reduce":
        if args.max_cycles is not None and args.max_cycles < 1:
            parser.error("--max-cycles must be positive")
    if args.command == "bench":
        if args.dim < 2:
            parser.error("--dim must be at least 2")
        if args.count < 1:
            parser.error("--count must be positive")
        if args.min >= args.max:
            parser.error("--min must be below --max")
    try:
        return args.func(args)
    except MatrixParseError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except SingularBasisError as exc:
        print("error: singular input: %s" % exc, file=sys.stderr)
        return 2
    except GenerationError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except BatteryVerificationError as exc:
        print("error: verification failed: %s" % exc, file=sys.stderr)
        return 4
    except ValueError as exc:
        # str() of an R, S or transform entry past the interpreter's
        # int-to-str digit limit, which bounds parse time and stays on
        if "integer string conversion" not in str(exc):
            raise
        print("error: output too large to print: %s"
              % str(exc).partition(";")[0], file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
