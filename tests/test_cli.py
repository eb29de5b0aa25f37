"""CLI end to end: parsing, JSON documents, exit codes."""

import argparse
import contextlib
import copy
import io
import json
import os
import re
import tempfile
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from conftest import B_EXAMPLE
import cubify.bench as bench
from cubify import ALGORITHMS, Basis, Variant, metric_tensor, rhombicity
from cubify.cli import (KEYWORDS, SCHEMA_PATH, MatrixParseError, _TYPES,
                        _jint, _schema_error, build_parser, format_matrix,
                        load_matrix, main, matrix_digest, parse_matrix_text,
                        report_document, report_from_document)
from cubify.cubifier import cubify

SCHEMA = json.loads(Path(SCHEMA_PATH).read_text())


def check_schema(doc):
    jsonschema.validate(doc, SCHEMA)


def write_matrix(tmp_path, rows, name="m.txt"):
    path = tmp_path / name
    path.write_text(format_matrix(rows))
    return str(path)


# ---------------------------------------------------------------- parsing


def test_parse_round_trip():
    text = format_matrix(B_EXAMPLE)
    assert tuple(tuple(r) for r in parse_matrix_text(text)) == B_EXAMPLE


def test_parse_skips_comments_and_blanks():
    text = "# header\n\n1 0\n  # indented comment\n0 1\n\n"
    assert parse_matrix_text(text) == [[1, 0], [0, 1]]


def test_parse_bad_token_position():
    with pytest.raises(MatrixParseError) as exc:
        parse_matrix_text("1 2\n3 x\n")
    assert exc.value.line == 2
    assert exc.value.column == 3
    assert "line 2, column 3" in str(exc.value)


def test_parse_bad_token_column_is_its_own():
    # the bad '-' also occurs inside the good '-1' before it
    with pytest.raises(MatrixParseError) as exc:
        parse_matrix_text("1 0\n-1 -\n")
    assert (exc.value.line, exc.value.column) == (2, 4)


def test_parse_ragged_rows():
    with pytest.raises(MatrixParseError) as exc:
        parse_matrix_text("1 2\n3\n")
    assert exc.value.line == 2


def test_parse_not_square():
    with pytest.raises(MatrixParseError):
        parse_matrix_text("1 2 3\n4 5 6\n")


def test_parse_not_square_blames_the_last_row():
    # the header and the blank line count as lines, not as rows
    with pytest.raises(MatrixParseError) as exc:
        parse_matrix_text("# h\n\n1 2 3\n4 5 6\n")
    assert (exc.value.line, exc.value.column) == (4, 1)


def test_parse_empty():
    with pytest.raises(MatrixParseError):
        parse_matrix_text("# nothing here\n")


def test_load_matrix_missing_file(tmp_path):
    with pytest.raises(MatrixParseError):
        load_matrix(str(tmp_path / "nope.txt"))


def test_matrix_digest_distinguishes():
    assert matrix_digest(B_EXAMPLE) == matrix_digest(Basis(B_EXAMPLE))
    assert matrix_digest(B_EXAMPLE) != matrix_digest(((1, 0), (0, 1)))


def _flag(command, flag):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[command]._actions
                if flag in a.option_strings)


def test_parser_takes_defaults_and_choices_from_the_library():
    assert list(_flag("bench", "--family").choices) == list(bench.FAMILIES)
    assert (list(_flag("bench", "--algorithm").choices)
            == list(ALGORITHMS) + ["both"])
    for flag in ("--lagrange", "--simplify"):
        assert list(_flag("reduce", flag).choices) == [v.value for v in Variant]


# ------------------------------------------------------------ big int policy


def test_jint_policy():
    safe = 2 ** 53 - 1
    assert _jint(safe) == safe
    assert _jint(-safe) == -safe
    assert _jint(safe + 1) == str(safe + 1)
    assert _jint(-(safe + 1)) == str(-(safe + 1))
    for v in (0, 7, safe, safe + 1, -(safe + 123456)):
        assert int(json.loads(json.dumps(_jint(v)))) == v


def test_report_document_round_trip(tmp_path):
    basis = Basis(B_EXAMPLE)
    _, report = cubify(basis)
    doc = report_document(report, basis, path="in.txt")
    check_schema(doc)
    back = report_from_document(json.loads(json.dumps(doc)))
    assert back.r_in == report.r_in and back.r_out == report.r_out
    assert back.s_in == report.s_in and back.s_out == report.s_out
    assert back.transform == report.transform
    assert back.matrix_class is report.matrix_class
    assert back.options == report.options
    assert back.r_history == report.r_history


# ------------------------------------------------------------------ reduce


def test_reduce_human(tmp_path, capsys):
    path = write_matrix(tmp_path, B_EXAMPLE)
    assert main(["reduce", path]) == 0
    out = capsys.readouterr().out
    assert "R: 126 -> 10" in out
    assert "S: 78 -> 8" in out
    assert "class: random (auto)" in out


def test_reduce_json(tmp_path, capsys):
    path = write_matrix(tmp_path, B_EXAMPLE)
    assert main(["reduce", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    check_schema(doc)
    assert doc["command"] == "reduce"
    assert doc["r_in"] == 126 and doc["r_out"] == 10
    assert doc["s_out"] == 8
    assert doc["auto"] is True
    assert doc["verified"] is True
    assert doc["input"]["dim"] == 3
    assert doc["input"]["sha256"] == matrix_digest(B_EXAMPLE)


def test_reduce_out_file(tmp_path, capsys):
    path = write_matrix(tmp_path, B_EXAMPLE)
    out_path = tmp_path / "reduced.txt"
    assert main(["reduce", path, "--out", str(out_path), "--json"]) == 0
    capsys.readouterr()
    reduced = load_matrix(str(out_path))
    assert rhombicity(metric_tensor(reduced)) == 10


def test_reduce_option_overrides(tmp_path, capsys):
    path = write_matrix(tmp_path, B_EXAMPLE)
    assert main(["reduce", path, "--method", "1", "--lagrange", "append",
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    check_schema(doc)
    assert doc["auto"] is False
    assert doc["options"]["method"] == 1
    assert doc["options"]["lagrange"] == "append"
    # unspecified knobs keep the auto value for the class (random -> append)
    assert doc["options"]["simplification"] == "append"


def test_reduce_rejects_bad_max_cycles(tmp_path, capsys):
    path = write_matrix(tmp_path, B_EXAMPLE)
    with pytest.raises(SystemExit) as exc:
        main(["reduce", path, "--max-cycles", "0"])
    assert exc.value.code == 2
    assert "--max-cycles" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["reduce", "compare"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_rejects_a_large_dim_below_one(tmp_path, capsys, command, value):
    path = write_matrix(tmp_path, B_EXAMPLE)
    with pytest.raises(SystemExit) as exc:
        main([command, path, "--large-dim", value])
    assert exc.value.code == 2
    assert "--large-dim" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["reduce", "compare"])
def test_large_dim_is_not_a_flag(tmp_path, capsys, command):
    # the class boundary is the constant cubifier.LARGE_DIM
    path = write_matrix(tmp_path, B_EXAMPLE)
    with pytest.raises(SystemExit) as exc:
        main([command, path, "--large-dim", "15"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_reduce_parse_error_exit(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1 2\n3 oops\n")
    assert main(["reduce", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text, line, column", [
    ("1_0 0\n0 1\n", 1, 1),      # int() reads this as 10
    ("1 0\n0 \u0661\n", 2, 3),  # ARABIC-INDIC DIGIT ONE
    ("\u0663\u0663 0\n0 1\n", 1, 1),
])
def test_reduce_rejects_tokens_that_are_not_ascii_decimals(tmp_path, capsys,
                                                           text, line, column):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["reduce", str(path)]) == 1
    assert "line %d, column %d: not an integer" % (line, column) \
        in capsys.readouterr().err


def test_parse_takes_signed_ascii_decimals():
    assert parse_matrix_text("+1 -2\n-03 4\n") == [[1, -2], [-3, 4]]


def test_reduce_rejects_a_matrix_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"1 0\n0 1 \xff\n")
    assert main(["reduce", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read") and err.count("\n") == 1


def test_reduce_out_into_a_missing_directory_exits_1_before_reducing(
        tmp_path, capsys, monkeypatch):
    path = write_matrix(tmp_path, B_EXAMPLE)
    monkeypatch.setattr("cubify.cli.cubify", None)   # never reached
    out = tmp_path / "missing" / "reduced.txt"
    assert main(["reduce", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and err.count("\n") == 1
    assert not out.parent.exists()


def test_reduce_out_onto_a_directory_exits_1(tmp_path, capsys):
    path = write_matrix(tmp_path, B_EXAMPLE)
    assert main(["reduce", path, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and err.count("\n") == 1


#: a 1x1 entry the parser takes whose square, R and S, has more digits
#: than the interpreter's int-to-str limit (4300 by default)
HUGE = 10 ** 2500 + 7


def assert_too_large_to_print(capsys):
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith("error: output too large to print")
    assert cap.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["reduce"], ["reduce", "--json"],
                                  ["compare"], ["compare", "--json"]])
def test_an_output_past_the_digit_limit_exits_1(tmp_path, capsys, argv):
    path = write_matrix(tmp_path, [[HUGE]])
    assert main(argv + [path]) == 1
    assert_too_large_to_print(capsys)


def test_reduce_out_past_the_digit_limit_writes_nothing(tmp_path, capsys):
    path = write_matrix(tmp_path, [[HUGE]])
    out = tmp_path / "reduced.txt"
    assert main(["reduce", path, "--out", str(out)]) == 1
    assert_too_large_to_print(capsys)
    assert not out.exists()


def test_verify_problem_past_the_digit_limit_exits_1(tmp_path, capsys):
    # the report of [[3]] claims R = 9; the recomputed R = HUGE² is too
    # long for the problem line
    _, _, rep_path = run_reduce_to_files(tmp_path, capsys, [[3]])
    path = write_matrix(tmp_path, [[HUGE]], "huge.txt")
    assert main(["verify", path, path, rep_path]) == 1
    assert_too_large_to_print(capsys)


def test_reduce_singular_exit(tmp_path, capsys):
    path = write_matrix(tmp_path, ((1, 2), (2, 4)))
    assert main(["reduce", path]) == 2
    assert "singular" in capsys.readouterr().err


# ----------------------------------------------------------------- compare


def test_compare_json(tmp_path, capsys):
    path = write_matrix(tmp_path, B_EXAMPLE)
    assert main(["compare", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    check_schema(doc)
    assert doc["r_in"] == 126
    assert doc["cubify"]["r_out"] == 10
    assert doc["cubify"]["verified"] is True
    assert doc["lll"]["verified"] is True
    assert doc["lll"]["alpha"] == "3/4"


def _lll_with_a_doubled_row(monkeypatch):
    lll = bench._lll

    def doubled(b, alpha):
        reduced, t = lll(b, alpha)
        rows = (tuple(2 * x for x in reduced.rows[0]),) + reduced.rows[1:]
        return Basis(rows), t

    monkeypatch.setattr(bench, "_lll", doubled)


def test_compare_exits_4_when_a_check_fails(tmp_path, capsys, monkeypatch):
    _lll_with_a_doubled_row(monkeypatch)
    path = write_matrix(tmp_path, B_EXAMPLE)
    assert main(["compare", path, "--json"]) == 4
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith("error: verification failed: lll failed its "
                              "check on the input: ")


# ------------------------------------------------------------------- bench


def test_bench_json(capsys):
    assert main(["bench", "--family", "full", "--dim", "4", "--count", "2",
                 "--seed", "5", "--min", "-9", "--max", "9", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    check_schema(doc)
    assert doc["generator"] == {"family": "full", "dim": 4,
                                "entry_range": [-9, 9], "seed": 5}
    assert len(doc["records"]) == 4
    assert {rec["algorithm"] for rec in doc["records"]} == {"cubify", "lll"}
    assert doc["flags"] == []


def test_bench_single_algorithm(capsys):
    assert main(["bench", "--family", "columnar", "--dim", "4", "--count", "2",
                 "--algorithm", "lll", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    check_schema(doc)
    assert doc["algorithms"] == ["lll"]
    assert list(doc["summary"]) == ["lll"]


def test_bench_rejects_bad_dim(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--family", "full", "--dim", "1", "--count", "2"])
    assert exc.value.code == 2


def test_bench_rejects_bad_count(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--family", "full", "--dim", "4", "--count", "0"])
    assert exc.value.code == 2


def test_bench_rejects_empty_entry_range(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--family", "full", "--dim", "3", "--count", "1",
              "--min", "5", "--max", "5"])
    assert exc.value.code == 2
    assert "--min" in capsys.readouterr().err


def test_bench_exits_4_when_a_check_fails(capsys, monkeypatch):
    _lll_with_a_doubled_row(monkeypatch)
    assert main(["bench", "--family", "full", "--dim", "4", "--count", "2",
                 "--seed", "5"]) == 4
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith("error: verification failed: lll failed its "
                              "check on seed 5: ")


# ------------------------------------------------------------------ verify


def run_reduce_to_files(tmp_path, capsys, rows=B_EXAMPLE):
    in_path = write_matrix(tmp_path, rows, "in.txt")
    out_path = tmp_path / "out.txt"
    assert main(["reduce", in_path, "--out", str(out_path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    rep_path = tmp_path / "report.json"
    rep_path.write_text(json.dumps(doc))
    return in_path, str(out_path), str(rep_path)


def test_verify_ok(tmp_path, capsys):
    in_path, out_path, rep_path = run_reduce_to_files(tmp_path, capsys)
    assert main(["verify", in_path, out_path, rep_path]) == 0
    assert capsys.readouterr().out.strip() == "ok"
    assert main(["verify", in_path, out_path, rep_path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    check_schema(doc)
    assert doc["ok"] is True and doc["problems"] == []


def test_verify_tampered_matrix(tmp_path, capsys):
    in_path, out_path, rep_path = run_reduce_to_files(tmp_path, capsys)
    rows = [list(r) for r in parse_matrix_text(Path(out_path).read_text())]
    rows[0][0] += 1
    Path(out_path).write_text(format_matrix(rows))
    assert main(["verify", in_path, out_path, rep_path]) == 4
    assert "problem:" in capsys.readouterr().out


def test_verify_tampered_report(tmp_path, capsys):
    in_path, out_path, rep_path = run_reduce_to_files(tmp_path, capsys)
    doc = json.loads(Path(rep_path).read_text())
    doc["r_out"] = doc["r_out"] + 1
    Path(rep_path).write_text(json.dumps(doc))
    assert main(["verify", in_path, out_path, rep_path, "--json"]) == 4
    out = json.loads(capsys.readouterr().out)
    check_schema(out)
    assert out["ok"] is False and out["problems"]


def test_verify_malformed_report(tmp_path, capsys):
    in_path, out_path, rep_path = run_reduce_to_files(tmp_path, capsys)
    Path(rep_path).write_text("{not json")
    assert main(["verify", in_path, out_path, rep_path]) == 1


def test_verify_rejects_a_report_that_is_not_utf8(tmp_path, capsys):
    in_path, out_path, rep_path = run_reduce_to_files(tmp_path, capsys)
    Path(rep_path).write_bytes(b'{"schema": "\xff"}')
    assert main(["verify", in_path, out_path, rep_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read report") and err.count("\n") == 1


def test_verify_rejects_a_report_nested_too_deeply(tmp_path, capsys):
    in_path, out_path, rep_path = run_reduce_to_files(tmp_path, capsys)
    Path(rep_path).write_text("[" * 200_000 + "]" * 200_000)
    assert main(["verify", in_path, out_path, rep_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read report") and err.count("\n") == 1


def test_verify_rejects_a_report_with_an_integer_past_the_digit_limit(
        tmp_path, capsys):
    # json.load raises a plain ValueError for a literal past the
    # interpreter's int-to-str digit limit (4300 digits by default)
    in_path, out_path, rep_path = run_reduce_to_files(tmp_path, capsys)
    doc = json.loads(Path(rep_path).read_text())
    text = json.dumps({**doc, "cycles": 0})
    Path(rep_path).write_text(text.replace('"cycles": 0', '"cycles": '
                                           + "1" * 5000))
    assert main(["verify", in_path, out_path, rep_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read report") and err.count("\n") == 1


def _verify_edited_report(tmp_path, capsys, edit):
    in_path, out_path, rep_path = run_reduce_to_files(tmp_path, capsys)
    doc = json.loads(Path(rep_path).read_text())
    Path(rep_path).write_text(json.dumps(edit(doc)))
    code = main(["verify", in_path, out_path, rep_path])
    return code, capsys.readouterr()


@pytest.mark.parametrize("key, value", [("schema", "cubify-report/2"),
                                        ("command", "compare")])
def test_verify_rejects_foreign_report(tmp_path, capsys, key, value):
    code, cap = _verify_edited_report(tmp_path, capsys,
                                      lambda d: {**d, key: value})
    assert code == 1
    assert "malformed report" in cap.err and repr(value) in cap.err


@pytest.mark.parametrize(
    "key", SCHEMA["definitions"]["reduce"]["required"]
    + ["options." + k for k in SCHEMA["definitions"]["options"]["required"]])
def test_verify_rejects_report_missing_a_required_key(tmp_path, capsys, key):
    def drop(doc):
        outer, _, inner = key.partition(".")
        if inner:
            del doc[outer][inner]
        else:
            del doc[outer]
        return doc

    code, cap = _verify_edited_report(tmp_path, capsys, drop)
    assert code == 1
    assert "malformed report" in cap.err


def test_verify_rejects_non_object_report(tmp_path, capsys):
    code, cap = _verify_edited_report(tmp_path, capsys, lambda d: [d])
    assert code == 1
    assert "not a JSON object" in cap.err


@pytest.mark.parametrize("key, value", [
    ("r_in", [1]), ("r_in", 1.5), ("r_in", True), ("r_in", "1_000"),
    ("cycles", None), ("r_in", False), ("r_in", None), ("r_in", "+1"),
    ("r_in", " 1"), ("r_in", "\u0661"), ("r_in", "1\n\n")])
def test_verify_rejects_a_non_integer_field(tmp_path, capsys, key, value):
    # a bigint string is ASCII digits after an optional "-", and "$" in
    # its pattern matches before one final newline only
    code, cap = _verify_edited_report(tmp_path, capsys,
                                      lambda d: {**d, key: value})
    assert code == 1
    assert "malformed report" in cap.err and repr(value) in cap.err


@pytest.mark.parametrize("key, value", [
    ("r_history", "12"), ("options.method", True), ("options.max_cycles", 2.5),
    ("options.pre_hyperplanar", "yes"), ("auto", "x"), ("pre_pass_applied", 3),
    ("max_cycles_exhausted", None), ("timings", [1]), ("verified", "yes"),
    ("input", 5), ("input", {"sha256": "zz", "dim": 0}), ("input.path", 5),
    ("timings", {"total": "fast"}), ("transform", []), ("transform", [[]]),
    ("transform", ["12"]), ("cycles", -1), ("input.dim", 0)])
def test_verify_rejects_a_field_the_schema_rejects(tmp_path, capsys, key, value):
    def edit(doc):
        outer, _, inner = key.partition(".")
        if inner:
            doc[outer][inner] = value
        else:
            doc[outer] = value
        with pytest.raises(jsonschema.ValidationError):
            check_schema(doc)
        return doc

    code, cap = _verify_edited_report(tmp_path, capsys, edit)
    assert code == 1
    assert "malformed report" in cap.err


@pytest.mark.parametrize("key, form", [
    *(pytest.param(key, float, id=key) for key in (
        "cycles", "input.dim", "options.max_cycles", "options.method",
        "r_in")),
    # the pattern matches by search, where "$" also matches before a final
    # newline: a transform entry such as "-4\n" is a bigint
    pytest.param("transform",
                 lambda m: [["%d\n" % x for x in row] for row in m],
                 id="transform-newline")])
def test_verify_reads_an_integral_float_the_schema_accepts(tmp_path, capsys,
                                                            key, form):
    # draft-07's integer type (and so the bigint) accepts 3.0 as well as 3
    def edit(doc):
        outer, _, inner = key.partition(".")
        owner = doc[outer] if inner else doc
        name = inner or outer
        before = owner[name]
        owner[name] = form(before)
        assert json.dumps(owner[name]) != json.dumps(before)
        check_schema(doc)
        return doc

    code, cap = _verify_edited_report(tmp_path, capsys, edit)
    assert code == 0
    assert cap.out.strip() == "ok"


# ----------------------------------------- report parser against the schema


def _json_output(argv):
    """The document a CLI command prints with --json."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv + ["--json"])
    return json.loads(out.getvalue())


def _base_documents():
    """Valid documents: reduce documents with small entries, and with
    entries past 2^53 whose R, S and transform entries are written as
    decimal strings; for the latter, a compare document and the verify
    document of a report whose r_out is off by one; and a bench document."""
    docs = []
    for rows in (B_EXAMPLE, [[10 ** 30 + 7, 3], [5, 10 ** 29 + 1]]):
        basis = Basis(rows)
        reduced, report = cubify(basis)
        doc = report_document(report, basis, path="m.txt")
        docs.append(json.loads(json.dumps(doc)))
    with tempfile.TemporaryDirectory() as tmp:
        in_path, out_path, rep_path = (os.path.join(tmp, name)
                                       for name in ("in", "out", "report"))
        Path(in_path).write_text(format_matrix(basis))
        Path(out_path).write_text(format_matrix(reduced))
        Path(rep_path).write_text(json.dumps(
            {**doc, "r_out": str(report.r_out + 1)}))
        docs.append(_json_output(["compare", in_path]))
        docs.append(_json_output(["verify", in_path, out_path, rep_path]))
    docs.append(_json_output(["bench", "--family", "full", "--dim", "3",
                              "--count", "1", "--min", "-5", "--max", "5"]))
    return docs


BASE_DOCS = _base_documents()
SHA = BASE_DOCS[0]["input"]["sha256"]

#: enum members, their neighbours and values of the wrong type
ENUM_POOL = ["append", "insert", "Append", "insert ", "random",
             "small_columnar", "large_heterogeneous", "columnar", "reduce",
             "verify", "compare", "bench", "full", "cubify", "lll",
             "cubify-report/1", "cubify-report/2", 0, 1, 2, 3, 1.0, 2.0,
             True, False, None]
TEXT = st.one_of(
    st.text(alphabet="0123456789-+ _\nabcdefA", max_size=6),
    st.sampled_from([SHA, SHA + "\n", SHA.upper(), SHA[:-1], "12\n", "007",
                     "-0", "١٢"]))
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.integers(-10 ** 40, 10 ** 40), st.sampled_from([0.0, 2.0, -1.0, 1.5,
                                                       1e300]),
    TEXT, st.sampled_from(ENUM_POOL))
VALUES = st.recursive(
    SCALARS, lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["total", "sha256", "dim", "path",
                                         "method", "x"]), inner, max_size=3)),
    max_leaves=6)


def _subschemas(schema):
    """schema and every schema draft-07 nests in it, in order."""
    yield schema
    for key in ("definitions", "properties"):
        for sub in schema.get(key, {}).values():
            yield from _subschemas(sub)
    for sub in schema.get("oneOf", []) + [schema[key] for key in (
            "items", "additionalProperties") if key in schema]:
        yield from _subschemas(sub)


#: every key a schema object names, and one it does not
KEYS = st.one_of(st.sampled_from(sorted(
    {k for sub in _subschemas(SCHEMA) for k in sub.get("properties", {})})
    + ["extra"]), st.text(max_size=4))

#: a bigint string short enough to read as a float
_DECIMAL_TEXT = re.compile(r"-?[0-9]{1,300}")


def _paths(node, prefix=()):
    """Every position in a JSON tree, as a tuple of keys and indices."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def _mutate(draw, doc):
    """One drawn edit of doc in place: drop, add or retype a value, change
    it to another enum member, make a list ragged, or write an integer as
    an integral float or a decimal string."""
    path = draw(st.sampled_from(list(_paths(doc))[1:]), label="path")
    *outer, last = path
    parent = doc
    for step in outer:
        parent = parent[step]
    value = parent[last]
    kind = draw(st.sampled_from(("drop", "add", "retype", "enum", "ragged",
                                 "float", "string")), label="kind")
    if kind == "drop":
        del parent[last]
    elif kind == "add":
        if isinstance(value, dict):
            value[draw(KEYS, label="key")] = draw(VALUES, label="value")
        else:
            parent[last] = draw(VALUES, label="value")
    elif kind == "retype":
        parent[last] = draw(VALUES, label="value")
    elif kind == "enum":
        parent[last] = draw(st.sampled_from(ENUM_POOL), label="member")
    elif kind == "ragged":
        if isinstance(value, list) and value and draw(st.booleans(),
                                                     label="shorten"):
            value.pop(draw(st.integers(0, len(value) - 1), label="index"))
        elif isinstance(value, list):
            value.append(draw(VALUES, label="item"))
        else:
            parent[last] = [value]
    elif isinstance(value, int) and not isinstance(value, bool):
        if kind == "float" and abs(value) < 1e300:
            parent[last] = float(value)
        elif kind == "string":
            parent[last] = str(value)
    elif isinstance(value, str) and _DECIMAL_TEXT.fullmatch(value):
        parent[last] = int(value) if kind == "string" else float(value)


def test_base_documents_are_valid():
    assert sorted(doc["command"] for doc in BASE_DOCS) == [
        "bench", "compare", "reduce", "reduce", "verify"]
    for doc in BASE_DOCS:
        check_schema(doc)
        assert _schema_error(doc, SCHEMA) is None


@settings(max_examples=1000, deadline=None)
@given(base=st.sampled_from(BASE_DOCS), data=st.data())
def test_report_parser_accepts_exactly_what_the_schema_accepts(base, data):
    doc = copy.deepcopy(base)
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        _mutate(data.draw, doc)
    valid = jsonschema.Draft7Validator(SCHEMA).is_valid(doc)
    assert (_schema_error(doc, SCHEMA) is None) == valid
    try:
        report_from_document(copy.deepcopy(doc))
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == (valid and doc["command"] == "reduce")


@pytest.mark.parametrize("schema, values", [
    ({"type": "integer"}, [3, -3, 3.0, 3.5, True, "3", None]),
    ({"type": "number"}, [3, 1.5, 1e300, True, "1"]),
    ({"type": "boolean"}, [True, False, 0, 1, None]),
    ({"type": "string"}, ["", "x", 1, ["x"]]),
    ({"type": "array"}, [[], [1], {}, "ab"]),
    ({"type": "object"}, [{}, {"a": 1}, [], None]),
    ({"enum": [1, 2]}, [1, 1.0, 2, 3, True, "1", [1]]),
    ({"const": "x"}, ["x", "y", ["x"], None]),
    ({"minimum": 1}, [0, 1, 0.5, 2.0, "0", [0]]),
    ({"pattern": "^-?[0-9]+$"}, ["12", "-0", "12\n", "12\n\n", "+1", "\u0661",
                                 12]),
    ({"minItems": 1, "maxItems": 2}, [[], [1], [1, 2], [1, 2, 3], "abc"]),
    ({"items": {"type": "integer"}}, [[], [1, 2], [1, "2"], "x"]),
    ({"required": ["a"]}, [{"a": None}, {}, {"b": 1}, ["a"]]),
    ({"properties": {"a": {"type": "integer"}},
      "additionalProperties": {"type": "string"}},
     [{}, {"a": 1, "b": "x"}, {"a": "1"}, {"b": 1}, [1]]),
    # 1 matches both forms, so oneOf rejects it
    ({"oneOf": [{"type": "integer"}, {"minimum": 0}]}, [1, -1, 0.5, "x"]),
])
def test_each_keyword_reads_as_draft_07_reads_it(schema, values):
    for v in values:
        assert ((_schema_error(v, schema) is None)
                == jsonschema.Draft7Validator(schema).is_valid(v)), v


def test_the_interpreter_reads_every_keyword_the_schema_uses():
    annotations = {"$schema", "$id", "title", "description", "definitions"}
    for sub in _subschemas(SCHEMA):
        # no boolean schemas, and nothing the interpreter would skip
        assert isinstance(sub, dict), sub
        assert set(sub) <= set(KEYWORDS) | annotations, sub
        assert sub.get("type", "object") in _TYPES, sub
        # its enum and const equality is draft-07's for scalars only
        for member in sub.get("enum", []) + [sub.get("const")]:
            assert isinstance(member, (str, int, float, type(None))), sub
