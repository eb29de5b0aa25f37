"""Self-tests for the benchmark; run with  python3 -m pytest perfbench"""

import json
import re
import shutil
import signal
import subprocess
import sys
import time

import pytest

import diff
import run
import speed
import tracer

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
HET20_R, HET20_S = 489734657, 68191151


@pytest.fixture(scope="module")
def cb():
    assert run.ensure_source()
    return run.setup("bigint-columnar", 0).cb


@pytest.fixture(scope="module")
def records():
    """One untraced and one traced record of the cheapest workload."""
    assert run.ensure_source()
    return {t: run.measure("bigint-columnar", 3, 0.01, t)[0] for t in (0, 1)}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_inputs_repeat_for_a_seed_and_change_with_it(cb, name):
    build = run.WORKLOADS[name].build
    first, _ = build(cb, 7, 3)
    again, _ = build(cb, 7, 3)
    other, _ = build(cb, 8, 3)
    assert [b.rows for b in first] == [b.rows for b in again]
    assert [b.rows for b in first] != [b.rows for b in other]


def test_het20_permutations_keep_class_and_invariants(cb):
    cli = sys.modules["cubify.cli"]
    given = cli.load_matrix(run.HET20)
    for seed in range(3):
        mats, layers = run.WORKLOADS["het20"].build(cb, seed, 8)
        assert "cli.load_s" in layers
        for b in mats:
            assert cb.classify(b).value == "large_heterogeneous"
            m = cb.metric_tensor(b)
            assert (cb.rhombicity(m), cb.norm_sum(m)) == (HET20_R, HET20_S)
        assert (mats[0] == given) == (seed == 0)


def test_metric_names_match_benchmark_json(records):
    pattern = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        listed = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        got = {k: m["unit"] for k, m in records[trace]["metrics"].items()}
        assert got == listed
        assert all(pattern.fullmatch(name) for name in got)


def test_context_covers_every_workload_and_layer():
    context = json.loads((run.HERE / "context.json").read_text())
    names = {w["name"] for w in BENCHMARK["workloads"]}
    assert set(context["workloads"]) == names == set(run.WORKLOADS)
    assert set(context["layer_moves"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
    for moves in context["layer_moves"].values():
        assert set(moves["moves"]) <= e2e and set(moves["on"]) <= names


def test_runs_are_correct_and_trace_leaves_no_wrapper(records):
    for rec in records.values():
        assert rec["correct"] and rec["failed"] == 0 and rec["attempted"] >= 2
    assert tracer.installed_wrappers() == []
    assert records[1]["missing_bindings"] == []
    # bigint-columnar loads no file, so the loader layer is absent
    assert records[1]["absent"] == ["cli.load_s"]


def test_untraced_timing_refuses_installed_wrappers():
    assert run.ensure_source()
    st = run.setup("bigint-columnar", 0)
    cb, mats = st.cb, st.mats
    original = cb.cubifier._hyperplanar
    with tracer.Tracer():
        assert cb.cubifier._hyperplanar is not original
        with pytest.raises(RuntimeError, match="wrappers installed"):
            run.untraced_pass(cb, mats, 0.01)
    assert cb.cubifier._hyperplanar is original
    assert run.untraced_pass(cb, mats, 0.01).failed == 0


def test_clock_scales_each_call_by_its_kernel(monkeypatch):
    samples = iter([(2.0, 1.0), (4.0, 3.0), (6.0, 5.0)])
    monkeypatch.setattr(speed, "kernel_s", lambda: next(samples))
    clock = speed.Clock({"lll": "bigint"})
    ref = speed.REFERENCE_S
    # each call is scaled by the mean of the samples that bracket it
    assert clock.scale("cubify", 1.0) == pytest.approx(2 * ref["mixed"] / (3 + 7))
    assert clock.scale("lll", 1.0) == pytest.approx(2 * ref["bigint"] / (3 + 5))
    assert clock.medians() == {"mixed": 7.0, "bigint": 3.0}


def test_clock_samples_inside_a_call_and_leaves_its_time_out(monkeypatch):
    taken = []

    def slow_kernel():
        t0 = time.perf_counter()
        time.sleep(0.01)
        taken.append(time.perf_counter() - t0)
        return 0.002, 0.001
    monkeypatch.setattr(speed, "kernel_s", slow_kernel)
    handler = signal.getsignal(signal.SIGALRM)
    clock = speed.Clock()
    ran = []

    def busy(seconds):
        t0 = time.perf_counter()
        while time.perf_counter() < t0 + seconds:
            pass
        ran.append(time.perf_counter() - t0)
    _, wall, ref = clock.call("cubify", busy, 0.3)
    inner = taken[1:-1]         # the first and last samples bracket the call
    assert len(inner) >= 3
    assert wall == pytest.approx(ran[0] - sum(inner), abs=0.005)
    assert ref == pytest.approx(wall * speed.REFERENCE_S["mixed"] / 0.003)
    assert signal.getsignal(signal.SIGALRM) == handler


def test_missing_binding_is_reported_not_fatal(monkeypatch):
    assert run.ensure_source()
    monkeypatch.setattr(tracer, "TIMED", tracer.TIMED + (
        ("hyperplanar.solve", "cubify.hyperplanar", "no_such_function"),))
    rec, _ = run.measure("bigint-columnar", 0, 0.01, 1)
    assert rec["correct"]
    assert rec["missing_bindings"] == ["cubify.hyperplanar:no_such_function"]
    assert tracer.installed_wrappers() == []


def test_diff_reports_medians_and_deltas(records):
    base = [records[1]]
    new = json.loads(json.dumps(records[1]))
    new["metrics"]["state.replaces"]["value"] *= 0.5
    lines = diff.diff_lines(base, [new])
    row = next(line for line in lines if line.startswith("state.replaces"))
    assert row.split()[-1] == "-50.0%"
    assert lines[0] == "== bigint-columnar (per-layer)"


def test_bare_directory_fails_without_a_result(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        BENCHMARK["command"] + ["--workload", "het20", "--seed", "0",
                                "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout
