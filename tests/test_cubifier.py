"""Classification, the cycle driver, and reduction verification."""

import random
from dataclasses import replace

import pytest

from cubify import (AUTO_OPTIONS, CubifyOptions, GeneratorSpec, MatrixClass,
                    SingularBasisError, Variant, classify, cubifier, cubify,
                    default_options, det, generate, lattice_equal,
                    metric_tensor, norm_sum, rhombicity, verify,
                    verify_problems)
from cubify._state import BasisState
from cubify.cli import load_matrix
from cubify.cubifier import transform_problems

from _helpers import DATA, random_unimodular
from conftest import B_EXAMPLE


def _columnar(n, column):
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, v in enumerate(column):
        rows[i][n - 1] = v
    return rows


def test_classify_columnar_generator_output_is_random():
    b = generate(GeneratorSpec(family="columnar", dim=10, seed=5))
    assert classify(b) is MatrixClass.RANDOM


def test_classify_dense_uniform_is_random():
    b = generate(GeneratorSpec(family="full", dim=10, seed=5))
    assert classify(b) is MatrixClass.RANDOM


def test_classify_fixture_is_large_heterogeneous():
    b = load_matrix(DATA / "heterogeneous_20x20.txt")
    assert classify(b) is MatrixClass.LARGE_HETEROGENEOUS


def test_classify_columnar_by_size():
    col = [1000 + 7 * i for i in range(16)]
    assert classify(_columnar(16, col)) is MatrixClass.LARGE_COLUMNAR
    assert classify(_columnar(10, col[:10])) is MatrixClass.SMALL_COLUMNAR
    assert classify(_columnar(15, col[:15])) is MatrixClass.LARGE_COLUMNAR
    assert classify(_columnar(14, col[:14])) is MatrixClass.SMALL_COLUMNAR


def test_classify_small_heterogeneous_folds_into_small_columnar():
    # dense high-value rows plus a heavy column, but below the size boundary
    rows = _columnar(8, [900, 800, 700, 600, 500, 400, 300, 200])
    rows[0] = [301, -205, 107, 409, -513, 208, 611, 900]
    assert classify(rows) is MatrixClass.SMALL_COLUMNAR


def test_auto_option_table():
    assert AUTO_OPTIONS[MatrixClass.SMALL_COLUMNAR] == CubifyOptions(
        method=1, lagrange=Variant.INSERT, simplification=Variant.INSERT)
    assert AUTO_OPTIONS[MatrixClass.LARGE_COLUMNAR] == CubifyOptions(
        method=1, lagrange=Variant.APPEND, simplification=Variant.INSERT)
    assert AUTO_OPTIONS[MatrixClass.LARGE_HETEROGENEOUS] == CubifyOptions(
        method=1, lagrange=Variant.INSERT, simplification=Variant.INSERT,
        pre_hyperplanar=True)
    assert AUTO_OPTIONS[MatrixClass.RANDOM] == CubifyOptions(
        method=2, lagrange=Variant.APPEND, simplification=Variant.APPEND)
    assert default_options("random") is AUTO_OPTIONS[MatrixClass.RANDOM]


def test_options_validation():
    with pytest.raises(ValueError):
        CubifyOptions(method=3)
    with pytest.raises(ValueError):
        CubifyOptions(max_cycles=0)
    for bad in ({"method": True}, {"method": 1.0}, {"max_cycles": 2.5},
                {"max_cycles": True}, {"pre_hyperplanar": "yes"},
                {"pre_hyperplanar": 1}):
        with pytest.raises(ValueError):
            CubifyOptions(**bad)
    opts = CubifyOptions(lagrange="append", simplification="insert")
    assert opts.lagrange is Variant.APPEND


def test_cubify_identity_one_cycle():
    eye = tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
    for options in (None, CubifyOptions(method=2)):
        out, rep = cubify(eye, options)
        assert out.rows == eye
        assert rep.cycles == 1
        assert rep.r_in == rep.r_out == rep.s_in == rep.s_out == 4


def test_cubify_worked_example_auto():
    out, rep = cubify(B_EXAMPLE)
    assert rep.auto
    assert rep.matrix_class is MatrixClass.RANDOM
    assert rep.options.method == 2
    assert (rep.r_in, rep.s_in) == (126, 78)
    assert (rep.r_out, rep.s_out) == (10, 8)
    m = metric_tensor(out)
    assert rhombicity(m) == 10 and norm_sum(m) == 8
    ok, z = lattice_equal(out, B_EXAMPLE)
    assert ok
    assert rep.transform == z


def test_cubify_worked_example_method_one():
    opts = CubifyOptions(method=1, lagrange=Variant.INSERT,
                         simplification=Variant.INSERT)
    out, rep = cubify(B_EXAMPLE, opts)
    assert not rep.auto
    assert rep.r_out <= 10
    ok, _ = lattice_equal(B_EXAMPLE, out)
    assert ok


def test_cubify_r_history_is_strictly_decreasing():
    rng = random.Random(401)
    for _ in range(20):
        n = rng.randrange(3, 7)
        scr = random_unimodular(n, rng)
        _, rep = cubify(scr)
        h = rep.r_history
        assert len(h) == rep.cycles + 1
        for i in range(len(h) - 2):
            assert h[i + 1] < h[i]
        assert h[-1] <= h[-2]
        if not rep.max_cycles_exhausted:
            assert h[-1] == h[-2]
            assert h[-1] == rep.r_out


def test_cubify_max_cycles_exhaustion():
    out, rep = cubify(B_EXAMPLE, CubifyOptions(method=2, max_cycles=1))
    assert rep.max_cycles_exhausted
    assert rep.cycles == 1
    assert rep.r_out < rep.r_in
    ok, _ = lattice_equal(B_EXAMPLE, out)
    assert ok


def test_cubify_pre_pass_flagged():
    _, rep = cubify(B_EXAMPLE, CubifyOptions(method=1, pre_hyperplanar=True))
    assert rep.pre_pass_applied
    assert rep.timings["pre_hyperplanar"] >= 0.0
    _, rep = cubify(B_EXAMPLE)
    assert not rep.pre_pass_applied


def test_cubify_rejects_singular():
    with pytest.raises(SingularBasisError):
        cubify(((1, 2, 3), (2, 4, 6), (0, 0, 1)))


def _cubify_corrupted_at_exit(monkeypatch, corrupt):
    # the single allowed cycle makes progress, so its state is returned
    # and no debug check runs on it; the state is corrupted right after
    # the run's last (and only) pass, so only the exit check can notice
    inner = cubifier._hyperplanar

    def corrupted(state, *args, **kwargs):
        inner(state, *args, **kwargs)
        corrupt(state)

    monkeypatch.setattr(cubifier, "_hyperplanar", corrupted)
    cubify(B_EXAMPLE, CubifyOptions(method=1, max_cycles=1))


def test_exit_check_catches_a_transform_entry(monkeypatch):
    dets = []

    def corrupt(state):
        state.trans[-1][0] += 1
        dets.append(det(state.trans))

    with pytest.raises(AssertionError, match="metric tensor"):
        _cubify_corrupted_at_exit(monkeypatch, corrupt)
    # still unimodular: only the metric tensor comparison can catch it
    assert [abs(d) for d in dets] == [1]


def test_exit_check_catches_a_gram_entry(monkeypatch):
    def corrupt(state):
        state.gram[0][1] += 1

    with pytest.raises(AssertionError, match="metric tensor"):
        _cubify_corrupted_at_exit(monkeypatch, corrupt)


def test_exit_check_catches_a_scaled_transform_row(monkeypatch):
    # row 0 doubled with a matching metric tensor: only the determinant
    # check can tell the doubled lattice from the input's
    def corrupt(state):
        state.trans[0] = [2 * x for x in state.trans[0]]
        g = state.gram
        for j in range(len(g)):
            g[0][j] *= 2
            g[j][0] *= 2

    with pytest.raises(AssertionError, match="unimodular"):
        _cubify_corrupted_at_exit(monkeypatch, corrupt)


def _count_passes(monkeypatch, fault=None, at=None):
    """Patch cubifier._hyperplanar to count its calls in the returned list,
    and to apply fault to the state right after call number at."""
    passes = []
    inner = cubifier._hyperplanar

    def counted(state, *args, **kwargs):
        inner(state, *args, **kwargs)
        if len(passes) == at:
            fault(state)
        passes.append(state)

    monkeypatch.setattr(cubifier, "_hyperplanar", counted)
    return passes


FULL_12 = GeneratorSpec("full", 12, (0, 100), seed=1_000_000)


def test_a_gram_fault_after_any_pass_is_caught(monkeypatch):
    # three cycles (progress, progress, rollback) and four passes: a
    # corrupted symmetric Gram pair stays off the rows' metric tensor
    # through every later step, and whichever cycle-end state carries it,
    # discarded, replaced or returned, is checked
    b = generate(FULL_12)
    passes = _count_passes(monkeypatch)
    _, rep = cubify(b)
    assert (rep.cycles, len(passes)) == (3, 4)

    def fault(state):
        state.gram[0][1] += 1
        state.gram[1][0] += 1

    for at in range(len(passes)):
        with pytest.MonkeyPatch.context() as mp:
            _count_passes(mp, fault, at)
            with pytest.raises(AssertionError):
                cubify(b)


def test_the_returned_state_is_left_to_the_exit_check(monkeypatch):
    # every cycle-end state but the returned one gets one debug check: the
    # first cycle's once the second replaces it, and the third's, which
    # the rollback discards
    checked = []
    inner = BasisState.consistent

    def counted(self):
        checked.append(self.r)
        return inner(self)

    monkeypatch.setattr(BasisState, "consistent", counted)
    _, rep = cubify(generate(FULL_12))
    assert rep.cycles == 3
    assert len(checked) == rep.cycles - 1
    r_in, first, returned, discarded = rep.r_history
    assert rep.r_out == returned
    assert checked == [first, discarded]


def test_verify_accepts_and_rejects():
    out, rep = cubify(B_EXAMPLE)
    assert verify(B_EXAMPLE, out, rep)
    assert verify_problems(B_EXAMPLE, out, rep) == []

    bad = replace(rep, transform=tuple(
        tuple(x + (i == j == 0) for j, x in enumerate(row))
        for i, row in enumerate(rep.transform)))
    assert not verify(B_EXAMPLE, out, bad)
    assert verify_problems(B_EXAMPLE, out, bad)

    bad = replace(rep, r_out=rep.r_out + 1)
    assert not verify(B_EXAMPLE, out, bad)

    bad = replace(rep, s_in=rep.s_in - 1)
    assert not verify(B_EXAMPLE, out, bad)


def test_verify_hand_built_transform():
    reduced = ((0, 1, 0), (1, 0, 1), (-1, 0, 2))
    ok, t = lattice_equal(reduced, B_EXAMPLE)
    assert ok
    out, rep = cubify(B_EXAMPLE)
    hand = replace(rep, transform=t)
    assert verify(B_EXAMPLE, reduced, hand)


def test_verify_problems_messages_and_order():
    out, rep = cubify(B_EXAMPLE)
    doubled = (tuple(2 * x for x in rep.transform[0]),) + rep.transform[1:]
    bad = replace(rep, transform=doubled, r_in=1, s_in=2, r_out=3, s_out=4)
    assert verify_problems(B_EXAMPLE, out, bad) == [
        "transform does not map the original to the reduced basis",
        "transform determinant is not +-1",
        "recomputed input rhombicity 126 != reported 1",
        "recomputed input norm sum 78 != reported 2",
        "recomputed output rhombicity 10 != reported 3",
        "recomputed output norm sum 8 != reported 4"]
    # a transform of the wrong shape is the only problem reported
    bad = replace(bad, transform=rep.transform[1:])
    assert verify_problems(B_EXAMPLE, out, bad) == [
        "transform shape does not match the input"]


def test_transform_problems():
    out, rep = cubify(B_EXAMPLE)
    t = rep.transform
    assert transform_problems(B_EXAMPLE, out, t) == []
    doubled = (tuple(2 * x for x in t[0]),) + t[1:]
    assert transform_problems(B_EXAMPLE, out, doubled) == [
        "transform does not map the original to the reduced basis",
        "transform determinant is not +-1"]
    # t maps the input to a doubled output: only the determinant is wrong
    twice = (tuple(2 * x for x in out.rows[0]),) + out.rows[1:]
    assert transform_problems(B_EXAMPLE, twice, doubled) == [
        "transform determinant is not +-1"]
    assert transform_problems(B_EXAMPLE, out, [r[:2] for r in t]) == [
        "transform shape does not match the input"]
