"""Seeded generation and battery aggregation."""

import dataclasses
from fractions import Fraction

import pytest

import cubify.bench as bench
from cubify import (Basis, BatteryVerificationError, GenerationError,
                    GeneratorSpec, MatrixRecord, cubify, generate, lll_reduce,
                    metric_tensor, norm_sum, rhombicity, run_battery)
from cubify.lll import _lll


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(family="diagonal", dim=5)
    with pytest.raises(ValueError):
        GeneratorSpec(family="full", dim=1)
    with pytest.raises(ValueError):
        GeneratorSpec(family="full", dim=5, entry_range=(3, 3))
    # non-integers fail when the spec is built, not later in random;
    # bool does not count as an integer
    for bad in [dict(dim=2.5), dict(dim=True), dict(entry_range=(0.5, 2.5)),
                dict(entry_range=("0", "9")), dict(entry_range=(0, True)),
                dict(seed=1.0), dict(seed="1"), dict(seed=False)]:
        with pytest.raises(ValueError):
            GeneratorSpec(**{"family": "full", "dim": 5, **bad})


def test_generate_is_deterministic():
    spec = GeneratorSpec(family="full", dim=6, seed=42)
    assert generate(spec) == generate(spec)
    assert generate(spec) != generate(GeneratorSpec(family="full", dim=6, seed=43))


def test_generate_full_respects_range():
    b = generate(GeneratorSpec(family="full", dim=7, entry_range=(-5, 9), seed=3))
    assert b.dim == 7
    assert all(-5 <= x <= 9 for row in b for x in row)


def test_generate_columnar_shape():
    n = 8
    b = generate(GeneratorSpec(family="columnar", dim=n, seed=11))
    for i, row in enumerate(b):
        for j, x in enumerate(row):
            if j == n - 1:
                assert 0 <= x <= 100
            else:
                assert x == (1 if i == j else 0)
    # the corner entry doubles as the determinant, so it can never be zero
    assert b[n - 1][n - 1] != 0


def test_generate_retries_singular_draws():
    # with range (0, 1) the columnar corner entry is often 0; generation
    # must keep drawing until the matrix is invertible
    for seed in range(20):
        b = generate(GeneratorSpec(family="columnar", dim=3,
                                   entry_range=(0, 1), seed=seed))
        assert b[2][2] == 1


def test_generate_persistent_singularity(monkeypatch):
    class Zeros:
        def __init__(self, seed):
            pass

        def randint(self, lo, hi):
            return 0

    monkeypatch.setattr(bench.random, "Random", Zeros)
    with pytest.raises(GenerationError):
        generate(GeneratorSpec(family="full", dim=3, seed=0))


def test_record_factors_are_exact():
    rec = MatrixRecord(algorithm="cubify", seed=0, r_in=10, r_out=10,
                       s_in=4, s_out=4, seconds=0.0)
    assert rec.r_factor == Fraction(1) and rec.s_factor == Fraction(1)
    rec = MatrixRecord(algorithm="cubify", seed=0, r_in=21, r_out=6,
                       s_in=9, s_out=6, seconds=0.0)
    assert rec.r_factor == Fraction(7, 2) and rec.s_factor == Fraction(3, 2)


def test_run_battery_small():
    spec = GeneratorSpec(family="full", dim=4, entry_range=(-9, 9), seed=7)
    res = run_battery(spec, 3, keep_outputs=True)
    assert res.count == 3
    assert len(res.records) == 6
    assert [rec.seed for rec in res.for_algorithm("cubify")] == [7, 8, 9]
    assert res.flags == []
    for rec in res.records:
        assert rec.r_out <= rec.r_in
        assert rec.basis is not None and rec.reduced is not None
        if rec.algorithm == "cubify":
            assert rec.report is not None
        else:
            assert rec.report is None
    summary = res.summary()
    assert set(summary) == {"cubify", "lll"}
    assert summary["cubify"]["mean_r_factor"] >= 1.0

    again = run_battery(spec, 3)
    assert [(r.algorithm, r.seed, r.r_in, r.r_out, r.s_in, r.s_out)
            for r in again.records] == \
        [(r.algorithm, r.seed, r.r_in, r.r_out, r.s_in, r.s_out)
         for r in res.records]


def test_run_battery_single_algorithm():
    spec = GeneratorSpec(family="columnar", dim=4, seed=1)
    res = run_battery(spec, 2, algorithms=("lll",))
    assert {rec.algorithm for rec in res.records} == {"lll"}


def test_run_battery_validates_count():
    with pytest.raises(ValueError):
        run_battery(GeneratorSpec(family="full", dim=4, seed=0), 0)
    for count in (2.5, True):
        with pytest.raises(ValueError):
            run_battery(GeneratorSpec(family="full", dim=4, seed=0), count)


def _doubled(rows):
    return (tuple(2 * x for x in rows[0]),) + tuple(rows[1:])


def _output_off_its_transform(reduced, t):
    return Basis(_doubled(reduced.rows)), t


def _transform_with_det_two(reduced, t):
    # the output is t · input, but t (and so the output) is not unimodular
    return Basis(_doubled(reduced.rows)), _doubled(t)


def _corrupting(algorithm, corrupt):
    """(name in cubify.bench, reducer whose outputs pass through corrupt)."""
    if algorithm == "lll":
        return "_lll", lambda b, alpha: corrupt(*_lll(b, alpha))

    def bad_cubify(b, **kwargs):
        reduced, report = cubify(b, **kwargs)
        reduced, t = corrupt(reduced, report.transform)
        return reduced, dataclasses.replace(report, transform=t)

    return "cubify", bad_cubify


@pytest.mark.parametrize("corrupt, message", [
    (_output_off_its_transform, "does not map the original"),
    (_transform_with_det_two, "determinant is not +-1")])
@pytest.mark.parametrize("algorithm", ["cubify", "lll"])
def test_run_battery_rejects_an_output_its_transform_does_not_certify(
        monkeypatch, algorithm, corrupt, message):
    monkeypatch.setattr(bench, *_corrupting(algorithm, corrupt))
    spec = GeneratorSpec(family="full", dim=4, entry_range=(-9, 9), seed=7)
    with pytest.raises(BatteryVerificationError) as exc:
        run_battery(spec, 2)
    assert str(exc.value).startswith("%s failed its check on seed 7: "
                                     % algorithm)
    assert message in str(exc.value)


def test_measure_names_the_input_without_a_seed(monkeypatch):
    monkeypatch.setattr(bench, *_corrupting("lll", _output_off_its_transform))
    b = generate(GeneratorSpec(family="full", dim=3, seed=0))
    with pytest.raises(BatteryVerificationError,
                       match="^lll failed its check on the input: "):
        bench.measure(b)


def test_measure_records_carry_the_outputs():
    b = generate(GeneratorSpec(family="columnar", dim=5, seed=3))
    cub, lll = bench.measure(b, seed=3)
    assert (cub.algorithm, lll.algorithm) == ("cubify", "lll")
    assert cub.seed == lll.seed == 3
    assert cub.basis is lll.basis is b
    assert lll.reduced == lll_reduce(b) and lll.report is None
    reduced, report = cubify(b)
    assert cub.reduced == reduced and cub.report.transform == report.transform
    for rec in (cub, lll):
        m = metric_tensor(rec.reduced)
        assert (rec.r_out, rec.s_out) == (rhombicity(m), norm_sum(m))
