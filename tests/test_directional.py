"""Division and simplification sweeps: frozen examples and sweep invariants."""

import random

import pytest

from cubify import (GeneratorSpec, Variant, directional_reduction, generate,
                    lagrange_division, lattice_equal, metric_tensor, norm_sum,
                    rhombicity, simplification)
from cubify._state import BasisState, _axpy
from cubify.directional import _lagrange, _simplify

from _helpers import random_basis, random_unimodular, shortest_norm_in_box
from conftest import B_EXAMPLE

VARIANTS = (Variant.APPEND, Variant.INSERT)


def test_lagrange_two_dim_example():
    for variant in VARIANTS:
        out = lagrange_division(((1, 0), (3, 1)), variant)
        assert (0, 1) in out.rows
        ok, _ = lattice_equal(((1, 0), (3, 1)), out)
        assert ok


def test_lagrange_orthogonal_unchanged():
    b = ((2, 0, 0), (0, 3, 0), (0, 0, 5))
    for variant in VARIANTS:
        assert lagrange_division(b, variant).rows == b


def test_lagrange_worked_example():
    out = lagrange_division(B_EXAMPLE, Variant.INSERT)
    assert rhombicity(metric_tensor(out)) <= 10
    ok, _ = lattice_equal(B_EXAMPLE, out)
    assert ok


def test_lagrange_accepts_variant_strings():
    assert lagrange_division(((1, 0), (3, 1)), "append") == \
        lagrange_division(((1, 0), (3, 1)), Variant.APPEND)


def test_lagrange_fixpoint_property():
    rng = random.Random(101)
    for trial in range(60):
        n = rng.randrange(2, 7)
        b = random_basis(n, rng)
        variant = VARIANTS[trial % 2]
        out = lagrange_division(b, variant)
        g = metric_tensor(out)
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert 2 * abs(g[i][j]) <= g[i][i], (trial, i, j)
        ok, _ = lattice_equal(b, out)
        assert ok
        # every applied division step strictly shrinks a squared norm
        assert norm_sum(g) <= norm_sum(metric_tensor(b))


def test_lagrange_idempotent():
    rng = random.Random(103)
    for trial in range(20):
        b = random_basis(rng.randrange(2, 6), rng)
        variant = VARIANTS[trial % 2]
        once = lagrange_division(b, variant)
        assert lagrange_division(once, variant) == once


def test_lagrange_two_dim_shortest_vector_oracle():
    rng = random.Random(107)
    for trial in range(40):
        b = random_basis(2, rng, lo=-9, hi=9)
        out = lagrange_division(b, VARIANTS[trial % 2])
        shortest = min(sum(x * x for x in row) for row in out.rows)
        assert shortest <= shortest_norm_in_box(list(b.rows), 5)


def test_simplification_example():
    for variant in VARIANTS:
        out = simplification(((1, 0), (1, 1)), variant)
        assert sorted(out.rows) == [(0, 1), (1, 0)]


def test_simplification_orthogonal_unchanged():
    b = ((2, 0), (0, 3))
    for variant in VARIANTS:
        assert simplification(b, variant).rows == b


def test_simplification_never_raises_rhombicity():
    rng = random.Random(109)
    for trial in range(40):
        b = random_basis(rng.randrange(2, 7), rng)
        r_in = rhombicity(metric_tensor(b))
        out = simplification(b, VARIANTS[trial % 2])
        assert rhombicity(metric_tensor(out)) <= r_in
        ok, _ = lattice_equal(b, out)
        assert ok


def test_simplification_fixpoint():
    rng = random.Random(113)
    for trial in range(20):
        b = random_basis(rng.randrange(2, 6), rng)
        variant = VARIANTS[trial % 2]
        once = simplification(b, variant)
        assert simplification(once, variant) == once


def test_directional_worked_example():
    out = directional_reduction(B_EXAMPLE, Variant.INSERT, Variant.INSERT)
    assert rhombicity(metric_tensor(out)) <= 10
    ok, _ = lattice_equal(B_EXAMPLE, out)
    assert ok


def test_directional_all_variant_pairs():
    rng = random.Random(127)
    for lv in VARIANTS:
        for sv in VARIANTS:
            for _ in range(8):
                n = rng.randrange(2, 6)
                scr = random_unimodular(n, rng)
                out = directional_reduction(scr, lv, sv)
                ok, _ = lattice_equal(scr, out)
                assert ok
                assert rhombicity(metric_tensor(out)) <= \
                    rhombicity(metric_tensor(scr))


def test_sweep_state_stays_consistent():
    # the incrementally maintained metric, rhombicity, norm sum and transform
    # must agree with a from-scratch recomputation after the sweeps; the
    # rows are rebuilt by hand from the transform and the input
    rng = random.Random(131)
    for trial in range(30):
        n = rng.randrange(2, 7)
        b = random_basis(n, rng)
        state = BasisState(b.rows)
        _lagrange(state, n, VARIANTS[trial % 2])
        _simplify(state, VARIANTS[(trial + 1) % 2])
        assert state.consistent()
        recon = [[sum(t * x for t, x in zip(trow, col))
                  for col in zip(*b.rows)] for trow in state.trans]
        assert [list(r) for r in metric_tensor(recon)] == state.gram


def test_singular_input_rejected():
    with pytest.raises(Exception):
        lagrange_division(((1, 2), (2, 4)))


class _Unbounded(Exception):
    """A sweep took more steps than its test allows."""


def _mutant_replace(budget):
    """BasisState.replace with the new norm formed as dots[idx] +
    k·dots[idx]; raises _Unbounded on call number budget + 1."""
    calls = 0

    def replace(self, idx, k, src):
        nonlocal calls
        calls += 1
        if calls > budget:
            raise _Unbounded
        g = self.gram
        dots = _axpy(g[idx], k, g[src])
        dots[idx] += k * dots[idx]
        self.trans[idx] = _axpy(self.trans[idx], k, self.trans[src])
        g[idx] = dots
        for row, x in zip(g, dots):
            row[idx] = x

    return replace


@pytest.mark.parametrize("family, n, entries", [
    ("full", 10, (0, 100)), ("columnar", 4, (0, 10 ** 30))])
@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("variant", VARIANTS)
def test_a_broken_gram_update_fails_the_sweep(monkeypatch, family, n, entries,
                                              seed, variant):
    # each division step must shorten the row it replaces, so a wrong norm
    # fails an assert instead of sweeping on without end
    state = BasisState(generate(GeneratorSpec(family, n, entries, seed)).rows)
    monkeypatch.setattr(BasisState, "replace", _mutant_replace(10_000))
    with pytest.raises(AssertionError):
        _lagrange(state, n, variant)
