"""Shear construction and the screening pass."""

import random
from fractions import Fraction

import pytest

from cubify import (Basis, Variant, directional_reduction, dot, hyperplane_normal,
                    hyperplanar_pass, lattice_equal, metric_tensor, rhombicity,
                    solve_in_sublattice)
from cubify._state import BasisState, Candidate
from cubify.directional import _lagrange
from cubify.exact import _adjugate
from cubify.hyperplanar import _hyperplanar, _shear_coeffs

from _helpers import random_basis, random_unimodular
from conftest import B_EXAMPLE


def shear(isolated, sub):
    """isolated sheared by the pass's kernel over the rows of sub.

    The coefficients are read off a Candidate of sub + [isolated] made
    from the basis's state and applied through replace, as the pass
    does once it accepts a shear; the candidate is replayed and the
    state's adjugate checked against a fresh one.
    """
    state = BasisState(list(sub) + [isolated])
    state.adjugate()
    m = len(sub)
    cand = Candidate(state, m, state.r)
    for c, t in zip(_shear_coeffs(cand.arow, m), range(m)):
        if c:
            cand.replace(m, c, t)
    cand.replay(state, list(range(m + 1)))
    assert state.consistent()
    assert state.adj == _adjugate(state.gram)
    assert state.rows[:m] == [list(v) for v in sub]
    return tuple(state.row(m))


def test_shear_orthogonal_sublattice():
    assert shear((5, 1, 0), ((0, 1, 0), (0, 0, 1))) == (5, 0, 0)


def test_shear_vector_already_at_foot():
    # the isolated vector is orthogonal to the hyperplane: nothing to do
    assert shear((0, 0, 3), ((1, 0, 0), (0, 1, 0))) == (0, 0, 3)


def test_shear_small_shift():
    # foot at (0, 0), one whole step of (1, 0) brings (3, 2) to (0, 2)... the
    # normal to [1, 0] is [0, 1], the layer is y = 2, nearest layer point to
    # the foot (0, 2) among (3 + k, 2) is (0, 2)
    assert shear((3, 2), ((1, 0),)) == (0, 2)


def test_shear_membership_and_layer():
    rng = random.Random(211)
    done = 0
    while done < 80:
        n = rng.randrange(2, 7)
        b = random_basis(n, rng, lo=-7, hi=7)
        iso = b.rows[-1]
        sub = b.rows[:-1]
        out = shear(iso, sub)
        p = hyperplane_normal(sub)
        # layer invariance
        assert dot(p, out) == dot(p, iso)
        # the shift is an integer combination of the sublattice
        cols = [[v[i] for v in sub] for i in range(n)]
        gap = [o - x for o, x in zip(out, iso)]
        coeffs = solve_in_sublattice(cols, gap)
        assert all(c.denominator == 1 for c in coeffs)
        # residual coordinates of the remaining gap stay within half a step
        foot_gap = [Fraction(dot(p, iso) * pc, dot(p, p)) - oc
                    for pc, oc in zip(p, out)]
        resid = solve_in_sublattice(cols, foot_gap)
        assert all(abs(c) <= Fraction(1, 2) for c in resid)
        done += 1


def test_shear_one_dim_sublattice_is_closest_by_enumeration():
    rng = random.Random(223)
    done = 0
    while done < 80:
        v = (rng.randint(-6, 6), rng.randint(-6, 6))
        x = (rng.randint(-9, 9), rng.randint(-9, 9))
        if v[0] * x[1] == v[1] * x[0]:
            # the pass only shears rows of a nonsingular basis
            continue
        out = shear(x, (v,))
        out_n = dot(out, out)
        best = min(dot(c, c) for c in
                   [tuple(a + z * b for a, b in zip(x, v))
                    for z in range(-6, 7)])
        assert out_n <= best
        done += 1


def reduce_sublattice(rows, m, variant=Variant.INSERT):
    """rows[:m] after the pass's sublattice step, with rows[m:] checked.

    Sweeps rows[:m] in norm order with _lagrange on a BasisState of the
    full basis, as the pass does before it shears row m, and then moves
    them into the order the sweeps left them in.
    """
    state = BasisState(rows)
    order = [t for t in state.norm_order() if t < m]
    _lagrange(state, variant, order)
    state.permute(order + list(range(m, len(rows))))
    assert state.consistent()
    assert state.rows[m:] == [list(r) for r in rows[m:]]
    return [tuple(r) for r in state.rows[:m]]


def test_sublattice_reduce_example():
    rows = ((1, 0, 0), (3, 1, 0), (0, 0, 1))
    for variant in Variant:
        assert (0, 1, 0) in reduce_sublattice(rows, 2, variant)


def test_sublattice_reduce_single_vector():
    rows = ((4, 5, 6), (0, 1, 0), (0, 0, 1))
    for variant in Variant:
        assert reduce_sublattice(rows, 1, variant) == [(4, 5, 6)]


def test_sublattice_reduce_same_span():
    rng = random.Random(227)
    done = 0
    while done < 40:
        n = rng.randrange(3, 7)
        b = random_basis(n, rng, lo=-6, hi=6)
        sub = b.rows[:-1]
        out = reduce_sublattice(b.rows, n - 1,
                                Variant.APPEND if done % 2 else Variant.INSERT)
        # mutual integer expressibility
        for vin, vout_set in ((sub, out), (out, sub)):
            cols = [[v[i] for v in vout_set] for i in range(n)]
            for v in vin:
                coeffs = solve_in_sublattice(cols, v)
                assert all(c.denominator == 1 for c in coeffs)
        done += 1


def test_pass_after_directional_on_worked_example():
    d = directional_reduction(B_EXAMPLE, Variant.INSERT, Variant.INSERT)
    out = hyperplanar_pass(d)
    assert rhombicity(metric_tensor(out)) <= 10
    ok, _ = lattice_equal(B_EXAMPLE, out)
    assert ok


def test_pass_orthogonal_fixed_point():
    b = ((3, 0, 0), (0, 2, 0), (0, 0, 5))
    trace = []
    assert hyperplanar_pass(b, trace=trace).rows == b
    assert trace == []


def test_pass_reduces_and_preserves_lattice():
    rng = random.Random(229)
    for trial in range(30):
        n = rng.randrange(2, 7)
        scr = random_unimodular(n, rng)
        trace = []
        out = hyperplanar_pass(scr, trace=trace)
        ok, _ = lattice_equal(scr, out)
        assert ok
        assert rhombicity(metric_tensor(out)) <= rhombicity(metric_tensor(scr))
        for rec in trace:
            assert dot(rec.normal, rec.before) == dot(rec.normal, rec.after)


def test_pass_idempotent():
    rng = random.Random(233)
    for _ in range(15):
        n = rng.randrange(2, 6)
        b = random_basis(n, rng, lo=-6, hi=6)
        once = hyperplanar_pass(b)
        assert hyperplanar_pass(once) == once


def test_pass_without_sublattice_reduction():
    rng = random.Random(239)
    for _ in range(15):
        n = rng.randrange(2, 6)
        scr = random_unimodular(n, rng)
        out = hyperplanar_pass(scr, reduce_sublattice=False)
        ok, _ = lattice_equal(scr, out)
        assert ok
        assert rhombicity(metric_tensor(out)) <= rhombicity(metric_tensor(scr))


@pytest.mark.parametrize("reduce_sublattice", [True, False])
@pytest.mark.parametrize("variant", list(Variant))
def test_trace_normal_is_the_accepted_sublattice_normal(
        monkeypatch, variant, reduce_sublattice):
    # the record's normal comes from the pass's adjugate; it must be the
    # primitive normal of the rows the state keeps before the sheared one
    # once the accepted candidate is replayed into it, which the pass
    # finishes before it appends the record
    replays = []
    replay = Candidate.replay

    def counting(self, state, order):
        replays.append(self)
        replay(self, state, order)

    monkeypatch.setattr(Candidate, "replay", counting)

    class Adopted(list):
        """Keeps the state's rows at each record the pass appends."""

        def __init__(self):
            super().__init__()
            self.rows = []

        def append(self, rec):
            super().append(rec)
            self.rows.append(state.rows)

    rng = random.Random(241)
    records = 0
    for _ in range(12):
        n = rng.randrange(2, 8)
        b = random_basis(n, rng, lo=-30, hi=30)
        expected = hyperplanar_pass(b, variant,
                                    reduce_sublattice=reduce_sublattice)
        state = BasisState(b)
        trace = Adopted()
        replays.clear()
        _hyperplanar(state, variant, reduce_sublattice=reduce_sublattice,
                     trace=trace)
        assert Basis(state.rows) == expected
        assert len(trace) == len(replays) == len(trace.rows)
        for rec, rows in zip(trace, trace.rows):
            assert rec.normal == hyperplane_normal(rows[:-1])
            assert rec.after == tuple(rows[-1])
            assert dot(rec.normal, rec.before) == dot(rec.normal, rec.after)
        records += len(trace)
    assert records >= 20
