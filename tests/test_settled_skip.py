"""The driver skips a hyperplanar pass only where it would change nothing.

cubify records the transform rows a sublattice pass ended on, in norm
order, and skips the next pass when the state's rows in that order are the
same.  The skip must leave every output equal to a run that never skips; a
state reordered without changing its norm order must pass a second
_hyperplanar untouched; and on a full n = 12 draw it must actually skip.
"""

import itertools
from unittest import mock

from hypothesis import given, settings, strategies as st

from cubify import CubifyOptions, GeneratorSpec, Variant, cubifier, cubify, generate
from cubify._state import BasisState
from cubify.hyperplanar import _hyperplanar

from test_adjugate import bases

OPTION_SETS = [None] + [
    CubifyOptions(method=method, lagrange=lag, simplification=simp,
                  pre_hyperplanar=pre)
    for method, lag, simp, pre in itertools.product(
        (1, 2), Variant, Variant, (False, True))]


def _outputs(rows, options):
    reduced, report = cubify(rows, options)
    return (reduced.rows, report.transform, report.r_history, report.cycles,
            report.max_cycles_exhausted)


@settings(max_examples=150, deadline=None)
@given(rows=bases(), options=st.sampled_from(OPTION_SETS))
def test_skipping_changes_no_output(rows, options):
    skipping = _outputs(rows, options)
    # a key that equals nothing: every phase runs its pass
    with mock.patch.object(cubifier, "_norm_rows", lambda state: object()):
        assert _outputs(rows, options) == skipping


def test_skipping_changes_no_output_on_columnar_draws():
    # rows that keep their norms but not their entries are rarer at the
    # hypothesis dimensions than in these (0, 100) columnar n = 10 draws
    for seed in range(20):
        b = generate(GeneratorSpec("columnar", 10, (0, 100), seed=seed))
        skipping = _outputs(b, None)
        with mock.patch.object(cubifier, "_norm_rows", lambda state: object()):
            assert _outputs(b, None) == skipping, seed


@settings(max_examples=60, deadline=None)
@given(rows=bases(), variant=st.sampled_from(Variant), data=st.data())
def test_a_settled_state_reordered_in_its_norm_order_passes_unchanged(
        rows, variant, data):
    state = BasisState(rows)
    _hyperplanar(state, variant)
    settled = cubifier._norm_rows(state)
    # shuffle the positions, then hand each run of equal norms its old
    # relative order back: ties still break the same way
    order = data.draw(st.permutations(range(len(rows))), label="order")
    norms = sorted({state.gram[i][i] for i in order})
    for norm in norms:
        slots = [t for t, i in enumerate(order) if state.gram[i][i] == norm]
        rows_in_order = sorted(order[t] for t in slots)
        for t, i in zip(slots, rows_in_order):
            order[t] = i
    state.permute(order)
    assert cubifier._norm_rows(state) == settled
    trans = [r[:] for r in state.trans]
    gram = [r[:] for r in state.gram]
    _hyperplanar(state, variant)
    assert state.trans == trans and state.gram == gram


def test_a_full_draw_skips_a_pass():
    b = generate(GeneratorSpec("full", 12, (0, 100), seed=1_000_000))
    calls = []
    inner = cubifier._hyperplanar

    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    with mock.patch.object(cubifier, "_hyperplanar", counting):
        _, report = cubify(b)
    assert report.options.method == 2 and not report.options.pre_hyperplanar
    # method 2 runs two hyperplanar phases per cycle
    assert len(calls) < 2 * report.cycles
