"""The driver skips a hyperplanar pass only where it would change nothing.

cubify runs method 2's opening pass in the first cycle only, and skips a
cycle's closing pass when the directional phase left the transform rows,
in norm order, as it found them.  Every output must equal that of a
reference loop that runs every phase of every cycle; a state reordered
without changing its norm order must pass a second _hyperplanar untouched;
and on full n = 12 draws the closing pass must actually be skipped.
"""

import itertools
from unittest import mock

from hypothesis import assume, given, settings, strategies as st

from cubify import CubifyOptions, GeneratorSpec, Variant, cubifier, cubify, generate
from cubify._state import BasisState
from cubify.directional import _lagrange, _simplify
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


def reference_outputs(rows, options):
    """_outputs of a cycle loop that runs every phase and skips nothing:

      method 1:  sort -> directional -> hyperplanar
      method 2:  sort -> hyperplanar -> directional -> hyperplanar

    in every cycle, after the pre-pass if the options ask for one.
    """
    if options is None:
        options = cubifier.default_options(cubifier.classify(rows))
    state = BasisState(rows)
    if options.pre_hyperplanar:
        _hyperplanar(state, options.lagrange, reduce_sublattice=False)
    r_history = [state.r]
    exhausted = False
    while True:
        keep = state.copy()
        state.sort_by_norm()
        if options.method == 2:
            _hyperplanar(state, options.lagrange)
        _lagrange(state, options.lagrange)
        _simplify(state, options.simplification)
        _hyperplanar(state, options.lagrange)
        r_history.append(state.r)
        if r_history[-1] >= r_history[-2]:
            state = keep
            break
        if len(r_history) - 1 >= options.max_cycles:
            exhausted = True
            break
    return (tuple(map(tuple, state.rows)), tuple(map(tuple, state.trans)),
            r_history, len(r_history) - 1, exhausted)


def _directionally_reduced(rows, options):
    """rows after directional phases until one takes no step, or None."""
    opts = options or cubifier.default_options(cubifier.classify(rows))
    state = BasisState(rows)
    for _ in range(20):
        trans = [r[:] for r in state.trans]
        state.sort_by_norm()
        _lagrange(state, opts.lagrange)
        _simplify(state, opts.simplification)
        if state.trans == trans:
            return state.rows
    return None


@settings(max_examples=250, deadline=None)
@given(rows=bases(), options=st.sampled_from(OPTION_SETS),
       reduced=st.booleans())
def test_skipping_changes_no_output(rows, options, reduced):
    if reduced:
        # rows a directional phase leaves as they are: without a pre-pass,
        # method 1's first cycle runs its pass only by the first-cycle rule
        rows = _directionally_reduced(rows, options)
        assume(rows is not None)
    assert _outputs(rows, options) == reference_outputs(rows, options)


def test_skipping_changes_no_output_on_columnar_draws():
    # rows that keep their norms but not their entries are rarer at the
    # hypothesis dimensions than in these (0, 100) columnar n = 10 draws
    for seed in range(20):
        b = generate(GeneratorSpec("columnar", 10, (0, 100), seed=seed))
        assert _outputs(b, None) == reference_outputs(b.rows, None), seed


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
    calls = []
    inner = cubifier._hyperplanar

    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    unskipped = 0
    for i in range(10):
        b = generate(GeneratorSpec("full", 12, (0, 100), seed=1_000_000 + i))
        before = len(calls)
        with mock.patch.object(cubifier, "_hyperplanar", counting):
            _, report = cubify(b)
        assert report.options.method == 2 and not report.options.pre_hyperplanar
        # the reference loop runs two hyperplanar phases per cycle; the
        # driver runs the opening one in the first cycle only
        assert len(calls) - before <= report.cycles + 1 < 2 * report.cycles
        unskipped += report.cycles + 1
    # and skips some closing passes
    assert len(calls) < unskipped
