"""The adjugate a BasisState keeps must stay exact from one pass to the next.

From its first adjugate() call on, a BasisState logs its steps, and the
next call applies the log to the stored adjugate (_replay), so that one
fraction-free solve serves a whole cubify run.  After any run of replace,
negate, permute, _lagrange and _simplify steps, the replayed adjugate must
equal a fresh one; the composed replay must match the plain step-by-step
loop below; every adjugate a pass reads, and the one it leaves, must be
exact; and a run must solve only once.
"""

import itertools
from unittest import mock

from hypothesis import given, settings, strategies as st

from cubify import CubifyOptions, GeneratorSpec, Variant, cubifier, cubify, generate
from cubify import _state
from cubify._state import BasisState, _replay, _reordered
from cubify.directional import _lagrange, _simplify
from cubify.exact import _adjugate

from test_adjugate import bases

OPTION_SETS = [None] + [
    CubifyOptions(method=method, lagrange=lag, simplification=simp,
                  pre_hyperplanar=pre)
    for method, lag, simp, pre in itertools.product(
        (1, 2), Variant, Variant, (False, True))]


def stepwise_replay(log, adj, trans):
    """The plain replay loop: each step applied to adj and trans in turn.

    This is Candidate.replay's loop before permutes were composed into one
    reorder, with a negate branch that flips row and column idx.
    """
    t = trans
    for op, *args in log:
        if op == "replace":
            idx, k, src = args
            t[idx] = [x + k * y for x, y in zip(t[idx], t[src])]
            adj[src] = [x - k * y for x, y in zip(adj[src], adj[idx])]
            for row in adj:
                row[src] -= k * row[idx]
        elif op == "negate":
            (idx,) = args
            t[idx] = [-x for x in t[idx]]
            adj[idx] = [-x for x in adj[idx]]
            for row in adj:
                row[idx] = -row[idx]
        else:
            (order,) = args
            t[:] = [t[i] for i in order]
            adj[:] = _reordered(adj, order)


def _logged_steps(draw, state):
    """Run drawn state steps with the log on; returns the log."""
    state.log = []
    _steps(draw, state)
    return state.log


def _steps(draw, state):
    """Run drawn replace, negate, permute, _lagrange and _simplify steps."""
    n = len(state.gram)
    for _ in range(draw(st.integers(1, 8), label="steps")):
        kind = draw(st.sampled_from(("replace", "negate", "permute",
                                     "lagrange", "simplify")), label="kind")
        if kind == "replace":
            idx, src = draw(st.permutations(range(n)), label="rows")[:2]
            state.replace(idx, draw(st.integers(-3, 3), label="k"), src)
        elif kind == "negate":
            state.negate(draw(st.integers(0, n - 1), label="idx"))
        elif kind == "permute":
            state.permute(draw(st.permutations(range(n)), label="order"))
        elif kind == "lagrange":
            # every row, or some rows in a drawn sweep order
            order = draw(st.permutations(range(n)), label="order")
            order = order[:draw(st.integers(1, n), label="m")]
            _lagrange(state, draw(st.sampled_from(Variant), label="variant"),
                      order if draw(st.booleans(), label="ordered") else None)
        else:
            # as the driver runs it: on pairs whose quotients are all zero,
            # where single steps cannot take long
            _lagrange(state, draw(st.sampled_from(Variant), label="variant"))
            _simplify(state, draw(st.sampled_from(Variant), label="variant"))


@settings(max_examples=100, deadline=None)
@given(rows=bases(st.integers(2, 8)), data=st.data())
def test_replayed_log_gives_a_fresh_adjugate(rows, data):
    state = BasisState(rows)
    adj = _adjugate(state.gram)
    trans = [r[:] for r in state.trans]
    log = _logged_steps(data.draw, state)
    _replay(log, adj)
    assert adj == _adjugate(state.gram)
    _replay(log, _adjugate(BasisState(rows).gram), trans)
    assert trans == state.trans


@settings(max_examples=100, deadline=None)
@given(rows=bases(st.integers(2, 8)), data=st.data())
def test_composed_replay_matches_the_stepwise_loop(rows, data):
    state = BasisState(rows)
    adj = _adjugate(state.gram)
    trans = [r[:] for r in state.trans]
    log = _logged_steps(data.draw, state)
    composed = ([r[:] for r in adj], [r[:] for r in trans])
    _replay(log, *composed)
    stepwise_replay(log, adj, trans)
    assert composed == (adj, trans)


@settings(max_examples=100, deadline=None)
@given(rows=bases(st.integers(2, 8)), data=st.data())
def test_a_state_solves_for_its_adjugate_once(rows, data):
    solves = []
    solve = _state._adjugate

    def counting(gram):
        solves.append(gram)
        return solve(gram)

    state = BasisState(rows)
    with mock.patch.object(_state, "_adjugate", counting):
        for _ in range(data.draw(st.integers(1, 4), label="calls")):
            _steps(data.draw, state)
            assert state.adjugate() == _adjugate(state.gram)
            assert state.log == []
        assert len(solves) == 1
        copy = state.copy()
        assert copy.adj is None and copy.log is None
        _steps(data.draw, copy)
        assert copy.adjugate() == _adjugate(copy.gram)
        assert len(solves) == 2
        # the copy's steps reach neither the state's adjugate nor its log
        _steps(data.draw, state)
        assert state.adjugate() == _adjugate(state.gram)
    assert len(solves) == 2


def _checked_passes(solved):
    """Stand-ins for BasisState.adjugate and cubifier._hyperplanar that
    record whether each adjugate() call solves and check the adjugate a
    pass reads and the one it leaves against fresh ones."""
    adjugate, run_pass = BasisState.adjugate, cubifier._hyperplanar

    def checked_adjugate(state):
        solved.append(state.adj is None)
        adj = adjugate(state)
        assert adj == _adjugate(state.gram)
        return adj

    def checked_pass(state, *args, **kwargs):
        run_pass(state, *args, **kwargs)
        if len(state.gram) > 1:
            assert state.adj == _adjugate(state.gram)
    return checked_adjugate, checked_pass


@settings(max_examples=120, deadline=None)
@given(rows=bases(), options=st.sampled_from(OPTION_SETS))
def test_every_pass_is_handed_an_exact_adjugate(rows, options):
    solved = []
    checked_adjugate, checked_pass = _checked_passes(solved)
    with mock.patch.object(BasisState, "adjugate", checked_adjugate), \
            mock.patch.object(cubifier, "_hyperplanar", checked_pass):
        cubify(rows, options)
    if len(rows) > 1:
        # only the first pass solves; every later one gets the carry
        assert solved[0]
        assert not any(solved[1:])


def test_a_full_draw_solves_once_per_run():
    b = generate(GeneratorSpec("full", 12, (0, 100), seed=1_000_000))
    solves, passes = [], []
    solve, run_pass = _state._adjugate, cubifier._hyperplanar

    def counting_solve(gram):
        solves.append(gram)
        return solve(gram)

    def counting_pass(*args, **kwargs):
        passes.append(args)
        return run_pass(*args, **kwargs)

    with mock.patch.object(_state, "_adjugate", counting_solve), \
            mock.patch.object(cubifier, "_hyperplanar", counting_pass):
        cubify(b)
    assert len(passes) >= 2
    assert len(solves) == 1
