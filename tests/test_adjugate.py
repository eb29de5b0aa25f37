"""The state's row operations and the adjugate they carry must stay exact.

BasisState.adj is det(G)·G⁻¹ of the working metric tensor.  permute, swap,
negate and replace (and so the division steps of _lagrange) update it in
place instead of recomputing it; after any sequence of them it must equal
a fresh adjugate, satisfy gram·adj == det(G)·I, and det(G) must not have
moved.  pair_r must predict both replaces a simplification step chooses
between, and a replace must undo exactly.  A
Candidate, which carries a single adjugate row, must follow the state it
was made from step for step and replay into it exactly.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from cubify import Variant, det
from cubify import hyperplanar
from cubify._state import BasisState, Candidate, _reordered
from cubify.directional import _lagrange
from cubify.exact import _adjugate
from cubify.hyperplanar import _hyperplanar

SMALL = st.integers(-9, 9)
BIG = st.builds(lambda sign, mag: sign * mag, st.sampled_from((1, -1)),
                st.integers(10 ** 100, 10 ** 110))
ENTRIES = {"small": SMALL, "big": BIG}


@st.composite
def bases(draw, dims=st.integers(1, 8)):
    n = draw(dims)
    entry = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    assume(det(rows) != 0)
    return rows


def _random_step(draw, state):
    n = len(state.gram)
    kind = draw(st.sampled_from(("permute", "swap", "negate", "replace",
                                 "lagrange")))
    if kind == "permute":
        state.permute(draw(st.permutations(range(n))))
    elif kind == "swap":
        state.swap(draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
    elif kind == "negate":
        state.negate(draw(st.integers(0, n - 1)))
    elif kind == "replace" and n > 1:
        idx, src = draw(st.permutations(range(n)))[:2]
        state.replace(idx, draw(st.integers(-3, 3)), src)
    elif kind == "lagrange":
        _lagrange(state, draw(st.integers(1, n)), draw(st.sampled_from(Variant)))


def assert_exact(state, g):
    n = len(state.gram)
    assert state.adj == _adjugate(state.gram)
    assert det(state.gram) == g
    for a in range(n):
        assert [sum(state.gram[a][t] * state.adj[t][b] for t in range(n))
                for b in range(n)] == [g * (a == b) for b in range(n)]
    assert state.consistent()


@settings(max_examples=80, deadline=None)
@given(rows=bases(), data=st.data())
def test_carried_adjugate_matches_a_fresh_one(rows, data):
    state = BasisState(rows)
    state.adj = _adjugate(state.gram)
    g = det(state.gram)
    assert g > 0
    for _ in range(data.draw(st.integers(1, 6), label="steps")):
        _random_step(data.draw, state)
        assert_exact(state, g)


def test_consistent_checks_the_adjugate():
    state = BasisState([[2, 1, 0], [0, 3, 1], [1, 0, 4]])
    assert state.consistent()
    state.adj = _adjugate(state.gram)
    assert state.consistent()
    state.adj[0][1] += 1
    assert not state.consistent()


def _snapshot(state):
    return ([r[:] for r in state.trans], [r[:] for r in state.gram],
            state.r, state.s, [r[:] for r in state.adj])


@settings(max_examples=80, deadline=None)
@given(rows=bases(st.integers(2, 8)), data=st.data())
def test_pair_r_predicts_replace_and_replace_undoes(rows, data):
    state = BasisState(rows)
    state.adj = _adjugate(state.gram)
    u, v = data.draw(st.permutations(range(len(rows))), label="rows")[:2]
    s = data.draw(st.sampled_from((1, -1)), label="s")
    k = data.draw(st.integers(-5, 5), label="k")
    before = _snapshot(state)
    predicted = state.pair_r(u, v, s)
    assert _snapshot(state) == before
    for (idx, src), r in zip(((u, v), (v, u)), predicted):
        state.replace(idx, -s, src)
        assert state.r == r
        assert_exact(state, det(before[1]))
        state.replace(idx, s, src)
        assert _snapshot(state) == before
    state.replace(u, k, v)
    assert_exact(state, det(before[1]))
    state.replace(u, -k, v)
    assert _snapshot(state) == before


@pytest.mark.parametrize("reduce_sublattice", [True, False])
@pytest.mark.parametrize("variant", list(Variant))
@settings(max_examples=25, deadline=None)
@given(rows=bases(st.integers(2, 6)))
def test_pass_reads_an_exact_adjugate_at_every_screening(
        rows, reduce_sublattice, variant):
    # every screening starts a Candidate from the state and shears it
    # through replace; an accepted one is replayed into the state.  Check
    # the state at every screening start and after every replay, and the
    # candidate's adjugate row at every shear read and every replace
    cands, replays = [], []
    init, replace, replay = (Candidate.__init__, Candidate.replace,
                             Candidate.replay)

    def exact_row(cand):
        return cand.arow == _adjugate(cand.gram)[cand.pos]

    def checked_init(self, state, pos):
        assert state.adj is not None and state.consistent()
        init(self, state, pos)
        assert exact_row(self)
        cands.append(self)

    def checked_shear(arow, i):
        cand = cands[-1]
        assert arow is cand.arow and i == cand.pos
        assert exact_row(cand)
        return shear(arow, i)

    def checked_replace(self, idx, k, src):
        assert exact_row(self)
        replace(self, idx, k, src)

    def checked_replay(self, state):
        replay(self, state)
        assert state.consistent()
        replays.append(self)

    shear = hyperplanar._shear_coeffs
    state = BasisState(rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Candidate, "__init__", checked_init)
        mp.setattr(Candidate, "replace", checked_replace)
        mp.setattr(Candidate, "replay", checked_replay)
        mp.setattr(hyperplanar, "_shear_coeffs", checked_shear)
        _hyperplanar(state, variant, reduce_sublattice=reduce_sublattice)
    # one screening per row after the last acceptance, at least
    assert len(cands) >= len(rows) + len(replays)
    assert state.adj is None
    assert state.consistent()


@settings(max_examples=80, deadline=None)
@given(rows=bases(st.integers(2, 8)), data=st.data())
def test_candidate_follows_the_state_it_was_made_from(rows, data):
    # a Candidate and a copy of its state, with adj set, run the same steps;
    # the candidate must match the copy's gram, r, s and adjugate row at
    # pos, and replaying it must turn its state into the copy
    n = len(rows)
    state = BasisState(rows)
    state.adj = _adjugate(state.gram)
    ref = state.copy()
    cand = Candidate(state, data.draw(st.integers(0, n - 1), label="pos"))
    for _ in range(data.draw(st.integers(1, 8), label="steps")):
        kind = data.draw(st.sampled_from(("replace", "swap", "permute",
                                          "lagrange")), label="kind")
        if kind == "replace":
            # the one step a Candidate refuses is src == pos
            src = data.draw(st.sampled_from(
                [t for t in range(n) if t != cand.pos]), label="src")
            idx = data.draw(st.sampled_from(
                [t for t in range(n) if t != src]), label="idx")
            k = data.draw(st.integers(-3, 3), label="k")
            step = lambda s: s.replace(idx, k, src)
        elif kind == "swap":
            a = data.draw(st.integers(0, n - 1), label="a")
            b = data.draw(st.integers(0, n - 1), label="b")
            step = lambda s: s.swap(a, b)
        elif kind == "permute":
            order = data.draw(st.permutations(range(n)), label="order")
            step = lambda s: s.permute(order)
        elif cand.pos == n - 1:
            # the pass's use: a sublattice Lagrange over the rows before pos
            variant = data.draw(st.sampled_from(Variant), label="variant")
            step = lambda s: _lagrange(s, n - 1, variant)
        else:
            continue
        step(ref)
        step(cand)
        assert (cand.gram, cand.r, cand.s) == (ref.gram, ref.r, ref.s)
        assert cand.arow == ref.adj[cand.pos] == _adjugate(cand.gram)[cand.pos]
    cand.replay(state)
    assert state.consistent()
    assert (state.trans, state.gram, state.r, state.s, state.adj) == (
        ref.trans, ref.gram, ref.r, ref.s, ref.adj)


def test_reordered_takes_rows_and_columns_in_order():
    m = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    assert _reordered(m, [1]) == [[5]]
    assert _reordered(m, [2, 0]) == [[9, 7], [3, 1]]
    assert _reordered(m, (0, 2)) == [[1, 3], [7, 9]]
    assert _reordered([[4]], [0]) == [[4]]
    assert m == [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
